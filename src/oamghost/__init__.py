"""Thermal ghost imaging in the orbital-angular-momentum basis.

Laguerre-Gaussian mode rasters, Gaussian-Schell spiral spectra, two-beam
correlation states (separability and geometric discord), and the resulting
ghost-image synthesis, plus a CLI that emits CSV/PGM/OAMF artifacts.

The public surface is every name in the four library modules' __all__ lists,
plus the verification entry points and the version.
"""

from . import field_grid, quantum_correlations, spiral_imaging, thermal_source
from .field_grid import *
from .quantum_correlations import *
from .spiral_imaging import *
from .thermal_source import *
from .verify import CheckResult, SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    *field_grid.__all__,
    *quantum_correlations.__all__,
    *spiral_imaging.__all__,
    *thermal_source.__all__,
    "CheckResult",
    "SUITES",
    "run_suite",
    "__version__",
]
