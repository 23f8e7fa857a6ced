"""Thermal ghost imaging in the orbital-angular-momentum basis.

Laguerre-Gaussian mode rasters, Gaussian-Schell spiral spectra, two-beam
correlation states (separability and geometric discord), and the resulting
ghost-image synthesis, plus a CLI that emits CSV/PGM/OAMF artifacts.

The public surface is every name in the four library modules' __all__ lists,
plus the verification entry points and the version.

When this package is the first to import numpy (the `oamghost` console script,
`python -m oamghost.cli`), OpenBLAS is loaded with one thread. Its idle worker
spins for about 0.1 s of CPU per process, and no command makes products large
enough to gain wall time from it: on a 2-vCPU x86-64 host `verify --suite
mode-math` took 0.66-0.70 s with one thread and 0.79-0.89 s with two, and
`oracle-csd --grid 256` 0.17 s with one, 0.20 s with two (README, "Threads").
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS set by the user win,
and a host that imported numpy first is left as it is.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
    name in _os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
