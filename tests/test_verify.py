"""The mode-math suite's round-trip Gram matrix: its failing path, and against a brute-force Gram."""

import numpy as np
import pytest

from oamghost.field_grid import BeamSpec, ModeClippedWarning, ModeIndex, default_grid, iter_lg_rasters
from oamghost.verify import _round_trip_gram, suite_mode_math


def _orthonormality(results):
    (check,) = [r for r in results if r.name == "orthonormality"]
    return check


def test_mode_math_fails_on_an_undersampled_window():
    with pytest.warns(ModeClippedWarning):
        check = _orthonormality(suite_mode_math(side_points=32))
    assert not check.passed
    assert check.detail == "max |Gram - I| = 2.523e-01 over 126 modes (tol 1e-3)"


def test_mode_math_passes_on_an_odd_window():
    results = suite_mode_math(side_points=111)
    assert all(r.passed for r in results), [r.line() for r in results]


def test_round_trip_gram_matches_the_brute_force_gram():
    # On 48^2 the Gram is off the identity by 3.2e-3, so every entry is compared with roundoff at
    # stake, not only the identity's zeros and ones.
    beam = BeamSpec(1e-3)
    spec = default_grid(beam, l_max=10, p_max=5, side_points=48)
    modes = [ModeIndex(l, p) for l in range(-10, 11) for p in range(6)]
    rasters = dict(iter_lg_rasters(beam, spec, 0.0, modes))
    stack = np.stack([rasters[m].ravel() for m in modes])
    brute = np.conj(stack) @ stack.T * spec.pixel_area
    gram = _round_trip_gram(beam, spec)
    assert np.max(np.abs(gram - np.eye(len(modes)))) > 3e-3
    assert np.max(np.abs(gram - brute)) <= 1e-13
