"""The verify suites' own paths: the mode-math round-trip Gram (its failing path, and against a
brute-force Gram), the discord-extremum sweep against the per-table discord, the CSD
deviations against their loop, and the closed-forms check against a truncation too small for it."""

import numpy as np
import pytest

from oamghost.field_grid import BeamSpec, ModeClippedWarning, ModeIndex, default_grid, iter_lg_rasters
from oamghost.quantum_correlations import discord_limit, geometric_discord_thermal
from oamghost.thermal_source import CsdTensor, build_spectrum, csd_mode_decompose, oracle_grid, source_geometry
from oamghost.verify import (_csd_deviations, _round_trip_gram, suite_discord_extremum, suite_mode_math,
                             suite_normalization)


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


def test_discord_extremum_agrees_with_the_per_table_discord():
    # The suite reads discord_curve's rows; the per-table functions are the oracle.
    ratios = np.linspace(0.2, 10.0, 200)
    geos = [source_geometry(1e-3, ratio * 1e-3) for ratio in ratios]
    values = np.array([geometric_discord_thermal(build_spectrum(geo, 60, 60)) for geo in geos])
    limits = np.array([discord_limit(geo) for geo in geos])
    k = int(np.argmax(values))
    location, peak, agreement = suite_discord_extremum()
    assert location.passed and peak.passed and agreement.passed
    assert f"argmax at ratio {ratios[k]:.6f}," in location.detail
    assert f"peak discord {values[k]:.9f}," in peak.detail
    tail = ratios >= 0.5
    suite_agreement = float(agreement.detail.split(" = ")[1].split()[0])
    assert abs(suite_agreement - np.max(np.abs(values[tail] - limits[tail]))) <= 1e-15


def _csd_deviations_by_loop(tensor, t):
    """The reference: the masks and ratios one entry at a time."""
    l_max, p_max, coeff = tensor.l_max, tensor.p_max, tensor.coefficients
    f0 = coeff[l_max, l_max, 0, 0].real
    on = np.zeros(coeff.shape, dtype=bool)
    dev = 0.0
    for l in range(-l_max, l_max + 1):
        for p in range(p_max + 1):
            on[l + l_max, l_max - l, p, p] = True
            dev = max(dev, abs(coeff[l + l_max, l_max - l, p, p].real / f0 - t ** (abs(l) + 2 * p)))
    return float(np.max(np.abs(coeff[~on]), initial=0.0)) / f0, dev


@pytest.mark.parametrize("sigma_g", [1e-4, 2.5e-5])
def test_csd_deviations_match_the_loop_on_the_oracle_tensor(sigma_g):
    geo = source_geometry(1e-3, sigma_g)
    tensor = csd_mode_decompose(geo, 3, 3, oracle_grid(geo, 3, 3, 128))
    off, dev = _csd_deviations(tensor, geo.t)
    ref_off, ref_dev = _csd_deviations_by_loop(tensor, geo.t)
    assert off == ref_off
    # t^(|l| + 2p) by numpy's power for a whole array may differ from Python's pow by one ulp of 1.
    assert abs(dev - ref_dev) <= 2.3e-16


def test_closed_forms_check_reads_the_truncated_spectrum():
    # The closed forms are full-lattice sums: at (3, 3) and t = 0.17 the truncated sum P falls
    # 2.1e-3 short of (1 + t)/(1 - t), and the check must see it; at the suite's (60, 60) the
    # truncation leaves out less than roundoff.
    checks = {(l_max, p_max): {r.name: r for r in suite_normalization(l_max, p_max)}["closed-forms"]
              for l_max, p_max in ((3, 3), (60, 60))}
    assert not checks[3, 3].passed
    assert "2.093e-03" in checks[3, 3].detail
    assert checks[60, 60].passed
    err = float(checks[60, 60].detail.split("= ")[1].split()[0])
    assert err <= 2e-16
