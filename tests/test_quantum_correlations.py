import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import oamghost
from oamghost.quantum_correlations import (
    _truncated_sums,
    assemble_density,
    brute_force_discord,
    discord_curve,
    discord_from_sums,
    discord_limit,
    geometric_discord_full_lattice,
    geometric_discord_pure,
    geometric_discord_thermal,
    mode_basis,
    robustness,
    robustness_full_lattice,
    separability_decomposition,
)
from oamghost.thermal_source import (
    build_spectrum,
    flat_spectrum,
    full_lattice_sums,
    source_geometry,
)

SIGMA_S = 1e-3


def test_mode_basis_order():
    assert mode_basis(1, 1) == [(-1, 0), (-1, 1), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_assemble_single_mode():
    state = assemble_density(flat_spectrum(0, 0))
    assert state.d == 1
    np.testing.assert_allclose(state.rho_C, [[1.0]])
    np.testing.assert_allclose(state.rho_Q, [[1.0]])
    assert state.trace_rho == pytest.approx(2.0)


def test_assemble_flat_three_modes():
    state = assemble_density(flat_spectrum(1, 0))
    assert state.d == 3
    # trace = sum P^2 + (sum P)^2 = 3 + 9
    assert state.trace_rho == pytest.approx(12.0)
    assert np.trace(state.rho).real == pytest.approx(12.0)
    # rho_Q pairs (l, p) with (-l, p): |v> has support on |i>|pair(i)>
    v = np.zeros(9)
    v[0 * 3 + 2] = 1.0  # (-1,0) with (1,0)
    v[1 * 3 + 1] = 1.0  # (0,0) with itself
    v[2 * 3 + 0] = 1.0
    np.testing.assert_allclose(state.rho_Q, np.outer(v, v))


def test_assemble_thermal_is_psd():
    geo = source_geometry(SIGMA_S, 5e-4)
    state = assemble_density(build_spectrum(geo, 1, 1))
    assert state.d == 6
    eigs = np.linalg.eigvalsh(state.rho)
    assert eigs[0] >= -1e-12
    assert np.trace(state.rho).real == pytest.approx(state.trace_rho, rel=1e-12)


def test_assemble_dimension_cap():
    state = assemble_density(flat_spectrum(4, 4))  # d = 45: the structured state has no cap
    assert state.d == 45
    with pytest.raises(ValueError):
        state.rho  # the dense view is capped at max_dim = 36


@pytest.mark.parametrize("l_max,p_max", [(0, 0), (1, 0), (1, 1), (5, 2), (1, 11)])
def test_dense_views_match_dense_construction(l_max, p_max):
    # d = 1, 3, 6, 33, 36; references built the dense way, entry by entry
    geo = source_geometry(SIGMA_S, 1.3e-3)
    state = assemble_density(build_spectrum(geo, l_max, p_max))
    d = state.d
    order = mode_basis(l_max, p_max)
    index = {mode: i for i, mode in enumerate(order)}
    p = np.array([state.spectrum.amplitude(l, q) for l, q in order])
    v = np.zeros(d * d)
    for i, (l, q) in enumerate(order):
        v[i * d + index[(-l, q)]] = p[i]
    rho_c = np.diag(np.kron(p, p))
    rho_q = np.outer(v, v)
    np.testing.assert_array_equal(state.rho_C, rho_c)
    np.testing.assert_array_equal(state.rho_Q, rho_q)
    np.testing.assert_array_equal(state.rho, rho_c + rho_q)
    if d == 1:
        return
    cert = separability_decomposition(state)
    diag_pairs = np.zeros(d * d)
    diag_pairs[np.arange(d) * d + np.arange(d)] = p ** 2
    rho_minus = (rho_c - np.diag(diag_pairs)) / cert.R
    np.testing.assert_array_equal(cert.rho_S_minus, rho_minus)
    np.testing.assert_array_equal(cert.rho_S_plus, (rho_q + cert.R * rho_minus) / (1.0 + cert.R))


def test_certificate_at_cli_default_truncation():
    geo = source_geometry(SIGMA_S, 2.5e-5)
    spec = build_spectrum(geo, 20, 20)
    start = time.perf_counter()
    state = assemble_density(spec)
    cert = separability_decomposition(state)
    elapsed = time.perf_counter() - start
    assert state.d == 861
    assert elapsed < 0.5
    assert cert.R == spec.sum_amplitudes() ** 2 - 1.0
    assert cert.reconstruction_residual <= 1e-12
    assert np.min(cert.minus_diagonal) >= 0.0
    with pytest.raises(ValueError):
        cert.rho_S_plus


def test_robustness_closed_form_and_truncations():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    assert robustness_full_lattice(geo) == pytest.approx(1.0, abs=1e-12)
    # any l_max = 0 truncation has sum P = 1 - t^(2 p_max + 2) < 1
    for p_max in (0, 1, 5):
        assert robustness(build_spectrum(geo, 0, p_max)) == 0.0
    spec = build_spectrum(geo, 1, 1)
    s = spec.sum_amplitudes()
    assert robustness(spec) == pytest.approx(s * s - 1.0)
    assert robustness(spec) > 0


def test_separability_trivial_single_mode():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    state = assemble_density(build_spectrum(geo, 0, 0))
    cert = separability_decomposition(state)
    assert cert.R == 0.0
    assert cert.reconstruction_residual <= 1e-15


def test_separability_rejects_budgetless_truncation():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    state = assemble_density(build_spectrum(geo, 0, 1))
    with pytest.raises(ValueError, match="budget"):
        separability_decomposition(state)


def test_separability_reconstruction_and_psd():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    state = assemble_density(build_spectrum(geo, 1, 1))
    cert = separability_decomposition(state)
    assert cert.R == pytest.approx(robustness(state.spectrum))
    assert cert.reconstruction_residual <= 1e-12
    order = mode_basis(1, 1)
    pvec = np.array([state.spectrum.amplitude(l, p) for l, p in order])
    diag_pairs = np.zeros(36)
    diag_pairs[np.arange(6) * 6 + np.arange(6)] = pvec ** 2
    recon = (1.0 + cert.R) * cert.rho_S_plus + np.diag(diag_pairs)
    np.testing.assert_allclose(recon, state.rho, atol=1e-13)
    for part in (cert.rho_S_minus, cert.rho_S_plus):
        assert np.linalg.eigvalsh(part)[0] >= -1e-10


def test_discord_zero_in_coherent_limit():
    geo = source_geometry(SIGMA_S, math.inf)
    assert geometric_discord_thermal(build_spectrum(geo, 0, 0)) == 0.0
    assert discord_limit(geo) == 0.0


def test_discord_two_equal_amplitudes():
    # sums (2, 2, 2): D = (4 - 2) / 36 = 1/18
    assert geometric_discord_thermal(flat_spectrum(0, 1)) == pytest.approx(1.0 / 18.0, rel=1e-14)
    assert discord_from_sums(2.0, 2.0, 2.0) == pytest.approx(1.0 / 18.0, rel=1e-14)


def test_discord_limit_values():
    assert discord_limit(source_geometry(SIGMA_S, math.sqrt(2.0) * SIGMA_S)) == pytest.approx(
        1.0 / 64.0, abs=1e-12)
    assert discord_limit(source_geometry(SIGMA_S, 2.0 * SIGMA_S)) == pytest.approx(
        1.0 / 81.0, abs=1e-12)


@pytest.mark.parametrize("sigma_g", [1e100, 1e-100, math.inf])
def test_discord_limit_vanishes_at_extreme_coherence(sigma_g):
    # (x + 2/x)^4 overflows at both ends of the finite range; its inverse underflows to 0
    assert discord_limit(source_geometry(SIGMA_S, sigma_g)) == 0.0


def test_discord_full_lattice_routes_agree():
    for sigma_g in (3e-4, 1.41e-3, 5e-3):
        geo = source_geometry(SIGMA_S, sigma_g)
        a = geometric_discord_full_lattice(geo)
        b = discord_limit(geo)
        c = discord_from_sums(*full_lattice_sums(geo))
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-12)


def test_discord_closed_form_small_truncations():
    # at sigma_g = sigma_s / 2 (t = (9 - sqrt 17)/8), the L = 0 truncations
    # collapse to D = q^2 / (2 (1 + q + q^2)^2) with q = t^2 for P = 1
    geo = source_geometry(SIGMA_S, 0.5 * SIGMA_S)
    assert geo.t == pytest.approx((9.0 - math.sqrt(17.0)) / 8.0, abs=1e-14)
    q = geo.t ** 2
    expect_d2 = q ** 2 / (2.0 * (1.0 + q + q * q) ** 2)
    got_d2 = geometric_discord_thermal(build_spectrum(geo, 0, 1))
    assert got_d2 == pytest.approx(expect_d2, rel=1e-12)
    assert got_d2 == pytest.approx(0.03029585798816575, abs=1e-14)
    got_d4 = geometric_discord_thermal(build_spectrum(geo, 0, 3))
    assert got_d4 == pytest.approx(0.025178990888221668, abs=1e-14)


def test_pure_discord_values():
    assert geometric_discord_pure(flat_spectrum(0, 0)) == 0.0
    assert geometric_discord_pure(flat_spectrum(0, 1)) == pytest.approx(0.5, rel=1e-14)
    assert geometric_discord_pure(flat_spectrum(0, 3)) == pytest.approx(0.75, rel=1e-14)


def _rotated_thermal(sigma_g, p_max, rng):
    """Trace-normalized l_max = 0 thermal state turned by a Haar-random unitary on side B."""
    spec = build_spectrum(source_geometry(SIGMA_S, sigma_g), 0, p_max)
    state = assemble_density(spec)
    d = state.d
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = np.kron(np.eye(d), q * (np.diag(r) / np.abs(np.diag(r))))
    return u @ (state.rho / state.trace_rho) @ u.conj().T, d, geometric_discord_thermal(spec)


def test_brute_force_validation():
    with pytest.raises(ValueError):
        brute_force_discord(np.ones((3, 4)), 2)
    with pytest.raises(ValueError):
        brute_force_discord(np.eye(6) / 6.0, 4)  # 6 not divisible by 4
    bad = np.eye(4) / 4.0
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        brute_force_discord(bad, 2)  # not Hermitian
    with pytest.raises(ValueError):
        brute_force_discord(np.eye(4), 2)  # trace 4
    # no cap on the side dimension: d = 12 converges from one start
    rho, d, closed = _rotated_thermal(0.5 * SIGMA_S, 11, np.random.default_rng(12))
    assert d == 12
    assert brute_force_discord(rho, d, restarts=0) == pytest.approx(closed, abs=1e-10)


def test_brute_force_product_state_is_classical():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4]))
    assert brute_force_discord(rho, 2, restarts=2, iterations=200) <= 1e-9
    # every rotation of the maximally mixed state gains nothing, so each start
    # must end after its first sweep rather than run all 400 (seconds at d = 7)
    t0 = time.perf_counter()
    assert brute_force_discord(np.eye(16) / 16.0, 4) <= 1e-12
    assert brute_force_discord(np.eye(49) / 49.0, 7) <= 1e-12
    assert time.perf_counter() - t0 < 0.5


def test_brute_force_bell_state():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    got = brute_force_discord(np.outer(v, v), 2, restarts=4)
    assert got == pytest.approx(0.5, abs=1e-4)


def test_brute_force_thermal_matches_closed_form():
    geo = source_geometry(SIGMA_S, 0.5 * SIGMA_S)
    spec = build_spectrum(geo, 0, 1)
    state = assemble_density(spec)
    rho = state.rho / state.trace_rho
    got = brute_force_discord(rho, 2, restarts=4)
    closed = geometric_discord_thermal(spec)
    assert got == pytest.approx(closed, abs=1e-6)
    assert got >= closed - 1e-9
    # rotated d = 4 states start away from the optimum, which a wrong
    # rotation sign would never reach
    rng = np.random.default_rng(4)
    for sigma_g in (0.3 * SIGMA_S, 0.5 * SIGMA_S, 1.5 * SIGMA_S):
        rho, d, closed = _rotated_thermal(sigma_g, 3, rng)
        assert brute_force_discord(rho, d, restarts=0) == pytest.approx(closed, abs=1e-10)


def test_brute_force_random_pure_state():
    rng = np.random.default_rng(11)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    lam = np.linalg.svd(psi.reshape(2, 2), compute_uv=False) ** 2
    expect = 1.0 - float(np.sum(lam ** 2))
    got = brute_force_discord(rho, 2, restarts=6)
    assert got == pytest.approx(expect, abs=1e-5)


def _random_mixed(dim_a, dim_b, rng):
    """Trace-normalized random full-rank state on dim_a x dim_b."""
    n = dim_a * dim_b
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_brute_force_matches_recorded_gather_and_einsum_search():
    # Values recorded from the search that rotated gathered column and row pairs with einsum
    # and scattered them back. The in-place slice rotations run the same rotations in the same
    # order with the same stopping rule, so cut-short, converged and restarted searches agree
    # to roundoff.
    rng = np.random.default_rng(20)
    five = {"restarts": 0, "iterations": 5}
    cases = [
        (lambda: _rotated_thermal(0.4 * SIGMA_S, 1, rng)[0], 2, five, 0.037211729956535544),
        (lambda: _rotated_thermal(1.2 * SIGMA_S, 1, rng)[0], 2, five, 0.004260145296774098),
        (lambda: _rotated_thermal(0.4 * SIGMA_S, 3, rng)[0], 4, five, 0.028511958794803227),
        (lambda: _rotated_thermal(1.2 * SIGMA_S, 3, rng)[0], 4, five, 0.004207509057979175),
        (lambda: _rotated_thermal(0.7 * SIGMA_S, 3, rng)[0], 4, {"restarts": 0}, 0.016984448712629496),
        (lambda: _random_mixed(2, 3, rng), 3, {"restarts": 0, "iterations": 50}, 0.031254530621789234),
        (lambda: _random_mixed(2, 2, rng), 2, {"restarts": 3, "seed": 5}, 0.059317746553428974),
        (lambda: _random_mixed(3, 3, rng), 3, dict(restarts=2, iterations=30, seed=7), 0.04984423765970572),
    ]
    for make, dim_b, options, recorded in cases:  # in order: the states share one generator
        assert abs(brute_force_discord(make(), dim_b, **options) - recorded) <= 1e-12


def test_brute_force_leaves_scipy_optimize_and_linalg_unloaded():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oamghost.__file__)))
    code = (
        "import sys, numpy as np\n"
        "from oamghost.quantum_correlations import brute_force_discord\n"
        "v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)\n"
        "assert abs(brute_force_discord(np.outer(v, v), 2) - 0.5) < 1e-10\n"
        "sys.exit('scipy.optimize' in sys.modules or 'scipy.linalg' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_discord_curve_rows():
    sigma_gs = np.linspace(3e-4, 3e-3, 7)
    rows = discord_curve(SIGMA_S, sigma_gs, [(2, 2), (6, 6)])
    assert len(rows) == 14
    for ratio, l_max, p_max, d, d_rho, d_rho_q, d_inf in rows:
        assert d == (2 * l_max + 1) * (p_max + 1)
        geo = source_geometry(SIGMA_S, ratio * SIGMA_S)
        assert d_inf == pytest.approx(discord_limit(geo), rel=1e-12)
        assert 0.0 <= d_rho <= 1.0 and 0.0 <= d_rho_q <= 1.0
    # deeper truncation tracks the closed-form limit more closely
    for k in range(7):
        shallow = rows[2 * k]
        deep = rows[2 * k + 1]
        assert abs(deep[4] - deep[6]) <= abs(shallow[4] - shallow[6]) + 1e-12


@pytest.mark.parametrize("dims", [[(0, 0), (2, 2)], [(60, 60), (100, 3)]])
def test_discord_curve_matches_per_table_discord(dims):
    # down to sigma_g = 1e-7 m, where t = 1 - 1e-4 and a geometric closed form would cancel
    sigma_gs = np.concatenate([[1e-7, 1e-6, 1e-5], np.geomspace(3e-5, 5e-2, 17)])
    rows = discord_curve(SIGMA_S, sigma_gs, dims)
    assert len(rows) == len(sigma_gs) * len(dims)
    for row, (sigma_g, (l_max, p_max)) in zip(rows, [(g, dim) for g in sigma_gs for dim in dims]):
        spec = build_spectrum(source_geometry(SIGMA_S, sigma_g), l_max, p_max)
        assert row[1:4] == (l_max, p_max, spec.d)
        assert abs(row[4] - geometric_discord_thermal(spec)) <= 1e-14
        assert abs(row[5] - geometric_discord_pure(spec)) <= 1e-14


@pytest.mark.filterwarnings("error::RuntimeWarning")  # log 0 at t = 0, expm1 of about -eps at t = 1 - eps
def test_discord_curve_coherent_and_subnormal_widths_keep_the_per_sample_rows():
    # sigma_g = inf is the coherent limit t = 0, where every discord is 0. At 1e-300 and 5e-324
    # beta rounds to pi/2 and t to 1 - eps, not 1: values recorded from the
    # per-sample route (a source_geometry and a discord_limit call per sample).
    dims = [(0, 0), (2, 3), (60, 60)]
    rows = discord_curve(SIGMA_S, [math.inf, 1e-300, 5e-324], dims)
    deep = (0.00215419501133787, 0.95, 0.0), (1.8348183496624637e-08, 0.9998645170031161, 0.0)
    expect = [(math.inf, 0, 0, 1, 0.0, 0.0, 0.0), (math.inf, 2, 3, 20, 0.0, 0.0, 0.0),
              (math.inf, 60, 60, 7381, 0.0, 0.0, 0.0)]
    for ratio in (1e-297, 4.94e-321):
        expect += [(ratio, 0, 0, 1, 0.0, 0.0, 0.0), (ratio, 2, 3, 20, *deep[0]),
                   (ratio, 60, 60, 7381, *deep[1])]
    assert len(rows) == len(expect)
    for row, want in zip(rows, expect):
        assert row[:4] == want[:4]
        assert row[4:] == pytest.approx(want[4:], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("l_max, p_max", [(60, 60), (200, 100)])
@pytest.mark.parametrize("k", [1, 2, 4])
def test_truncated_sums_match_the_exactly_summed_series(l_max, p_max, k):
    # From t = 0 to 1 - 1e-12, where (1 - b^(n+1)) / (1 - b) would cancel, and a subnormal t.
    # Running products of t^k, summed term by term, read up to 7.2e-15 at (60, 60) and 1.5e-14 at (200, 100).
    ts = np.concatenate([np.linspace(0.0, 0.999, 200), 1.0 - np.logspace(-12, -2, 41), [5e-324]])
    for t, value in zip(ts.tolist(), _truncated_sums(ts, l_max, p_max, k).tolist()):
        l_series = 1.0 + 2.0 * math.fsum(t ** (k * j) for j in range(1, l_max + 1))
        p_series = math.fsum(t ** (2 * k * j) for j in range(p_max + 1))
        exact = (1.0 - t * t) ** k * l_series * p_series
        assert abs(value - exact) <= 2e-15 * exact, t


@pytest.mark.filterwarnings("error")
def test_discord_curve_refuses_a_ratio_that_overflows():
    # sigma_g / sigma_s is the row's first column; a finite sigma_g over a subnormal sigma_s overflows it.
    with pytest.raises(ValueError, match=r"sigma_g / sigma_s = 0\.0002 / 4\.94066e-324 overflows"):
        discord_curve(5e-324, [2e-4], [(3, 3)])


@pytest.mark.filterwarnings("error")
def test_discord_curve_keeps_the_coherent_limit_beside_a_finite_width():
    rows = discord_curve(SIGMA_S, [math.inf, 2e-4], [(3, 3)])
    assert [row[:4] for row in rows] == [(math.inf, 3, 3, 28), (0.2, 3, 3, 28)]
    assert rows[0][4:] == (0.0, 0.0, 0.0)


def test_discord_curve_rows_hold_python_numbers():
    rows = discord_curve(SIGMA_S, np.linspace(3e-4, 3e-3, 5), [(0, 0), (3, 2)])
    rows += discord_curve(SIGMA_S, (g for g in [math.inf, 1e-3]), [(1, 1)])
    for row in rows:
        assert [type(v) for v in row] == [float, int, int, int, float, float, float]


@pytest.mark.parametrize("sigma_s, sigma_gs", [
    (SIGMA_S, [1e-3, 0.0]),
    (SIGMA_S, [1e-3, 2e-3, -1e-3]),
    (SIGMA_S, [math.nan, 1e-3]),
    (0.0, [1e-3]),
    (-1e-3, [1e-3]),
    (math.inf, [1e-3]),
    (math.nan, [1e-3]),
])
def test_discord_curve_refuses_widths_as_source_geometry_does(sigma_s, sigma_gs):
    with pytest.raises(ValueError) as sweep:
        discord_curve(sigma_s, sigma_gs, [(1, 1)])
    with pytest.raises(ValueError) as single:
        for sigma_g in sigma_gs:
            source_geometry(sigma_s, sigma_g)
    assert str(sweep.value) == str(single.value)
