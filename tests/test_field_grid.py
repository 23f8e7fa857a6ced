import ast
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamghost
from oamghost.field_grid import (
    BeamSpec,
    ComplexField,
    GridSpec,
    ModeClippedWarning,
    ModeIndex,
    default_grid,
    inner_product,
    _hermite,
    _hg_tables,
    _lg_to_hg,
    _mode_norms,
    _shells,
    intensity_and_phase,
    iter_lg_rasters,
    lg_amplitude,
    read_field,
    write_field,
)
from oamghost.spiral_imaging import ModeCoefficients, render_background, render_pure_image
from oamghost.thermal_source import flat_spectrum

WAIST = 1e-3
BEAM = BeamSpec(WAIST)


def sample(mode, spec, z=0.0):
    """Pointwise oracle lg_amplitude evaluated at every pixel center."""
    r, phi = spec.polar()
    return ComplexField(spec, lg_amplitude(mode, BEAM, r, phi, z))


def test_grid_spec_axis_and_pitch():
    spec = GridSpec(4, 8.0)
    assert spec.pixel_pitch == 2.0
    assert spec.pixel_area == 4.0
    np.testing.assert_allclose(spec.axis(), [-3.0, -1.0, 1.0, 3.0])
    x, y = spec.grids()
    assert x[0, 0] == -3.0 and x[0, -1] == 3.0
    # row 0 is the top of the window
    assert y[0, 0] == 3.0 and y[-1, 0] == -3.0


@settings(max_examples=60, deadline=None)
@given(side=st.integers(2, 4096),
       extent=st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False))
def test_axis_is_exactly_antisymmetric(side, extent):
    # Bit for bit: the engine puts window row i at y = -x_i, and grids() at axis[::-1].
    ax = GridSpec(side, extent).axis()
    assert np.array_equal(ax[::-1], -ax)
    x, y = GridSpec(min(side, 512), extent).grids()  # two 128 MB rasters at 4096^2
    assert np.array_equal(y, -x.T)


@settings(max_examples=60, deadline=None)
@given(side=st.integers(2, 4096), w=st.floats(1e-5, 1e-2), widths=st.floats(1.0, 40.0),
       big_k=st.integers(0, 180), z=st.floats(-3.0, 3.0))
def test_axis_tables_are_exactly_parity_symmetric(side, w, widths, big_k, z):
    # Bit for bit on the whole axis: h_m(-x) = (-1)^m h_m(x), and the chirp is even. This also fails
    # on a platform whose exp gives one argument different values at different array positions.
    beam = BeamSpec(w)
    spec = GridSpec(side, widths * w)
    try:
        table, chirp, _ = _hg_tables(beam, spec, z * beam.rayleigh_range, big_k)
        signs = (-1.0) ** np.arange(big_k + 1)
        assert np.array_equal(table[:, ::-1], signs[:, None] * table)
        assert np.array_equal(chirp[::-1], chirp)
    finally:  # a 4096-point table at K = 180 is 5.9 MB: keep the caches small
        _hg_tables.cache_clear()


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 1.0)
    with pytest.raises(ValueError):
        GridSpec(16, -1.0)


def test_polar_matches_cartesian():
    spec = GridSpec(8, 2.0)
    x, y = spec.grids()
    r, phi = spec.polar()
    np.testing.assert_allclose(r, np.hypot(x, y))
    np.testing.assert_allclose(phi, np.arctan2(y, x))


def test_complex_field_immutable_and_norm():
    spec = GridSpec(8, 2.0)
    f = ComplexField(spec, np.ones((8, 8)))
    with pytest.raises(ValueError):
        f.samples[0, 0] = 0.0
    # 64 unit pixels of area (2/8)^2
    np.testing.assert_allclose(f.norm(), math.sqrt(64 * 0.25 ** 2))
    with pytest.raises(ValueError):
        ComplexField(spec, np.ones((4, 4)))
    with pytest.raises(ValueError):
        ComplexField(spec, np.full((8, 8), np.nan))


def test_complex_field_checks_finiteness_and_copies_its_samples():
    spec = GridSpec(4, 1.0)
    for bad in (complex(np.inf, 0.0), complex(0.0, np.nan)):
        samples = np.zeros((4, 4), dtype=complex)
        samples[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            ComplexField(spec, samples)
    writable = np.ones((4, 4), dtype=complex)
    f = ComplexField(spec, writable)
    writable[0, 0] = 5.0
    assert f.samples[0, 0] == 1.0 and not f.samples.flags.writeable
    base = np.ones((4, 4), dtype=complex)
    view = base[:]
    view.flags.writeable = False
    f = ComplexField(spec, view)  # read-only, but its base stays writable
    base[0, 0] = 5.0
    assert f.samples[0, 0] == 1.0
    owned = np.ones((4, 4), dtype=complex)
    owned.flags.writeable = False
    f = ComplexField(spec, owned)  # read-only, but its owner may make it writable again
    owned.flags.writeable = True
    owned[0, 0] = 5.0
    assert f.samples[0, 0] == 1.0
    fresh = np.ones((4, 4), dtype=complex)  # the private path for a raster no caller holds
    assert ComplexField._adopt(spec, fresh).samples is fresh and not fresh.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        ComplexField._adopt(spec, np.full((4, 4), np.nan, dtype=complex))


def test_mode_index_validation():
    ModeIndex(-3, 0)
    with pytest.raises(ValueError):
        ModeIndex(0, -1)


def test_beam_spec_derived_quantities():
    assert BEAM.rayleigh_range == pytest.approx(math.pi * WAIST ** 2 / 632.8e-9)
    assert BEAM.wavenumber == pytest.approx(2.0 * math.pi / 632.8e-9)
    assert BEAM.width(0.0) == WAIST
    assert BEAM.width(BEAM.rayleigh_range) == pytest.approx(WAIST * math.sqrt(2.0))


def test_fundamental_peak_value():
    # |LG_00(0, 0)| = sqrt(2/pi) / w
    got = lg_amplitude(ModeIndex(0, 0), BEAM, 0.0, 0.0)
    assert got == pytest.approx(math.sqrt(2.0 / math.pi) / WAIST, rel=1e-12)
    assert got.imag == 0.0


def test_vortex_null_on_axis():
    for l in (1, -1, 2, 5):
        assert lg_amplitude(ModeIndex(l, 0), BEAM, 0.0, 0.0) == 0.0


def test_ring_radius_of_pure_vortex():
    # |LG_{l,0}| peaks at r = w sqrt(l/2); locate it by dense radial sweep.
    r = np.linspace(1e-6, 3.0 * WAIST, 200000)
    for l in (1, 3):
        prof = np.abs(lg_amplitude(ModeIndex(l, 0), BEAM, r, 0.0))
        r_peak = r[np.argmax(prof)]
        assert r_peak == pytest.approx(WAIST * math.sqrt(l / 2.0), rel=1e-4)


def test_gouy_phase_between_mode_orders():
    # At z = z_R the accumulated Gouy phase is (2p + |l| + 1) * pi/4, so
    # (0,1) lags (0,0) by pi/2 on axis.
    z = BEAM.rayleigh_range
    f00 = lg_amplitude(ModeIndex(0, 0), BEAM, 0.0, 0.0, z)
    f01 = lg_amplitude(ModeIndex(0, 1), BEAM, 0.0, 0.0, z)
    rel = np.angle(f01 / f00)
    assert rel == pytest.approx(-math.pi / 2.0, abs=1e-12)


def test_width_scaling_at_rayleigh_range():
    # w(z_R) = w sqrt(2): amplitudes obey |u(sqrt(2) r, z_R)| = |u(r, 0)| / sqrt(2).
    r = np.linspace(0.0, 2.0 * WAIST, 64)
    for mode in (ModeIndex(0, 0), ModeIndex(2, 1)):
        at_focus = np.abs(lg_amplitude(mode, BEAM, r, 0.3, 0.0))
        at_zr = np.abs(lg_amplitude(mode, BEAM, math.sqrt(2.0) * r, 0.3, BEAM.rayleigh_range))
        np.testing.assert_allclose(at_zr, at_focus / math.sqrt(2.0), atol=1e-9)


def test_conjugation_identity_random_points():
    rng = np.random.default_rng(7)
    zr = BEAM.rayleigh_range
    for _ in range(100):
        l = int(rng.integers(-8, 9))
        p = int(rng.integers(0, 5))
        r = float(rng.uniform(0.0, 3.0 * WAIST))
        phi = float(rng.uniform(-math.pi, math.pi))
        z = float(rng.uniform(-1.5, 1.5)) * zr
        a = lg_amplitude(ModeIndex(-l, p), BEAM, r, phi, z)
        b = np.conj(lg_amplitude(ModeIndex(l, p), BEAM, r, phi, -z))
        assert abs(a - b) <= 1e-13 * max(abs(a), 1e-300)


def test_winding_number():
    phi = np.linspace(-math.pi, math.pi, 512, endpoint=False)
    f = lg_amplitude(ModeIndex(2, 0), BEAM, WAIST, phi)
    total = np.unwrap(np.angle(f))
    # phase advances by 2 * 2pi around one loop
    assert total[-1] - total[0] == pytest.approx(2.0 * 2.0 * math.pi * (511 / 512), rel=1e-9)


def test_sampled_mode_norm():
    spec = default_grid(BEAM, l_max=4, p_max=3)
    for mode in (ModeIndex(0, 0), ModeIndex(4, 3), ModeIndex(-3, 1)):
        f = sample(mode, spec)
        assert f.norm() == pytest.approx(1.0, abs=1e-6)


def test_norm_preserved_off_focus():
    z = 0.4 * BEAM.rayleigh_range
    spec = default_grid(BEAM, l_max=2, p_max=2, z=z)
    f = sample(ModeIndex(2, 2), spec, z)
    assert f.norm() == pytest.approx(1.0, abs=1e-3)


def test_clip_warning_on_small_window():
    spec = GridSpec(64, 2.0 * WAIST)
    # LG(0, 1) has classical radius w sqrt(3) > w; a rule of w sqrt(|l|/2 + p) missed it
    for mode in (ModeIndex(8, 3), ModeIndex(0, 1)):
        with pytest.warns(ModeClippedWarning):
            list(iter_lg_rasters(BEAM, spec, 0.0, [mode]))


def test_clip_warning_on_undersampled_mode():
    # LG(0, 46) sits well inside this window, 9.6 w against a 21.4 w half-extent,
    # but 256 points undersample its radial oscillation: it loses 5.8% of its norm.
    spec = default_grid(BEAM, l_max=80, p_max=80, side_points=256)
    with pytest.warns(ModeClippedWarning, match=r"^LG\(0, 46\) at z=0 m has \|norm\^2 - 1\| = 0\.0576"):
        list(iter_lg_rasters(BEAM, spec, 0.0, [ModeIndex(0, 46)]))


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 40), extent=st.floats(2.0, 12.0), l_max=st.integers(0, 12),
       p_max=st.integers(0, 6), z=st.floats(0.05, 2.0), sign=st.sampled_from([-1.0, 1.0]))
def test_shell_norms_match_raster_norms(side, extent, l_max, p_max, z, sign):
    spec = GridSpec(side, extent * WAIST)
    z *= sign * BEAM.rayleigh_range
    modes = [ModeIndex(l, p) for l in range(-l_max, l_max + 1) for p in range(p_max + 1)]
    norms = _mode_norms(BEAM, spec, abs(z), l_max, p_max)
    assert norms.shape == (l_max + 1, p_max + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeClippedWarning)
        for mode, raster in iter_lg_rasters(BEAM, spec, z, modes):
            brute = np.sum(raster.real ** 2 + raster.imag ** 2) * spec.pixel_area
            assert abs(norms[abs(mode.l), mode.p] - brute) <= 1e-12


@pytest.mark.parametrize("side", [63, 64])
@pytest.mark.parametrize("extent", [5.0, 9.0])
def test_mode_norms_match_oracle_raster_norms(side, extent):
    # An oracle independent of the HG tables: pixel_area sum |LG|^2 of lg_amplitude rasters, both
    # signs of l, at two plane widths (z = 0 and 0.8 zR). Both windows clip the highest modes.
    spec = GridSpec(side, extent * WAIST)
    r, phi = spec.polar()
    l_max, p_max = 6, 4
    for z in (0.0, -0.8 * BEAM.rayleigh_range):
        norms = _mode_norms(BEAM, spec, abs(z), l_max, p_max)
        for l in range(-l_max, l_max + 1):
            for p in range(p_max + 1):
                f = lg_amplitude(ModeIndex(l, p), BEAM, r, phi, z)
                brute = np.sum(f.real ** 2 + f.imag ** 2) * spec.pixel_area
                assert abs(norms[abs(l), p] - brute) <= 1e-12
    assert norms.min() < 0.99  # the check covers clipped modes, not only norms of 1


def test_inner_product_orthonormality_and_symmetry():
    spec = default_grid(BEAM, l_max=1, p_max=1)
    f00 = sample(ModeIndex(0, 0), spec)
    f01 = sample(ModeIndex(0, 1), spec)
    f11 = sample(ModeIndex(1, 1), spec)
    assert inner_product(f00, f00) == pytest.approx(1.0, abs=1e-9)
    assert abs(inner_product(f00, f01)) < 1e-9
    assert abs(inner_product(f00, f11)) < 1e-9
    a = inner_product(f01, f11)
    b = inner_product(f11, f01)
    assert a == pytest.approx(np.conj(b), abs=1e-15)


def test_inner_product_grid_mismatch():
    f1 = ComplexField(GridSpec(16, 1.0), np.ones((16, 16)))
    f2 = ComplexField(GridSpec(16, 2.0), np.ones((16, 16)))
    with pytest.raises(ValueError):
        inner_product(f1, f2)


def test_intensity_and_phase_of_vortex():
    spec = GridSpec(64, 6.0 * WAIST)
    f = sample(ModeIndex(1, 0), spec)
    inten, phase = intensity_and_phase(f)
    np.testing.assert_allclose(inten, np.abs(f.samples) ** 2)
    _, phi = spec.polar()
    np.testing.assert_allclose(phase, phi, atol=1e-9)


def test_iter_matches_sample():
    spec = GridSpec(96, 8.0 * WAIST)
    z = 0.7 * BEAM.rayleigh_range
    modes = [ModeIndex(l, p) for p in (2, 0) for l in (3, -2, 0, 2)]
    pairs = list(iter_lg_rasters(BEAM, spec, z, modes))
    # Grouped by |l| ascending, in request order within each |l|.
    assert [mode for mode, _ in pairs] == sorted(modes, key=lambda m: abs(m.l))
    bulk = dict(pairs)
    for mode in modes:
        single = sample(mode, spec, z)
        np.testing.assert_allclose(bulk[mode], single.samples, atol=1e-12)


def test_lg_amplitude_finite_at_high_order():
    r = np.linspace(0.0, 12.0 * WAIST, 49)
    for l in (250, 300):
        f = lg_amplitude(ModeIndex(l, 4), BEAM, r, 0.3, 0.5 * BEAM.rayleigh_range)
        assert np.all(np.isfinite(f.real)) and np.all(np.isfinite(f.imag))
        assert np.max(np.abs(f)) > 0.0


def test_iter_renders_every_mode_on_one_lattice():
    # One LG-to-HG map and one HG table entry for the call, so a caller's cached entries stay put.
    spec = default_grid(BEAM, l_max=10, p_max=5, side_points=128)
    _lg_to_hg.cache_clear()
    _hg_tables.cache_clear()
    modes = [ModeIndex(l, p) for l in range(-10, 11) for p in range(6)]
    assert len(list(iter_lg_rasters(BEAM, spec, 0.0, modes))) == 126
    assert _lg_to_hg.cache_info().currsize == 1
    assert _hg_tables.cache_info().currsize == 1


# These windows sample the rasters pointwise against the oracle; they do not
# hold the lower modes of each lattice to the norm tolerance.
@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
def test_iter_matches_oracle_at_high_order():
    spec = GridSpec(64, 48.0 * WAIST)
    r, phi = spec.polar()
    for z in (0.0, 0.7 * BEAM.rayleigh_range):
        modes = [ModeIndex(s * l, p) for l in (200, 250, 300) for p in (0, 3) for s in (1, -1)]
        for mode, raster in iter_lg_rasters(BEAM, spec, z, modes):
            ref = lg_amplitude(mode, BEAM, r, phi, z)
            assert np.max(np.abs(raster - ref)) <= 1e-12 * np.max(np.abs(ref))


# The same window and modes through the HG passes: a one-hot table at the truncation (|l|, p).
@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
def test_render_matches_oracle_at_high_order():
    spec = GridSpec(64, 48.0 * WAIST)
    r, phi = spec.polar()
    for z in (0.0, 0.7 * BEAM.rayleigh_range):
        for mode in [ModeIndex(s * l, p) for l in (200, 250, 300) for p in (0, 3) for s in (1, -1)]:
            values = np.zeros((2 * abs(mode.l) + 1, mode.p + 1), dtype=complex)
            values[mode.l + abs(mode.l), mode.p] = 1.0
            raster = render_pure_image(ModeCoefficients(abs(mode.l), mode.p, values, z, BEAM), spec, z).samples
            ref = lg_amplitude(mode, BEAM, r, phi, z)
            assert np.max(np.abs(raster - ref)) <= 1e-12 * np.max(np.abs(ref))


def _hg_rows(l_max, p_max):
    """{(l, p): d} from _lg_to_hg: the real HG weights d_0 ... d_N of each mode of order N = 2p + |l|."""
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    k = flat // (big_k + 1)
    signed = weight * np.where((k // 2) % 2, -1.0, 1.0)  # weight = (-1)^(k // 2) d_k
    cuts = np.flatnonzero(np.diff(mode)) + 1  # the entries of each mode are contiguous
    rows = {}
    for j, ks, ds in zip(mode[np.r_[0, cuts]], np.split(k, cuts), np.split(signed, cuts)):
        l, p = divmod(int(j), p_max + 1)
        rows[(l - l_max, p)] = np.zeros(order.flat[j] + 1)
        rows[(l - l_max, p)][ks] = ds
    return rows


@pytest.mark.parametrize("w", [1e-3, 2.37e-4, 5.1e-5])
def test_hermite_at_the_origin_matches_its_closed_form(w):
    # h_k(0) = (2 / (pi w^2))^(1/4) (-1)^(k/2) sqrt(k!) / (2^(k/2) (k/2)!) for even k, 0 for odd k:
    # the background profile's h_k(0) comes from this recurrence at x = 0.
    k = np.arange(181)
    got = _hermite(np.zeros(1), w, 180, np.empty((181, 1)))[:, 0]
    log_abs = np.array([0.5 * math.lgamma(j + 1.0) - 0.5 * j * math.log(2.0) - math.lgamma(j / 2 + 1.0)
                        for j in k])
    want = np.where(k % 2, 0.0, (-1.0) ** (k // 2) * np.exp(log_abs)) * (2.0 / (math.pi * w * w)) ** 0.25
    assert np.all(got[1::2] == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_hg_rows_are_orthonormal_per_order():
    # Every order N <= 60 is complete in the (60, 30) table: N + 1 modes, l = -N, -N + 2, ..., N.
    rows = _hg_rows(60, 30)
    for order in range(61):
        block = np.array([rows[(l, (order - abs(l)) // 2)] for l in range(-order, order + 1, 2)])
        assert np.max(np.abs(block @ block.T - np.eye(order + 1))) <= 1e-13


def test_hg_rows_match_exact_krawtchouk_sums():
    # Beijersbergen et al. (1993): d_k = (-1)^p sqrt((N - k)! k! / (2^N n-! n+!)) [t^k] (1 - t)^n- (1 + t)^n+,
    # with n+ = p + max(l, 0) and n- = N - n+; the coefficient is an exact integer sum.
    for (l, p), d in _hg_rows(12, 6).items():
        order = 2 * p + abs(l)
        if order > 12:
            continue
        n_plus = p + max(l, 0)
        n_minus = order - n_plus
        for k in range(order + 1):
            coeff = sum((-1) ** j * math.comb(n_minus, j) * math.comb(n_plus, k - j) for j in range(k + 1))
            square = Fraction(math.factorial(order - k) * math.factorial(k) * coeff * coeff,
                              2 ** order * math.factorial(n_minus) * math.factorial(n_plus))
            assert abs(d[k] - (-1) ** p * math.copysign(math.sqrt(square), coeff)) <= 1e-14


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@pytest.mark.parametrize("side", [81, 80])
def test_iter_matches_oracle_on_odd_and_even_grids(side):
    # The odd grid has a pixel centre at r = 0, where every l != 0 mode vanishes.
    spec = GridSpec(side, 10.0 * WAIST)
    r, phi = spec.polar()
    modes = [ModeIndex(l, p) for l in (-3, 0, 1, 4) for p in (0, 1, 5)]
    for z in (0.0, -0.7 * BEAM.rayleigh_range):
        for mode, raster in iter_lg_rasters(BEAM, spec, z, modes):
            ref = lg_amplitude(mode, BEAM, r, phi, z)
            assert np.max(np.abs(raster - ref)) <= 1e-12 * np.max(np.abs(ref))


def _raster_pair(spec, z1, mode1, z2, mode2):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModeClippedWarning)
        ((_, a),) = iter_lg_rasters(BEAM, spec, z1, [mode1])
        ((_, b),) = iter_lg_rasters(BEAM, spec, z2, [mode2])
    return a, b


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 40), extent=st.floats(2.0, 12.0), l=st.integers(0, 12),
       p=st.integers(0, 6))
def test_iter_conjugation_at_focus_is_exact(side, extent, l, p):
    # At the waist every LG factor but exp(i l phi) is real, so LG(-l, p) is exactly conj LG(l, p).
    spec = GridSpec(side, extent * WAIST)
    neg, pos = _raster_pair(spec, 0.0, ModeIndex(-l, p), 0.0, ModeIndex(l, p))
    assert np.array_equal(neg, np.conj(pos))


@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 40), extent=st.floats(2.0, 12.0), l=st.integers(-12, 12),
       p=st.integers(0, 6), z=st.floats(0.01, 3.0), sign=st.sampled_from([1.0, -1.0]))
def test_iter_conjugation_identity_off_focus(side, extent, l, p, z, sign):
    spec = GridSpec(side, extent * WAIST)
    z *= sign * BEAM.rayleigh_range
    a, b = _raster_pair(spec, z, ModeIndex(-l, p), -z, ModeIndex(l, p))
    assert np.max(np.abs(a - np.conj(b))) <= 1e-14 * np.max(np.abs(b))


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_render_background_is_the_unfold_of_its_even_quarter(side, seed):
    # The background is radial on an exactly antisymmetric axis, so it is even under both mirrors:
    # every pixel equals the pixel of the window's top-left quarter at its mirror row and column
    # min(k, N - 1 - k), written here as an index gather.
    rng = np.random.default_rng(seed)
    h = (side + 1) // 2
    coeffs = ModeCoefficients(1, 1, rng.normal(size=(3, 2)), 0.0, BEAM)
    background, _ = render_background(coeffs, flat_spectrum(1, 1), default_grid(BEAM, 1, 1, side), 0.0)
    k = np.arange(side)
    mirror = np.minimum(k, side - 1 - k)
    assert np.array_equal(background, background[:h, :h][np.ix_(mirror, mirror)])


@pytest.mark.parametrize("side", [2, 63, 80, 81])
def test_shell_radii_match_polar(side):
    spec = GridSpec(side, 8.0 * WAIST)
    r2, inverse = _shells(spec)
    assert inverse.shape == (side, side)
    r = spec.polar()[0]
    assert np.all(np.diff(r2) > 0)
    np.testing.assert_allclose(r2[inverse], r * r, rtol=1e-15, atol=0)


def test_shells_read_only_and_cached():
    spec = GridSpec(64.0, 1e-2)
    assert spec.side_points == 64 and isinstance(spec.side_points, int)
    arrays = _shells(spec)
    assert all(not a.flags.writeable for a in arrays)
    assert arrays[1].shape == (64, 64)
    assert _shells(GridSpec(64, 1e-2))[1] is arrays[1]
    with pytest.raises(ValueError):
        arrays[1][0, 0] = 1
    ((_, raster),) = iter_lg_rasters(BEAM, spec, 0.0, [ModeIndex(2, 1)])
    assert raster.shape == (64, 64)


def test_shell_count_at_512():
    # 20,604 radius shells cover the 262,144 pixels of the window, each shell at least once.
    r2, inverse = _shells(GridSpec(512, 1e-2))
    assert r2.size == 20604
    assert inverse.shape == (512, 512)
    assert np.array_equal(np.unique(inverse), np.arange(r2.size))


def test_default_grid_is_at_least_eight_waists():
    for l, p in ((0, 0), (4, 2), (10, 5)):
        spec = default_grid(BEAM, l_max=l, p_max=p, side_points=128)
        assert spec.extent >= 8.0 * WAIST - 1e-12
    # window grows with the mode order so high modes are not clipped
    big = default_grid(BEAM, l_max=10, p_max=5, side_points=128)
    f = sample(ModeIndex(10, 5), big)
    assert f.norm() == pytest.approx(1.0, abs=1e-6)


def test_default_grid_other_scale():
    spec = default_grid(BEAM, side_points=64, other_scale=5e-3)
    assert spec.extent >= 8.0 * 5e-3 - 1e-12


def test_field_file_roundtrip(tmp_path):
    spec = GridSpec(32, 3.0 * WAIST)
    f = sample(ModeIndex(2, 1), spec)
    path = tmp_path / "mode.oamf"
    write_field(path, f)
    g = read_field(path)
    assert g.spec == spec
    np.testing.assert_array_equal(g.samples, f.samples)


def test_field_file_header(tmp_path):
    spec = GridSpec(4, 1.0)
    path = tmp_path / "f.oamf"
    write_field(path, ComplexField(spec, np.zeros((4, 4))))
    blob = path.read_bytes()
    assert blob[:4] == b"OAMF"
    assert len(blob) == 18 + 4 * 4 * 16


def test_field_file_errors(tmp_path):
    spec = GridSpec(4, 1.0)
    path = tmp_path / "f.oamf"
    write_field(path, ComplexField(spec, np.zeros((4, 4))))
    blob = path.read_bytes()
    bad_magic = tmp_path / "bad_magic.oamf"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError):
        read_field(bad_magic)
    truncated = tmp_path / "short.oamf"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        read_field(truncated)


def test_the_lg_to_hg_map_is_read_in_field_grid_alone():
    # The map's layout and sign rules stay in one module: every other module calls a pass.
    engine = {"_lg_to_hg", "_order_blocks", "_hg_tables", "_hermite", "_row_blocks"}
    named = {}
    for path in sorted(Path(oamghost.__file__).parent.glob("*.py")):
        names = {getattr(node, key, None) for node in ast.walk(ast.parse(path.read_text()))
                 for key in ("id", "attr", "name")}  # Name, Attribute, alias and def nodes
        if names & engine:
            named[path.name] = names & engine
    assert named == {"field_grid.py": engine}
