import math

import numpy as np
import pytest

from oamghost.field_grid import BeamSpec, GridSpec, ModeIndex, default_grid, lg_amplitude
from oamghost.thermal_source import (
    SpiralSpectrum,
    build_spectrum,
    csd_mode_decompose,
    csd_value,
    flat_spectrum,
    full_lattice_sums,
    oracle_grid,
    schmidt_number,
    source_geometry,
    spectrum_amplitude,
)

SIGMA_S = 1e-3


def half_angle_t(sigma_s, sigma_g):
    # independent route: t = ((h - sigma_g) / (2 sigma_s))^2, h = hypot(2 sigma_s, sigma_g)
    h = math.hypot(2.0 * sigma_s, sigma_g)
    return ((h - sigma_g) / (2.0 * sigma_s)) ** 2


def half_angle_waist(sigma_s, sigma_g):
    h = math.hypot(2.0 * sigma_s, sigma_g)
    return 2.0 * sigma_s * math.sqrt(sigma_g / h)


def test_geometry_at_twice_sigma_s():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    assert geo.t == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-15)
    assert geo.t == pytest.approx(0.1715728752538099, abs=1e-15)
    assert geo.matched_waist == pytest.approx(1.6817928305074292e-3, rel=1e-14)
    assert geo.t == pytest.approx(half_angle_t(SIGMA_S, 2.0 * SIGMA_S), rel=1e-13)
    assert geo.matched_waist == pytest.approx(half_angle_waist(SIGMA_S, 2.0 * SIGMA_S), rel=1e-13)


def test_geometry_at_tenth_millimeter():
    geo = source_geometry(SIGMA_S, 1e-4)
    assert geo.t == pytest.approx(0.90487507802749612, abs=1e-14)
    assert geo.matched_waist == pytest.approx(4.4693452291758468e-4, rel=1e-13)
    assert geo.t == pytest.approx(half_angle_t(SIGMA_S, 1e-4), rel=1e-13)


def test_geometry_coherent_limit():
    geo = source_geometry(SIGMA_S, math.inf)
    assert geo.t == 0.0
    assert geo.beta == 0.0
    assert geo.matched_waist == pytest.approx(2.0 * SIGMA_S)


def test_geometry_validation():
    with pytest.raises(ValueError):
        source_geometry(0.0, 1e-4)
    with pytest.raises(ValueError):
        source_geometry(1e-3, -1e-4)
    with pytest.raises(ValueError):
        source_geometry(math.nan, 1e-4)
    with pytest.raises(ValueError):
        source_geometry(math.inf, 1e-4)


def test_spectrum_values_at_twice_sigma_s():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    assert spectrum_amplitude(ModeIndex(0, 0), geo) == pytest.approx(0.97056274847714064, abs=1e-14)
    assert spectrum_amplitude(ModeIndex(1, 0), geo) == pytest.approx(0.16652224137046331, abs=1e-14)
    assert spectrum_amplitude(ModeIndex(0, 1), geo) == pytest.approx(0.028570699745639326, abs=1e-14)
    # identity route: P = (1 - t^2) t^(|l| + 2p)
    t = geo.t
    assert spectrum_amplitude(ModeIndex(-2, 3), geo) == pytest.approx((1 - t * t) * t ** 8, rel=1e-14)


def test_spectrum_symmetry_and_monotonicity():
    geo = source_geometry(SIGMA_S, 1e-4)
    spec = build_spectrum(geo, 5, 4)
    assert spec.amplitudes.shape == (11, 5)
    for l in range(1, 6):
        np.testing.assert_allclose(spec.amplitudes[5 + l], spec.amplitudes[5 - l])
    # strictly decreasing in |l| and in p for 0 < t < 1
    col = spec.amplitudes[5:, 0]
    assert np.all(np.diff(col) < 0)
    row = spec.amplitudes[5, :]
    assert np.all(np.diff(row) < 0)


def test_spectrum_ratio_law():
    geo = source_geometry(SIGMA_S, 2.5e-5)
    spec = build_spectrum(geo, 6, 6)
    p00 = spec.amplitude(0, 0)
    for l in (-6, -1, 0, 2, 5):
        for p in (0, 3, 6):
            assert spec.amplitude(l, p) / p00 == pytest.approx(geo.t ** (abs(l) + 2 * p), rel=1e-12)


def test_spectrum_container_validation():
    with pytest.raises(ValueError):
        SpiralSpectrum(1, 1, np.ones((3, 3)))  # wrong p axis
    with pytest.raises(ValueError):
        SpiralSpectrum(1, 1, -np.ones((3, 2)))
    with pytest.raises(ValueError):
        build_spectrum(source_geometry(SIGMA_S), -1, 0)


def test_amplitude_accessor_bounds():
    spec = flat_spectrum(2, 1)
    assert spec.amplitude(-2, 1) == 1.0
    assert spec.d == 10
    with pytest.raises(ValueError):
        spec.amplitude(3, 0)
    with pytest.raises(ValueError):
        spec.amplitude(0, 2)


def test_truncated_sum_squares_converges():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    spec = build_spectrum(geo, 40, 40)
    assert spec.sum_squares() == pytest.approx(1.0, abs=1e-12)


def test_closed_form_sums_match_direct_sums():
    geo = source_geometry(SIGMA_S, 4e-4)
    s1, s2, s4 = full_lattice_sums(geo)
    t = geo.t
    assert s1 == pytest.approx((1 + t) / (1 - t), rel=1e-14)
    assert s2 == 1.0
    assert s4 == pytest.approx(((1 - t * t) / (1 + t * t)) ** 2, rel=1e-14)
    spec = build_spectrum(geo, 120, 120)
    assert spec.sum_amplitudes() == pytest.approx(s1, abs=1e-9)
    assert spec.sum_fourth() == pytest.approx(s4, abs=1e-12)


def test_oam_marginal_sums_squares_over_p():
    geo = source_geometry(SIGMA_S, 1e-4)
    spec = build_spectrum(geo, 3, 90)
    marg = spec.oam_marginal()
    assert marg.shape == (7,)
    t = geo.t
    # sum_p P^2 = (1 - t^2)^2 t^(2|l|) / (1 - t^4)
    for i, l in enumerate(range(-3, 4)):
        expect = (1 - t * t) ** 2 * t ** (2 * abs(l)) / (1 - t ** 4)
        assert marg[i] == pytest.approx(expect, rel=1e-10)


def test_schmidt_number_at_twice_sigma_s():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    spec = build_spectrum(geo, 60, 60)
    assert schmidt_number(spec) == pytest.approx(9.0 / 8.0, abs=1e-9)


def test_csd_value_basics():
    geo = source_geometry(SIGMA_S, 1e-4)
    origin = np.zeros(2)
    assert csd_value(origin, origin, geo) == pytest.approx(1.0)
    a = np.array([2e-4, -1e-4])
    b = np.array([-3e-4, 5e-5])
    assert csd_value(a, b, geo) == pytest.approx(csd_value(b, a, geo), rel=1e-14)
    # explicit product form
    expect = math.exp(-(np.dot(a, a) + np.dot(b, b)) / (4 * SIGMA_S ** 2)) * math.exp(
        -np.dot(a - b, a - b) / (2 * (1e-4) ** 2))
    assert csd_value(a, b, geo) == pytest.approx(expect, rel=1e-12)


def test_csd_value_coherent_limit_is_envelope():
    geo = source_geometry(SIGMA_S, math.inf)
    a = np.array([4e-4, 2e-4])
    b = np.array([-8e-4, 1e-4])
    expect = math.exp(-(np.dot(a, a) + np.dot(b, b)) / (4 * SIGMA_S ** 2))
    assert csd_value(a, b, geo) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("sigma_g,l_max,p_max,side", [(2e-3, 1, 1, 96), (2.5e-5, 6, 6, 128), (1e-4, 3, 0, 65)])
def test_oracle_grid_is_default_grid(sigma_g, l_max, p_max, side):
    geo = source_geometry(SIGMA_S, sigma_g)
    assert oracle_grid(geo, l_max, p_max, side) == default_grid(BeamSpec(geo.matched_waist), l_max, p_max, side)


def test_csd_decomposition_selection_rule_small():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    spec = oracle_grid(geo, 1, 1, 96)
    tensor = csd_mode_decompose(geo, 1, 1, spec)
    f0 = tensor.coefficient(0, 0, 0, 0).real
    assert f0 > 0
    for l1 in (-1, 0, 1):
        for l2 in (-1, 0, 1):
            for p1 in (0, 1):
                for p2 in (0, 1):
                    f = tensor.coefficient(l1, l2, p1, p2)
                    if l2 == -l1 and p2 == p1:
                        expect = geo.t ** (abs(l1) + 2 * p1)
                        assert f.real / f0 == pytest.approx(expect, abs=1e-9)
                        assert abs(f.imag) / f0 < 1e-9
                    else:
                        assert abs(f) / f0 < 1e-9


def test_csd_decomposition_budget_refusal():
    geo = source_geometry(SIGMA_S, 2.0 * SIGMA_S)
    with pytest.raises(ValueError):
        csd_mode_decompose(geo, 11, 0, GridSpec(64, 1e-2))
    with pytest.raises(ValueError):
        csd_mode_decompose(geo, 0, 11, GridSpec(64, 1e-2))
    with pytest.raises(ValueError):
        csd_mode_decompose(geo, 0, 0, GridSpec(513, 1e-2))


def test_csd_decomposition_refuses_an_underflowing_sigma_g():
    # 2 sigma_g^2 underflows to 0, which would make every kernel entry 0/0.
    geo = source_geometry(SIGMA_S, 1e-300)
    with pytest.raises(ValueError, match="sigma_g"):
        csd_mode_decompose(geo, 0, 0, GridSpec(32, 1e-2))


# A 32^2 window of 1 cm cannot sample a 45 um waist: the mode guard fires too.
@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
def test_csd_decomposition_warns_on_unresolved_coherence():
    geo = source_geometry(SIGMA_S, 1e-6)
    with pytest.warns(UserWarning, match="resolve"):
        csd_mode_decompose(geo, 0, 0, GridSpec(32, 1e-2))


def dense_csd_projection(geo, l_max, p_max, spec):
    """f = A^T W A dA^2 with W the dense N^2 x N^2 CSD at the pixel centres and
    A the conjugate LG modes from the pointwise oracle, one column per (l, p)."""
    x, y = spec.grids()
    points = np.stack([x.ravel(), y.ravel()], axis=-1)
    w = csd_value(points[:, None, :], points[None, :, :], geo)
    r, phi = spec.polar()
    beam = BeamSpec(geo.matched_waist)
    a = np.stack([np.conj(lg_amplitude(ModeIndex(l, p), beam, r, phi)).ravel()
                  for l in range(-l_max, l_max + 1) for p in range(p_max + 1)], axis=1)
    f = a.T @ w @ a * spec.pixel_area ** 2
    nl, np_ = 2 * l_max + 1, p_max + 1
    return f.reshape(nl, np_, nl, np_).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("sigma_g,l_max,p_max,side_points", [
    (2.0 * SIGMA_S, 2, 2, 20),
    (1.2 * SIGMA_S, 2, 2, 20),
    (math.inf, 2, 2, 20),
    (1.5 * SIGMA_S, 0, 2, 20),
    (1.2 * SIGMA_S, 2, 2, 21),
    (math.inf, 2, 2, 21),
    (2.0 * SIGMA_S, 2, 2, 2),
    (math.inf, 2, 2, 3),
    (1.2 * SIGMA_S, 3, 1, 20),
    (math.inf, 3, 1, 21),
], ids=["0.002-2-2", "0.0012-2-2", "inf-2-2", "0.0015-0-2", "0.0012-2-2-odd21", "inf-2-2-odd21",
        "0.002-2-2-side2", "inf-2-2-odd3", "0.0012-3-1", "inf-3-1-odd21"])
# The dense oracle is quartic in N, so the grids are coarse enough to undersample
# LG(2, 2) by up to 0.5% of its norm (2^2 and 3^2 windows by far more); both
# sides use the same sampled modes. The 2^2 window's pitch is also wider than sigma_g.
@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@pytest.mark.filterwarnings("ignore:pixel pitch:UserWarning")
def test_csd_decomposition_matches_dense_quadrature(sigma_g, l_max, p_max, side_points):
    # Uses neither the separable kernel, nor the HG tables, nor their mirror
    # images across the window's centre lines; odd side_points puts a centre
    # row and column on the mirror lines.
    geo = source_geometry(SIGMA_S, sigma_g)
    spec = oracle_grid(geo, l_max, p_max, side_points)
    expect = dense_csd_projection(geo, l_max, p_max, spec)
    got = csd_mode_decompose(geo, l_max, p_max, spec).coefficients
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))
