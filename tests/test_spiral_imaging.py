import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oamghost import field_grid
from oamghost.field_grid import (
    BeamSpec,
    ComplexField,
    GridSpec,
    ModeClippedWarning,
    ModeIndex,
    default_grid,
    iter_lg_rasters,
    lg_amplitude,
)
from oamghost.spiral_imaging import (
    ModeCoefficients,
    clover_object,
    image_spectrum,
    load_object,
    object_spectrum,
    read_pgm,
    render_background,
    render_pure_image,
    render_total,
    write_pgm16,
)
from oamghost.thermal_source import build_spectrum, flat_spectrum, source_geometry

GEO = source_geometry(1e-3, 5e-4)
BEAM = BeamSpec(GEO.matched_waist)
Z1 = 0.5
Z2 = 0.5


def small_grid(side=128):
    return default_grid(BEAM, l_max=3, p_max=3, side_points=side)


def sample(mode, spec, z, beam=BEAM):
    """Pointwise oracle lg_amplitude evaluated at every pixel center."""
    r, phi = spec.polar()
    return ComplexField(spec, lg_amplitude(mode, beam, r, phi, z))


def test_load_object_amplitude_normalization():
    spec = GridSpec(4, 1.0)
    inten = np.array([[0.0, 1.0, 4.0, 0.0]] * 4)
    obj = load_object(inten, None, spec)
    np.testing.assert_allclose(obj.samples, np.sqrt(inten / 4.0))
    assert obj.samples.dtype == complex


def test_load_object_phase_mapping():
    spec = GridSpec(2, 1.0)
    inten = np.ones((2, 2))
    ph = np.array([[0.0, 128.0], [255.0, 64.0]])
    obj = load_object(inten, ph, spec)
    theta = np.angle(obj.samples)
    # min -> -pi; max wraps to -pi; interior values map linearly
    assert theta[0, 0] == pytest.approx(-math.pi)
    assert theta[1, 0] == pytest.approx(-math.pi)
    assert theta[0, 1] == pytest.approx(-math.pi + 2.0 * math.pi * 128.0 / 255.0)
    assert theta[1, 1] == pytest.approx(-math.pi + 2.0 * math.pi * 64.0 / 255.0)


def test_load_object_constant_phase_is_zero():
    spec = GridSpec(2, 1.0)
    obj = load_object(np.ones((2, 2)), np.full((2, 2), 7.0), spec)
    np.testing.assert_array_equal(np.angle(obj.samples), np.zeros((2, 2)))


def test_load_object_errors():
    spec = GridSpec(2, 1.0)
    with pytest.raises(ValueError):
        load_object(np.zeros((2, 2)), None, spec)
    with pytest.raises(ValueError):
        load_object(-np.ones((2, 2)), None, spec)
    with pytest.raises(ValueError):
        load_object(np.ones((3, 3)), None, spec)
    with pytest.raises(ValueError):
        load_object(np.ones((2, 2)), np.full((2, 2), np.nan), spec)


def test_clover_object_structure():
    spec = GridSpec(128, 4e-3)
    obj = clover_object(spec, 1e-3)
    r, phi = spec.polar()
    # nodal lines on the diagonals
    diag = np.abs(np.abs(phi) - math.pi / 4.0) < 0.01
    assert np.max(np.abs(obj.samples[diag])) < 0.05
    # quarter turn flips the phase sign but keeps the amplitude
    np.testing.assert_allclose(np.rot90(obj.samples), np.conj(obj.samples), atol=1e-12)
    with pytest.raises(ValueError):
        clover_object(spec, 0.0)


def test_object_spectrum_recovers_single_mode():
    spec = small_grid()
    obj = sample(ModeIndex(0, 0), spec, -Z1)
    coeffs = object_spectrum(obj, BEAM, Z1, 3, 3)
    assert coeffs.plane == -Z1
    assert coeffs.value(0, 0) == pytest.approx(1.0, abs=1e-9)
    rest = coeffs.values.copy()
    rest[3, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-9


def test_object_spectrum_recovers_propagated_vortex():
    spec = small_grid()
    obj = sample(ModeIndex(1, 0), spec, -Z1)
    coeffs = object_spectrum(obj, BEAM, Z1, 3, 3)
    assert coeffs.value(1, 0) == pytest.approx(1.0, abs=1e-9)
    assert abs(coeffs.value(-1, 0)) < 1e-9
    assert abs(coeffs.value(1, 1)) < 1e-9


def test_object_spectrum_azimuthal_selection():
    spec = small_grid()
    r, phi = spec.polar()
    w = BEAM.waist
    obj = ComplexField(spec, np.exp(-(r / w) ** 2) * np.exp(1j * phi))
    coeffs = object_spectrum(obj, BEAM, 0.0, 3, 2)
    # pixelation couples l offsets that are multiples of 4 at the 1e-9 level
    for l in (-3, -2, -1, 0, 2, 3):
        for p in range(3):
            assert abs(coeffs.value(l, p)) < 1e-8
    # analytic overlap of exp(-(r/w)^2) e^{i phi} with the (1, 0) mode;
    # midpoint quadrature at 128^2 is good to a few 1e-5 relative
    assert coeffs.value(1, 0) == pytest.approx(math.pi * math.sqrt(2.0) * w / 4.0, rel=1e-4)


def test_mode_coefficients_validation():
    with pytest.raises(ValueError):
        ModeCoefficients(1, 1, np.zeros((2, 2)), 0.0, BEAM)
    with pytest.raises(ValueError):
        ModeCoefficients(1, 1, np.full((3, 2), np.nan), 0.0, BEAM)
    c = ModeCoefficients(1, 1, np.zeros((3, 2)), 0.0, BEAM)
    with pytest.raises(ValueError):
        c.value(2, 0)


def test_image_spectrum_flat_is_conjugate_flip():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    coeffs = ModeCoefficients(2, 2, a, -Z1, BEAM)
    image = image_spectrum(coeffs, flat_spectrum(2, 2))
    assert image.plane == Z1
    for l in range(-2, 3):
        for p in range(3):
            assert image.value(-l, p) == pytest.approx(np.conj(coeffs.value(l, p)), rel=1e-14)


def test_image_spectrum_weights_by_spiral_amplitude():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    coeffs = ModeCoefficients(2, 2, a, -Z1, BEAM)
    spectrum = build_spectrum(GEO, 2, 2)
    image = image_spectrum(coeffs, spectrum)
    for l in range(-2, 3):
        for p in range(3):
            expect = spectrum.amplitude(l, p) * np.conj(coeffs.value(l, p))
            assert image.value(-l, p) == pytest.approx(expect, rel=1e-13)


def test_image_spectrum_truncation_mismatch():
    coeffs = ModeCoefficients(2, 2, np.zeros((5, 3)), -Z1, BEAM)
    with pytest.raises(ValueError):
        image_spectrum(coeffs, flat_spectrum(2, 1))


def test_render_pure_image_single_mode():
    spec = small_grid(96)
    values = np.zeros((7, 4), dtype=complex)
    c = 0.3 - 1.4j
    values[3 + 2, 1] = c
    coeffs = ModeCoefficients(3, 3, values, Z1, BEAM)
    field = render_pure_image(coeffs, spec, Z2)
    expect = c * sample(ModeIndex(2, 1), spec, Z2).samples
    np.testing.assert_allclose(field.samples, expect, atol=1e-15)


def test_render_background_weight_and_symmetry():
    spec = small_grid(96)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    coeffs = ModeCoefficients(3, 3, a, -Z1, BEAM)
    spectrum = build_spectrum(GEO, 3, 3)
    raster, weight = render_background(coeffs, spectrum, spec, Z2)
    expect_weight = float(np.sum(spectrum.amplitudes * np.abs(a) ** 2))
    assert weight == pytest.approx(expect_weight, rel=1e-12)
    assert np.all(raster >= 0)
    np.testing.assert_allclose(np.rot90(raster), raster, atol=1e-15 * raster.max())


def _background_case(l_max=3, p_max=3):
    rng = np.random.default_rng(6)
    shape = (2 * l_max + 1, p_max + 1)
    coeffs = ModeCoefficients(l_max, p_max, rng.normal(size=shape) + 1j * rng.normal(size=shape), -Z1, BEAM)
    return coeffs, build_spectrum(GEO, l_max, p_max), small_grid(96)


def test_render_background_cached_profile_is_bitwise_the_computed_one():
    coeffs, spectrum, spec = _background_case()
    field_grid._background_profile.cache_clear()
    computed, weight = render_background(coeffs, spectrum, spec, Z2)
    assert field_grid._background_profile.cache_info().misses == 1
    cached, cached_weight = render_background(coeffs, spectrum, spec, Z2)
    assert field_grid._background_profile.cache_info().hits == 1
    np.testing.assert_array_equal(cached, computed)
    assert cached_weight == weight


def test_render_background_cache_keys_the_spectrum_by_value():
    coeffs, thermal, spec = _background_case()
    flat = flat_spectrum(3, 3)
    thermal_raster, thermal_weight = render_background(coeffs, thermal, spec, Z2)
    flat_raster, flat_weight = render_background(coeffs, flat, spec, Z2)
    # Same shape, grid and plane: only the amplitude values tell the profiles apart.
    assert not np.allclose(thermal_raster / thermal_weight, flat_raster / flat_weight)
    field_grid._background_profile.cache_clear()
    np.testing.assert_array_equal(render_background(coeffs, flat, spec, Z2)[0], flat_raster)
    np.testing.assert_array_equal(render_background(coeffs, thermal, spec, Z2)[0], thermal_raster)


def test_render_background_returns_a_raster_of_its_own():
    coeffs, spectrum, spec = _background_case()
    first, _ = render_background(coeffs, spectrum, spec, Z2)
    expect = first.copy()
    first *= -1.0
    np.testing.assert_array_equal(render_background(coeffs, spectrum, spec, Z2)[0], expect)


def test_render_background_cache_stays_bounded():
    coeffs, spectrum, spec = _background_case(1, 1)
    limit = field_grid._background_profile.cache_info().maxsize
    for k in range(limit + 4):
        render_background(coeffs, spectrum, spec, 0.1 + 0.05 * k)
        assert field_grid._background_profile.cache_info().currsize <= limit


def test_render_background_warns_on_every_call():
    # The second call is a cache hit that never runs the engine; it must warn all the same.
    coeffs, spectrum, _ = _background_case()
    spec = GridSpec(32, 2.0 * BEAM.waist)
    for _ in range(2):
        with pytest.warns(ModeClippedWarning) as record:
            render_background(coeffs, spectrum, spec, Z2)
        assert len(record) == 1
        assert record[0].filename == __file__


def test_render_pure_image_samples_are_read_only():
    coeffs, _, spec = _background_case()
    field = render_pure_image(coeffs, spec, Z2)
    assert not field.samples.flags.writeable
    with pytest.raises(ValueError):
        field.samples[0, 0] = 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_render_pure_image_scans_a_raster_it_cannot_bound():
    # Rasters bounded far below overflow skip the finiteness scan; these are not, so they are
    # scanned: a finite raster above 1e300 passes, and one that overflows is refused.
    spec = small_grid(32)
    big = render_pure_image(ModeCoefficients(3, 3, np.full((7, 4), 1e300 + 0j), Z1, BEAM), spec, Z2)
    assert np.abs(big.samples).max() > 1e300
    for scale in (1e305, 1e308):
        coeffs = ModeCoefficients(3, 3, np.full((7, 4), scale + 0j), Z1, BEAM)
        with pytest.raises(ValueError, match="field samples must be finite"):
            render_pure_image(coeffs, spec, Z2)


def test_render_total_two_term_identity():
    spec = small_grid(96)
    obj = clover_object(spec, 8e-4)
    result = render_total(obj, GEO, Z1, Z2, 3, 3)
    expect = result.background + np.abs(result.pure_field.samples) ** 2
    np.testing.assert_allclose(result.total_intensity, expect, atol=1e-18)
    assert result.background_weight > 0


def test_render_total_matches_explicit_pipeline():
    spec = small_grid(96)
    obj = clover_object(spec, 8e-4)
    result = render_total(obj, GEO, Z1, Z2, 2, 2)
    coeffs = object_spectrum(obj, BEAM, Z1, 2, 2)
    spectrum = build_spectrum(GEO, 2, 2)
    pure = render_pure_image(image_spectrum(coeffs, spectrum), spec, Z2)
    background, weight = render_background(coeffs, spectrum, spec, Z2)
    np.testing.assert_array_equal(result.object_coefficients.values, coeffs.values)
    np.testing.assert_array_equal(result.image_coefficients.values,
                                  image_spectrum(coeffs, spectrum).values)
    np.testing.assert_allclose(result.pure_field.samples, pure.samples, atol=1e-14)
    np.testing.assert_allclose(result.background, background, rtol=1e-12)
    assert result.background_weight == pytest.approx(weight, rel=1e-12)


def test_render_total_linearity_in_object():
    spec = small_grid(96)
    obj = clover_object(spec, 8e-4)
    c = 0.6 + 0.8j
    scaled = ComplexField(spec, c * obj.samples)
    base = render_total(obj, GEO, Z1, Z2, 2, 2)
    got = render_total(scaled, GEO, Z1, Z2, 2, 2)
    # pure term picks up conj(c), both intensities scale by |c|^2 = 1
    np.testing.assert_allclose(got.pure_field.samples, np.conj(c) * base.pure_field.samples,
                               atol=1e-14)
    np.testing.assert_allclose(got.total_intensity, base.total_intensity, rtol=1e-10)


def test_render_total_coherent_limit():
    # with sigma_g = inf only (0, 0) survives: both terms collapse to the
    # fundamental mode weighted by |A00|^2
    geo = source_geometry(1e-3, math.inf)
    beam = BeamSpec(geo.matched_waist)
    spec = default_grid(beam, l_max=2, p_max=2, side_points=96)
    obj = clover_object(spec, 8e-4)
    result = render_total(obj, geo, Z1, Z2, 2, 2)
    a00 = object_spectrum(obj, beam, Z1, 2, 2).value(0, 0)
    mode = sample(ModeIndex(0, 0), spec, Z2, beam).samples
    np.testing.assert_allclose(result.pure_field.samples, np.conj(a00) * mode, atol=1e-15)
    np.testing.assert_allclose(result.total_intensity,
                               2.0 * abs(a00) ** 2 * np.abs(mode) ** 2, rtol=1e-10)


@pytest.mark.parametrize("z,side", [
    pytest.param(0.0, 112, id="0.0"),
    pytest.param(Z2, 112, id="0.5"),
    # Both passes run over blocks of window rows: here 113 rows leave a short last block, 3 rows
    # (which undersample the modes) are one block, and 512 rows make blocks of a few rows.
    pytest.param(Z2, 113, id="0.5-113"),
    pytest.param(Z2, 3, id="0.5-3", marks=pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")),
    pytest.param(Z2, 512, id="0.5-512"),
])
def test_hg_passes_match_pointwise_oracle_at_order_60(z, side):
    # At l_max = p_max = 20 the HG tables reach order N = 60; every value is checked per mode
    # against lg_amplitude at every pixel of the window.
    lm = pm = 20
    spec = default_grid(BEAM, l_max=lm, p_max=pm, side_points=side, z=z)
    modes = [ModeIndex(20, 20), ModeIndex(-20, 20), ModeIndex(0, 20), ModeIndex(-13, 17), ModeIndex(7, 10)]
    ref = {m: sample(m, spec, z).samples for m in modes}
    for m in modes:
        values = np.zeros((2 * lm + 1, pm + 1), dtype=complex)
        values[m.l + lm, m.p] = 1.0
        got = render_pure_image(ModeCoefficients(lm, pm, values, z, BEAM), spec, z).samples
        assert np.max(np.abs(got - ref[m])) <= 1e-12 * np.max(np.abs(ref[m]))
    rng = np.random.default_rng(60)
    obj = ComplexField(spec, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    coeffs = object_spectrum(obj, BEAM, -z, lm, pm)
    got = np.array([coeffs.value(m.l, m.p) for m in modes])
    expect = np.array([np.vdot(ref[m], obj.samples) * spec.pixel_area for m in modes])
    assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@settings(max_examples=40, deadline=None)
@given(side=st.integers(2, 40), lm=st.integers(0, 6), pm=st.integers(0, 4), z=st.sampled_from([0.0, 0.3, -0.3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_render_pure_image_is_the_adjoint_of_object_spectrum(side, lm, pm, z, seed):
    # <sum_m c_m LG_m(z) | O> = sum_m conj(c_m) <LG_m(z) | O>, and object_spectrum at -z takes the
    # overlaps <LG_m(z) | O>: the two passes are adjoint on every window and at every plane.
    rng = np.random.default_rng(seed)
    spec = default_grid(BEAM, l_max=lm, p_max=pm, side_points=side, z=z)
    shape = (2 * lm + 1, pm + 1)
    coeffs = ModeCoefficients(lm, pm, rng.normal(size=shape) + 1j * rng.normal(size=shape), z, BEAM)
    obj = ComplexField(spec, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    pure = render_pure_image(coeffs, spec, z).samples
    overlaps = object_spectrum(obj, BEAM, -z, lm, pm).values
    lhs = np.vdot(pure, obj.samples) * spec.pixel_area
    rhs = np.vdot(coeffs.values, overlaps)
    assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(coeffs.values) * np.linalg.norm(overlaps)


@pytest.mark.parametrize("z,side", [(0.0, 80), (Z2, 80), (0.0, 81), (Z2, 81)],
                         ids=["0.0", "0.5", "0.0-81", "0.5-81"])
def test_engine_matches_pointwise_oracle(z, side):
    # Per-mode references from lg_amplitude at every pixel; the HG tables must
    # agree to roundoff in all four consumers. The odd side has a centre row
    # and column at x = 0 and y = 0 exactly.
    lm = pm = 6
    spec = default_grid(BEAM, l_max=lm, p_max=pm, side_points=side, z=z)
    rng = np.random.default_rng(11)
    shape = (2 * lm + 1, pm + 1)
    obj = ComplexField(spec, rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side)))
    coeffs = ModeCoefficients(lm, pm, rng.normal(size=shape) + 1j * rng.normal(size=shape), z, BEAM)
    spectrum = build_spectrum(GEO, lm, pm)
    modes = [ModeIndex(l, p) for l in range(-lm, lm + 1) for p in range(pm + 1)]
    ref = {m: sample(m, spec, z).samples for m in modes}

    def rel(got, expect):
        return np.max(np.abs(got - expect)) / np.max(np.abs(expect))

    decomposed = np.array([[np.vdot(ref[ModeIndex(l, p)], obj.samples) * spec.pixel_area
                            for p in range(pm + 1)] for l in range(-lm, lm + 1)])
    assert rel(object_spectrum(obj, BEAM, -z, lm, pm).values, decomposed) <= 1e-12
    pure = sum(coeffs.value(m.l, m.p) * ref[m] for m in modes)
    assert rel(render_pure_image(coeffs, spec, z).samples, pure) <= 1e-12
    mix = sum(spectrum.amplitude(m.l, m.p) * np.abs(ref[m]) ** 2 for m in modes)
    background, weight = render_background(coeffs, spectrum, spec, z)
    assert rel(background, weight * mix) <= 1e-12
    rasters = dict(iter_lg_rasters(BEAM, spec, z, modes))
    assert max(rel(rasters[m], ref[m]) for m in modes) <= 1e-12


def test_pgm16_roundtrip(tmp_path):
    data = np.linspace(0.0, 3.5, 24).reshape(4, 6)
    path = tmp_path / "img.pgm"
    lo, hi = write_pgm16(path, data)
    assert (lo, hi) == (0.0, 3.5)
    raw = read_pgm(path)
    assert raw.shape == (4, 6)
    np.testing.assert_allclose(lo + raw / 65535.0 * (hi - lo), data, atol=(hi - lo) / 65535.0)


def test_pgm16_fixed_scale_and_constant(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm16(path, np.full((3, 3), 0.5), lo=0.0, hi=1.0)
    raw = read_pgm(path)
    np.testing.assert_allclose(raw, np.full((3, 3), np.rint(0.5 * 65535)))
    # degenerate range writes zeros
    write_pgm16(path, np.full((3, 3), 2.0))
    np.testing.assert_array_equal(read_pgm(path), np.zeros((3, 3)))


def test_read_pgm_eight_bit_with_comment(tmp_path):
    path = tmp_path / "small.pgm"
    payload = bytes([0, 128, 255, 64, 32, 16])
    path.write_bytes(b"P5\n# a comment\n3 2\n255\n" + payload)
    raw = read_pgm(path)
    assert raw.shape == (2, 3)
    np.testing.assert_array_equal(raw.ravel(), list(payload))


def test_read_pgm_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P2\n2 2\n255\n1 2 3 4")
    with pytest.raises(ValueError):
        read_pgm(bad)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ValueError, match="short.pgm"):
        read_pgm(short)
    # header numbers that are unparsable, empty or out of range name the file
    for k, header in enumerate([b"P5\n2 2\n0\n", b"P5\n2 2\n65536\n", b"P5\n2 x\n255\n",
                                b"P5\n-2 2\n255\n", b"P5\n0 2\n255\n", b"P5\n2 2\n2.5\n"]):
        path = tmp_path / f"header{k}.pgm"
        path.write_bytes(header + bytes(8))
        with pytest.raises(ValueError, match=f"header{k}.pgm"):
            read_pgm(path)


def test_object_spectrum_at_z1_zero_records_and_names_the_plane_zero():
    # The plane was stored as -z1, so z1 = 0 became -0.0 and the warning read "z=-0 m".
    obj = ComplexField(GridSpec(32, 8.0 * BEAM.waist), np.ones((32, 32)))
    with pytest.warns(ModeClippedWarning, match="z=0 m"):
        coeffs = object_spectrum(obj, BEAM, 0.0, 10, 5)
    assert math.copysign(1.0, coeffs.plane) == 1.0
