"""The one (l, p)-table contract (field_grid._lattice_table, _lattice_entry) behind the spectrum P,
the mode coefficients A and the CSD tensor f, and the truncation refusal of every producer."""

import math

import numpy as np
import pytest

from oamghost.field_grid import BeamSpec, ComplexField, GridSpec
from oamghost.quantum_correlations import discord_curve
from oamghost.spiral_imaging import ModeCoefficients, object_spectrum
from oamghost.thermal_source import CsdTensor, SpiralSpectrum, build_spectrum, csd_mode_decompose, source_geometry

BEAM = BeamSpec(1e-3)
GEO = source_geometry(1e-3, 1e-4)
SPEC = GridSpec(8, 1e-2)

# One call per producer and container of an (l, p) table, at the truncation (l_max, p_max).
TRUNCATED = {
    "build_spectrum": lambda l_max, p_max: build_spectrum(GEO, l_max, p_max),
    "object_spectrum": lambda l_max, p_max: object_spectrum(ComplexField(SPEC, np.ones((8, 8))), BEAM, 0.3,
                                                            l_max, p_max),
    "csd_mode_decompose": lambda l_max, p_max: csd_mode_decompose(GEO, l_max, p_max, SPEC),
    "discord_curve": lambda l_max, p_max: discord_curve(1e-3, [1e-4], [(l_max, p_max)]),
    "ModeCoefficients": lambda l_max, p_max: ModeCoefficients(l_max, p_max, np.zeros((1, 1)), 0.0, BEAM),
    "SpiralSpectrum": lambda l_max, p_max: SpiralSpectrum(l_max, p_max, np.ones((1, 1))),
    "CsdTensor": lambda l_max, p_max: CsdTensor(l_max, p_max, np.zeros((1, 1, 1, 1))),
}


@pytest.mark.parametrize("truncation", [(-1, 0), (0, -1)])
@pytest.mark.parametrize("name", list(TRUNCATED))
def test_a_negative_truncation_is_refused(name, truncation):
    with pytest.raises(ValueError, match="l_max and p_max must be nonnegative"):
        TRUNCATED[name](*truncation)


@pytest.mark.parametrize("make, values", [
    (lambda v: SpiralSpectrum(1, 1, v), np.ones((3, 3))),
    (lambda v: SpiralSpectrum(1, 1, v), np.ones(6)),
    (lambda v: ModeCoefficients(1, 1, v, 0.0, BEAM), np.zeros((2, 2))),
    (lambda v: ModeCoefficients(1, 1, v, 0.0, BEAM), np.zeros((3, 2)).T),
    (lambda v: CsdTensor(1, 1, v), np.zeros((3, 2))),  # a mode table where a table of mode pairs belongs
    (lambda v: CsdTensor(1, 1, v), np.zeros((3, 3, 2, 3))),
    (lambda v: CsdTensor(1, 1, v), np.zeros((3, 2, 3, 2))),
])
def test_a_table_of_the_wrong_shape_is_refused(make, values):
    with pytest.raises(ValueError, match="shape"):
        make(values)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("make, shape", [
    (lambda v: SpiralSpectrum(1, 1, v), (3, 2)),
    (lambda v: ModeCoefficients(1, 1, v, 0.0, BEAM), (3, 2)),
    (lambda v: CsdTensor(1, 1, v), (3, 3, 2, 2)),
])
def test_a_table_with_a_non_finite_entry_is_refused(make, shape, bad):
    values = np.zeros(shape)
    values.flat[-1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        make(values)


def test_a_negative_amplitude_is_refused_and_a_negative_coefficient_is_not():
    values = np.ones((3, 2))
    values[2, 1] = -1e-300
    with pytest.raises(ValueError, match="must be nonnegative"):
        SpiralSpectrum(1, 1, values)
    assert ModeCoefficients(1, 1, values, 0.0, BEAM).value(1, 1) == -1e-300


def test_a_table_is_a_frozen_copy():
    values = np.arange(6.0).reshape(3, 2)
    for table in (SpiralSpectrum(1, 1, values).amplitudes, ModeCoefficients(1, 1, values, 0.0, BEAM).values):
        values[0, 0] = 7.0
        assert table[0, 0] == 0.0
        assert not table.flags.writeable
    pairs = np.zeros((3, 3, 2, 2))
    tensor = CsdTensor(1, 1, pairs)
    pairs[0, 0, 0, 0] = 7.0
    assert tensor.coefficients[0, 0, 0, 0] == 0.0 and not tensor.coefficients.flags.writeable


def test_entries_are_read_by_signed_index_and_refused_outside_the_truncation():
    values = np.arange(3 * 3 * 2 * 2).reshape(3, 3, 2, 2) + 0.5j
    tensor = CsdTensor(1, 1, values)
    assert tensor.coefficient(-1, 1, 0, 1) == values[0, 2, 0, 1]
    assert tensor.coefficient(1, 0, 1, 0) == values[2, 1, 1, 0]
    for index in ((2, 0, 0, 0), (0, -2, 0, 0), (0, 0, 2, 0), (0, 0, 0, -1)):
        with pytest.raises(ValueError, match=r"outside truncation \(l_max=1, p_max=1\)"):
            tensor.coefficient(*index)
    with pytest.raises(ValueError, match=r"mode \(l=-2, p=0\) outside truncation"):
        SpiralSpectrum(1, 1, np.ones((3, 2))).amplitude(-2, 0)
    with pytest.raises(ValueError, match=r"mode \(l=0, p=-1\) outside truncation"):
        ModeCoefficients(1, 1, np.zeros((3, 2)), 0.0, BEAM).value(0, -1)
