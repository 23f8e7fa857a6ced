"""Digital spiral decomposition of an object and thermal ghost-image synthesis.

The object sits at plane -z1 and is decomposed over LG modes there; the
thermal source filters each mode by its spiral amplitude and conjugates it,
and the image plane at +z2 receives a coherent "pure" term on top of an
object-weighted incoherent background. The total intensity is
background + |pure|^2 by construction.

Each pass is a call into field_grid's mode engine, which holds the LG-to-HG
map and everything that reads it (see its docstring): object_spectrum is its
analysis pass _hg_overlaps at -z1, render_pure_image its synthesis pass
_hg_raster at +z2, and render_background gathers its cached profile
sum P |LG|^2 over the radius shells (_background_profile, _shells) onto the
window. This module keeps the imaging physics: the object's plane, the image
table P conj(A) of the modes (-l, p), the background weight sum P |A|^2,
which alone depends on the object, the two-term total and the PGM files.
Every pass judges its window itself (_warn_if_clipped). On a 2-vCPU x86-64
host a coherent pass at 256^2 with l_max = 5, p_max = 9 takes about
0.4-0.6 ms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field_grid import (
    BeamSpec,
    ComplexField,
    GridSpec,
    _background_profile,
    _hg_overlaps,
    _hg_raster,
    _lattice_entry,
    _lattice_shape,
    _lattice_table,
    _shells,
    _warn_if_clipped,
)
from .thermal_source import SpiralSpectrum, SourceGeometry, build_spectrum

__all__ = [
    "GhostImageResult",
    "ModeCoefficients",
    "clover_object",
    "image_spectrum",
    "load_object",
    "object_spectrum",
    "read_pgm",
    "render_background",
    "render_pure_image",
    "render_total",
    "write_pgm16",
]


@dataclass(frozen=True)
class ModeCoefficients:
    """Complex coefficient table over |l| <= l_max, 0 <= p <= p_max.

    `plane` records the z at which the table was defined (decomposition plane
    for object spectra, the balanced synthesis plane for image spectra); the
    render operations take their synthesis plane explicitly.
    """

    l_max: int
    p_max: int
    values: np.ndarray  # shape (2 l_max + 1, p_max + 1), row index l + l_max
    plane: float
    beam: BeamSpec

    def __post_init__(self):
        object.__setattr__(self, "values", _lattice_table(self.l_max, self.p_max, self.values, complex,
                                                          "coefficient table"))

    def value(self, l: int, p: int) -> complex:
        return complex(_lattice_entry(self.values, self.l_max, self.p_max, (l,), (p,)))

    def power(self) -> float:
        """Sum of |coefficient|^2 over the truncation."""
        return float(np.sum(np.abs(self.values) ** 2))


@dataclass(frozen=True)
class GhostImageResult:
    """Rendered pure field, background raster, their combined intensity, the
    object-dependent background weight, and the object and image mode tables
    they were synthesized from."""

    pure_field: ComplexField
    background: np.ndarray
    total_intensity: np.ndarray
    background_weight: float
    object_coefficients: ModeCoefficients
    image_coefficients: ModeCoefficients


def load_object(intensity, phase, spec: GridSpec) -> ComplexField:
    """Amplitude-phase object from grayscale rasters.

    O = sqrt(I / max I) * exp(i theta). The phase raster's own value range is
    mapped linearly onto [-pi, pi); a missing phase raster means zero phase,
    and a constant one maps to zero as well.
    """
    inten = np.asarray(intensity, dtype=float)
    n = spec.side_points
    if inten.shape != (n, n):
        raise ValueError(f"intensity raster shape {inten.shape} does not match grid ({n}, {n})")
    if not np.all(np.isfinite(inten)) or np.any(inten < 0):
        raise ValueError("intensity raster must be finite and nonnegative")
    peak = float(inten.max())
    if peak <= 0.0:
        raise ValueError("object intensity is identically zero")
    amplitude = np.sqrt(inten / peak)
    if phase is None:
        return ComplexField(spec, amplitude.astype(complex))
    ph = np.asarray(phase, dtype=float)
    if ph.shape != (n, n):
        raise ValueError(f"phase raster shape {ph.shape} does not match grid ({n}, {n})")
    if not np.all(np.isfinite(ph)):
        raise ValueError("phase raster must be finite")
    lo = float(ph.min())
    hi = float(ph.max())
    if hi > lo:
        theta = -math.pi + 2.0 * math.pi * (ph - lo) / (hi - lo)
        theta = np.where(theta >= math.pi, -math.pi, theta)
    else:
        theta = np.zeros_like(ph)
    return ComplexField(spec, amplitude * np.exp(1j * theta))


def clover_object(spec: GridSpec, radius: float) -> ComplexField:
    """Built-in four-lobed amplitude-and-phase test target.

    amplitude(r, phi) = exp(-(r/radius)^2) * |cos(2 phi)|
    phase(r, phi)     = (pi/2) * cos(2 phi)

    Lobes sit on the coordinate axes; opposite lobes share a phase sign while
    adjacent lobes are phase-reversed, so the target exercises intensity and
    phase imaging at once.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r, phi = spec.polar()
    c2 = np.cos(2.0 * phi)
    samples = np.exp(-((r / radius) ** 2)) * np.abs(c2) * np.exp(1j * (math.pi / 2) * c2)
    return ComplexField(spec, samples)


def _check_truncation(coeffs: ModeCoefficients, spectrum: SpiralSpectrum) -> None:
    if (coeffs.l_max, coeffs.p_max) != (spectrum.l_max, spectrum.p_max):
        raise ValueError(
            f"truncation mismatch: coefficients ({coeffs.l_max}, {coeffs.p_max}) "
            f"vs spectrum ({spectrum.l_max}, {spectrum.p_max})"
        )


def object_spectrum(obj: ComplexField, beam: BeamSpec, z1: float, l_max: int, p_max: int) -> ModeCoefficients:
    """Overlap coefficients of the object against LG modes at plane -z1, through field_grid._hg_overlaps."""
    _lattice_shape(l_max, p_max)  # refuse a negative truncation before the passes
    plane = 0.0 - float(z1)  # not -z1, which makes the plane z1 = 0 into -0.0
    _warn_if_clipped(beam, obj.spec, plane, l_max, p_max)
    values = _hg_overlaps(obj.samples, beam, obj.spec, plane, l_max, p_max)
    return ModeCoefficients(l_max, p_max, values, plane, beam)


def image_spectrum(coeffs: ModeCoefficients, spectrum: SpiralSpectrum) -> ModeCoefficients:
    """Image coefficients: mode (-l, p) carries P[l, p] * conj(A[l, p]).

    Since the spectrum is even in l this is the spectrum table times the
    l-flipped conjugated object table. The recorded plane is the balanced
    synthesis plane -A.plane; render_pure_image takes its plane explicitly.
    """
    _check_truncation(coeffs, spectrum)
    values = spectrum.amplitudes * np.conj(coeffs.values[::-1, :])
    return ModeCoefficients(coeffs.l_max, coeffs.p_max, values, -coeffs.plane, coeffs.beam)


def render_pure_image(coeffs: ModeCoefficients, spec: GridSpec, z2: float) -> ComplexField:
    """Coherent sum of coefficient-weighted LG modes at plane +z2, through field_grid._hg_raster."""
    _warn_if_clipped(coeffs.beam, spec, float(z2), coeffs.l_max, coeffs.p_max)
    raster, finite = _hg_raster(coeffs.values, coeffs.beam, spec, float(z2), coeffs.l_max, coeffs.p_max)
    return ComplexField._adopt(spec, raster, finite=finite)  # a fresh raster: no copy


def render_background(
    coeffs: ModeCoefficients,
    spectrum: SpiralSpectrum,
    spec: GridSpec,
    z2: float,
) -> tuple[np.ndarray, float]:
    """Incoherent background raster and its object-dependent weight.

    weight = sum P |A|^2 over the truncation; the raster is
    weight * sum_{l', p'} P_{l', p'} |LG_{l', p'}(rho, z2)|^2, azimuthally
    symmetric because every |LG|^2 is purely radial: one profile over the
    radius shells, gathered once onto the window. Only the weight depends on
    the object; the profile is cached (_background_profile) and each call
    scales and gathers it into a fresh raster.
    """
    _check_truncation(coeffs, spectrum)
    _warn_if_clipped(coeffs.beam, spec, float(z2), spectrum.l_max, spectrum.p_max)
    weight = float(np.sum(spectrum.amplitudes * np.abs(coeffs.values) ** 2))
    profile = _background_profile(spectrum.amplitudes.tobytes(), spectrum.l_max, spectrum.p_max,
                                  coeffs.beam, spec, float(z2))
    return (weight * profile)[_shells(spec)[1]], weight


def render_total(
    obj: ComplexField,
    geometry: SourceGeometry,
    z1: float,
    z2: float,
    l_max: int,
    p_max: int,
    wavelength: float = 632.8e-9,
) -> GhostImageResult:
    """Full two-term ghost image of the object.

    Decomposes the object at -z1 with the matched-waist beam, filters by the
    thermal spiral spectrum, and synthesizes the pure term and the background
    at +z2, all on the object's grid. The result also carries the object and
    image mode tables.
    """
    beam = BeamSpec(geometry.matched_waist, wavelength)
    spectrum = build_spectrum(geometry, l_max, p_max)
    coeffs = object_spectrum(obj, beam, z1, l_max, p_max)
    image = image_spectrum(coeffs, spectrum)
    pure = render_pure_image(image, obj.spec, z2)
    background, weight = render_background(coeffs, spectrum, obj.spec, z2)
    total = background + pure.samples.real ** 2 + pure.samples.imag ** 2
    return GhostImageResult(pure, background, total, weight, coeffs, image)


def write_pgm16(path, data, lo: float | None = None, hi: float | None = None) -> tuple[float, float]:
    """Write a real raster as 16-bit binary PGM with linear min-max scaling.

    Returns the (lo, hi) values that map to 0 and 65535; record them in a
    sidecar to keep the file quantitative.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d raster, got shape {arr.shape}")
    if lo is None:
        lo = float(arr.min())
    if hi is None:
        hi = float(arr.max())
    if hi > lo:
        pix = np.rint(65535.0 * np.clip((arr - lo) / (hi - lo), 0.0, 1.0)).astype(">u2")
    else:
        pix = np.zeros(arr.shape, dtype=">u2")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pix.tobytes())
    return lo, hi


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM, 8- or 16-bit, as a float array of raw values."""
    with open(path, "rb") as fh:
        blob = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError(f"{path}: truncated PGM header")
        tokens.append(blob[start:i])
    i += 1  # single whitespace byte after maxval
    if tokens[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    if not all(t.isdigit() for t in tokens[1:]):
        raise ValueError(f"{path}: bad PGM width, height or maxval {b' '.join(tokens[1:])!r}")
    width, height, maxval = (int(t) for t in tokens[1:])
    if width < 1 or height < 1:
        raise ValueError(f"{path}: PGM size {width}x{height} has no pixels")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: PGM maxval {maxval} outside 1..65535")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    count = width * height
    available = max(len(blob) - i, 0) // dtype.itemsize
    if available < count:
        raise ValueError(f"{path}: expected {count} pixels, got {available}")
    data = np.frombuffer(blob, dtype=dtype, count=count, offset=i)
    return data.reshape(height, width).astype(float)
