"""Digital spiral decomposition of an object and thermal ghost-image synthesis.

The object sits at plane -z1 and is decomposed over LG modes there; the
thermal source filters each mode by its spiral amplitude and conjugates it,
and the image plane at +z2 receives a coherent "pure" term on top of an
object-weighted incoherent background. The total intensity is
background + |pure|^2 by construction.

All three passes run on the quarter engine of field_grid._lg_blocks: per
|l| they touch only the ceil(N/2)^2 quarter of the window, to fold a pixel
into its radius shell (np.bincount) or to gather its shell's value back,
times the azimuthal harmonic. The rest of the window follows from the
mirror parities of exp(i l phi) (see field_grid): the terms cos(|l| phi)
and sin(|l| phi) each have a fixed sign under x -> -x and y -> -y, set by
their kind and by the parity of l. object_spectrum folds the object once
into the four signed mirror sums of its quarter and contracts each term
with the matching one; render_pure_image adds each term into the quarter
accumulator of its sign pair and writes the four blocks of the window in
one mirror step at the end; render_background's raster is even under both
mirrors. Per-pixel products use the harmonic's real and imaginary parts,
which keeps the temporaries real and few.

The radial contraction of each |l| block is one real matrix product: the
real and imaginary parts of the +|l| and -|l| shell sums (object_spectrum)
or mode weights (render_pure_image) are stacked into four rows and
multiplied with the (p_max + 1, S) radial stack over the S radius shells.
On a 2-vCPU x86-64 host, at 256^2 with p_max = 9, the product took 13 us
against 106 us for the two np.einsum calls it replaces.

A CLI process loads OpenBLAS with one thread (see the package docstring).
In a caller that imported numpy first, OpenBLAS splits these products over
its pool once m n k = 4 (p_max + 1) S exceeds 262144 (README, "Threads").

Only render_background's weight sum P |A|^2 depends on the object. Its
profile sum P |LG|^2 over the radius shells depends on the spectrum, beam,
grid and plane alone and is cached (_background_profile), so a sweep that
renders many objects at a few planes runs its engine pass once per plane.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .field_grid import (
    BeamSpec,
    ComplexField,
    GridSpec,
    _fold,
    _lg_blocks,
    _mirror_fill,
    _mirror_slots,
    _shells,
    _unfold,
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
        if self.l_max < 0 or self.p_max < 0:
            raise ValueError("l_max and p_max must be nonnegative")
        arr = np.asarray(self.values, dtype=complex)
        shape = (2 * self.l_max + 1, self.p_max + 1)
        if arr.shape != shape:
            raise ValueError(f"coefficient table shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def value(self, l: int, p: int) -> complex:
        if abs(l) > self.l_max or not 0 <= p <= self.p_max:
            raise ValueError(f"mode (l={l}, p={p}) outside truncation "
                             f"(l_max={self.l_max}, p_max={self.p_max})")
        return complex(self.values[l + self.l_max, p])

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


def clover_object(spec: GridSpec, radius: float, phase_depth: float = math.pi / 2) -> ComplexField:
    """Built-in four-lobed amplitude-and-phase test target.

    amplitude(r, phi) = exp(-(r/radius)^2) * |cos(2 phi)|
    phase(r, phi)     = phase_depth * cos(2 phi)          (default depth pi/2)

    Lobes sit on the coordinate axes; opposite lobes share a phase sign while
    adjacent lobes are phase-reversed, so the target exercises intensity and
    phase imaging at once.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    r, phi = spec.polar()
    c2 = np.cos(2.0 * phi)
    samples = np.exp(-((r / radius) ** 2)) * np.abs(c2) * np.exp(1j * phase_depth * c2)
    return ComplexField(spec, samples)


def _check_truncation(coeffs: ModeCoefficients, spectrum: SpiralSpectrum) -> None:
    if (coeffs.l_max, coeffs.p_max) != (spectrum.l_max, spectrum.p_max):
        raise ValueError(
            f"truncation mismatch: coefficients ({coeffs.l_max}, {coeffs.p_max}) "
            f"vs spectrum ({spectrum.l_max}, {spectrum.p_max})"
        )


def object_spectrum(obj: ComplexField, beam: BeamSpec, z1: float, l_max: int, p_max: int) -> ModeCoefficients:
    """Overlap coefficients of the object against LG modes at plane -z1.

    The object is folded once into the four signed mirror sums of its
    quarter. Per |l|, the cos(|l| phi) and sin(|l| phi) terms are folded
    into radius shells against the mirror sum of their signs, and one real
    product over the shells gives the +|l| and -|l| rows.
    """
    if l_max < 0 or p_max < 0:
        raise ValueError("l_max and p_max must be nonnegative")
    plane = -float(z1)
    _warn_if_clipped(beam, obj.spec, plane, l_max, p_max)
    values = np.zeros((2 * l_max + 1, p_max + 1), dtype=complex)
    folded = _fold(obj.samples * obj.spec.pixel_area)
    re, im = folded.real.copy(), folded.imag.copy()
    blocks = _lg_blocks(beam, obj.spec, plane, l_max, p_max)
    for l, (radial, harmonic, gouy, chirp, inverse) in enumerate(blocks):
        # Shell sums of target * exp(-i|l|phi) (row +|l|) and target * exp(+i|l|phi)
        # (row -|l|), from four real products: a, c with cos, and b, d with sin.
        index = inverse.ravel()
        n_shells = radial.shape[1]
        cos_slot, sin_slot = _mirror_slots(l)
        a, c = (np.bincount(index, (part[cos_slot] * harmonic.real).ravel(), n_shells)
                for part in (re, im))
        b, d = (np.bincount(index, (part[sin_slot] * harmonic.imag).ravel(), n_shells)
                for part in (im, re))
        shells = np.stack([(a + b) + 1j * (c - d), (a - b) + 1j * (c + d)]) * np.conj(chirp)
        # Rows: re +|l|, re -|l|, im +|l|, im -|l|.
        parts = np.concatenate([shells.real, shells.imag]) @ radial.T
        values[l_max + l] = np.conj(gouy) * (parts[0] + 1j * parts[2])
        values[l_max - l] = np.conj(gouy) * (parts[1] + 1j * parts[3])
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
    """Coherent sum of coefficient-weighted LG modes at plane +z2."""
    l_max = coeffs.l_max
    _warn_if_clipped(coeffs.beam, spec, float(z2), l_max, coeffs.p_max)
    # Quarter accumulators indexed [sx, sy] by the terms' mirror signs (see _fold).
    h = (spec.side_points + 1) // 2
    acc = np.zeros((2, 2, h, h), dtype=complex)
    term = np.empty((h, h), dtype=complex)  # one gathered term, reused for every |l|
    blocks = _lg_blocks(coeffs.beam, spec, float(z2), l_max, coeffs.p_max)
    for l, (radial, harmonic, gouy, chirp, inverse) in enumerate(blocks):
        weights = np.stack([coeffs.values[l_max + l], coeffs.values[l_max - l]]) * gouy
        # Rows: re +|l|, re -|l|, im +|l|, im -|l|.
        parts = np.concatenate([weights.real, weights.imag]) @ radial
        shells = np.empty((2, parts.shape[1]), dtype=complex)
        shells.real, shells.imag = parts[:2], parts[2:]
        shells *= chirp
        cos_slot, sin_slot = _mirror_slots(l)
        if l:
            # exp(i|l|phi) A + exp(-i|l|phi) B = cos (A + B) + sin i (A - B), with real factors.
            np.take(shells[0] + shells[1], inverse, out=term, mode="clip")
            term *= harmonic.real
            acc[cos_slot] += term
            np.take(1j * (shells[0] - shells[1]), inverse, out=term, mode="clip")
            term *= harmonic.imag
            acc[sin_slot] += term
        else:
            acc[cos_slot] += np.take(shells[0], inverse, out=term, mode="clip")
    return ComplexField._adopt(spec, _unfold(spec.side_points, acc))  # a fresh raster: no copy


@functools.lru_cache(maxsize=8)
def _background_profile(amplitudes: bytes, l_max: int, p_max: int, beam: BeamSpec, spec: GridSpec,
                        z2: float) -> np.ndarray:
    """Read-only (S,) profile sum_{l, p} P_{l, p} |LG_{l, p}|^2 over the radius shells at plane z2.

    It depends on the spectrum (its float64 amplitude table as bytes, so the
    key compares by value), the beam, the grid and the plane, never on the
    object, so a sweep that renders many objects builds it once per plane.
    """
    table = np.frombuffer(amplitudes).reshape(2 * l_max + 1, p_max + 1)
    profile = 0.0
    for l, (radial, *_) in enumerate(_lg_blocks(beam, spec, z2, l_max, p_max)):
        amps = table[l_max + l] + (table[l_max - l] if l else 0.0)
        profile = profile + np.einsum("p,pn->n", amps, radial * radial)
    profile.flags.writeable = False
    return profile


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
    radius shells, gathered once onto the quarter and mirrored. Only the
    weight depends on the object; the profile is cached (_background_profile)
    and each call scales and gathers it into a fresh raster.
    """
    _check_truncation(coeffs, spectrum)
    _warn_if_clipped(coeffs.beam, spec, float(z2), spectrum.l_max, spectrum.p_max)
    weight = float(np.sum(spectrum.amplitudes * np.abs(coeffs.values) ** 2))
    profile = _background_profile(spectrum.amplitudes.tobytes(), spectrum.l_max, spectrum.p_max,
                                  coeffs.beam, spec, float(z2))
    quarter = (weight * profile)[_shells(spec)[1]]
    return _mirror_fill(spec.side_points, quarter, quarter, quarter, quarter), weight


def render_total(
    obj: ComplexField,
    geometry: SourceGeometry,
    z1: float,
    z2: float,
    l_max: int,
    p_max: int,
    spec: GridSpec,
    wavelength: float = 632.8e-9,
) -> GhostImageResult:
    """Full two-term ghost image of the object.

    Decomposes the object at -z1 with the matched-waist beam, filters by the
    thermal spiral spectrum, and synthesizes the pure term and the background
    at +z2. The object is decomposed on its own grid; the output rasters live
    on `spec` (usually the same grid). The result also carries the object
    and image mode tables.
    """
    beam = BeamSpec(geometry.matched_waist, wavelength)
    spectrum = build_spectrum(geometry, l_max, p_max)
    coeffs = object_spectrum(obj, beam, z1, l_max, p_max)
    image = image_spectrum(coeffs, spectrum)
    pure = render_pure_image(image, spec, z2)
    background, weight = render_background(coeffs, spectrum, spec, z2)
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
