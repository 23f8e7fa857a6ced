"""Digital spiral decomposition of an object and thermal ghost-image synthesis.

The object sits at plane -z1 and is decomposed over LG modes there; the
thermal source filters each mode by its spiral amplitude and conjugates it,
and the image plane at +z2 receives a coherent "pure" term on top of an
object-weighted incoherent background. The total intensity is
background + |pure|^2 by construction.

The two coherent passes run on Hermite-Gaussian tables (field_grid). An
LG mode of order N = 2p + |l| is sum_k i^k d_k h_{N-k}(x) h_k(y) times the
chirp exp(i k (x^2 + y^2) / 2R) and the Gouy phase exp(-i (N + 1) psi), so
both passes separate into real products with the whole-axis table h_m(x),
which also serves the rows (row i sits at y = -x_i, and
h_n(-x) = (-1)^n h_n(x)). object_spectrum dechirps the object a block of
rows at a time, projects each block on the table and adds its rank-r share
to the HG moments; render_pure_image expands its table of HG weights over x
once and writes the raster a block of rows at a time, each block one real
product into the complex raster's own memory. Neither allocates anything
window-sized but its output. The chirp is applied elementwise, so every
product is real. On a 2-vCPU x86-64 host a pass at 256^2 with l_max = 5,
p_max = 9 takes about 0.4-0.6 ms.

A CLI process loads OpenBLAS with one thread (see the package docstring).
In a caller that imported numpy first, OpenBLAS splits a product over its
pool once m n k exceeds 262144, so field_grid._row_blocks sizes every block
below that (README, "Threads").

render_background's raster is radial and even under both mirrors, so it
gathers one profile over the radius shells (field_grid._shells) onto the
quarter and pads it out to the window. Only its weight sum P |A|^2 depends
on the object. Its profile sum P |LG|^2 is the quadratic form h^T Q h in
the HG functions at the shell radii, with Q from the spectrum: it depends
on the spectrum, beam, grid and plane alone and is cached
(_background_profile), so a sweep that renders many objects at a few
planes builds it once per plane.
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
    _hermite,
    _hg_raster,
    _hg_tables,
    _lg_to_hg,
    _order_blocks,
    _row_blocks,
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
    """Overlap coefficients of the object against LG modes at plane -z1.

    Block by block of rows, the dechirped object goes through one real
    product with the 1-D HG table and adds its rank-r share to the HG
    moments; each mode's coefficient is its d_k-weighted sum of the
    moments of its order.
    """
    if l_max < 0 or p_max < 0:
        raise ValueError("l_max and p_max must be nonnegative")
    plane = -float(z1)
    spec = obj.spec
    _warn_if_clipped(beam, spec, plane, l_max, p_max)
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    table, chirp, gouy = _hg_tables(beam, spec, plane, big_k)
    side, k = spec.side_points, big_k + 1
    dechirp = np.conj(chirp)
    scale = dechirp * spec.pixel_area
    # moments[n, part, m]: real and imaginary parts of the window sums of h_m(x) table[n, row] times
    # the dechirped object, so without the sign (-1)^n of h_n(y) = (-1)^n table[n, row].
    moments = np.zeros((k, 2 * k))
    for rows in _row_blocks(side, 2 * k * max(side, k)):
        block = obj.samples[rows] * dechirp
        block *= scale[rows, None]
        parts = np.empty((block.shape[0], 2, side))  # rows (i, re / im)
        parts[:, 0], parts[:, 1] = block.real, block.imag
        moments += table[:, rows] @ (parts.reshape(-1, side) @ table.T).reshape(-1, 2 * k)
    moments = moments.reshape(k, 2, k).transpose(1, 0, 2)
    # Odd n: times (-1)^n for the rows and conj(i^(n % 2)), which weight leaves out: i (re + i im).
    moments[:, 1::2] = np.stack([-moments[1, 1::2], moments[0, 1::2]])
    sums = [np.bincount(mode, weight * part.ravel()[flat], order.size) for part in moments]
    values = (sums[0] + 1j * sums[1]).reshape(order.shape) * np.conj(gouy[order])
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


_SHELL_BLOCK = 32768  # Hermite values (orders x shells) per block of the background profile


@functools.lru_cache(maxsize=8)
def _background_profile(amplitudes: bytes, l_max: int, p_max: int, beam: BeamSpec, spec: GridSpec,
                        z2: float) -> np.ndarray:
    """Read-only (S,) profile sum_{l, p} P_{l, p} |LG_{l, p}|^2 over the radius shells at plane z2.

    sum P |LG|^2 is radial, so it is taken on the x axis at the shell radii r. There
    h_k(0) = 0 for odd k makes each mode real up to its phase, LG(r, 0) = sum_m A[mode, m] h_m(r)
    with A[mode, N - k] = w_k h_k(0) for the signed weights w_k (field_grid._order_blocks), and the
    profile is h(r)^T Q h(r) with Q = A^T diag(P) A, built order by order. The Hermite functions
    are evaluated _SHELL_BLOCK values at a time.

    It depends on the spectrum (its float64 amplitude table as bytes, so the
    key compares by value), the beam, the grid and the plane, never on the
    object, so a sweep that renders many objects builds it once per plane.
    """
    table = np.frombuffer(amplitudes).reshape(2 * l_max + 1, p_max + 1)
    amps = table[l_max:].copy()
    amps[1:] += table[l_max - 1::-1]  # LG(l, p) and LG(-l, p) share |LG|^2
    amps = amps.ravel()
    *_, big_k = _lg_to_hg(l_max, p_max)
    w = beam.width(z2)
    # h_k(0): 0 for odd k, and h_{k+2}(0) = -sqrt((k + 1) / (k + 2)) h_k(0), the recurrence at x = 0.
    at_zero = np.zeros(big_k + 1)
    at_zero[::2] = np.cumprod(np.r_[(2.0 / (math.pi * w * w)) ** 0.25,
                                    -np.sqrt(np.arange(1, big_k, 2) / np.arange(2, big_k + 1, 2))])
    q = np.zeros((big_k + 1, big_k + 1))  # Q = A^T diag(P) A
    for n, j, weights in _order_blocks(l_max, p_max):
        a = weights[:, ::2] * at_zero[:n + 1:2]  # a[mode, k / 2] = A[mode, N - k] for even k
        for rows in _row_blocks(j.size, a.shape[1] ** 2):
            q[n::-2, n::-2] += a[rows].T @ (amps[j[rows], None] * a[rows])
    r2, _ = _shells(spec)
    profile = np.empty(r2.size)
    step = max(1, _SHELL_BLOCK // (big_k + 1))
    buffer = np.empty((big_k + 1, min(step, r2.size)))
    for start in range(0, r2.size, step):
        out = profile[start:start + step]
        h = _hermite(np.sqrt(r2[start:start + step]), w, big_k, buffer[:, :out.size])  # h_m(r_s) on the x axis
        for cols in _row_blocks(out.size, q.size):
            out[cols] = np.einsum("ms,ms->s", q @ h[:, cols], h[:, cols])
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
    radius shells, gathered once onto the quarter and padded out to the
    window by reflection. Only the
    weight depends on the object; the profile is cached (_background_profile)
    and each call scales and gathers it into a fresh raster.
    """
    _check_truncation(coeffs, spectrum)
    _warn_if_clipped(coeffs.beam, spec, float(z2), spectrum.l_max, spectrum.p_max)
    weight = float(np.sum(spectrum.amplitudes * np.abs(coeffs.values) ** 2))
    profile = _background_profile(spectrum.amplitudes.tobytes(), spectrum.l_max, spectrum.p_max,
                                  coeffs.beam, spec, float(z2))
    quarter = (weight * profile)[_shells(spec)[1]]
    flip = slice(spec.side_points - quarter.shape[0] - 1, None, -1)  # m - 1 ... 0, the images of h ... N - 1
    half = np.concatenate([quarter, quarter[:, flip]], axis=1)
    return np.concatenate([half, half[flip]]), weight


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
