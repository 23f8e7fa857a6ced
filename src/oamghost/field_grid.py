"""Complex-field rasters on square windows and orthonormal Laguerre-Gaussian modes.

All lengths are SI meters. Rasters hold dimensionless complex amplitudes sampled
at pixel centers, with row 0 at the top of the window (largest y). Discrete
inner products use the midpoint rule, so a mode that fits inside the window has
unit discrete norm.

There are three LG evaluators:

- lg_amplitude evaluates one mode at arbitrary polar points and serves as
  the independent pointwise oracle;
- _lg_blocks, the radial engine, serves the mode norms (_mode_norms), the
  background profile and iter_lg_rasters;
- the HG tables (_lg_to_hg, _hg_tables) serve the two coherent passes,
  object_spectrum and render_pure_image, and the CSD quadrature.

_lg_blocks uses that an LG mode factors as radial(|l|, p) x exp(i l phi) x
curvature chirp x Gouy phase, so one radial stack per |l| serves every p
and both signs of l. Everything but exp(i l phi) depends on the pixel
radius alone, and on a centred square grid the radius takes few values:
r^2 = key (pitch/2)^2 with the integer key (2i-N+1)^2 + (2j-N+1)^2. The
engine builds the radial stack and the chirp over these shells and gathers
them back through a per-pixel shell index (_shells, cached per grid).

The HG tables use that an LG mode of order N = 2p + |l| is a fixed unitary
mix of the Hermite-Gaussian products h_{N-k}(x) h_k(y), whose chirp factors
into x and y and whose Gouy phase depends on N alone. So a sum of modes is
a small (K + 1)^2 table of HG weights, K = 2 p_max + l_max, contracted with
one 1-D table h_m(x) over the whole axis: real matrix products, pointwise
exact on the same pixels. The table's columns past the quarter are the
mirror images of its own, since h_m(-x) = (-1)^m h_m(x), and window row i
sits at y = -x_i, so the same table serves the rows.

The radial engine works on one quarter of the window only, the
ceil(N/2)^2 block of rows and columns 0 ... ceil(N/2) - 1 (x <= 0, y >= 0),
which already holds every shell: 20,604 shells cover the 65,536 quarter
pixels of a 512^2 window. The other three quarters are mirror images.
Mirroring x -> -x maps exp(i l phi) to (-1)^l exp(-i l phi), and y -> -y
maps it to exp(-i l phi), so with a radial factor S(r) the parts
S cos(l phi) and i S sin(l phi) of a mode each have a fixed sign under each
mirror:

    part         x-mirror     y-mirror
    cos(l phi)   (-1)^l       +1
    sin(l phi)   -(-1)^l      -1

iter_lg_rasters puts each part in the _unfold slot of its signs by this
table, and _unfold writes the quarter parts of each sign pair onto the
window; render_background pads its even quarter. For odd N the centre row
and column are their own mirror images.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

OAMF_MAGIC = b"OAMF"
OAMF_VERSION = 1

__all__ = [
    "BeamSpec",
    "ComplexField",
    "GridSpec",
    "ModeClippedWarning",
    "ModeIndex",
    "default_grid",
    "inner_product",
    "intensity_and_phase",
    "iter_lg_rasters",
    "lg_amplitude",
    "read_field",
    "write_field",
]


class ModeClippedWarning(UserWarning):
    """A sampled mode's norm^2 on its window is off 1 by over 1e-3: clipped or undersampled."""


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: ``side_points`` pixels spanning ``extent`` meters."""

    side_points: int
    extent: float

    def __post_init__(self):
        if int(self.side_points) != self.side_points or self.side_points < 2:
            raise ValueError(f"side_points must be an integer >= 2, got {self.side_points}")
        object.__setattr__(self, "side_points", int(self.side_points))
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")

    @property
    def pixel_pitch(self) -> float:
        return self.extent / self.side_points

    @property
    def pixel_area(self) -> float:
        return self.pixel_pitch ** 2

    def axis(self) -> np.ndarray:
        """Pixel-center x coordinates, ascending left to right."""
        n = self.side_points
        return (np.arange(n) + 0.5) * self.pixel_pitch - 0.5 * self.extent

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, y) coordinate rasters; y decreases down the rows."""
        ax = self.axis()
        return np.meshgrid(ax, ax[::-1])

    def polar(self) -> tuple[np.ndarray, np.ndarray]:
        """(radius, azimuth) rasters; azimuth from atan2(y, x) in (-pi, pi]."""
        x, y = self.grids()
        return np.hypot(x, y), np.arctan2(y, x)


def _frozen_samples(spec: GridSpec, arr: np.ndarray, finite: bool = False) -> np.ndarray:
    """arr, checked against the window and finiteness, made read-only in place.

    finite=True skips the finiteness scan, for a raster its maker has proven finite.
    """
    n = spec.side_points
    if arr.shape != (n, n):
        raise ValueError(f"samples shape {arr.shape} does not match grid ({n}, {n})")
    if not (finite or np.isfinite(arr).all()):
        raise ValueError("field samples must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ComplexField:
    """Immutable complex raster tied to the window it was sampled on."""

    spec: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.complex128)  # always a copy of the caller's samples
        object.__setattr__(self, "samples", _frozen_samples(self.spec, arr))

    @classmethod
    def _adopt(cls, spec: GridSpec, samples: np.ndarray, finite: bool = False) -> "ComplexField":
        """Field over a fresh complex128 raster that no caller holds: checked and frozen, not copied.

        finite=True, from a caller that has bounded every sample, skips the finiteness scan.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "spec", spec)
        object.__setattr__(field, "samples", _frozen_samples(spec, samples, finite))
        return field

    def norm(self) -> float:
        """Discrete L2 norm sqrt(sum |f|^2 * pixel_area)."""
        return float(np.sqrt(np.sum(np.abs(self.samples) ** 2) * self.spec.pixel_area))


@dataclass(frozen=True)
class ModeIndex:
    """Azimuthal index l (signed) and radial index p (nonnegative)."""

    l: int
    p: int

    def __post_init__(self):
        if int(self.l) != self.l or int(self.p) != self.p:
            raise ValueError(f"mode indices must be integers, got (l={self.l}, p={self.p})")
        if self.p < 0:
            raise ValueError(f"radial index p must be >= 0, got {self.p}")


@dataclass(frozen=True)
class BeamSpec:
    """Gaussian beam waist (1/e^2 intensity radius at z = 0) and wavelength."""

    waist: float
    wavelength: float = 632.8e-9

    def __post_init__(self):
        if not (self.waist > 0 and math.isfinite(self.waist)):
            raise ValueError(f"waist must be positive and finite, got {self.waist}")
        if not (self.wavelength > 0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength}")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist ** 2 / self.wavelength

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def width(self, z: float) -> float:
        """Beam radius w(z) = w0 sqrt(1 + (z/zR)^2)."""
        return self.waist * math.sqrt(1.0 + (z / self.rayleigh_range) ** 2)


def _log_norm(l_abs: int, p: int) -> float:
    # log sqrt(2 p! / (pi (p+|l|)!)); overflow-free for large orders.
    return 0.5 * (math.log(2.0 / math.pi) + math.lgamma(p + 1) - math.lgamma(p + l_abs + 1))


def lg_amplitude(mode: ModeIndex, beam: BeamSpec, radius, azimuth, z: float = 0.0):
    """Evaluate the normalized LG mode at polar points (radius, azimuth) in plane z.

    Includes the z-dependent beam radius, the wavefront-curvature phase
    exp(+i k rho^2 / 2 R(z)) with R(z) = z (1 + (zR/z)^2), the azimuthal phase
    exp(i l phi), and the Gouy phase exp(-i (2p + |l| + 1) arctan(z/zR)). The
    plane-wave factor exp(ikz) is a rho-independent per-plane phase and is
    omitted. With these signs,

        lg_amplitude(-l, p, rho, phi, z) == conj(lg_amplitude(l, p, rho, phi, -z))

    holds to floating-point roundoff. Normalization is per unit transverse
    area: the continuum self-overlap of every mode is 1. The factor
    norm (sqrt(2) rho/w)^|l| exp(-rho^2/w^2) is formed in log space, so high
    orders far from the axis stay finite.
    """
    from scipy.special import eval_genlaguerre, xlogy

    r = np.asarray(radius, dtype=float)
    phi = np.asarray(azimuth, dtype=float)
    l_abs = abs(mode.l)
    p = mode.p
    zr = beam.rayleigh_range
    if z == 0.0:
        w = beam.waist
        curvature = 0.0
        gouy = 0.0
    else:
        w = beam.width(z)
        big_r = z * (1.0 + (zr / z) ** 2)
        curvature = beam.wavenumber / (2.0 * big_r)
        gouy = (2 * p + l_abs + 1) * math.atan2(z, zr)
    r2 = r * r
    envelope = np.exp(_log_norm(l_abs, p) + xlogy(l_abs, math.sqrt(2.0) * r / w) - r2 / (w * w))
    radial = envelope / w * eval_genlaguerre(p, l_abs, 2.0 * r2 / (w * w))
    phase = mode.l * phi + curvature * r2 - gouy
    return radial * np.exp(1j * phase)


@functools.lru_cache(maxsize=4)
def _shells(spec: GridSpec):
    """Radius shells of the window's quarter: (r2, inverse, eiphi), all read-only.

    - r2: the (S,) distinct squared pixel radii key (pitch/2)^2, ascending;
    - inverse: the (h, h) shell index of each quarter pixel, h = ceil(N/2);
    - eiphi: the (h, h) per-pixel exp(i phi) of the quarter.

    The quarter is rows and columns 0 ... h - 1 of the window; it holds
    every shell of the window. The keys are marked in a boolean table of
    every possible key, so the index is a cumulative count and nothing is
    sorted. Cached per grid: a job that runs several engine passes on one
    window builds this once.
    """
    n = spec.side_points
    h = (n + 1) // 2
    offsets = (2 * np.arange(h) - n + 1) ** 2
    keys = offsets[:, None] + offsets[None, :]
    present = np.zeros(2 * (n - 1) ** 2 + 1, dtype=bool)
    present[keys] = True
    r2 = np.flatnonzero(present) * (0.5 * spec.pixel_pitch) ** 2
    inverse = (np.cumsum(present) - 1)[keys]
    eiphi = np.exp(1j * spec.polar()[1][:h, :h])
    for arr in (r2, inverse, eiphi):
        arr.flags.writeable = False
    return r2, inverse, eiphi


def _unfold(n: int, parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(n, n) raster from (2, 2, h, h) quarter parts indexed [sx, sy], 0 for the sign +1 and 1 for -1.

    Each part holds terms of mirror signs sx under x -> -x and sy under
    y -> -y; the quarter gets their sum and each mirror image of a quarter
    pixel (column N - 1 - j, row N - 1 - i or both) their signed sum. For
    odd N the centre row and column are written once. The sums
    are taken in place, in parts and in the raster's own quarter, so parts
    is overwritten. The raster is out if given, else the only array allocated.
    """
    h = parts.shape[-1]
    m = n - h
    flip = slice(None, h - 1, -1)  # N - 1 ... h, the images of 0 ... m - 1
    if out is None:
        out = np.empty((n, n), dtype=parts.dtype)
    (pp, pm), (mp, mm) = parts  # views of the parts of signs [sx, sy] = ++, +-, -+, --
    even = np.add(pp, pm, out=out[:h, :h])  # even under x -> -x
    even_y = np.subtract(pp, pm, out=pp)  # the same at the y-images
    odd = np.add(mp, mm, out=pm)  # odd under x -> -x
    odd_y = np.subtract(mp, mm, out=mp)  # the same at the y-images
    np.subtract(even[:, :m], odd[:, :m], out=out[:h, flip])
    even += odd
    np.add(even_y[:m], odd_y[:m], out=out[flip, :h])
    np.subtract(even_y[:m, :m], odd_y[:m, :m], out=out[flip, flip])
    return out


def _lg_blocks(beam: BeamSpec, spec: GridSpec, z: float, l_max: int, p_max: int):
    """Separable LG engine: yield one block per |l| = 0, 1, ..., l_max.

    Each block is (radial, harmonic, gouy, chirp, inverse). Over the S radius
    shells of the window and its (h, h) quarter (see _shells),

        LG(+-|l|, p) = (radial[p] * gouy[p] * chirp)[inverse]
                       * (harmonic or conj(harmonic))

    on the quarter; the rest of the window follows by the mirror signs in
    the module docstring.

    - radial: real (p_max + 1, S) normalized radial factors, built with the
      three-term Laguerre recurrence (Abramowitz & Stegun 22.7.12) with the
      normalization carried inside it, so nothing overflows;
    - harmonic: the quarter's exp(i |l| phi), by repeated multiplication;
    - gouy: the (p_max + 1,) Gouy phases exp(-i (2p + |l| + 1) arctan(z/zR));
    - chirp: the (S,) curvature phase exp(i k rho^2 / 2R(z)), 1 at z = 0;
    - inverse: the read-only quarter shell index, the same in every block.

    Work on the shells, then gather through inverse once per quarter pixel.
    The radial and harmonic buffers are overwritten by the next block; copy
    what must outlive it. The engine does not judge its window; its callers
    do, from the modes' measured norms (_warn_if_clipped).
    """
    r2, inverse, eiphi = _shells(spec)
    w = beam.width(z)
    zr = beam.rayleigh_range
    # 1 / R(z) = z / (z^2 + zR^2) has no division by z, so the chirp is 1 at z = 0.
    chirp = np.exp(1j * (beam.wavenumber * z / (2.0 * (z * z + zr * zr))) * r2)
    psi = math.atan2(z, zr)
    x = 2.0 * r2 / (w * w)
    sqrt_x = np.sqrt(x)
    orders = 2 * np.arange(p_max + 1) + 1

    radial = np.empty((p_max + 1, x.size))
    scaled = np.empty_like(x)  # sqrt(p (p + a)) radial[p - 1], reused at every step
    u0 = math.sqrt(2.0 / math.pi) / w * np.exp(-0.5 * x)
    harmonic = np.ones_like(eiphi)
    for a in range(l_max + 1):
        if a:
            u0 *= sqrt_x
            u0 /= math.sqrt(a)
            harmonic *= eiphi
        radial[0] = u0
        for p in range(p_max):
            nxt = np.subtract(2 * p + 1 + a, x, out=radial[p + 1])
            nxt *= radial[p]
            if p:
                nxt -= np.multiply(math.sqrt(p * (p + a)), radial[p - 1], out=scaled)
            nxt /= math.sqrt((p + 1) * (p + 1 + a))
        yield radial, harmonic, np.exp(-1j * (orders + a) * psi), chirp, inverse


@functools.lru_cache(maxsize=8)
def _lg_to_hg(l_max: int, p_max: int):
    """Read-only sparse map from the LG modes of a (l_max, p_max) table to HG products.

    At the waist LG(l, p) = sum_k i^k d_k h_{N-k}(x) h_k(y) over the order N = 2p + |l|, with
    real d_k: L_z's eigenvector in the order-N HG block (Beijersbergen et al., Opt. Commun. 96,
    123 (1993)), a Krawtchouk function. With n+ = p + max(l, 0) and n- = N - n+, it starts at
    d_0 = (-1)^p sqrt(C(N, n+) / 2^N) and runs
    sqrt((N - k)(k + 1)) d_{k+1} = l d_k - sqrt(k (N - k + 1)) d_{k-1}
    forward up to k = N // 2 only: past the middle the recurrence is unstable, and the rest comes
    from d_{N-k} = (-1)^{n-} d_k. d_0 from lgamma is off by about |log C(N, n+)| eps, so each row
    is then rescaled to unit norm: against 50-digit values the d_k are within 4.5e-16 for N <= 120.

    Returns (mode, flat, weight, order, K). mode, flat and weight hold one entry per (mode, k):
    mode the row-major index into a (2 l_max + 1, p_max + 1) table, flat = k (K + 1) + N - k the
    row-major index into a (K + 1, K + 1) table indexed [n, m] by the HG orders (m, n) = (N - k, k),
    and weight = (-1)^(k // 2) d_k, so that i^k d_k = i^(k % 2) weight. order is the
    (2 l_max + 1, p_max + 1) table of N, and K = 2 p_max + l_max the largest.
    """
    big_k = 2 * p_max + l_max
    # int32 indices halve the cached entries: about (2 l_max + 1)(p_max + 1)(K / 2 + 1) of them.
    l, p = (a.ravel() for a in np.meshgrid(np.arange(-l_max, l_max + 1, dtype=np.int32),
                                           np.arange(p_max + 1, dtype=np.int32), indexing="ij"))
    order = 2 * p + np.abs(l)
    n_plus = p + np.maximum(l, 0)
    half = order // 2
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(big_k + 1)])
    d = np.zeros((l.size, big_k // 2 + 1))  # d_k up to each row's middle N // 2
    d[:, 0] = np.where(p % 2, -1.0, 1.0) * np.exp(
        0.5 * (log_fact[order] - log_fact[n_plus] - log_fact[order - n_plus] - order * math.log(2.0)))
    for k in range(big_k // 2):  # all orders at once; rows whose middle is passed stay 0
        step = l * d[:, k]
        if k:
            step -= np.sqrt(np.maximum(k * (order - k + 1.0), 0.0)) * d[:, k - 1]
        d[:, k + 1] = np.where(k < half, step / np.sqrt(np.maximum((order - k) * (k + 1.0), 1.0)), 0.0)
    # Unit norm over both halves: the sum of squares up to the middle, doubled, less a counted-twice middle.
    middle = d[np.arange(l.size), half] ** 2
    d /= np.sqrt(2.0 * np.einsum("mk,mk->m", d, d) - np.where(order % 2, 0.0, middle))[:, None]
    counts = order + 1  # entries k = 0 ... N of each mode, one after another
    mode = np.repeat(np.arange(order.size, dtype=np.int32), counts)
    k = np.arange(mode.size, dtype=np.int32) - np.repeat(np.cumsum(counts, dtype=np.int32) - counts, counts)
    n_order = order[mode]
    upper = k > half[mode]  # past the middle d_k = (-1)^{n-} d_{N-k}
    weight = d.ravel()[mode * d.shape[1] + np.where(upper, n_order - k, k)]
    weight[(k // 2 + upper * (n_order - n_plus[mode])) % 2 == 1] *= -1.0  # and (-1)^(k // 2) for weight
    flat = k * (big_k + 1) + n_order - k
    order = order.reshape(2 * l_max + 1, p_max + 1)
    for arr in (mode, flat, weight, order):
        arr.flags.writeable = False
    return mode, flat, weight, order, big_k


@functools.lru_cache(maxsize=16)
def _hg_tables(beam: BeamSpec, spec: GridSpec, z: float, big_k: int):
    """Read-only 1-D HG tables of the window's axis x at plane z: (table, chirp, gouy).

    - table: the real (K + 1, N) h_m(x) = (2/w^2)^(1/4) psi_m(sqrt(2) x / w) at the window's
      columns, with the Hermite functions psi_m from their normalised three-term recurrence on the
      quarter's columns 0 ... h - 1 and the rest their mirror images times (-1)^m. Window row i
      sits at y = -x_i, where h_n(y) = (-1)^n table[n, i];
    - chirp: the (N,) curvature phase exp(i k x^2 / 2R(z)), even like x^2: the window's is
      outer(chirp, chirp);
    - gouy: the (K + 1,) phases exp(-i (N + 1) arctan(z/zR)) of the orders N = 0 ... K.

    Cached: a sweep renders at a few planes over and over.
    """
    w = beam.width(z)
    zr = beam.rayleigh_range
    n = spec.side_points
    h = (n + 1) // 2
    x = spec.axis()[:h]
    t = math.sqrt(2.0) / w * x
    # Column-major, so a block of window rows table.T[rows] is contiguous: OpenBLAS multiplies a
    # few contiguous rows faster than a transposed block.
    table = np.empty((n, big_k + 1)).T
    table[0, :h] = (2.0 / (math.pi * w * w)) ** 0.25 * np.exp(-0.5 * t * t)
    for m in range(big_k):
        nxt = np.multiply(math.sqrt(2.0 / (m + 1)) * t, table[m, :h], out=table[m + 1, :h])
        if m:
            nxt -= math.sqrt(m / (m + 1.0)) * table[m - 1, :h]
    flip = slice(n - h - 1, None, -1)  # quarter columns N - h - 1 ... 0, the images of h ... N - 1
    np.multiply(table[:, flip], (1 - 2 * (np.arange(big_k + 1) % 2))[:, None], out=table[:, h:])
    chirp = np.exp(1j * (beam.wavenumber * z / (2.0 * (z * z + zr * zr))) * x * x)
    chirp = np.concatenate([chirp, chirp[flip]])
    gouy = np.exp(-1j * (np.arange(big_k + 1) + 1) * math.atan2(z, zr))
    for arr in (table, chirp, gouy):
        arr.flags.writeable = False
    return table, chirp, gouy


_NORM_TOLERANCE = 1e-3  # largest |norm^2 - 1| of a sampled mode; mode-math's orthonormality tolerance


@functools.lru_cache(maxsize=16)
def _mode_norms(beam: BeamSpec, spec: GridSpec, z_abs: float, l_max: int, p_max: int) -> np.ndarray:
    """Read-only (l_max + 1, p_max + 1) discrete norms^2 of LG(+-|l|, p) on the window at +-z_abs.

    |LG|^2 is radial[p]^2 on each radius shell: harmonic, chirp and Gouy phase have modulus 1,
    and w(-z) = w(z). So the norm^2 is pixel_area sum_s n_s radial[p](s)^2 over the shells s of
    n_s window pixels. Cached: one image's passes at -z and +z, and a sweep's jobs, share one pass.
    """
    r2, inverse, _ = _shells(spec)
    n = spec.side_points
    axis = np.full((n + 1) // 2, 2.0)  # window pixels per quarter pixel and axis: 2, 1 on the centre line of odd n
    axis[-1] -= n % 2
    counts = np.bincount(inverse.ravel(), np.outer(axis, axis).ravel(), r2.size)
    counts *= spec.pixel_area
    norms = np.array([np.einsum("ps,ps,s->p", radial, radial, counts)
                      for radial, *_ in _lg_blocks(beam, spec, z_abs, l_max, p_max)])
    norms.flags.writeable = False
    return norms


@functools.lru_cache(maxsize=16)
def _worst_norm_defect(beam: BeamSpec, spec: GridSpec, z: float, l_max: int, p_max: int):
    """(|norm^2 - 1|, "LG(+-l, p)") of the lattice's worst-sampled mode on the window at plane z.

    Cached like _mode_norms, so a pass that calls _warn_if_clipped again pays no scan of the norms;
    the warning itself is issued on every call.
    """
    defects = np.abs(_mode_norms(beam, spec, abs(float(z)), l_max, p_max) - 1.0)
    l, p = np.unravel_index(np.argmax(defects), defects.shape)
    return float(defects[l, p]), f"LG({'+-' if l else ''}{l}, {p})"


def _warn_if_clipped(beam: BeamSpec, spec: GridSpec, z: float, l_max: int, p_max: int) -> None:
    """Warn (ModeClippedWarning) when a mode up to (l_max, p_max) is off _NORM_TOLERANCE on the window.
    Each engine pass calls this itself, so the warning points at the line that called the pass."""
    defect, mode = _worst_norm_defect(beam, spec, z, l_max, p_max)
    if defect > _NORM_TOLERANCE:
        warnings.warn(f"{mode} at z={z:g} m has |norm^2 - 1| = {defect:.3g} (tolerance {_NORM_TOLERANCE:g})"
                      f" on the {spec.side_points}^2 window of {spec.extent:.3g} m: clipped by the window or"
                      " undersampled by its pitch", ModeClippedWarning, stacklevel=3)


def iter_lg_rasters(beam: BeamSpec, spec: GridSpec, z: float, modes):
    """Yield (mode, raster) for each requested mode, grouped by |l| ascending.

    Within one |l| the modes come in the order they were requested.

    Per-mode view of _lg_blocks, the radial engine: radial factors are built
    once per |l| over the radius shells of the lattice that spans the
    requested modes, and that lattice's worst measured norm decides the
    ModeClippedWarning. Each raster's cos and sin parts go into the slots of
    their mirror signs and through _unfold; yielded rasters are freshly
    allocated (N, N) arrays and safe to keep.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in modes]
    if not modes:
        return
    l_max = max(abs(m.l) for m in modes)
    p_max = max(m.p for m in modes)
    _warn_if_clipped(beam, spec, z, l_max, p_max)
    n = spec.side_points
    for l_abs, (radial, harmonic, gouy, chirp, inverse) in enumerate(_lg_blocks(beam, spec, z, l_max, p_max)):
        # [sx, sy] slots (see _unfold) of the cos(|l| phi) and sin(|l| phi) parts: the module docstring's table.
        cos_slot, sin_slot = (l_abs % 2, 0), (1 - l_abs % 2, 1)
        for mode in modes:
            if abs(mode.l) != l_abs:
                continue
            # exp(+-i|l|phi) S = cos(|l|phi) S +- i sin(|l|phi) S, each part in the slot of its mirror signs.
            shell = (radial[mode.p] * gouy[mode.p] * chirp)[inverse]
            acc = np.zeros((2, 2) + shell.shape, dtype=complex)
            acc[cos_slot] = shell * harmonic.real
            if l_abs:
                acc[sin_slot] = shell * (1j if mode.l > 0 else -1j) * harmonic.imag
            yield mode, _unfold(n, acc)


def inner_product(a: ComplexField, b: ComplexField) -> complex:
    """Midpoint-rule overlap <a|b> = sum conj(a) b * pixel_area.

    Both fields must share the same GridSpec (same side_points and extent).
    """
    if a.spec != b.spec:
        raise ValueError(f"grid mismatch: {a.spec} vs {b.spec}")
    return complex(np.vdot(a.samples, b.samples) * a.spec.pixel_area)


def intensity_and_phase(f: ComplexField) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel |f|^2 and arg(f) in (-pi, pi]; zero samples get phase 0."""
    return np.abs(f.samples) ** 2, np.angle(f.samples)


def default_grid(
    beam: BeamSpec,
    l_max: int = 0,
    p_max: int = 0,
    side_points: int = 512,
    z: float = 0.0,
    other_scale: float = 0.0,
) -> GridSpec:
    """Window sized to hold every mode up to (l_max, p_max) at plane z.

    The package's one window rule (the CLI's image window, oracle_grid): the half-extent is 1.25
    times LG(l_max, p_max)'s classical radius w(z) sqrt(2 p_max + l_max + 1) plus 2 w(z), and at
    least 4 w(z) and 4 other_scale (e.g. an object radius). Whether side_points samples the modes
    finely enough is measured by each engine pass (ModeClippedWarning).
    """
    w = beam.width(z)
    half = max(1.25 * (w * math.sqrt(2.0 * p_max + l_max + 1.0)) + 2.0 * w, 4.0 * w, 4.0 * other_scale)
    return GridSpec(side_points, 2.0 * half)


def write_field(path, field: ComplexField) -> None:
    """Write a field in the OAMF binary format.

    Layout: magic "OAMF", u16 version (1), u32 side_points, f64 extent, then
    side^2 complex samples as little-endian (re, im) f64 pairs, row-major with
    the top row first.
    """
    header = struct.pack("<4sHId", OAMF_MAGIC, OAMF_VERSION, field.spec.side_points, field.spec.extent)
    data = np.ascontiguousarray(field.samples, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def read_field(path) -> ComplexField:
    """Read an OAMF binary field written by write_field."""
    with open(path, "rb") as fh:
        header = fh.read(18)
        if len(header) != 18:
            raise ValueError(f"{path}: truncated OAMF header")
        magic, version, side, extent = struct.unpack("<4sHId", header)
        if magic != OAMF_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != OAMF_VERSION:
            raise ValueError(f"{path}: unsupported OAMF version {version}")
        payload = fh.read()
    expected = side * side * 16
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} sample bytes, got {len(payload)}")
    samples = np.frombuffer(payload, dtype="<c16").reshape(side, side)
    return ComplexField(GridSpec(side, extent), samples.astype(np.complex128))
