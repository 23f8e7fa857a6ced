"""Complex-field rasters on square windows and orthonormal Laguerre-Gaussian modes.

All lengths are SI meters. Rasters hold dimensionless complex amplitudes sampled
at pixel centers, with row 0 at the top of the window (largest y). Discrete
inner products use the midpoint rule, so a mode that fits inside the window has
unit discrete norm.

There are two LG evaluators:

- lg_amplitude evaluates one mode at arbitrary polar points and serves as
  the independent pointwise oracle;
- the HG tables serve everything else. This module is the package's one
  mode engine: the LG-to-HG map (_lg_to_hg, _order_blocks), the 1-D tables
  (_hg_tables, one cache entry per plane) and every pass that reads them
  live here alone. The passes:
  - _hg_raster, the synthesis behind render_pure_image and iter_lg_rasters;
  - _hg_overlaps, its adjoint, the analysis behind object_spectrum;
  - _hg_pair_overlaps, the overlaps of a separable correlation with mode
    pairs, behind csd_mode_decompose;
  - _mode_norms, the discrete norms that judge each window;
  - _background_profile, sum P |LG|^2 over the radius shells, behind
    render_background.

The HG tables use that an LG mode of order N = 2p + |l| is a fixed unitary
mix of the Hermite-Gaussian products h_{N-k}(x) h_k(y), whose chirp factors
into x and y and whose Gouy phase depends on N alone. So a sum of modes is
a small (K + 1)^2 table of HG weights, K = 2 p_max + l_max, contracted with
one 1-D table h_m(x) over the whole axis: real matrix products, pointwise
exact on the same pixels. The axis is exactly antisymmetric (GridSpec.axis),
so window row i sits at y = -x_i exactly, h_n(y) = (-1)^n h_n(x_i), and the
same table serves the rows. Every product follows one block rule
(_row_blocks).

On a centred square grid the pixel radius takes few values:
r^2 = key (pitch/2)^2 with the integer key (2i-N+1)^2 + (2j-N+1)^2
(_shells): 20,604 shells cover the 262,144 pixels of a 512^2 window. The
background, radial, is evaluated on these shells and gathered onto the
window.
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
        """pitch^2; refused where it overflows, so no quadrature weights a pixel by inf."""
        try:
            return self.pixel_pitch ** 2
        except OverflowError:
            raise ValueError(f"pixel area overflows on the {self.side_points}^2 window of extent "
                             f"{self.extent:g} m (pitch {self.pixel_pitch:g} m)") from None

    def axis(self) -> np.ndarray:
        """Pixel-center x coordinates, ascending left to right, exactly antisymmetric.

        x_i = (i - (N - 1)/2) pitch: the half-integer offsets negate exactly and so do their
        products with the pitch, so x_{N-1-i} == -x_i bit for bit.
        """
        n = self.side_points
        return (np.arange(n) - 0.5 * (n - 1)) * self.pixel_pitch

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


def _lattice_shape(l_max: int, p_max: int) -> tuple[int, int]:
    """(2 l_max + 1, p_max + 1), the shape of a table over the (l, p) lattice |l| <= l_max, p <= p_max."""
    if l_max < 0 or p_max < 0:
        raise ValueError("l_max and p_max must be nonnegative")
    return 2 * l_max + 1, p_max + 1


def _lattice_table(l_max: int, p_max: int, values, dtype, name: str, pairs: bool = False,
                   nonnegative: bool = False) -> np.ndarray:
    """A read-only copy of values as dtype: the one (l, p)-table contract.

    The table is indexed [l + l_max, p], or [l + l_max, l' + l_max, p, p'] over mode pairs when
    pairs=True. Refuses a negative l_max or p_max, a wrong shape, a non-finite entry and, when
    nonnegative=True, a negative one.
    """
    nl, np_ = _lattice_shape(l_max, p_max)
    arr = np.array(values, dtype=dtype)  # always a copy of the caller's table
    shape = (nl, nl, np_, np_) if pairs else (nl, np_)
    if arr.shape != shape:
        raise ValueError(f"{name} shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} entries must be finite")
    if nonnegative and (arr < 0).any():
        raise ValueError(f"{name} entries must be nonnegative")
    arr.flags.writeable = False
    return arr


def _lattice_entry(table: np.ndarray, l_max: int, p_max: int, ls: tuple, ps: tuple):
    """table[l + l_max, ..., p, ...] for the signed azimuthal indices ls and the radial ps of
    _lattice_table's layout; refuses an index outside the truncation."""
    if max(map(abs, ls)) > l_max or not 0 <= min(ps) <= max(ps) <= p_max:
        modes = " x ".join(f"(l={l}, p={p})" for l, p in zip(ls, ps))
        raise ValueError(f"mode {modes} outside truncation (l_max={l_max}, p_max={p_max})")
    return table[tuple([l + l_max for l in ls]) + ps]


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
        try:
            zr = self.rayleigh_range
        except OverflowError:
            zr = math.inf
        if not (zr > 0 and math.isfinite(zr)):
            raise ValueError(f"Rayleigh range pi w0^2 / lambda = {zr:g} m must be positive and finite "
                             f"(waist {self.waist:g} m, wavelength {self.wavelength:g} m)")

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist ** 2 / self.wavelength

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    def width(self, z: float) -> float:
        """Beam radius w(z) = w0 sqrt(1 + (z/zR)^2); refuses a w(z) that overflows."""
        try:
            w = self.waist * math.sqrt(1.0 + (z / self.rayleigh_range) ** 2)
        except OverflowError:
            w = math.inf
        if not math.isfinite(w):
            raise ValueError(f"beam width w(z) = {w:g} m at z = {z:g} m is not finite "
                             f"(waist {self.waist:g} m, Rayleigh range {self.rayleigh_range:g} m)")
        return w


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
    w = beam.width(z)
    curvature = beam.wavenumber * z / (2.0 * (z * z + zr * zr))  # k / 2R(z), 0 at the waist
    gouy = (2 * p + l_abs + 1) * math.atan2(z, zr)
    r2 = r * r
    envelope = np.exp(_log_norm(l_abs, p) + xlogy(l_abs, math.sqrt(2.0) * r / w) - r2 / (w * w))
    radial = envelope / w * eval_genlaguerre(p, l_abs, 2.0 * r2 / (w * w))
    phase = mode.l * phi + curvature * r2 - gouy
    return radial * np.exp(1j * phase)


@functools.lru_cache(maxsize=4)
def _shells(spec: GridSpec):
    """Radius shells of the window: (r2, inverse), both read-only.

    - r2: the (S,) distinct squared pixel radii key (pitch/2)^2, ascending;
    - inverse: the (N, N) shell index of each window pixel.

    The keys present are counted over every possible key (the largest is the corner's,
    2 (N - 1)^2), so the index is a cumulative count and nothing is sorted. Cached per grid: the
    background profile and its gather share it.
    """
    n = spec.side_points
    offsets = (2 * np.arange(n) - n + 1) ** 2
    keys = offsets[:, None] + offsets[None, :]
    present = np.bincount(keys.ravel()) > 0
    r2 = np.flatnonzero(present) * (0.5 * spec.pixel_pitch) ** 2
    inverse = (np.cumsum(present) - 1)[keys]
    for arr in (r2, inverse):
        arr.flags.writeable = False
    return r2, inverse


def _row_blocks(rows: int, per_row: int) -> list[slice]:
    """Slices of at most max(1, 262144 // per_row) rows that cover range(rows).

    The package's one block rule: per_row is the m n k that one row of a
    block adds to the largest product run on the block, so no product
    exceeds m n k = 262144, the size up to which OpenBLAS runs it on one
    thread (README, "Threads").
    """
    step = max(1, 262144 // per_row)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _hermite(x: np.ndarray, w: float, big_k: int, out: np.ndarray) -> np.ndarray:
    """out, a (K + 1, len(x)) array, filled with h_m(x) = (2/w^2)^(1/4) psi_m(sqrt(2) x / w).

    The Hermite functions psi_m come from their normalised three-term recurrence, which stays
    bounded at every order. It is the package's one Hermite evaluator: the axis tables
    (_hg_tables), and the background profile's h_m at the shell radii and h_k(0) at x = 0.
    """
    t = math.sqrt(2.0) / w * x
    out[0] = (2.0 / (math.pi * w * w)) ** 0.25 * np.exp(-0.5 * t * t)
    for m in range(big_k):
        nxt = np.multiply(math.sqrt(2.0 / (m + 1)) * t, out[m], out=out[m + 1])
        if m:
            nxt -= math.sqrt(m / (m + 1.0)) * out[m - 1]
    return out


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
    # log C(N, n+) with its two factorials summed first, the same bits for l and -l: the recurrence
    # then gives d_k(-l) = (-1)^k d_k(l) exactly, so at the waist LG(-l, p) is exactly conj LG(l, p).
    d[:, 0] = np.where(p % 2, -1.0, 1.0) * np.exp(
        0.5 * (log_fact[order] - (log_fact[n_plus] + log_fact[order - n_plus]) - order * math.log(2.0)))
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

    - table: the real (K + 1, N) h_m(x) at the window's columns for the beam width w(z)
      (_hermite). The axis is exactly antisymmetric, so table[:, ::-1] == (-1)^m table bit for bit,
      and window row i, at y = -x_i, has h_n(y) = (-1)^n table[n, i];
    - chirp: the (N,) curvature phase exp(i k x^2 / 2R(z)), even like x^2: the window's is
      outer(chirp, chirp);
    - gouy: the (K + 1,) phases exp(-i (N + 1) arctan(z/zR)) of the orders N = 0 ... K.

    The package's one table cache, one entry per plane: a sweep renders at a few planes over and over.
    """
    zr = beam.rayleigh_range
    x = spec.axis()
    # Column-major, so a block of window rows table.T[rows] is contiguous: OpenBLAS multiplies a
    # few contiguous rows faster than a transposed block.
    table = _hermite(x, beam.width(z), big_k, np.empty((spec.side_points, big_k + 1)).T)
    chirp = np.exp(1j * (beam.wavenumber * z / (2.0 * (z * z + zr * zr))) * x * x)
    gouy = np.exp(-1j * (np.arange(big_k + 1) + 1) * math.atan2(z, zr))
    for arr in (table, chirp, gouy):
        arr.flags.writeable = False
    return table, chirp, gouy


def _order_blocks(l_max: int, p_max: int):
    """Yield (N, j, weights) for each order N = 0 ... K that holds a mode with l >= 0.

    j holds the row-major indices of those modes in the (l_max + 1, p_max + 1) table of (|l|, p),
    and weights, of shape (len(j), N + 1), their signed HG weights weight_k, k = 0 ... N, of
    _lg_to_hg. LG(-l, p) has the weights (-1)^k weight_k, so the |l| table serves every quantity
    that couples only k of one parity.
    """
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    counts = order.ravel() + 1
    offset = (np.cumsum(counts) - counts)[l_max * (p_max + 1):]  # each mode's N + 1 entries run on from here
    for n in range(big_k + 1):
        p = np.arange(max(0, n - l_max + 1) // 2, min(p_max, n // 2) + 1)  # l = N - 2p in 0 ... l_max
        if p.size:
            j = (n - 2 * p) * (p_max + 1) + p
            yield n, j, weight[offset[j][:, None] + np.arange(n + 1)]


_NORM_TOLERANCE = 1e-3  # largest |norm^2 - 1| of a sampled mode; mode-math's orthonormality tolerance


@functools.lru_cache(maxsize=16)
def _mode_norms(beam: BeamSpec, spec: GridSpec, z_abs: float, l_max: int, p_max: int) -> np.ndarray:
    """Read-only (l_max + 1, p_max + 1) discrete norms^2 of LG(+-|l|, p) on the window at +-z_abs.

    Chirp and Gouy phase have modulus 1, and w(-z) = w(z). So the norm^2 of an order-N mode,
    sum_k i^k d_k h_{N-k}(x) h_k(y), is sum_{k, k'} conj(i^k d_k) i^k' d_k' G[N - k, N - k'] G[k, k']
    with the 1-D Gram G = pitch T T^T of the HG table T. On the centred window h_m has the parity
    of m, so G vanishes between orders of mixed parity; with those entries set to 0 the sum runs
    over k + k' even, where the phase factors give w_k w_k' for the signed weights w_k
    (_order_blocks), and l and -l share one norm. Cached: one image's passes at -z and +z, and a
    sweep's jobs, share one pass.
    """
    *_, big_k = _lg_to_hg(l_max, p_max)
    table = _hg_tables(beam, spec, z_abs, big_k)[0]
    gram = np.einsum("mi,ni->mn", table, table) * spec.pixel_pitch  # einsum: no BLAS product to block
    gram[::2, 1::2] = gram[1::2, ::2] = 0.0  # mixed parity
    norms = np.empty((l_max + 1) * (p_max + 1))
    for n, j, weights in _order_blocks(l_max, p_max):
        pair = gram[n::-1, n::-1] * gram[:n + 1, :n + 1]  # [k, k'] = G[N - k, N - k'] G[k, k']
        for rows in _row_blocks(j.size, (n + 1) ** 2):
            norms[j[rows]] = np.einsum("mk,mk->m", weights[rows] @ pair, weights[rows])
    norms = norms.reshape(l_max + 1, p_max + 1)
    norms.flags.writeable = False
    return norms


_SHELL_BLOCK = 32768  # Hermite values (orders x shells) per block of the background profile


@functools.lru_cache(maxsize=8)
def _background_profile(amplitudes: bytes, l_max: int, p_max: int, beam: BeamSpec, spec: GridSpec,
                        z2: float) -> np.ndarray:
    """Read-only (S,) profile sum_{l, p} P_{l, p} |LG_{l, p}|^2 over the radius shells at plane z2.

    sum P |LG|^2 is radial, so it is taken on the x axis at the shell radii r. There
    h_k(0) = 0 for odd k makes each mode real up to its phase, LG(r, 0) = sum_m A[mode, m] h_m(r)
    with A[mode, N - k] = w_k h_k(0) for the signed weights w_k (_order_blocks), and the profile is
    h(r)^T Q h(r) with Q = A^T diag(P) A, built order by order like _mode_norms' forms. Both h_k(0)
    and the h_m(r) come from _hermite, the latter _SHELL_BLOCK values at a time.

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
    at_zero = _hermite(np.zeros(1), w, big_k, np.empty((big_k + 1, 1)))[:, 0]  # h_k(0), 0 for odd k
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


def _hg_raster(values: np.ndarray, beam: BeamSpec, spec: GridSpec, z: float, l_max: int,
               p_max: int) -> tuple[np.ndarray, bool]:
    """(raster, finite): sum_{l, p} values[l + l_max, p] LG(l, p) at plane z on a fresh window.

    The package's one synthesis path, behind render_pure_image and iter_lg_rasters. The mode
    weights go into a table of HG weights, which one real product per block of its rows expands
    over x and which is chirped; one real product per block of window rows then writes the complex
    raster in place, and the rows are chirped. finite is True when a bound proves every sample
    finite. The caller judges the window (_warn_if_clipped).
    """
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    table, chirp, gouy = _hg_tables(beam, spec, z, big_k)
    side, k = spec.side_points, big_k + 1
    # weights[part, n, m]: real and imaginary parts of the HG weights S[m, n] of the field.
    weighted = (values * gouy[order]).ravel()
    weights = np.stack([np.bincount(flat, weight * part[mode], k * k)
                        for part in (weighted.real, weighted.imag)]).reshape(2, k, k)
    # Odd n: times i^(n % 2), which weight leaves out, and (-1)^n for the rows: -i (re + i im).
    weights[:, 1::2] = np.stack([weights[1, 1::2], -weights[0, 1::2]])
    weights = weights.reshape(2 * k, k)
    across = np.empty((2 * k, side))  # rows (part, n): sum_m weights[part, n, m] h_m(x)
    for rows in _row_blocks(2 * k, k * side):
        np.matmul(weights[rows], table, out=across[rows])
    across = (across[:k] + 1j * across[k:]) * chirp
    raster = np.empty((side, side), dtype=complex)
    for rows in _row_blocks(side, 2 * k * side):
        np.matmul(table.T[rows], across.view(float), out=raster[rows].view(float))
        raster[rows] *= chirp[rows, None]
    # |raster| <= max|table| sum_n max_x |across[n]| max|chirp| in O(K N): far below overflow, the
    # raster is finite and needs no scan; an inf or NaN in the inputs makes the bound fail the test.
    bound = np.abs(table).max() * np.abs(across).max(axis=1).sum() * np.abs(chirp).max()
    return raster, bool(bound < 1e300)


def _hg_overlaps(samples: np.ndarray, beam: BeamSpec, spec: GridSpec, z: float, l_max: int,
                 p_max: int) -> np.ndarray:
    """The (2 l_max + 1, p_max + 1) overlaps <LG(l, p)|samples> at plane z: _hg_raster's adjoint.

    The package's one analysis path, behind object_spectrum. Block by block of rows, the dechirped
    samples go through one real product with the 1-D HG table and add their rank-r share to the HG
    moments; each mode's overlap is its signed-weight sum of the moments of its order. The caller
    judges the window (_warn_if_clipped).
    """
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    table, chirp, gouy = _hg_tables(beam, spec, z, big_k)
    side, k = spec.side_points, big_k + 1
    dechirp = np.conj(chirp)
    scale = dechirp * spec.pixel_area
    # moments[n, part, m]: real and imaginary parts of the window sums of h_m(x) table[n, row] times
    # the dechirped samples, so without the sign (-1)^n of h_n(y) = (-1)^n table[n, row].
    moments = np.zeros((k, 2 * k))
    for rows in _row_blocks(side, 2 * k * max(side, k)):
        block = samples[rows] * dechirp
        block *= scale[rows, None]
        parts = np.empty((block.shape[0], 2, side))  # rows (i, re / im)
        parts[:, 0], parts[:, 1] = block.real, block.imag
        moments += table[:, rows] @ (parts.reshape(-1, side) @ table.T).reshape(-1, 2 * k)
    moments = moments.reshape(k, 2, k).transpose(1, 0, 2)
    # Odd n: times (-1)^n for the rows and conj(i^(n % 2)), which weight leaves out: i (re + i im).
    moments[:, 1::2] = np.stack([-moments[1, 1::2], moments[0, 1::2]])
    sums = [np.bincount(mode, weight * part.ravel()[flat], order.size) for part in moments]
    return (sums[0] + 1j * sums[1]).reshape(order.shape) * np.conj(gouy[order])


def _hg_pair_overlaps(envelope: np.ndarray, kernel: np.ndarray, beam: BeamSpec, spec: GridSpec,
                      l_max: int, p_max: int) -> np.ndarray:
    """f[l, l', p, p'] = sum W(r1, r2) conj(LG(l, p)(r1) LG(l', p')(r2)) dA^2 over pixel pairs, z = 0.

    For a correlation W = E(r1) E(r2) K(r1 - r2) that factors over x and y into the (N,) envelope
    e(x) and the (N, N) kernel k(x, x'), both even: the CSD quadrature. Each mode is the
    real-weighted mix sum_k i^k d_k h_{N-k}(x) h_k(y) of HG products (_lg_to_hg), so the sum is one
    real 1-D matrix over the HG orders,

        A[m, m'] = sum_{x, x'} e(x) k(x, x') e(x') h_m(x) h_m'(x') dx^2,

    contracted on each axis with the modes' HG weights. A vanishes where m and m' differ in parity
    and is set to exactly 0 there. The surviving terms pair k with a k' of its parity, whose phase
    conj(i^k) conj(i^k') is, beside the signed weights, -1 for odd k and 1 for even k. Returned in
    _lattice_table's pairs layout.
    """
    mode, flat, weight, order, big_k = _lg_to_hg(l_max, p_max)
    # Row-major (the cached table is column-major), so einsum below sums along contiguous rows.
    table = np.multiply(_hg_tables(beam, spec, 0.0, big_k)[0], envelope, order="C")
    parity = np.arange(big_k + 1) % 2
    # np.einsum, not a BLAS @: when the caller imported numpy before oamghost,
    # OpenBLAS keeps its thread pool, and its idle worker spins beside a product.
    a = np.einsum("mj,nj->mn", np.einsum("mi,ij->mj", table, kernel), table) * spec.pixel_area
    a[parity[:, None] != parity[None, :]] = 0.0

    # hg[b, n, m]: the HG weight of h_m(x) h_n(y) in mode b; blurred[n, m, b] is hg with A on both axes.
    hg = np.zeros((order.size, (big_k + 1) ** 2))
    hg[mode, flat] = weight
    hg = hg.reshape(order.size, big_k + 1, big_k + 1)
    blurred = np.einsum("bnM,mM->nmb", np.einsum("nN,bNM->bnM", a, hg), a).reshape(-1, order.size)
    signed = np.where(flat // (big_k + 1) % 2, -weight, weight)  # conj(i^k)^2 = -1 for odd k = n
    counts = order.ravel() + 1  # each mode's entries k = 0 ... N, one after another
    f = np.add.reduceat(blurred[flat] * signed[:, None], np.cumsum(counts) - counts)
    nl, np_ = order.shape
    return f.reshape(nl, np_, nl, np_).transpose(0, 2, 1, 3)


def iter_lg_rasters(beam: BeamSpec, spec: GridSpec, z: float, modes):
    """Yield (mode, raster) for each requested mode, grouped by |l| ascending.

    Within one |l| the modes come in the order they were requested.

    Each raster is _hg_raster of a one-hot table on the one lattice (max |l|, max p) that spans the
    requested modes, so every mode shares one LG-to-HG map and one axis table, and the caches hold
    one entry for the call. That lattice's worst measured norm decides the ModeClippedWarning.
    Yielded rasters are freshly allocated (N, N) arrays and safe to keep.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in modes]
    if not modes:
        return
    l_max, p_max = max(abs(m.l) for m in modes), max(m.p for m in modes)
    _warn_if_clipped(beam, spec, z, l_max, p_max)
    for mode in sorted(modes, key=lambda m: abs(m.l)):
        values = np.zeros((2 * l_max + 1, p_max + 1), dtype=complex)
        values[mode.l + l_max, mode.p] = 1.0
        yield mode, _hg_raster(values, beam, spec, z, l_max, p_max)[0]


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
