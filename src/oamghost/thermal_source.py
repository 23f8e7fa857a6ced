"""Gaussian-Schell thermal source: spiral mode spectrum, cross-spectral density,
and a quadrature cross-check of the mode-decomposition law.

The source is fixed by two scales: an intensity width sigma_s and a transverse
coherence width sigma_g (sigma_g = inf is the fully coherent limit). Its
correlations diagonalize on the LG basis with a matched waist, a geometric
amplitude decay t per unit of |l| + 2p, and perfect anticorrelation of the
azimuthal indices.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .field_grid import (BeamSpec, GridSpec, ModeIndex, _lg_blocks, _mirror_weight, _warn_if_clipped,
                         default_grid)

__all__ = [
    "CsdTensor",
    "SourceGeometry",
    "SpiralSpectrum",
    "build_spectrum",
    "csd_mode_decompose",
    "csd_value",
    "flat_spectrum",
    "full_lattice_sums",
    "oracle_grid",
    "schmidt_number",
    "source_geometry",
    "spectrum_amplitude",
]


@dataclass(frozen=True)
class SourceGeometry:
    """Source widths plus the derived mode-decomposition constants.

    beta satisfies tan(beta) = 2 sigma_s / sigma_g; t = tan^2(beta/2) is the
    geometric decay ratio of the spiral spectrum; matched_waist
    w = 2 sigma_s sqrt(cos beta) is the LG waist that diagonalizes the source
    correlations.
    """

    sigma_s: float
    sigma_g: float
    beta: float
    t: float
    matched_waist: float


def source_geometry(sigma_s: float, sigma_g: float = math.inf) -> SourceGeometry:
    """Build the derived geometry for the given source widths."""
    if not (sigma_s > 0 and math.isfinite(sigma_s)):
        raise ValueError(f"sigma_s must be positive and finite, got {sigma_s}")
    if not sigma_g > 0:
        raise ValueError(f"sigma_g must be positive (inf allowed), got {sigma_g}")
    beta = math.atan(2.0 * sigma_s / sigma_g)  # 0 in the coherent limit sigma_g = inf
    t = math.tan(0.5 * beta) ** 2
    waist = 2.0 * sigma_s * math.sqrt(math.cos(beta))
    return SourceGeometry(sigma_s, sigma_g, beta, t, waist)


@dataclass(frozen=True)
class SpiralSpectrum:
    """Real nonnegative amplitude table P[l, p] for |l| <= l_max, 0 <= p <= p_max.

    Thermal tables built by build_spectrum are geometric in |l| + 2p; the
    container itself only enforces shape and nonnegativity, so flat test
    tables (flat_spectrum) are representable too.
    """

    l_max: int
    p_max: int
    amplitudes: np.ndarray  # shape (2 l_max + 1, p_max + 1), row index l + l_max
    geometry: SourceGeometry | None = None

    def __post_init__(self):
        if self.l_max < 0 or self.p_max < 0:
            raise ValueError("l_max and p_max must be nonnegative")
        arr = np.asarray(self.amplitudes, dtype=float)
        shape = (2 * self.l_max + 1, self.p_max + 1)
        if arr.shape != shape:
            raise ValueError(f"amplitude table shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("amplitudes must be finite and nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "amplitudes", arr)

    @property
    def d(self) -> int:
        """Dimension (2 l_max + 1)(p_max + 1) of the truncated single-photon space."""
        return (2 * self.l_max + 1) * (self.p_max + 1)

    def amplitude(self, l: int, p: int) -> float:
        if abs(l) > self.l_max or not 0 <= p <= self.p_max:
            raise ValueError(f"mode (l={l}, p={p}) outside truncation "
                             f"(l_max={self.l_max}, p_max={self.p_max})")
        return float(self.amplitudes[l + self.l_max, p])

    def sum_amplitudes(self) -> float:
        return float(self.amplitudes.sum())

    def sum_squares(self) -> float:
        return float((self.amplitudes ** 2).sum())

    def sum_fourth(self) -> float:
        return float((self.amplitudes ** 4).sum())

    def oam_marginal(self) -> np.ndarray:
        """Pure OAM weights: for each l (index l + l_max), the sum over p of P^2."""
        return (self.amplitudes ** 2).sum(axis=1)

    def schmidt_probabilities(self) -> np.ndarray:
        """P^2 / sum(P^2), flattened over (l, p)."""
        sq = (self.amplitudes ** 2).ravel()
        total = sq.sum()
        if total <= 0:
            raise ValueError("spectrum has no power")
        return sq / total


def spectrum_amplitude(mode: ModeIndex, geometry: SourceGeometry) -> float:
    """Thermal mode amplitude (1 - t^2) t^(|l| + 2p).

    In the coherent limit t = 0 only (0, 0) is occupied (with amplitude 1).
    """
    t = geometry.t
    return (1.0 - t * t) * t ** (abs(mode.l) + 2 * mode.p)


def build_spectrum(geometry: SourceGeometry, l_max: int, p_max: int) -> SpiralSpectrum:
    """Tabulate spectrum_amplitude over the truncated (l, p) lattice."""
    if l_max < 0 or p_max < 0:
        raise ValueError("l_max and p_max must be nonnegative")
    ls = np.abs(np.arange(-l_max, l_max + 1))
    ps = np.arange(p_max + 1)
    t = geometry.t
    amps = (1.0 - t * t) * np.power(t, ls[:, None] + 2 * ps[None, :])
    return SpiralSpectrum(l_max, p_max, amps, geometry)


def flat_spectrum(l_max: int, p_max: int, value: float = 1.0) -> SpiralSpectrum:
    """Constant-amplitude table (maximally entangled stand-in; no geometry)."""
    return SpiralSpectrum(l_max, p_max, np.full((2 * l_max + 1, p_max + 1), float(value)))


def full_lattice_sums(geometry: SourceGeometry) -> tuple[float, float, float]:
    """Closed forms of (sum P, sum P^2, sum P^4) over the untruncated lattice.

    sum P = (1+t)/(1-t), sum P^2 = 1 exactly, sum P^4 = ((1-t^2)/(1+t^2))^2.
    """
    t = geometry.t
    return (1.0 + t) / (1.0 - t), 1.0, ((1.0 - t * t) / (1.0 + t * t)) ** 2


def schmidt_number(spectrum: SpiralSpectrum) -> float:
    """Effective mode count 1 / sum(s^2) over the Schmidt probabilities s."""
    s = spectrum.schmidt_probabilities()
    return float(1.0 / np.sum(s ** 2))


def csd_value(rho1, rho2, geometry: SourceGeometry):
    """Gaussian-Schell cross-spectral density W(rho1, rho2), with W(0, 0) = 1.

    rho1 and rho2 are transverse points (arrays with a trailing axis of length
    2); broadcasting over leading axes is supported.
    """
    r1 = np.asarray(rho1, dtype=float)
    r2 = np.asarray(rho2, dtype=float)
    q1 = np.sum(r1 * r1, axis=-1)
    q2 = np.sum(r2 * r2, axis=-1)
    envelope = np.exp(-(q1 + q2) / (4.0 * geometry.sigma_s ** 2))
    dq = np.sum((r1 - r2) ** 2, axis=-1)
    return envelope * np.exp(-dq / (2.0 * geometry.sigma_g ** 2))


@dataclass(frozen=True)
class CsdTensor:
    """Mode-decomposition coefficients f[l, l', p, p'] of the source correlations."""

    l_max: int
    p_max: int
    coefficients: np.ndarray  # shape (2L+1, 2L+1, P+1, P+1), index (l+L, l'+L, p, p')

    def __post_init__(self):
        arr = np.asarray(self.coefficients, dtype=complex)
        nl = 2 * self.l_max + 1
        np_ = self.p_max + 1
        if arr.shape != (nl, nl, np_, np_):
            raise ValueError(f"coefficient shape {arr.shape}, expected {(nl, nl, np_, np_)}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coefficients", arr)

    def coefficient(self, l: int, l_prime: int, p: int, p_prime: int) -> complex:
        if max(abs(l), abs(l_prime)) > self.l_max or not (0 <= p <= self.p_max and 0 <= p_prime <= self.p_max):
            raise ValueError(f"indices ({l}, {l_prime}, {p}, {p_prime}) outside truncation")
        return complex(self.coefficients[l + self.l_max, l_prime + self.l_max, p, p_prime])


def oracle_grid(geometry: SourceGeometry, l_max: int, p_max: int, side_points: int = 128) -> GridSpec:
    """Window for csd_mode_decompose: field_grid.default_grid for the matched waist at z = 0."""
    return default_grid(BeamSpec(geometry.matched_waist), l_max, p_max, side_points)


def csd_mode_decompose(
    geometry: SourceGeometry,
    l_max: int,
    p_max: int,
    spec: GridSpec,
    wavelength: float = 632.8e-9,
    allow_large: bool = False,
) -> CsdTensor:
    """Project the cross-spectral density onto LG mode pairs by nested quadrature.

    Computes, at z = 0 with the matched waist,

        f[l, l', p, p'] = iint iint W(rho1, rho2) LG*_{l,p}(rho1) LG*_{l',p'}(rho2)
                          d^2 rho1 d^2 rho2

    as a nested projection: first the per-pixel partial projection
    g_{l,p}(rho2) = E(rho2) int K(rho1 - rho2) E(rho1) LG*_{l,p}(rho1) d^2 rho1,
    with W = E(rho1) E(rho2) K(rho1 - rho2), then the rho2 projection against
    every second mode. The quadrature sums are the plain midpoint-rule ones.

    Everything runs in real arithmetic over the l >= 0 half of the lattice
    and over one quarter of the window. Write LG(l, p) = u + i v with real u
    and v, and G_u, G_v for the partial projections of u and v:

    - half-lattice: at z = 0, LG(-l, p) = conj LG(l, p) and W is real, so
      only the (l_max + 1)(p_max + 1) modes with l >= 0 are rastered and
      blurred;
    - parities: the window, E and K are symmetric under both mirrors x -> -x
      and y -> -y, so each part keeps a fixed parity on each axis, and its
      partial projection the same one:

          part   y-parity   x-parity
          u      even       (-1)^l
          v      odd        -(-1)^l

    - quarter window: every part is known from its ceil(N/2)^2 quarter
      (rows and columns 0 ... ceil(N/2) - 1), which is where the raster
      engine field_grid._lg_blocks works, so the rest of the window is
      never rastered. K factorizes over x and y into
      one real Toeplitz kernel; folded onto the quarter for a part of parity
      s on an axis, it is K_s[q, k] = K[q, k] + s K[q, mirror(k)], so the
      blur of a quarter X is K_sy @ X @ K_sx^T, two real products per part
      and |l| block. For odd N the centre column is its own mirror: it is
      halved in K_+ and vanishes in K_-;
    - projection: the products G_u u' and G_v v' are even in y (the mixed
      G_u v' and G_v u' are odd and vanish), and in x they have parity
      (-1)^(l - l'). For l - l' odd they sum to exactly zero over the
      window. Otherwise their window sum is the quarter sum with weight 2 per
      axis, 1 on the centre row and column of odd N. The two real products
      a = G_u u^T and b = G_v v^T, taken per parity class of l, give the
      whole (real) table: f[l, l'] = f[-l, -l'] = a - b and
      f[l, -l'] = f[-l, l'] = a + b;
    - sigma_g = inf: K = 1, so K_- = 0 and K_+ is the mirror weight: the
      blur gives G = E times the window sum of u E, and zero for every part
      that is odd on an axis;
    - floor: kernel entries below sqrt(tiny) are set to zero. The dropped
      terms are below about 1e-150; kept, they would only slow the blur
      down. On oracle_grid windows (l_max, p_max <= 6) the integrand stays
      above sqrt(tiny), so no product in the blur is subnormal; on windows a
      few times wider it reaches the subnormal range and the blur slows.

    This is a cross-check oracle, not a production path: truncations or grids
    beyond the default runtime budget are refused unless allow_large is set.
    """
    if l_max < 0 or p_max < 0:
        raise ValueError("l_max and p_max must be nonnegative")
    n_modes = (2 * l_max + 1) * (p_max + 1)
    if not allow_large and (l_max > 6 or p_max > 6 or spec.side_points > 256):
        raise ValueError(
            f"decomposition over {n_modes} modes on a {spec.side_points}^2 grid exceeds the "
            "default runtime budget (l_max <= 6, p_max <= 6, side_points <= 256); "
            "pass allow_large=True to force"
        )
    if spec.pixel_pitch > geometry.sigma_g:
        warnings.warn(
            f"pixel pitch {spec.pixel_pitch:.3g} m does not resolve the coherence width "
            f"{geometry.sigma_g:.3g} m; the quadrature may be inaccurate",
            stacklevel=2,
        )

    n = spec.side_points
    h = (n + 1) // 2
    np_ = p_max + 1
    x, y = spec.grids()
    x, y = x[:h, :h], y[:h, :h]
    envelope = np.exp(-(x * x + y * y) / (4.0 * geometry.sigma_s ** 2))
    weight = _mirror_weight(n)  # each quarter pixel stands for itself and its mirror images
    offset = np.arange(n) * spec.pixel_pitch
    kernel = np.exp(-((offset[:h, None] - offset[None, :]) ** 2) / (2.0 * geometry.sigma_g ** 2))
    # Below sqrt(tiny), products with the integrand could be subnormal.
    kernel[kernel < math.sqrt(np.finfo(float).tiny)] = 0.0
    near, far = kernel[:, :h], kernel[:, ::-1][:, :h]  # K[q, k], K[q, mirror(k)]
    k_plus, k_minus = near + far, near - far
    if n % 2:
        k_plus[:, -1] *= 0.5

    # [part, l, p] holds the quarters of u (part 0) and v (part 1) of LG(l, p)
    # in rasters, and of G_u and G_v in partials, for l >= 0.
    rasters = np.empty((2, l_max + 1, np_, h, h))
    partials = np.empty_like(rasters)
    beam = BeamSpec(geometry.matched_waist, wavelength)
    projection_weight = envelope * weight * spec.pixel_area
    _warn_if_clipped(beam, spec, 0.0, l_max, p_max)
    # At z = 0 the Gouy phase and the chirp are 1: LG(l, p) on the
    # quarter is radial[p][inverse] * harmonic.
    for l, (radial, harmonic, _, _, inverse) in enumerate(_lg_blocks(beam, spec, 0.0, l_max, p_max)):
        shells = radial[:, inverse]
        np.multiply(shells, harmonic.real, out=rasters[0, l])
        np.multiply(shells, harmonic.imag, out=rasters[1, l])
        integrand = rasters[:, l] * envelope
        kx_u, kx_v = (k_plus, k_minus) if l % 2 == 0 else (k_minus, k_plus)
        np.matmul(k_plus, integrand[0] @ kx_u.T, out=partials[0, l])
        np.matmul(k_minus, integrand[1] @ kx_v.T, out=partials[1, l])
        partials[:, l] *= projection_weight

    # np.einsum, not a BLAS @: when the caller imported numpy before oamghost,
    # OpenBLAS keeps its thread pool, and a threaded product here waits on its
    # worker thread, which after an idle pause made each call 4x slower.
    a, b = np.zeros((2, l_max + 1, l_max + 1, np_, np_))
    for parity in (0, 1):
        for k, out in ((0, a), (1, b)):
            out[parity::2, parity::2] = np.einsum(
                "lpxy,mqxy->lmpq", partials[k, parity::2], rasters[k, parity::2]) * spec.pixel_area
    nl = 2 * l_max + 1
    coeffs = np.empty((nl, nl, np_, np_))
    coeffs[l_max:, l_max:] = coeffs[l_max::-1, l_max::-1] = a - b  # f[l, l'] = f[-l, -l']
    coeffs[l_max:, l_max::-1] = coeffs[l_max::-1, l_max:] = a + b  # f[l, -l'] = f[-l, l']
    return CsdTensor(l_max, p_max, coeffs)
