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

from .field_grid import (BeamSpec, GridSpec, ModeIndex, _hg_pair_overlaps, _lattice_entry, _lattice_shape,
                         _lattice_table, _warn_if_clipped, default_grid)

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


def _check_widths(sigma_s: float, sigma_g) -> None:
    """Refuse sigma_s unless positive and finite, and sigma_g (a float or an array) unless positive."""
    if not (sigma_s > 0 and math.isfinite(sigma_s)):
        raise ValueError(f"sigma_s must be positive and finite, got {sigma_s}")
    bad = np.flatnonzero(~(np.asarray(sigma_g) > 0))  # NaN fails too; inf is the coherent limit
    if bad.size:
        raise ValueError(f"sigma_g must be positive (inf allowed), got {np.ravel(sigma_g)[bad[0]]}")


def _beta_and_t(sigma_s: float, sigma_g) -> tuple[np.ndarray, np.ndarray]:
    """(beta, t) as arrays over sigma_g, a float or an array, with tan(beta) = 2 sigma_s / sigma_g
    and t = tan^2(beta/2).

    A float goes through the same array ufuncs as a sweep, so source_geometry
    and discord_curve get the same bits for the same widths. beta is 0 in the
    coherent limit sigma_g = inf. A tiny sigma_g (1e-300, or a subnormal one
    whose ratio overflows to inf) puts beta at pi/2 to rounding, where
    t = tan^2(pi/4) rounds to 1 - eps, not to 1.
    """
    sigma_g = np.array(sigma_g, dtype=float, ndmin=1)
    with np.errstate(over="ignore"):
        beta = np.arctan(2.0 * sigma_s / sigma_g)
    return beta, np.tan(0.5 * beta) ** 2


def source_geometry(sigma_s: float, sigma_g: float = math.inf) -> SourceGeometry:
    """Build the derived geometry for the given source widths."""
    _check_widths(sigma_s, sigma_g)
    beta, t = (float(v[0]) for v in _beta_and_t(sigma_s, sigma_g))
    waist = 2.0 * sigma_s * math.sqrt(math.cos(beta))
    return SourceGeometry(sigma_s, sigma_g, beta, t, waist)


@dataclass(frozen=True)
class SpiralSpectrum:
    """Real nonnegative amplitude table P[l, p] for |l| <= l_max, 0 <= p <= p_max.

    Thermal tables built by build_spectrum are geometric in |l| + 2p; the
    container itself only enforces the (l, p)-table contract
    (field_grid._lattice_table) and nonnegativity, so flat test tables
    (flat_spectrum) are representable too.
    """

    l_max: int
    p_max: int
    amplitudes: np.ndarray  # shape (2 l_max + 1, p_max + 1), row index l + l_max
    geometry: SourceGeometry | None = None

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _lattice_table(self.l_max, self.p_max, self.amplitudes, float,
                                                              "amplitude table", nonnegative=True))

    @property
    def d(self) -> int:
        """Dimension (2 l_max + 1)(p_max + 1) of the truncated single-photon space."""
        return self.amplitudes.size

    def amplitude(self, l: int, p: int) -> float:
        return float(_lattice_entry(self.amplitudes, self.l_max, self.p_max, (l,), (p,)))

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
    ls = np.abs(np.arange(-l_max, l_max + 1))
    ps = np.arange(p_max + 1)
    t = geometry.t
    amps = (1.0 - t * t) * np.power(t, ls[:, None] + 2 * ps[None, :])
    return SpiralSpectrum(l_max, p_max, amps, geometry)


def flat_spectrum(l_max: int, p_max: int) -> SpiralSpectrum:
    """Table of amplitude 1 at every mode (maximally entangled stand-in; no geometry)."""
    return SpiralSpectrum(l_max, p_max, np.ones(_lattice_shape(l_max, p_max)))


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
    return envelope * np.exp(-dq / (2.0 * geometry.sigma_g * geometry.sigma_g))  # inf, not OverflowError


@dataclass(frozen=True)
class CsdTensor:
    """Mode-decomposition coefficients f[l, l', p, p'] of the source correlations."""

    l_max: int
    p_max: int
    coefficients: np.ndarray  # shape (2L+1, 2L+1, P+1, P+1), index (l+L, l'+L, p, p')

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _lattice_table(self.l_max, self.p_max, self.coefficients,
                                                                complex, "coefficient tensor", pairs=True))

    def coefficient(self, l: int, l_prime: int, p: int, p_prime: int) -> complex:
        return complex(_lattice_entry(self.coefficients, self.l_max, self.p_max, (l, l_prime), (p, p_prime)))


def oracle_grid(geometry: SourceGeometry, l_max: int, p_max: int, side_points: int = 128) -> GridSpec:
    """Window for csd_mode_decompose: field_grid.default_grid for the matched waist at z = 0."""
    return default_grid(BeamSpec(geometry.matched_waist), l_max, p_max, side_points)


def csd_mode_decompose(geometry: SourceGeometry, l_max: int, p_max: int, spec: GridSpec) -> CsdTensor:
    """Project the cross-spectral density onto LG mode pairs by nested quadrature.

    Computes, at z = 0 with the matched waist,

        f[l, l', p, p'] = iint iint W(rho1, rho2) LG*_{l,p}(rho1) LG*_{l',p'}(rho2)
                          d^2 rho1 d^2 rho2

    as the plain midpoint-rule sum over the window's pixels, taken axis by
    axis. The source supplies W = E(rho1) E(rho2) K(rho1 - rho2) as what it
    is on one axis: the envelope e(x) = exp(-x^2 / 4 sigma_s^2) at the
    window's columns and the Toeplitz kernel k(x, x') = exp(-(x - x')^2 /
    2 sigma_g^2), both even (at sigma_g = inf the kernel is 1).
    field_grid._hg_pair_overlaps contracts them with the HG tables of the
    modes on both axes.

    This is a cross-check oracle, not a production path: truncations or grids
    beyond its runtime budget (l_max, p_max <= 10, side_points <= 512) are
    refused, and so is a window whose pixel area overflows, before any warning.
    """
    spec.pixel_area  # raises ValueError where pitch^2 overflows
    n_modes = math.prod(_lattice_shape(l_max, p_max))
    if l_max > 10 or p_max > 10 or spec.side_points > 512:
        raise ValueError(
            f"decomposition over {n_modes} modes on a {spec.side_points}^2 grid exceeds the "
            "CSD oracle's runtime budget (l_max <= 10, p_max <= 10, side_points <= 512); "
            "lower l_max, p_max or the grid side"
        )
    spread = 2.0 * geometry.sigma_g * geometry.sigma_g  # a product: inf (a kernel of 1), not OverflowError
    if spread == 0.0:
        raise ValueError(f"sigma_g = {geometry.sigma_g!r} m is too small: 2 sigma_g^2 underflows to 0")
    if spec.pixel_pitch > geometry.sigma_g:
        warnings.warn(
            f"pixel pitch {spec.pixel_pitch:.3g} m does not resolve the coherence width "
            f"{geometry.sigma_g:.3g} m; the quadrature may be inaccurate",
            stacklevel=2,
        )

    beam = BeamSpec(geometry.matched_waist)  # at z = 0 the modes do not depend on the wavelength
    _warn_if_clipped(beam, spec, 0.0, l_max, p_max)
    x = spec.axis()
    envelope = np.exp(-x * x / (4.0 * geometry.sigma_s ** 2))
    offset = np.arange(spec.side_points) * spec.pixel_pitch
    kernel = np.exp(-((offset[:, None] - offset[None, :]) ** 2) / spread)
    return CsdTensor(l_max, p_max, _hg_pair_overlaps(envelope, kernel, beam, spec, l_max, p_max))
