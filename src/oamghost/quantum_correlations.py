"""Two-photon thermal state on the truncated (l, p) basis, stored by structure.

The state is a diagonal classical mixture, rho_C = diag(P_i P_j), plus a
rank-one pair projector, rho_Q = |v><v|, so both it and its separability
certificate are kept as length-d and length-d^2 vectors; dense d^2 x d^2
views are built only on request and only up to a size cap. Also provides
Hilbert-Schmidt geometric discord in closed form from the spectrum sums
sum P, sum P^2, sum P^4 (Dakic, Vedral & Brukner, PRL 105, 190502 (2010)),
and a dense local-basis search oracle for small d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field_grid import _lattice_shape
from .thermal_source import SourceGeometry, SpiralSpectrum, _beta_and_t, _check_widths, full_lattice_sums

__all__ = [
    "DENSE_VIEW_MAX_DIM",
    "SeparabilityCertificate",
    "ThermalState",
    "assemble_density",
    "brute_force_discord",
    "discord_curve",
    "discord_from_sums",
    "discord_limit",
    "geometric_discord_full_lattice",
    "geometric_discord_pure",
    "geometric_discord_thermal",
    "mode_basis",
    "robustness",
    "robustness_full_lattice",
    "separability_decomposition",
]


def mode_basis(l_max: int, p_max: int) -> list[tuple[int, int]]:
    """Single-photon basis order used everywhere: l ascending, p ascending within l."""
    return [(l, p) for l in range(-l_max, l_max + 1) for p in range(p_max + 1)]


DENSE_VIEW_MAX_DIM = 36  # largest d whose dense d^2 x d^2 views may be built


def _check_dense(d: int) -> None:
    if d > DENSE_VIEW_MAX_DIM:
        raise ValueError(
            f"single-photon dimension d = {d} exceeds the dense-view cap {DENSE_VIEW_MAX_DIM} "
            f"(operators would be {d * d} x {d * d}); lower l_max/p_max"
        )


def _pair_block(values: np.ndarray, support: np.ndarray, d: int) -> np.ndarray:
    """Dense d^2 x d^2 array, zero but for np.outer(values, values) at (support, support).

    Equal entry for entry to np.outer(v, v) for the d^2 vector v that holds values
    at support, without forming that outer product.
    """
    _check_dense(d)
    dense = np.zeros((d * d, d * d))
    dense[np.ix_(support, support)] = np.outer(values, values)
    return dense


@dataclass(frozen=True)
class ThermalState:
    """Truncated two-photon thermal state rho = rho_C + rho_Q, stored by structure.

    pvec holds the amplitudes P_i in mode_basis order and partner[i] the index
    of mode (-l, p) for mode i = (l, p). On the A-major product basis,
    rho_C = diag(P_i P_j) and rho_Q = |v><v| with v[i d + partner[i]] = P_i
    (pair_vector). rho_C, rho_Q and rho are dense views, built afresh on each
    access and refused for d > DENSE_VIEW_MAX_DIM. None of them is
    trace-normalized; trace_rho = sum P^2 + (sum P)^2.
    """

    spectrum: SpiralSpectrum
    d: int
    pvec: np.ndarray
    partner: np.ndarray
    trace_rho: float

    @property
    def pair_vector(self) -> np.ndarray:
        """The length-d^2 vector v of rho_Q = |v><v|."""
        v = np.zeros(self.d * self.d)
        v[np.arange(self.d) * self.d + self.partner] = self.pvec
        return v

    @property
    def rho_C(self) -> np.ndarray:
        _check_dense(self.d)
        return np.diag(np.kron(self.pvec, self.pvec))

    @property
    def rho_Q(self) -> np.ndarray:
        return _pair_block(self.pvec, np.arange(self.d) * self.d + self.partner, self.d)

    @property
    def rho(self) -> np.ndarray:
        rho = self.rho_Q
        rho[np.diag_indices_from(rho)] += np.kron(self.pvec, self.pvec)
        return rho


def assemble_density(spectrum: SpiralSpectrum) -> ThermalState:
    """Structured thermal state for the truncated spectrum, of any dimension.

    DENSE_VIEW_MAX_DIM caps only the dense views rho_C, rho_Q and rho.
    """
    nl, np_ = spectrum.amplitudes.shape
    pvec = spectrum.amplitudes.ravel()  # mode_basis order: l ascending, p ascending
    partner = np.arange(nl * np_).reshape(nl, np_)[::-1].ravel()  # row l + l_max -> -l + l_max
    trace = float(np.sum(pvec ** 2) + np.sum(pvec) ** 2)
    return ThermalState(spectrum, spectrum.d, pvec, partner, trace)


def robustness(spectrum: SpiralSpectrum) -> float:
    """Separating-noise budget (sum P)^2 - 1 over the truncation, floored at 0."""
    return max(spectrum.sum_amplitudes() ** 2 - 1.0, 0.0)


def robustness_full_lattice(geometry: SourceGeometry) -> float:
    """robustness evaluated with the closed-form untruncated sum of P."""
    s, _, _ = full_lattice_sums(geometry)
    return max(s * s - 1.0, 0.0)


@dataclass(frozen=True)
class SeparabilityCertificate:
    """Pieces of the rewrite rho = (1 + R) rho_S_plus + sum_i P_i^2 |ii><ii|.

    rho_S_minus = (rho_C - sum_i P_i^2 |ii><ii|) / R is diagonal; minus_diagonal
    holds that diagonal (all zero when R = 0). rho_S_plus =
    (|v><v| + R rho_S_minus) / (1 + R) with v = pair_vector, the pair vector of
    rho_Q. A diagonal is PSD iff its entries are nonnegative, and a nonnegative
    diagonal plus a positive multiple of |v><v| is PSD, so both pieces are
    certified from minus_diagonal alone. reconstruction_residual is the max
    absolute entrywise defect of the rewrite. rho_S_minus and rho_S_plus are
    dense views, built afresh on each access and refused for
    d > DENSE_VIEW_MAX_DIM.
    """

    R: float
    minus_diagonal: np.ndarray
    pair_vector: np.ndarray
    reconstruction_residual: float

    @property
    def rho_S_minus(self) -> np.ndarray:
        _check_dense(math.isqrt(self.minus_diagonal.size))
        return np.diag(self.minus_diagonal)

    @property
    def rho_S_plus(self) -> np.ndarray:
        v = self.pair_vector
        support = np.flatnonzero(v)
        plus = _pair_block(v[support], support, math.isqrt(v.size))
        plus[np.ix_(support, support)] /= 1.0 + self.R
        plus[np.diag_indices_from(plus)] = (v * v + self.R * self.minus_diagonal) / (1.0 + self.R)
        return plus


def separability_decomposition(state: ThermalState) -> SeparabilityCertificate:
    """Certificate splitting rho into explicitly separable pieces.

    Requires a positive noise budget R > 0; truncations with (sum P)^2 <= 1
    (every L = 0 truncation, or strongly truncated large-t spectra) carry no
    budget, and only the trivial single-mode case passes through. Works on
    the stored vectors only, in O(d^2) time and memory.
    """
    d = state.d
    classical = np.kron(state.pvec, state.pvec)  # diagonal of rho_C
    pairs = np.zeros(d * d)
    pairs[np.arange(d) * d + np.arange(d)] = state.pvec ** 2
    v = state.pair_vector
    r = robustness(state.spectrum)
    minus = (classical - pairs) / r if r > 0.0 else np.zeros(d * d)

    # Defect of (1 + R) rho_S_plus + pairs - rho: on the diagonal, and on the
    # off-diagonal block spanned by the support of v; every other entry is 0 - 0.
    plus_diag = (v * v + r * minus) / (1.0 + r)
    residual = float(np.max(np.abs((1.0 + r) * plus_diag + pairs - (classical + v * v))))
    block = np.outer(state.pvec, state.pvec)  # v on its support, v[i d + partner[i]] = P_i
    off = np.abs((1.0 + r) * (block / (1.0 + r)) - block)
    off[np.diag_indices(d)] = 0.0
    residual = max(residual, float(np.max(off)))

    if r <= 0.0:
        if residual > 1e-12:
            raise ValueError(
                "truncated spectrum has (sum P)^2 <= 1: no separating-noise budget; "
                "use l_max >= 1 and a moderate t, or the full-lattice robustness"
            )
        return SeparabilityCertificate(0.0, minus, v, residual)

    for name, diagonal in (("rho_S_minus", minus), ("rho_S_plus", r * minus / (1.0 + r))):
        low = float(np.min(diagonal))
        if low < -1e-10:  # roundoff below zero is tolerated
            raise ValueError(f"{name} has negative diagonal entry {low:g}; construction bug")
    return SeparabilityCertificate(r, minus, v, residual)


def discord_from_sums(sum_p: float, sum_p2: float, sum_p4: float) -> float:
    """Closed-form geometric discord from the three spectrum sums."""
    return (sum_p2 ** 2 - sum_p4) / (sum_p2 + sum_p ** 2) ** 2


def geometric_discord_thermal(spectrum: SpiralSpectrum) -> float:
    """Discord of the trace-normalized thermal state on the truncation."""
    return discord_from_sums(spectrum.sum_amplitudes(), spectrum.sum_squares(), spectrum.sum_fourth())


def geometric_discord_full_lattice(geometry: SourceGeometry) -> float:
    """Discord with the untruncated closed-form sums; equals discord_limit."""
    return discord_from_sums(*full_lattice_sums(geometry))


def geometric_discord_pure(spectrum: SpiralSpectrum) -> float:
    """Discord 1 - sum s^2 of the normalized pure pair state (s = P^2 / sum P^2)."""
    s = spectrum.schmidt_probabilities()
    return float(1.0 - np.sum(s ** 2))


def discord_limit(geometry: SourceGeometry) -> float:
    """Untruncated-limit discord 1 / (x + 2/x)^4 with x = sigma_g / sigma_s.

    Maximal (1/64) at x = sqrt(2); 0 in the coherent limit sigma_g = inf. The
    negative power underflows to 0 where the fourth power would overflow.
    """
    return float(_limit_at_ratio(geometry.sigma_g / geometry.sigma_s)[0])


def _limit_at_ratio(x) -> np.ndarray:
    """(x + 2/x)^-4 as an array over x (a float or an array), through array ufuncs for a float too."""
    x = np.array(x, dtype=float, ndmin=1)
    with np.errstate(divide="ignore", over="ignore"):  # x = 0 or subnormal: 2/x = inf, the limit 0
        return (x + 2.0 / x) ** -4


def brute_force_discord(
    rho: np.ndarray,
    dim_b: int,
    restarts: int = 8,
    iterations: int = 400,
    seed: int = 0,
) -> float:
    """Search local bases on side B for the Hilbert-Schmidt discord minimum.

    The search maximises sum_k tr(<k|rho|k>^2) over bases {|k>} of B. With
    M_ac the B-blocks of rho, that sum is the summed squared diagonals of
    U^dag H U over the Hermitian parts H = (M + M^dag)/2 and (M - M^dag)/2i,
    raised by complex Jacobi sweeps: per index pair (j, k), the closed-form
    Givens rotation of Cardoso & Souloumiac (SIAM J. Matrix Anal. Appl. 17,
    161 (1996)). Jacobi finds local maxima, so sweeps run from the
    computational basis and from `restarts` seeded random bases; a start
    ends after `iterations` sweeps or a sweep gaining at most 1e-14 tr rho^2.
    Every candidate is a basis, so every value tr rho^2 - sum_k
    tr(<k|rho|k>^2) is an upper bound on the true minimum, as is the least.

    rho must be the trace-normalized density operator on the A-major product
    basis, with side-B dimension dim_b.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    total = rho.shape[0]
    if dim_b <= 0 or total % dim_b != 0:
        raise ValueError(f"dim_b = {dim_b} does not divide the total dimension {total}")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-9:
        raise ValueError("rho is not Hermitian within 1e-9")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-9:
        raise ValueError("rho is not trace-normalized within 1e-9")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-9:
        raise ValueError("rho is not positive semidefinite within 1e-9")

    dim_a = total // dim_b
    blocks = rho.reshape(dim_a, dim_b, dim_a, dim_b).transpose(0, 2, 1, 3).reshape(-1, dim_b, dim_b)
    adjoint = blocks.conj().transpose(0, 2, 1)
    herm = np.concatenate([blocks + adjoint, (blocks - adjoint) / 1j]) / 2.0
    purity = float(np.sum(np.abs(rho) ** 2))  # tr rho^2, rho Hermitian
    rng = np.random.default_rng(seed)
    pairs = list(itertools.combinations(range(dim_b), 2))  # np.triu_indices(dim_b, 1) order
    g = np.empty((3, herm.shape[0]))  # per part: h_jj - h_kk, 2 Re h_jk, -2 Im h_jk of the pair (j, k)
    best = 0.0
    for attempt in range(max(restarts, 0) + 1):
        u = np.linalg.qr(rng.normal(size=(dim_b, dim_b, 2)) @ [1.0, 1j])[0] if attempt else np.eye(dim_b)
        # h[k, l] is the contiguous vector of <k|U^dag H U|l> over the Hermitian parts H, so a
        # rotation updates two rows and two columns of contiguous vectors in place.
        h = np.ascontiguousarray(np.einsum("bk,mbl->klm", u.conj(), np.einsum("mbc,cl->mbl", herm, u)))
        re, im = h.real, h.imag
        value = float(np.sum(np.diagonal(h).real ** 2))
        for _ in range(iterations):
            previous = value
            for j, k in pairs:
                np.subtract(re[j, j], re[k, k], out=g[0])
                np.multiply(re[j, k], 2.0, out=g[1])
                np.multiply(im[j, k], -2.0, out=g[2])
                x, y, z = np.linalg.eigh(np.einsum("im,jm->ij", g, g))[1][:, -1].tolist()
                if x < 0.0:
                    x, y, z = -x, -y, -z
                c = math.sqrt((1.0 + x) / 2.0)
                s = complex(y, z) / (2.0 * c)
                # h <- R^dag h R with R = [[c, -conj(s)], [s, c]] on (j, k): columns, then rows.
                for first, second, phase in ((h[:, j], h[:, k], s), (h[j], h[k], s.conjugate())):
                    turned = first * c
                    turned += second * phase
                    second *= c
                    second -= first * phase.conjugate()
                    first[...] = turned
            value = float(np.sum(np.diagonal(h).real ** 2))
            if value - previous <= 1e-14 * purity:
                break
        best = max(best, value)
    return max(purity - best, 0.0)


def _truncated_sums(t: np.ndarray, l_max: int, p_max: int, k: int) -> np.ndarray:
    """sum P^k over the truncation for each decay ratio in t, with P = (1 - t^2) t^(|l| + 2p).

    The lattice sum factorises as sum_l t^(k|l|) * sum_p t^(2kp); both are
    summed term by term, which stays exact as t -> 1 where the geometric-series
    closed form would cancel. The powers are running products of t^k and
    t^(2k), so the term of order j carries about j eps relative error: at most
    about max(l_max, p_max) eps, against one rounding for a pow per term.
    """
    base = t ** k
    return ((1.0 - t * t) ** k * (1.0 + 2.0 * _running_powers(base, l_max)[1:].sum(axis=0))
            * _running_powers(base * base, p_max).sum(axis=0))


def _running_powers(base: np.ndarray, n: int) -> np.ndarray:
    """(n + 1, len(base)) powers base^0 ... base^n, each row the previous times base."""
    powers = np.empty((n + 1, base.size))
    powers[0] = 1.0
    for j in range(n):  # row by row: np.cumprod along this axis runs about 5x slower
        np.multiply(powers[j], base, out=powers[j + 1])
    return powers


def discord_curve(sigma_s: float, sigma_g_values, dimension_list) -> list[tuple]:
    """Rows (sigma_g/sigma_s, L, P, d, D_rho, D_rhoQ, D_inf) per sample and truncation.

    D_rho and D_rhoQ are geometric_discord_thermal and geometric_discord_pure
    of build_spectrum's table and D_inf is discord_limit, all computed for
    the whole sweep at once: t and D_inf by the formulas that source_geometry
    and discord_limit apply to one sample (so bit for bit the same), and the
    three spectrum sums by _truncated_sums, whose running-product powers are
    off by about max(L, P) eps relative per term. The widths are checked as
    source_geometry checks them. Rows hold Python ints and floats.
    """
    sigma_gs = np.fromiter(sigma_g_values, dtype=float)
    _check_widths(sigma_s, sigma_gs)
    _, t = _beta_and_t(sigma_s, sigma_gs)
    ratios = sigma_gs / sigma_s
    d_inf = _limit_at_ratio(ratios).tolist()
    columns = []
    for l_max, p_max in dimension_list:
        d = math.prod(_lattice_shape(l_max, p_max))
        s1, s2, s4 = (_truncated_sums(t, l_max, p_max, k) for k in (1, 2, 4))
        d_rho, d_rho_q = discord_from_sums(s1, s2, s4), 1.0 - s4 / (s2 * s2)
        columns.append((l_max, p_max, d, d_rho.tolist(), d_rho_q.tolist()))
    return [(ratio, l_max, p_max, d, d_rho[i], d_rho_q[i], d_inf[i])
            for i, ratio in enumerate(ratios.tolist())
            for l_max, p_max, d, d_rho, d_rho_q in columns]
