"""Dense two-photon density operators on the truncated (l, p) basis.

Provides the classical-mixture and pure-pair parts of the thermal two-photon
state, the separability certificate that rewrites their sum as a convex
mixture of separable pieces, and Hilbert-Schmidt geometric discord both in
closed form and via a local-basis search oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal_source import SourceGeometry, SpiralSpectrum, build_spectrum, full_lattice_sums, source_geometry

__all__ = [
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
    "write_discord_csv",
]


def mode_basis(l_max: int, p_max: int) -> list[tuple[int, int]]:
    """Single-photon basis order used everywhere: l ascending, p ascending within l."""
    return [(l, p) for l in range(-l_max, l_max + 1) for p in range(p_max + 1)]


@dataclass(frozen=True)
class ThermalState:
    """Dense d^2 x d^2 operators of the truncated two-photon thermal state.

    rho_C is the diagonal classical mixture with weights P_i P_j, rho_Q the
    rank-one pair projector pairing (l, p) with (-l, p), rho their sum. The
    product basis is A-major over mode_basis order. None of the three is
    trace-normalized; trace_rho = sum P^2 + (sum P)^2.
    """

    spectrum: SpiralSpectrum
    d: int
    rho_C: np.ndarray
    rho_Q: np.ndarray
    rho: np.ndarray
    trace_rho: float


def assemble_density(spectrum: SpiralSpectrum, max_dim: int = 36) -> ThermalState:
    """Build rho_C, rho_Q and rho = rho_C + rho_Q for the truncated spectrum."""
    d = spectrum.d
    if d > max_dim:
        raise ValueError(
            f"single-photon dimension d = {d} exceeds the cap {max_dim} "
            f"(operators would be {d * d} x {d * d}); lower l_max/p_max or raise max_dim"
        )
    order = mode_basis(spectrum.l_max, spectrum.p_max)
    index = {mode: i for i, mode in enumerate(order)}
    pvec = np.array([spectrum.amplitude(l, p) for l, p in order])
    rho_c = np.diag(np.kron(pvec, pvec))
    v = np.zeros(d * d)
    for i, (l, p) in enumerate(order):
        v[i * d + index[(-l, p)]] = pvec[i]
    rho_q = np.outer(v, v)
    trace = float(np.sum(pvec ** 2) + np.sum(pvec) ** 2)
    return ThermalState(spectrum, d, rho_c, rho_q, rho_c + rho_q, trace)


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

    rho_S_minus = (rho_C - sum_i P_i^2 |ii><ii|) / R is diagonal with
    nonnegative entries; rho_S_plus = (rho_Q + R rho_S_minus) / (1 + R). Both
    are PSD by construction; reconstruction_residual is the max absolute
    entrywise defect of the rewrite.
    """

    R: float
    rho_S_minus: np.ndarray
    rho_S_plus: np.ndarray
    reconstruction_residual: float


def separability_decomposition(state: ThermalState, psd_tol: float = 1e-10) -> SeparabilityCertificate:
    """Certificate splitting rho into explicitly separable pieces.

    Requires a positive noise budget R > 0; truncations with (sum P)^2 <= 1
    (every L = 0 truncation, or strongly truncated large-t spectra) carry no
    budget, and only the trivial single-mode case passes through.
    """
    spectrum = state.spectrum
    order = mode_basis(spectrum.l_max, spectrum.p_max)
    pvec = np.array([spectrum.amplitude(l, p) for l, p in order])
    d = state.d
    diag_pairs = np.zeros(d * d)
    diag_pairs[np.arange(d) * d + np.arange(d)] = pvec ** 2
    diag_pairs = np.diag(diag_pairs)

    r = robustness(spectrum)
    if r <= 0.0:
        rho_plus = state.rho_Q.copy()
        residual = float(np.max(np.abs(state.rho - rho_plus - diag_pairs)))
        if residual > 1e-12:
            raise ValueError(
                "truncated spectrum has (sum P)^2 <= 1: no separating-noise budget; "
                "use l_max >= 1 and a moderate t, or the full-lattice robustness"
            )
        return SeparabilityCertificate(0.0, np.zeros_like(state.rho), rho_plus, residual)

    rho_minus = (state.rho_C - diag_pairs) / r
    rho_plus = (state.rho_Q + r * rho_minus) / (1.0 + r)
    recon = (1.0 + r) * rho_plus + diag_pairs
    residual = float(np.max(np.abs(recon - state.rho)))
    for name, op in (("rho_S_minus", rho_minus), ("rho_S_plus", rho_plus)):
        low = float(np.linalg.eigvalsh(op)[0])
        if low < -psd_tol:
            raise ValueError(f"{name} has negative eigenvalue {low:g}; construction bug")
    return SeparabilityCertificate(r, rho_minus, rho_plus, residual)


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

    Maximal (1/64) at x = sqrt(2); 0 in the coherent limit sigma_g = inf.
    """
    if math.isinf(geometry.sigma_g):
        return 0.0
    x = geometry.sigma_g / geometry.sigma_s
    return 1.0 / (x + 2.0 / x) ** 4


def _hermitian_from(theta: np.ndarray, dim: int) -> np.ndarray:
    h = np.zeros((dim, dim), dtype=complex)
    h[np.diag_indices(dim)] = theta[:dim]
    k = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            h[i, j] = theta[k] + 1j * theta[k + 1]
            h[j, i] = theta[k] - 1j * theta[k + 1]
            k += 2
    return h


def brute_force_discord(
    rho: np.ndarray,
    dim_b: int,
    restarts: int = 8,
    iterations: int = 400,
    seed: int = 0,
) -> float:
    """Search local bases on side B for the Hilbert-Schmidt discord minimum.

    The candidate basis is the column set of exp(iH) over Hermitian H; the
    search runs derivative-free (Powell) descent on the dim_b^2 real
    parameters of H from the computational basis plus `restarts` random
    starts. Every candidate value tr rho^2 - sum_k tr(<eta_k|rho|eta_k>^2) is
    an upper bound on the true minimum, so the returned sampled minimum is
    one as well.

    rho must be the trace-normalized density operator on the A-major product
    basis, with side-B dimension dim_b.
    """
    from scipy.linalg import expm
    from scipy.optimize import minimize

    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"rho must be square, got shape {rho.shape}")
    total = rho.shape[0]
    if dim_b <= 0 or total % dim_b != 0:
        raise ValueError(f"dim_b = {dim_b} does not divide the total dimension {total}")
    if dim_b > 6:
        raise ValueError(f"basis search over dim_b = {dim_b} > 6 is not budgeted")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-9:
        raise ValueError("rho is not Hermitian within 1e-9")
    if abs(float(np.trace(rho).real) - 1.0) > 1e-9:
        raise ValueError("rho is not trace-normalized within 1e-9")
    if float(np.linalg.eigvalsh(rho)[0]) < -1e-9:
        raise ValueError("rho is not positive semidefinite within 1e-9")

    dim_a = total // dim_b
    rho4 = rho.reshape(dim_a, dim_b, dim_a, dim_b)
    purity = float(np.trace(rho @ rho).real)
    n_par = dim_b * dim_b

    def objective(theta: np.ndarray) -> float:
        u = expm(1j * _hermitian_from(theta, dim_b))
        meas = np.einsum("bk,abcd,dk->ack", u.conj(), rho4, u)
        return purity - float(np.real(np.einsum("ack,cak->", meas, meas)))

    options = {"maxiter": iterations, "xtol": 1e-9, "ftol": 1e-12, "maxfev": 60000}
    rng = np.random.default_rng(seed)
    best = objective(np.zeros(n_par))
    for attempt in range(max(restarts, 0) + 1):
        theta0 = np.zeros(n_par) if attempt == 0 else rng.normal(0.0, 1.0, n_par)
        result = minimize(objective, theta0, method="Powell", options=options)
        best = min(best, float(result.fun))
    return max(best, 0.0)


def discord_curve(sigma_s: float, sigma_g_values, dimension_list) -> list[tuple]:
    """Rows (sigma_g/sigma_s, L, P, d, D_rho, D_rhoQ, D_inf) per sample and truncation."""
    rows = []
    for sigma_g in sigma_g_values:
        geometry = source_geometry(sigma_s, float(sigma_g))
        d_inf = discord_limit(geometry)
        for l_max, p_max in dimension_list:
            spectrum = build_spectrum(geometry, l_max, p_max)
            rows.append(
                (
                    float(sigma_g) / sigma_s,
                    l_max,
                    p_max,
                    spectrum.d,
                    geometric_discord_thermal(spectrum),
                    geometric_discord_pure(spectrum),
                    d_inf,
                )
            )
    return rows


def write_discord_csv(path, rows) -> None:
    """CSV with header sigma_g_over_sigma_s,L,P,d,D_rho,D_rhoQ,D_inf."""
    lines = ["sigma_g_over_sigma_s,L,P,d,D_rho,D_rhoQ,D_inf"]
    for ratio, l_max, p_max, d, d_rho, d_rho_q, d_inf in rows:
        lines.append(f"{ratio:.17g},{l_max},{p_max},{d},{d_rho:.17g},{d_rho_q:.17g},{d_inf:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

