"""Self-contained numerical verification suites.

Each suite_* function checks one family of claims at its documented default
parameters and returns a list of CheckResult records. The CLI `verify`
subcommand and the acceptance tests both run through run_suite so they agree
on what was checked; run_suite also times each suite against its budget.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass

import numpy as np

from .field_grid import (
    BeamSpec,
    GridSpec,
    ModeIndex,
    _NORM_TOLERANCE,
    default_grid,
    lg_amplitude,
)
from .quantum_correlations import (
    DENSE_VIEW_MAX_DIM,
    assemble_density,
    brute_force_discord,
    discord_curve,
    geometric_discord_thermal,
    separability_decomposition,
)
from .spiral_imaging import (
    ModeCoefficients,
    clover_object,
    image_spectrum,
    object_spectrum,
    render_pure_image,
    render_total,
)
from .thermal_source import (
    build_spectrum,
    csd_mode_decompose,
    flat_spectrum,
    full_lattice_sums,
    oracle_grid,
    source_geometry,
)

__all__ = [
    "CheckResult",
    "SUITES",
    "run_suite",
    "suite_csd_oracle",
    "suite_discord_extremum",
    "suite_discord_oracle",
    "suite_imaging",
    "suite_mode_math",
    "suite_normalization",
    "suite_separability",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "ok" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail}"


def suite_discord_extremum(l_max: int = 60, p_max: int = 60, samples: int = 200,
                           sigma_s: float = 1e-3) -> list[CheckResult]:
    """Geometric discord of the truncated thermal state across source coherence.

    Sweeps sigma_g / sigma_s over [0.2, 10] and checks that the discord peaks
    at ratio sqrt(2) with value 1/64, and that for ratio >= 0.5 the truncated
    value agrees with the closed-form infinite-lattice limit. The values and
    limits are the D_rho and D_inf columns of discord_curve, the path of
    `oamghost discord`.
    """
    ratios = np.linspace(0.2, 10.0, samples)
    rows = np.array(discord_curve(sigma_s, ratios * sigma_s, [(l_max, p_max)]))
    values, limits = rows[:, 4], rows[:, 6]
    k = int(np.argmax(values))
    step = float(ratios[1] - ratios[0])
    loc_err = abs(float(ratios[k]) - math.sqrt(2.0))
    peak_err = abs(float(values[k]) - 1.0 / 64.0)
    tail = ratios >= 0.5
    agree = float(np.max(np.abs(values[tail] - limits[tail])))
    return [
        CheckResult("extremum-location", loc_err <= step + 1e-12,
                    f"argmax at ratio {ratios[k]:.6f}, |ratio - sqrt(2)| = {loc_err:.3e} "
                    f"(grid step {step:.3e})"),
        CheckResult("extremum-value", peak_err <= 1e-4,
                    f"peak discord {values[k]:.9f}, |peak - 1/64| = {peak_err:.3e} (tol 1e-4)"),
        CheckResult("limit-agreement", agree <= 1e-3,
                    f"max |truncated - closed form| = {agree:.3e} for ratio >= 0.5 (tol 1e-3)"),
    ]


def _csd_deviations(tensor, t: float) -> tuple[float, float]:
    """(max off-selection |f| / f0000, max |f(l,-l,p,p)/f0000 - t^(|l|+2p)|)."""
    l_max, coeff = tensor.l_max, tensor.coefficients
    f0 = coeff[l_max, l_max, 0, 0].real
    l, p = np.arange(-l_max, l_max + 1)[:, None], np.arange(tensor.p_max + 1)
    on = (l + l_max, l_max - l, p, p)  # the (2 l_max + 1, p_max + 1) entries f(l, -l, p, p)
    off_mask = np.ones(coeff.shape, dtype=bool)
    off_mask[on] = False
    off = float(np.max(np.abs(coeff[off_mask]), initial=0.0)) / f0
    # Diagonal ratio law: f(l, -l, p, p) / f(0, 0, 0, 0) = t^(|l| + 2p).
    dev = float(np.max(np.abs(coeff[on].real / f0 - t ** (np.abs(l) + 2 * p))))
    return off, dev


def _csd_checks(tag: str, sigma_s: float, sigma_g: float, l_max: int, p_max: int,
                side_points: int) -> list[CheckResult]:
    geo = source_geometry(sigma_s, sigma_g)
    spec = oracle_grid(geo, l_max, p_max, side_points)
    off, dev = _csd_deviations(csd_mode_decompose(geo, l_max, p_max, spec), geo.t)
    return [
        CheckResult(f"{tag}-selection", off <= 1e-3,
                    f"max off-selection |f| = {off:.3e} of f0000 (tol 1e-3)"),
        CheckResult(f"{tag}-ratio-law", dev <= 1e-3,
                    f"max |f(l,-l,p,p)/f0000 - t^(|l|+2p)| = {dev:.3e} (tol 1e-3)"),
    ]


def suite_csd_oracle(side_points: int = 128, l_max: int = 3, p_max: int = 3) -> list[CheckResult]:
    """Quadrature cross-spectral-density projections against the product law.

    Projects the Gaussian-Schell cross-spectral density onto LG mode pairs by
    direct quadrature, independently of the spiral-spectrum formula, for two
    source geometries, and checks the (l' = -l, p' = p) selection rule and
    the geometric ratio t^(|l| + 2p) on the surviving diagonal.
    """
    return (_csd_checks("partially-coherent", 1e-3, 1e-4, l_max, p_max, side_points)
            + _csd_checks("quasihomogeneous", 1e-3, 2.5e-5, l_max, p_max, side_points))


def suite_normalization(l_max: int = 60, p_max: int = 60) -> list[CheckResult]:
    """Spiral spectrum sum rules: the truncated sum of squares against 1, and the
    truncated sums P, P^2, P^4 of build_spectrum against their full-lattice closed forms."""
    results = []
    defect = 0.0
    # sigma_g values spanning t from 0.17 up to 0.9100 at sigma_s = 1 mm.
    worst = ""
    for sigma_g in (math.inf, 2e-3, 1e-4, 9.443e-5):
        geo = source_geometry(1e-3, sigma_g)
        spec = build_spectrum(geo, l_max, p_max)
        d = abs(spec.sum_squares() - 1.0)
        if d > defect:
            defect = d
            worst = f"t = {geo.t:.4f}"
    results.append(CheckResult("sum-squares", defect <= 1e-3,
                               f"max |sum P^2 - 1| = {defect:.3e} at {worst} (tol 1e-3)"))
    geo = source_geometry(1e-3, 2e-3)
    spec = build_spectrum(geo, l_max, p_max)
    truncated = (spec.sum_amplitudes(), spec.sum_squares(), spec.sum_fourth())
    err = max(abs(s - c) for s, c in zip(truncated, full_lattice_sums(geo)))
    results.append(CheckResult("closed-forms", err <= 1e-9,
                               f"max |truncated sum - closed form| over P, P^2, P^4 = {err:.3e} "
                               f"at t = {geo.t:.4f} (tol 1e-9)"))
    return results


_SEPARABILITY_SHAPES = [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4),
                        (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]
_SEPARABILITY_TRIALS = 12


def suite_separability(l_max: int | None = None, p_max: int | None = None,
                       seed: int = 0) -> list[CheckResult]:
    """Explicit separable decompositions of the truncated two-beam state.

    _SEPARABILITY_TRIALS randomized truncations (all with d <= 16 unless
    l_max and p_max are given) and coherence parameters, each with
    (sum P)^2 > 1 so the construction applies; checks reconstruction to
    1e-12 and positive semidefiniteness of both separable pieces, by eigvalsh
    on the dense views up to the dense-view cap and by the exact
    diagonal-plus-rank-one criterion above it. Also checks the closed-form robustness R = 1 at
    sigma_g = 2 sigma_s on the full lattice.
    """
    results = []
    rng = np.random.default_rng(seed)
    worst_res = 0.0
    worst_eig = 0.0
    for k in range(_SEPARABILITY_TRIALS):
        if l_max is not None and p_max is not None:
            lm, pm = l_max, p_max
        else:
            lm, pm = _SEPARABILITY_SHAPES[rng.integers(len(_SEPARABILITY_SHAPES))]
        # Draw t directly, then recover sigma_g: with u = sqrt(t),
        # tan(beta) = 2u / (1 - u^2) and sigma_g = 2 sigma_s / tan(beta).
        t = rng.uniform(0.05, 0.6)
        u = math.sqrt(t)
        sigma_s = 1e-3
        sigma_g = 2.0 * sigma_s * (1.0 - u * u) / (2.0 * u)
        geo = source_geometry(sigma_s, sigma_g)
        spec = build_spectrum(geo, lm, pm)
        if spec.sum_amplitudes() <= 1.0:
            results.append(CheckResult(f"trial-{k}", False,
                                       f"drawn truncation (l_max={lm}, p_max={pm}, t={t:.3f}) "
                                       "has no separability budget"))
            continue
        state = assemble_density(spec)
        cert = separability_decomposition(state)
        worst_res = max(worst_res, cert.reconstruction_residual)
        if state.d <= DENSE_VIEW_MAX_DIM:
            lows = [float(np.linalg.eigvalsh(part)[0]) for part in (cert.rho_S_minus, cert.rho_S_plus)]
        else:
            # rho_S- is diagonal, so its least entry is its least eigenvalue; rho_S+ adds
            # a positive multiple of |v><v| to R / (1 + R) times that diagonal, which
            # cannot lower the spectrum below the diagonal's least entry (Weyl).
            low = float(np.min(cert.minus_diagonal))
            lows = [low, cert.R * low / (1.0 + cert.R)]
        worst_eig = min(worst_eig, *lows)
    results.append(CheckResult("reconstruction", worst_res <= 1e-12,
                               f"max residual {worst_res:.3e} over {_SEPARABILITY_TRIALS} trials (tol 1e-12)"))
    results.append(CheckResult("psd", worst_eig >= -1e-10,
                               f"min eigenvalue {worst_eig:.3e} (floor -1e-10)"))
    geo = source_geometry(1e-3, 2e-3)
    s1, _, _ = full_lattice_sums(geo)
    r_full = s1 * s1 - 1.0
    results.append(CheckResult("full-lattice-robustness", abs(r_full - 1.0) <= 1e-12,
                               f"(sum P)^2 - 1 = {r_full:.15f} at sigma_g = 2 sigma_s"))
    return results


def suite_discord_oracle(seed: int = 0) -> list[CheckResult]:
    """Brute-force measurement search against the closed-form discord.

    Bell state first (known discord 1/2), then the truncated thermal state on
    d = 2, 4 and 6 (l_max 0, p_max 1, 3, 5) at sigma_g = 0.5 sigma_s, and at
    d = 4 and 6 again after a seeded Haar-random unitary on side B. The
    Jacobi search converges to the closed form to roundoff, so the search
    result must match it within 1e-10 on either side. Each search runs 6
    seeded restarts of at most 400 sweeps.
    """
    search = functools.partial(brute_force_discord, restarts=6, iterations=400, seed=seed)
    results = []
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    bell = np.outer(v, v)
    got = search(bell, 2)
    results.append(CheckResult("bell", abs(got - 0.5) <= 1e-10,
                               f"discord {got:.12f} vs 1/2 (tol 1e-10)"))
    geo = source_geometry(1e-3, 0.5e-3)
    rng = np.random.default_rng(seed)
    for pm in (1, 3, 5):
        spec = build_spectrum(geo, 0, pm)
        state = assemble_density(spec)
        rho = state.rho / state.trace_rho
        d = state.d
        closed = geometric_discord_thermal(spec)
        got = search(rho, d)
        diff = got - closed
        results.append(CheckResult(
            f"thermal-d{d}", -1e-10 <= diff <= 1e-10,
            f"search {got:.12f} vs closed form {closed:.12f} (diff {diff:+.2e}, tol 1e-10)"))
        if d > 2:
            # A local unitary on B leaves the discord unchanged but moves the optimal
            # basis off the computational one, where the unrotated states start.
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            local = np.kron(np.eye(d), q * (np.diagonal(r) / np.abs(np.diagonal(r))))
            got = search(local @ rho @ local.conj().T, d)
            diff = got - closed
            results.append(CheckResult(
                f"thermal-d{d}-rotated", -1e-10 <= diff <= 1e-10,
                f"search {got:.12f} vs closed form {closed:.12f} after a Haar-random unitary on B "
                f"(diff {diff:+.2e}, tol 1e-10)"))
    return results


def suite_imaging(side_points: int = 512, l_max: int = 20, p_max: int = 20,
                  sigma_s: float = 1e-3, sigma_g: float = 2.5e-5,
                  z1: float = 0.5, z2: float = 0.5,
                  wavelength: float = 632.8e-9,
                  clover_radius: float = 7.5e-4) -> list[CheckResult]:
    """End-to-end ghost image of the clover target in the quasihomogeneous
    regime, checking the two-term structure, background symmetry, and the
    phase-conjugating character of the pure term."""
    results = []
    geo = source_geometry(sigma_s, sigma_g)
    beam = BeamSpec(geo.matched_waist, wavelength)
    spec = default_grid(beam, l_max, p_max, side_points, z=max(abs(z1), abs(z2)),
                        other_scale=clover_radius)
    half = 0.5 * spec.extent
    obj = clover_object(spec, clover_radius)
    result = render_total(obj, geo, z1, z2, l_max, p_max, wavelength)
    coeffs = result.object_coefficients

    # (a) decomposition identity and mode-capture sanity.
    pure2 = np.abs(result.pure_field.samples) ** 2
    recon = result.background + pure2
    peak = float(result.total_intensity.max())
    iden = float(np.max(np.abs(result.total_intensity - recon))) / peak
    results.append(CheckResult("two-term-identity", iden <= 1e-12,
                               f"max |total - (background + |pure|^2)| = {iden:.3e} of peak"))
    capture = coeffs.power() / (float(np.sum(np.abs(obj.samples) ** 2)) * spec.pixel_area)
    # Modes orthonormal within _NORM_TOLERANCE capture at most all of the power, give or take that.
    results.append(CheckResult("mode-capture", 0.95 <= capture <= 1.0 + _NORM_TOLERANCE,
                               f"truncation captures {capture:.4f} of object power "
                               f"(floor 0.95, ceiling {1.0 + _NORM_TOLERANCE:g})"))
    defect, mode = result.worst_norm
    orthonormal = defect <= _NORM_TOLERANCE
    results.append(CheckResult("basis-norm", orthonormal,
                               f"max |norm^2 - 1| = {defect:.3e} at {mode} on the window "
                               f"at -z1 and +z2 (tol {_NORM_TOLERANCE:g})"))

    # (b) background azimuthal symmetry off-grid, and the raster against the
    # pointwise oracle weight * sum P |LG|^2 at seeded pixel centres.
    spectrum = build_spectrum(geo, l_max, p_max)
    angles = np.linspace(0.0, 2.0 * math.pi, 48, endpoint=False)
    rings = np.repeat([0.25 * half, 0.5 * half, 0.75 * half], angles.size)
    pixels = np.random.default_rng(0).choice(side_points ** 2, min(16, side_points ** 2), replace=False)
    r, phi = (grid.ravel()[pixels] for grid in spec.polar())
    radius = np.concatenate([rings, r])
    azimuth = np.concatenate([np.tile(angles, 3), phi])
    mix = np.zeros_like(radius)
    for (row, p), a in np.ndenumerate(spectrum.amplitudes):
        if a:
            f = lg_amplitude(ModeIndex(row - l_max, p), beam, radius, azimuth, z2)
            mix += a * (f.real ** 2 + f.imag ** 2)
    ring = mix[:rings.size].reshape(3, angles.size)
    worst = float(np.max(ring.std(axis=1) / ring.mean(axis=1)))
    results.append(CheckResult("background-azimuthal", worst <= 1e-6,
                               f"max ring std/mean = {worst:.3e} (tol 1e-6)"))
    rot = float(np.max(np.abs(result.background - np.rot90(result.background))))
    rot /= float(result.background.max())
    results.append(CheckResult("background-quarter-turn", rot <= 1e-6,
                               f"raster quarter-turn deviation {rot:.3e} (tol 1e-6)"))
    oracle = result.background_weight * mix[rings.size:]
    dev = float(np.max(np.abs(result.background.ravel()[pixels] - oracle) / oracle))
    results.append(CheckResult("background-oracle", dev <= 1e-10,
                               f"max relative |raster - weight sum P |LG|^2| = {dev:.3e} "
                               f"at {pixels.size} seeded pixels (tol 1e-10)"))

    # (c) flat spectrum turns the pure term into the phase conjugate of the
    # truncated object (z2 = z1 balances propagation phases).
    flat = flat_spectrum(l_max, p_max)
    image_flat = image_spectrum(coeffs, flat)
    pure_flat = render_pure_image(image_flat, spec, z2)
    proj = render_pure_image(coeffs, spec, -z1)
    mask = np.abs(proj.samples) ** 2 > 0.1 * float(np.max(np.abs(proj.samples) ** 2))
    # arg(pure) should equal -arg(proj); wrap the sum into (-pi, pi].
    mismatch = np.angle(pure_flat.samples[mask]) + np.angle(proj.samples[mask])
    mismatch = np.abs((mismatch + math.pi) % (2.0 * math.pi) - math.pi)
    phase_err = float(mismatch.max()) if mismatch.size else math.inf
    # (c) and (d) compare the pure term with the object's projection, which tracks it on any window:
    # 0 rad and Pearson >= 0.99 on every window from 2^2 to 64^2, where no mode is normalised. So
    # both fail where basis-norm fails.
    unresolved = "" if orthonormal else "; fails with basis-norm: the modes are not orthonormal on this window"
    results.append(CheckResult("phase-conjugation", orthonormal and phase_err <= 0.05,
                               f"max |arg(pure) + arg(object proj)| = {phase_err:.3e} rad "
                               f"above 10% intensity (tol 0.05){unresolved}"))

    # (d) thermal pure term still correlates with the truncated object.
    proj2 = np.abs(proj.samples) ** 2
    corr = float(np.corrcoef(pure2.ravel(), proj2.ravel())[0, 1])
    results.append(CheckResult("intensity-correlation", orthonormal and corr >= 0.9,
                               f"Pearson(|pure|^2, |object proj|^2) = {corr:.4f} (floor 0.9){unresolved}"))
    return results


def _round_trip_gram(beam: BeamSpec, spec: GridSpec) -> np.ndarray:
    """(126, 126) Gram <LG_a|LG_b> over |l| <= 10, p <= 5 at z = 0, row-major in (l, p): column b is
    object_spectrum of render_pure_image of the one-hot table at b, the production passes' round trip."""
    hots = np.eye(21 * 6).reshape(-1, 21, 6)
    return np.stack([object_spectrum(render_pure_image(ModeCoefficients(10, 5, hot, 0.0, beam), spec, 0.0),
                                     beam, 0.0, 10, 5).values.ravel() for hot in hots], axis=1)


def suite_mode_math(side_points: int = 512, seed: int = 0) -> list[CheckResult]:
    """Mode-machinery checks: Gram matrix of the LG family over |l| <= 10,
    p <= 5 against the identity (_round_trip_gram), and the index-conjugation
    identity LG(-l, p; z) = conj(LG(l, p; -z)) at random points and planes."""
    results = []
    beam = BeamSpec(1e-3)
    spec = default_grid(beam, l_max=10, p_max=5, side_points=side_points)
    gram_err = float(np.max(np.abs(_round_trip_gram(beam, spec) - np.eye(126))))
    results.append(CheckResult("orthonormality", gram_err <= 1e-3,
                               f"max |Gram - I| = {gram_err:.3e} over 126 modes (tol 1e-3)"))

    rng = np.random.default_rng(seed)
    worst = 0.0
    zr = beam.rayleigh_range
    for _ in range(200):
        l = int(rng.integers(-10, 11))
        p = int(rng.integers(0, 6))
        r = float(rng.uniform(0.0, 3e-3))
        phi = float(rng.uniform(-math.pi, math.pi))
        z = float(rng.uniform(-2.0, 2.0)) * zr
        a = lg_amplitude(ModeIndex(-l, p), beam, r, phi, z)
        b = np.conj(lg_amplitude(ModeIndex(l, p), beam, r, phi, -z))
        scale = max(abs(a), abs(b), 1e-300)
        worst = max(worst, abs(a - b) / scale)
    results.append(CheckResult("conjugation-identity", worst <= 1e-12,
                               f"max relative deviation {worst:.3e} over 200 draws (tol 1e-12)"))
    return results


SUITES = {
    "discord-extremum": suite_discord_extremum,
    "csd-oracle": suite_csd_oracle,
    "normalization": suite_normalization,
    "separability": suite_separability,
    "discord-oracle": suite_discord_oracle,
    "imaging": suite_imaging,
    "mode-math": suite_mode_math,
}

# Wall-clock budget of each suite, in seconds; run_suite checks it.
_BUDGETS = {"discord-extremum": 2.0, "csd-oracle": 0.5, "normalization": 1.0, "separability": 5.0,
            "discord-oracle": 2.0, "imaging": 5.0, "mode-math": 5.0}


def run_suite(name: str, **kwargs) -> list[CheckResult]:
    """Run one named suite, or every suite in order for name == 'all'.

    Keyword arguments are forwarded to each suite that accepts them. Each
    suite's checks end with a `runtime` check of its wall time against its
    budget in _BUDGETS.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(SUITES))} or 'all'")
    results = []
    for suite, fn in SUITES.items():
        if name not in ("all", suite):
            continue
        accepted = set(inspect.signature(fn).parameters)
        t0 = time.perf_counter()
        results += fn(**{k: v for k, v in kwargs.items() if k in accepted})
        elapsed = time.perf_counter() - t0
        budget = _BUDGETS[suite]
        results.append(CheckResult("runtime", elapsed < budget, f"{elapsed:.2f} s (budget {budget:g} s)"))
    return results
