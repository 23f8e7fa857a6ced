"""Output checkers for the three workloads, with references computed here.

Nothing in this module calls into ``oamghost``: the Laguerre-Gaussian modes,
spectra, discord closed forms, two-photon operators and file parsers are
written afresh from their definitions, so a fault in the program cannot hide
in its own reference. Each checker returns a list of failure messages; an
empty list means the output passed.

Tolerances follow from the numerics, not from observed outputs:

* ``ROUNDOFF`` bounds the relative error of a mode sum: the modes evaluated
  here and in the program agree to ~1e-14 of their peak for the orders used
  (|l|, p <= 20), and Cauchy-Schwarz carries that through a quadrature.
* Integral identities on a finite grid hold up to the discrete Gram matrix of
  the sampled modes; the checkers compute that matrix and use its distance
  from the identity as the tolerance.
* Quantized rasters are compared within half a grey level per raster.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

EPS = np.finfo(float).eps
ROUNDOFF = 1e-10
CSD_TOL = 1e-9  # see check_csd
CSD_MAX_PITCH = 0.6  # pixel pitch / sigma_g above which CSD_TOL is not assured


# --- geometry and spectra --------------------------------------------------

def geometry(sigma_s: float, sigma_g: float) -> tuple[float, float]:
    """(t, matched waist) from tan(beta) = 2 sigma_s / sigma_g."""
    beta = math.atan(2.0 * sigma_s / sigma_g)
    return math.tan(beta / 2.0) ** 2, 2.0 * sigma_s * math.sqrt(math.cos(beta))


def spectrum(t: float, l_max: int, p_max: int) -> np.ndarray:
    """Thermal amplitudes P[l + l_max, p] = (1 - t^2) t^(|l| + 2p)."""
    table = np.empty((2 * l_max + 1, p_max + 1))
    for l in range(-l_max, l_max + 1):
        for p in range(p_max + 1):
            table[l + l_max, p] = (1.0 - t * t) * t ** (abs(l) + 2 * p)
    return table


def truncated_sums(t: float, l_max: int, p_max: int) -> tuple[float, float, float]:
    """Closed-form geometric sums of P, P^2 and P^4 over the truncation."""

    def lattice(q: float) -> float:  # sum over |l| <= l_max, p <= p_max of q^(|l| + 2p)
        if q == 0.0:
            return 1.0
        ring = 1.0 + 2.0 * q * (1.0 - q ** l_max) / (1.0 - q)
        return ring * (1.0 - q ** (2 * p_max + 2)) / (1.0 - q * q)

    c = 1.0 - t * t
    return c * lattice(t), c ** 2 * lattice(t ** 2), c ** 4 * lattice(t ** 4)


def discord_closed(s1: float, s2: float, s4: float) -> float:
    return (s2 * s2 - s4) / (s2 + s1 * s1) ** 2


def discord_infinite(x: float) -> float:
    """Untruncated discord (x + 2/x)^-4 at x = sigma_g / sigma_s."""
    return (x + 2.0 / x) ** -4


# --- Laguerre-Gaussian modes -----------------------------------------------

def lg_stack(l_max, p_max, waist, wavelength, z, r, phi) -> np.ndarray:
    """Normalized LG modes at points (r, phi) in plane z.

    Shape (2 l_max + 1, p_max + 1) + r.shape, row l + l_max. The radial part
    uses the three-term recurrence for sqrt(p!/(p+a)!) L_p^a, which stays
    bounded for every order. Phase convention: exp(i l phi), curvature
    exp(i k r^2 / 2R(z)), Gouy exp(-i (2p + |l| + 1) arctan(z / zR)).
    """
    r = np.asarray(r, dtype=float)
    phi = np.asarray(phi, dtype=float)
    zr = math.pi * waist ** 2 / wavelength
    w = waist * math.hypot(1.0, z / zr)
    chirp = 1.0
    gouy = 0.0
    if z != 0.0:
        chirp = np.exp(1j * (math.pi / wavelength) * r * r / (z * (1.0 + (zr / z) ** 2)))
        gouy = math.atan2(z, zr)
    u = 2.0 * r * r / (w * w)
    with np.errstate(divide="ignore"):
        log_s = np.log(math.sqrt(2.0) * r / w)
    out = np.empty((2 * l_max + 1, p_max + 1) + r.shape, dtype=complex)
    for a in range(l_max + 1):
        if a == 0:
            prev, cur = np.zeros_like(u), np.exp(-u / 2.0)
        else:
            prev, cur = np.zeros_like(u), np.exp(a * log_s - u / 2.0 - 0.5 * math.lgamma(a + 1))
        harmonic = np.exp(1j * a * phi)
        for p in range(p_max + 1):
            radial = (math.sqrt(2.0 / math.pi) / w * np.exp(-1j * (2 * p + a + 1) * gouy)) * (cur * chirp)
            out[l_max + a, p] = radial * harmonic
            if a:
                out[l_max - a, p] = radial * np.conj(harmonic)
            nxt = ((2 * p + 1 + a - u) * cur - math.sqrt(p * (p + a)) * prev) / math.sqrt((p + 1) * (p + 1 + a))
            prev, cur = cur, nxt
    return out


def pixel_polar(side: int, extent: float) -> tuple[np.ndarray, np.ndarray]:
    """(r, phi) at pixel centers; row 0 is the top (largest y)."""
    ax = (np.arange(side) + 0.5) * (extent / side) - 0.5 * extent
    x, y = np.meshgrid(ax, ax[::-1])
    return np.hypot(x, y), np.arctan2(y, x)


def gram_deviation(stack: np.ndarray, area: float) -> tuple[float, float, float]:
    """(||G - I||_2, max |G_mm - 1|, lambda_max(G)) of the sampled modes' Gram matrix.

    The window is symmetric under quarter turns, so modes whose l differ by
    other than a multiple of 4 are orthogonal on it up to roundoff: G is
    assembled and diagonalized one l mod 4 block at a time.
    """
    l_max = (stack.shape[0] - 1) // 2
    dev = diag = lam = 0.0
    for k in range(4):
        rows = stack[(np.arange(stack.shape[0]) - l_max) % 4 == k].reshape(-1, stack[0, 0].size)
        if not len(rows):
            continue
        gram = (rows.conj() @ rows.T) * area
        eig = np.linalg.eigvalsh(gram)
        dev = max(dev, abs(eig[0] - 1.0), abs(eig[-1] - 1.0))
        diag = max(diag, float(np.max(np.abs(np.diag(gram).real - 1.0))))
        lam = max(lam, float(eig[-1]))
    return float(dev), diag, lam


def clover(side: int, extent: float, radius: float, depth: float = math.pi / 2) -> np.ndarray:
    """The CLI's built-in target: exp(-(r/R)^2) |cos 2phi| exp(i depth cos 2phi)."""
    r, phi = pixel_polar(side, extent)
    c2 = np.cos(2.0 * phi)
    return np.exp(-((r / radius) ** 2)) * np.abs(c2) * np.exp(1j * depth * c2)


def object_from_rasters(intensity: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sqrt(I / max I) exp(i theta), the phase raster's range mapped onto [-pi, pi)."""
    amp = np.sqrt(intensity / intensity.max())
    lo, hi = float(phase.min()), float(phase.max())
    theta = -math.pi + 2.0 * math.pi * (phase - lo) / (hi - lo)
    return amp * np.exp(1j * np.where(theta >= math.pi, -math.pi, theta))


# --- file formats ----------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Raw pixel values of a binary PGM."""
    with open(path, "rb") as fh:
        blob = fh.read()
    fields, pos = [], 0
    while len(fields) < 4:
        while blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            pos = blob.index(b"\n", pos)
            continue
        end = pos
        while not blob[end:end + 1].isspace():
            end += 1
        fields.append(blob[pos:end])
        pos = end
    if fields[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    width, height, maxval = (int(f) for f in fields[1:])
    dtype = ">u2" if maxval > 255 else "u1"
    data = np.frombuffer(blob, dtype=dtype, count=width * height, offset=pos + 1)
    return data.reshape(height, width).astype(float)


def write_pgm(path, pixels: np.ndarray) -> None:
    """16-bit binary PGM of integer pixel values in [0, 65535]."""
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(np.asarray(pixels, dtype=">u2").tobytes())


def read_oamf(path) -> tuple[int, float, np.ndarray]:
    with open(path, "rb") as fh:
        magic, version, side, extent = struct.unpack("<4sHId", fh.read(18))
        if magic != b"OAMF" or version != 1:
            raise ValueError(f"{path}: not an OAMF v1 file")
        samples = np.frombuffer(fh.read(), dtype="<c16")
    return side, extent, samples.reshape(side, side)


def read_keyvalues(path) -> dict[str, str]:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#") and "=" in line:
                key, _, text = line.partition("=")
                values[key.strip()] = text.strip()
    return values


def read_mode_csv(path, l_max: int, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) tables from an image spectrum CSV, indexed [l + l_max, p]."""
    a = np.full((2 * l_max + 1, p_max + 1), np.nan, dtype=complex)
    b = a.copy()
    with open(path) as fh:
        if fh.readline().strip() != "l,p,re_A,im_A,re_B,im_B":
            raise ValueError(f"{path}: unexpected header")
        for line in fh:
            l, p, ra, ia, rb, ib = line.split(",")
            a[int(l) + l_max, int(p)] = complex(float(ra), float(ia))
            b[int(l) + l_max, int(p)] = complex(float(rb), float(ib))
    return a, b


# --- shared coefficient checks ---------------------------------------------

def check_coefficients(tag, obj, stack_obj, area, a, b, amps) -> list[str]:
    """A against a quadrature over modes evaluated here; B[-l, p] = P[l, p] conj(A[l, p]);
    Bessel's inequality against the object's power."""
    fails = []
    if np.isnan(a).any() or np.isnan(b).any():
        return [f"{tag}: coefficient table has missing rows"]
    obj_power = float(np.sum(np.abs(obj) ** 2) * area)
    flat = stack_obj.reshape(-1, obj.size)
    ref = (flat.conj() @ obj.ravel() * area).reshape(a.shape)
    err = float(np.max(np.abs(ref - a)))
    if not err <= ROUNDOFF * math.sqrt(obj_power):
        fails.append(f"{tag}: max |A - quadrature| = {err:.3e} exceeds "
                     f"{ROUNDOFF:g} * ||O|| = {ROUNDOFF * math.sqrt(obj_power):.3e}")
    expect = amps * np.conj(a)
    err = float(np.max(np.abs(b[::-1, :] - expect)))
    if not err <= 16 * EPS * float(np.max(np.abs(expect))):
        fails.append(f"{tag}: max |B[-l,p] - P conj(A[l,p])| = {err:.3e}")
    _, _, lam = gram_deviation(stack_obj, area)
    power = float(np.sum(np.abs(a) ** 2))
    if not power <= lam * obj_power * (1.0 + ROUNDOFF):
        fails.append(f"{tag}: sum |A|^2 = {power:.9e} exceeds lambda_max(Gram) * object power "
                     f"= {lam * obj_power:.9e} (Bessel)")
    return fails


# --- image-cli ---------------------------------------------------------------

def check_image_job(job_dir: str, obj: np.ndarray | None, pixels_rng: np.random.Generator) -> list[str]:
    """Check one `oamghost image` output directory (prefix `image`).

    obj is the object the CLI read, or None for its built-in clover.
    """
    tag = os.path.basename(job_dir)
    manifest = read_keyvalues(f"{job_dir}/run_manifest.txt")
    side, extent = int(manifest["grid"]), float(manifest["extent"])
    sigma_s, sigma_g = float(manifest["sigma_s"]), float(manifest["sigma_g"])
    wavelength, z1, z2 = (float(manifest[k]) for k in ("wavelength", "z1", "z2"))
    l_max, p_max = int(manifest["l_max"]), int(manifest["p_max"])
    if obj is None:
        obj = clover(side, extent, float(manifest["clover_radius"]))
    t, waist = geometry(sigma_s, sigma_g)
    amps = spectrum(t, l_max, p_max)
    area = (extent / side) ** 2
    r, phi = pixel_polar(side, extent)

    a, b = read_mode_csv(f"{job_dir}/image_spectrum.csv", l_max, p_max)
    stack = lg_stack(l_max, p_max, waist, wavelength, -z1, r, phi)
    fails = check_coefficients(tag, obj, stack, area, a, b, amps)
    del stack

    scale = read_keyvalues(f"{job_dir}/image_scaling.txt")
    rasters, quanta = {}, {}
    for name in ("pure_intensity", "background", "total"):
        pix = read_pgm(f"{job_dir}/image_{name}.pgm")
        lo, hi = float(scale[f"{name}_lo"]), float(scale[f"{name}_hi"])
        quanta[name] = (hi - lo) / 65535.0  # one grey level
        rasters[name] = lo + pix * quanta[name]
        if name == "background":
            skew = float(np.max(np.abs(pix - np.rot90(pix))))
            if not skew <= 1.0:
                fails.append(f"{tag}: background quarter-turn differs by {skew:g} grey levels")
    gap = float(np.max(np.abs(rasters["total"] - rasters["background"] - rasters["pure_intensity"])))
    allowed = 0.5 * sum(quanta.values()) * (1.0 + 1e-9)
    if not gap <= allowed:
        fails.append(f"{tag}: |total - background - pure| = {gap:.3e} exceeds quantization {allowed:.3e}")

    # The pure field at seeded pixels: sum over modes of B LG at +z2.
    idx = pixels_rng.integers(0, side, size=(32, 2))
    modes = lg_stack(l_max, p_max, waist, wavelength, z2, r[idx[:, 0], idx[:, 1]], phi[idx[:, 0], idx[:, 1]])
    field = np.tensordot(b, modes, axes=([0, 1], [0, 1]))
    bound = ROUNDOFF * np.tensordot(np.abs(b), np.abs(modes), axes=([0, 1], [0, 1]))
    inten = rasters["pure_intensity"][idx[:, 0], idx[:, 1]]
    over = np.abs(inten - np.abs(field) ** 2) - (0.5 * quanta["pure_intensity"] * (1.0 + 1e-9)
                                                   + 2.0 * np.abs(field) * bound + bound ** 2)
    if np.any(over > 0):
        fails.append(f"{tag}: pure intensity at seeded pixels off |sum B LG|^2 by {float(over.max()):.3e} "
                     "beyond quantization")
    if manifest["dump_field"] == "true":
        fside, fextent, pure = read_oamf(f"{job_dir}/image_pure.oamf")
        if (fside, fextent) != (side, extent):
            fails.append(f"{tag}: dumped field grid ({fside}, {fextent}) differs from the manifest")
        else:
            err = np.abs(pure[idx[:, 0], idx[:, 1]] - field) - bound
            if np.any(err > 0):
                fails.append(f"{tag}: dumped pure field off sum B LG by {float(err.max()):.3e} beyond roundoff")
            gap = float(np.max(np.abs(np.abs(pure) ** 2 - rasters["pure_intensity"])))
            if not gap <= 0.5 * quanta["pure_intensity"] * (1.0 + 1e-9):
                fails.append(f"{tag}: |dumped field|^2 differs from the intensity raster by {gap:.3e}")
    return fails


# --- plane-sweep -------------------------------------------------------------

def check_plane_sweep(spec: dict, objects, outputs) -> list[str]:
    """Check each object's decomposition and its renders at every plane.

    outputs[k] = (A, B, pure fields, backgrounds, weights, flat-spectrum field).
    """
    side, extent, l_max, p_max = spec["grid"], spec["extent"], spec["l_max"], spec["p_max"]
    t, waist = geometry(spec["sigma_s"], spec["sigma_g"])
    wavelength, z1 = spec["wavelength"], spec["z1"]
    amps = spectrum(t, l_max, p_max)
    area = (extent / side) ** 2
    r, phi = pixel_polar(side, extent)
    fails = []

    stack = lg_stack(l_max, p_max, waist, wavelength, -z1, r, phi)
    modes = stack.reshape(-1, r.size)
    gram_dev, _, _ = gram_deviation(stack, area)
    for k, (obj, (a, b, _, _, _, flat)) in enumerate(zip(objects, outputs)):
        tag = f"object-{k}"
        fails += check_coefficients(tag, obj, stack, area, a, b, amps)
        # Flat spectrum at z2 = z1 gives the phase conjugate of the object's projection.
        proj = (a.ravel() @ modes).reshape(obj.shape)
        bound = ROUNDOFF * (np.abs(a).ravel() @ np.abs(modes)).reshape(obj.shape)
        err = np.abs(flat - np.conj(proj)) - bound
        if np.any(err > 0):
            fails.append(f"{tag}: flat-spectrum image is not conj(sum A LG(-z1)); excess {float(err.max()):.3e}")
        obj_power = float(np.sum(np.abs(obj) ** 2) * area)
        power = float(np.sum(np.abs(a) ** 2))
        residual = float(np.sum(np.abs(obj - np.conj(flat)) ** 2) * area)
        allowed = (gram_dev + ROUNDOFF) * power + ROUNDOFF * obj_power
        if not abs(residual - (obj_power - power)) <= allowed:
            fails.append(f"{tag}: ||O - conj(flat image)||^2 = {residual:.9e}, expected "
                         f"||O||^2 - sum |A|^2 = {obj_power - power:.9e} within {allowed:.2e}")
    del stack, modes

    for i, z2 in enumerate(spec["planes"]):
        stack = lg_stack(l_max, p_max, waist, wavelength, z2, r, phi)
        modes = stack.reshape(-1, r.size)
        gram_dev, diag_dev, _ = gram_deviation(stack, area)
        for k, (a, b, pures, backgrounds, weights, _) in enumerate(outputs):
            tag = f"object-{k} z2={z2:.4g}"
            ref = (b.ravel() @ modes).reshape(r.shape)
            bound = ROUNDOFF * (np.abs(b).ravel() @ np.abs(modes)).reshape(r.shape)
            err = np.abs(pures[i] - ref) - bound
            if np.any(err > 0):
                fails.append(f"{tag}: pure field off sum B LG by {float(err.max()):.3e} beyond roundoff")
            b_power = float(np.sum(np.abs(b) ** 2))
            energy = float(np.sum(np.abs(pures[i]) ** 2) * area)
            if not abs(energy - b_power) <= (gram_dev + ROUNDOFF) * b_power:
                fails.append(f"{tag}: integral |pure|^2 dA = {energy:.9e} vs sum |B|^2 = {b_power:.9e}")
            weight = float(np.sum(amps * np.abs(a) ** 2))
            if not abs(weights[i] - weight) <= ROUNDOFF * weight:
                fails.append(f"{tag}: background weight {weights[i]:.12e} vs sum P|A|^2 = {weight:.12e}")
            total = float(np.sum(backgrounds[i]) * area)
            expect = weight * float(amps.sum())
            if not abs(total - expect) <= (diag_dev + ROUNDOFF) * expect:
                fails.append(f"{tag}: integral background dA = {total:.9e} vs weight * sum P = {expect:.9e}")
    return fails


# --- correlations ------------------------------------------------------------

def pair_state(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, pvec) of the unnormalized thermal two-photon state, A-major basis."""
    l_max = (amps.shape[0] - 1) // 2
    p_max = amps.shape[1] - 1
    pvec = amps.ravel()  # l ascending, p ascending within l
    d = pvec.size
    partner = [((-l) + l_max) * (p_max + 1) + p for l in range(-l_max, l_max + 1) for p in range(p_max + 1)]
    v = np.zeros(d * d)
    v[np.arange(d) * d + np.array(partner)] = pvec
    return np.diag(np.kron(pvec, pvec)) + np.outer(v, v), pvec


def check_certificate(tag, t, l_max, p_max, state_rho, cert_r, rho_minus, rho_plus) -> list[str]:
    """Reconstruction rho = (1 + R) rho_S+ + sum P_i^2 |ii><ii| and PSD of both pieces."""
    fails = []
    rho, pvec = pair_state(spectrum(t, l_max, p_max))
    d = pvec.size
    scale = float(np.max(np.abs(rho)))
    if not float(np.max(np.abs(state_rho - rho))) <= 8 * EPS * scale:
        fails.append(f"{tag}: assembled density differs from diag(P_i P_j) + pair projector")
    r_expect = float(pvec.sum()) ** 2 - 1.0
    if not abs(cert_r - r_expect) <= 64 * EPS * (r_expect + 1.0):
        fails.append(f"{tag}: certificate R = {cert_r!r}, expected (sum P)^2 - 1 = {r_expect!r}")
    pairs = np.zeros(d * d)
    pairs[np.arange(d) * d + np.arange(d)] = pvec ** 2
    recon = (1.0 + cert_r) * rho_plus
    recon[np.diag_indices(d * d)] += pairs
    resid = float(np.max(np.abs(recon - rho)))
    if not resid <= 16 * EPS * scale * (1.0 + cert_r):
        fails.append(f"{tag}: certificate reconstruction residual {resid:.3e}")
    for name, op in (("rho_S-", rho_minus), ("rho_S+", rho_plus)):
        eig = np.linalg.eigvalsh(op)
        # Backward error of a symmetric eigensolver: a small multiple of n eps ||op||_2.
        floor = -10.0 * op.shape[0] * EPS * float(np.max(np.abs(eig)))
        if not float(eig[0]) >= floor:
            fails.append(f"{tag}: {name} has eigenvalue {float(eig[0]):.3e} below {floor:.3e}")
    return fails


def check_brute_force(tag, t, p_max, value) -> list[str]:
    """A search value is an upper bound on the minimum, which the closed form gives."""
    closed = discord_closed(*truncated_sums(t, 0, p_max))
    if not value >= closed - 1e-6:
        return [f"{tag}: search value {value:.10f} undercuts the closed form {closed:.10f}"]
    return []


def check_discord_curve(tag, sigma_s, sigma_gs, l_max, p_max, rows) -> list[str]:
    fails = []
    if len(rows) != len(sigma_gs):
        return [f"{tag}: {len(rows)} rows for {len(sigma_gs)} samples"]
    x = np.array([row[0] for row in rows])
    got = np.array([row[4] for row in rows])
    if not np.allclose(x, np.asarray(sigma_gs) / sigma_s, rtol=4 * EPS, atol=0.0):
        fails.append(f"{tag}: ratio column does not match the requested sweep")
    exact = np.empty_like(got)
    tail = np.empty_like(got)
    for i, sg in enumerate(sigma_gs):
        t, _ = geometry(sigma_s, sg)
        exact[i] = discord_closed(*truncated_sums(t, l_max, p_max))
        tail[i] = abs(exact[i] - discord_infinite(sg / sigma_s))
    # D <= 1/64 is a ratio of sums of at most (2L+1)(P+1) positive terms.
    err = float(np.max(np.abs(got - exact)))
    if not err <= 1e-12:
        fails.append(f"{tag}: max |D - truncated closed form| = {err:.3e}")
    large = tail <= 1e-13
    if large.sum() < len(rows) // 2:
        fails.append(f"{tag}: truncation too small for the sweep ({int(large.sum())} converged rows)")
    inf_err = float(np.max(np.abs(got[large] - (x[large] + 2.0 / x[large]) ** -4), initial=0.0))
    if not inf_err <= 1e-12 + 1e-13:  # roundoff, as above, plus the truncation effect allowed
        fails.append(f"{tag}: max |D - (x + 2/x)^-4| = {inf_err:.3e} where the truncation has converged")
    k = int(np.argmax(got))
    step = float(x[1] - x[0])
    root2 = math.sqrt(2.0)
    if not abs(x[k] - root2) <= step * (1.0 + 1e-9):
        fails.append(f"{tag}: peak at x = {x[k]:.6f}, more than one step {step:.3e} from sqrt(2)")
    sag = 1.0 / 64.0 - min(discord_infinite(root2 - step), discord_infinite(root2 + step))
    if not abs(got[k] - 1.0 / 64.0) <= sag + 1e-12:
        fails.append(f"{tag}: peak value {got[k]:.12f} differs from 1/64 by more than {sag:.3e}")
    return fails


def check_csd(tag, sigma_s, sigma_g, l_max, p_max, pitch, coeffs) -> list[str]:
    """Selection rule (l' = -l, p' = p) and ratio law t^(|l| + 2p) on the diagonal.

    The midpoint rule on the Gaussian coherence kernel has relative aliasing
    error of order exp(-2 pi^2 (sigma_g / pitch)^2), below 1e-20 for
    pitch <= CSD_MAX_PITCH sigma_g; what remains is roundoff in sums over the
    grid, below N^2 eps ~ 4e-12 for N = 128, and CSD_TOL leaves a factor of
    250 over it.
    """
    if pitch > CSD_MAX_PITCH * sigma_g:
        return [f"{tag}: pitch {pitch:.3e} exceeds {CSD_MAX_PITCH} sigma_g; tolerance not assured"]
    t, _ = geometry(sigma_s, sigma_g)
    nl = 2 * l_max + 1
    f0 = coeffs[l_max, l_max, 0, 0].real
    on = np.zeros(coeffs.shape, dtype=bool)
    dev = 0.0
    for i, l in enumerate(range(-l_max, l_max + 1)):
        for p in range(p_max + 1):
            on[i, nl - 1 - i, p, p] = True
            dev = max(dev, abs(coeffs[i, nl - 1 - i, p, p] / f0 - t ** (abs(l) + 2 * p)))
    off = float(np.max(np.abs(coeffs[~on]))) / f0
    fails = []
    if not dev <= CSD_TOL:
        fails.append(f"{tag}: max |f(l,-l,p,p)/f0000 - t^(|l|+2p)| = {dev:.3e} (tol {CSD_TOL:g})")
    if not off <= CSD_TOL:
        fails.append(f"{tag}: max off-selection |f|/f0000 = {off:.3e} (tol {CSD_TOL:g})")
    return fails
