"""Complex-field rasters on square windows and orthonormal Laguerre-Gaussian modes.

All lengths are SI meters. Rasters hold dimensionless complex amplitudes sampled
at pixel centers, with row 0 at the top of the window (largest y). Discrete
inner products use the midpoint rule, so a mode that fits inside the window has
unit discrete norm.

There are two LG evaluators. lg_amplitude evaluates one mode at arbitrary
polar points and serves as the independent pointwise oracle. _lg_blocks is
the separable raster engine: an LG mode factors as radial(|l|, p) x
exp(i l phi) x curvature chirp x Gouy phase, so one radial stack per |l|
serves every p and both signs of l. Everything but exp(i l phi) depends on
the pixel radius alone, and on a centred square grid the radius takes few
values: r^2 = key (pitch/2)^2 with the integer key (2i-N+1)^2 + (2j-N+1)^2.
The engine builds the radial stack and the chirp over these shells and
gathers them back through a per-pixel shell index (_shells, cached per grid).

It does so on one quarter of the window only, the ceil(N/2)^2 block of rows
and columns 0 ... ceil(N/2) - 1 (x <= 0, y >= 0), which already holds every
shell: 20,604 shells cover the 65,536 quarter pixels of a 512^2 window. The
other three quarters are mirror images. Mirroring x -> -x maps exp(i l phi)
to (-1)^l exp(-i l phi), and y -> -y maps it to exp(-i l phi), so with a
radial factor S(r) the parts S cos(l phi) and i S sin(l phi) of a mode each
have a fixed sign under each mirror:

    part         x-mirror     y-mirror
    cos(l phi)   (-1)^l       +1
    sin(l phi)   -(-1)^l      -1

A sum over the window folds onto the quarter (_fold), and a raster built on
the quarter unfolds onto the window (_unfold, _mirror_fill). For odd N the
centre row and column are their own mirror images and are counted once.
Decomposition and synthesis in spiral_imaging run on the quarter engine
directly; iter_lg_rasters is its per-mode view.
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


def _frozen_samples(spec: GridSpec, arr: np.ndarray) -> np.ndarray:
    """arr, checked against the window and finiteness, made read-only in place."""
    n = spec.side_points
    if arr.shape != (n, n):
        raise ValueError(f"samples shape {arr.shape} does not match grid ({n}, {n})")
    if not np.isfinite(arr).all():
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
    def _adopt(cls, spec: GridSpec, samples: np.ndarray) -> "ComplexField":
        """Field over a fresh complex128 raster that no caller holds: checked and frozen, not copied."""
        field = object.__new__(cls)
        object.__setattr__(field, "spec", spec)
        object.__setattr__(field, "samples", _frozen_samples(spec, samples))
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


def _fold(t: np.ndarray) -> np.ndarray:
    """Signed mirror sums of an (N, N) raster onto its (h, h) quarter.

    Returns a (2, 2, h, h) array indexed [sx, sy], 0 for the sign +1 and 1
    for -1: t at each quarter pixel, plus sx times t at its x-mirror image
    (column N - 1 - j), sy times t at its y-mirror image (row N - 1 - i) and
    sx sy times t at its xy-mirror image. For odd N the centre row and
    column are counted once.
    """
    n = t.shape[0]
    h = (n + 1) // 2
    m = n - h
    rows = np.empty((2, h, n), dtype=t.dtype)
    rows[:] = t[:h]
    mirror = t[: h - 1 : -1]  # rows N - 1 ... h, the y-images of rows 0 ... m - 1
    rows[0, :m] += mirror
    rows[1, :m] -= mirror
    out = np.empty((2, 2, h, h), dtype=t.dtype)
    out[:] = rows[:, :, :h]
    mirror = rows[:, :, : h - 1 : -1]
    out[0, :, :, :m] += mirror
    out[1, :, :, :m] -= mirror
    return out


def _mirror_weight(n: int) -> np.ndarray:
    """(h, h) window pixels each quarter pixel stands for: 2 per axis, 1 on the centre line of odd n."""
    axis = np.full((n + 1) // 2, 2.0)
    axis[-1] -= n % 2
    return np.outer(axis, axis)


def _mirror_slots(l_abs: int):
    """[sx, sy] slots (see _fold) of the cos(|l| phi) and sin(|l| phi) terms.

    Their mirror signs are those of the table in the module docstring.
    """
    return (l_abs % 2, 0), (1 - l_abs % 2, 1)


def _unfold(n: int, parts: np.ndarray) -> np.ndarray:
    """(n, n) raster from (2, 2, h, h) quarter parts indexed [sx, sy], the adjoint of _fold.

    Each part holds terms of mirror signs sx and sy; the quarter gets their
    sum and each mirror image of a quarter pixel their signed sum. The sums
    are taken in place, in parts and in the raster's own quarter, so parts
    is overwritten and the raster is the only array allocated.
    """
    h = parts.shape[-1]
    m = n - h
    flip = slice(None, h - 1, -1)  # N - 1 ... h, the images of 0 ... m - 1
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


def _mirror_fill(n: int, q, x, y, xy) -> np.ndarray:
    """(n, n) raster from (h, h) quarter blocks.

    q holds the quarter itself; x, y and xy hold, at each quarter pixel, the
    value at its x-, y- and xy-mirror image. For odd n the centre row and
    column are their own images and come from q alone.
    """
    h = q.shape[0]
    m = n - h
    flip = slice(None, h - 1, -1)  # N - 1 ... h, the images of 0 ... m - 1
    out = np.empty((n, n), dtype=q.dtype)
    out[:h, :h] = q
    out[:h, flip] = x[:, :m]
    out[flip, :h] = y[:m]
    out[flip, flip] = xy[:m, :m]
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


_NORM_TOLERANCE = 1e-3  # largest |norm^2 - 1| of a sampled mode; mode-math's orthonormality tolerance


@functools.lru_cache(maxsize=16)
def _mode_norms(beam: BeamSpec, spec: GridSpec, z_abs: float, l_max: int, p_max: int) -> np.ndarray:
    """Read-only (l_max + 1, p_max + 1) discrete norms^2 of LG(+-|l|, p) on the window at +-z_abs.

    |LG|^2 is radial[p]^2 on each radius shell: harmonic, chirp and Gouy phase have modulus 1,
    and w(-z) = w(z). So the norm^2 is pixel_area sum_s n_s radial[p](s)^2 over the shells s of
    n_s window pixels. Cached: one image's passes at -z and +z, and a sweep's jobs, share one pass.
    """
    r2, inverse, _ = _shells(spec)
    counts = np.bincount(inverse.ravel(), _mirror_weight(spec.side_points).ravel(), r2.size)
    counts *= spec.pixel_area
    norms = np.array([np.einsum("ps,ps,s->p", radial, radial, counts)
                      for radial, *_ in _lg_blocks(beam, spec, z_abs, l_max, p_max)])
    norms.flags.writeable = False
    return norms


def _worst_norm_defect(beam: BeamSpec, spec: GridSpec, z: float, l_max: int, p_max: int):
    """(|norm^2 - 1|, "LG(+-l, p)") of the lattice's worst-sampled mode on the window at plane z."""
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

    Per-mode view of _lg_blocks, the separable engine behind the imaging
    functions: radial factors are built once per |l| over the radius shells
    of the lattice that spans the requested modes, and that lattice's worst
    measured norm decides the ModeClippedWarning. Each raster is built on the
    quarter and mirror-filled onto the window; yielded rasters are freshly
    allocated (N, N) arrays and safe to keep.
    """
    modes = [m if isinstance(m, ModeIndex) else ModeIndex(*m) for m in modes]
    if not modes:
        return
    l_max = max(abs(m.l) for m in modes)
    p_max = max(m.p for m in modes)
    _warn_if_clipped(beam, spec, z, l_max, p_max)
    blocks = _lg_blocks(beam, spec, z, l_max, p_max)
    for l_abs, (radial, harmonic, gouy, chirp, inverse) in enumerate(blocks):
        for mode in modes:
            if abs(mode.l) != l_abs:
                continue
            shell = (radial[mode.p] * gouy[mode.p] * chirp)[inverse]
            # The quarter and its xy-image carry exp(i l phi), the x- and
            # y-images exp(-i l phi), the x- and xy-images times (-1)^l.
            same, flipped = shell * harmonic, shell * np.conj(harmonic)
            if mode.l < 0:
                same, flipped = flipped, same
            sign = -1 if l_abs % 2 else 1
            yield mode, _mirror_fill(spec.side_points, same, sign * flipped, flipped, sign * same)


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
