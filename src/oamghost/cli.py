"""Command-line front end: spectrum/image/discord data generation plus the
verification suites.

Precedence for every parameter: command-line flag, then `--config` file, then
the built-in default. Config files are line-oriented `key = value` with `#`
comments; every run writes a `run_manifest.txt` in the same format listing the
resolved parameters and the emitted files, so a run can be reproduced with
`oamghost <command> --config <dir>/run_manifest.txt`.

Exit codes: 0 success, 1 usage error, 2 numerical verification failure,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .field_grid import (
    BeamSpec,
    GridSpec,
    intensity_and_phase,
    write_field,
)
from .quantum_correlations import discord_curve
from .spiral_imaging import (
    clover_object,
    image_grid,
    load_object,
    read_pgm,
    render_total,
    write_pgm16,
)
from .thermal_source import (
    build_spectrum,
    csd_mode_decompose,
    oracle_grid,
    schmidt_number,
    source_geometry,
)
from .verify import SUITES, _csd_deviations, run_suite

__all__ = [
    "DEFAULTS",
    "EXIT_IO",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFY",
    "RunConfig",
    "UsageError",
    "main",
    "parse_config",
    "run_command",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

COMMANDS = ("spectrum", "image", "discord", "oracle-csd", "verify")

DEFAULTS = {
    "sigma_s": 1e-3,
    "sigma_g": 2.5e-5,
    "wavelength": 632.8e-9,
    "z1": 0.5,
    "z2": 0.5,
    "l_max": 20,
    "p_max": 20,
    "grid": 512,
    "extent": None,
    "out": ".",
    "out_prefix": None,
    "seed": 0,
    "samples": 200,
    "sigma_g_min": 2e-4,
    "sigma_g_max": 1e-2,
    "suite": "all",
    "object_path": None,
    "phase_path": None,
    "clover_radius": 7.5e-4,
    "dump_field": False,
}

# RunConfig keys that the verify suites take; `grid` is their `side_points`.
_SUITE_KEYS = ("sigma_s", "sigma_g", "wavelength", "z1", "z2", "l_max", "p_max", "grid",
               "seed", "samples", "clover_radius")

# The quadrature oracle is quartic in mode count; keep its defaults small.
# Under verify a suite parameter the user did not set stays None, so each
# suite runs at its own documented defaults and the manifest leaves it out.
_COMMAND_DEFAULTS = {
    "oracle-csd": {"l_max": 3, "p_max": 3, "grid": 128},
    "verify": dict.fromkeys(_SUITE_KEYS),
}

_FLOAT_KEYS = {"sigma_s", "sigma_g", "wavelength", "z1", "z2", "extent",
               "sigma_g_min", "sigma_g_max", "clover_radius"}
_INT_KEYS = {"l_max", "p_max", "grid", "seed", "samples"}
_STR_KEYS = {"out", "out_prefix", "suite", "object_path", "phase_path"}
_BOOL_KEYS = {"dump_field"}


class UsageError(Exception):
    """Bad flags, bad config keys, or out-of-range parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for verify failures
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters of one CLI invocation.

    Under `verify` the suite parameters left unset are None (see
    _COMMAND_DEFAULTS).
    """

    command: str
    sigma_s: float
    sigma_g: float
    wavelength: float
    z1: float
    z2: float
    l_max: int
    p_max: int
    grid: int
    extent: float | None
    out: str
    out_prefix: str
    seed: int
    samples: int
    sigma_g_min: float
    sigma_g_max: float
    suite: str
    object_path: str | None
    phase_path: str | None
    clover_radius: float
    dump_field: bool


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    g = shared.add_argument_group("source and geometry")
    g.add_argument("--sigma-s", dest="sigma_s", type=float, metavar="M",
                   help="intensity-envelope width sigma_s in meters")
    g.add_argument("--sigma-g", dest="sigma_g", type=float, metavar="M",
                   help="coherence width sigma_g in meters ('inf' for the coherent limit)")
    g.add_argument("--wavelength", dest="wavelength", type=float, metavar="M")
    g.add_argument("--z1", dest="z1", type=float, metavar="M",
                   help="source-to-object distance")
    g.add_argument("--z2", dest="z2", type=float, metavar="M",
                   help="source-to-image distance")
    g = shared.add_argument_group("truncation and grid")
    g.add_argument("--l-max", dest="l_max", type=int, metavar="L")
    g.add_argument("--p-max", dest="p_max", type=int, metavar="P")
    g.add_argument("--grid", dest="grid", type=int, metavar="N",
                   help="raster side in points")
    g.add_argument("--extent", dest="extent", type=float, metavar="M",
                   help="raster window side in meters (default: sized from the beam)")
    g = shared.add_argument_group("input and output")
    g.add_argument("--out", dest="out", metavar="DIR", help="output directory")
    g.add_argument("--out-prefix", dest="out_prefix", metavar="NAME",
                   help="filename prefix (default: the subcommand name)")
    g.add_argument("--object", dest="object_path", metavar="PGM",
                   help="object intensity raster (default: built-in clover)")
    g.add_argument("--phase", dest="phase_path", metavar="PGM",
                   help="object phase raster, mapped onto [-pi, pi)")
    g.add_argument("--clover-radius", dest="clover_radius", type=float, metavar="M")
    g.add_argument("--dump-field", dest="dump_field", action="store_true", default=None,
                   help="also write the complex pure field as .oamf")
    g.add_argument("--config", dest="config", metavar="FILE",
                   help="read 'key = value' defaults from FILE")
    g = shared.add_argument_group("sweeps and verification")
    g.add_argument("--seed", dest="seed", type=int, metavar="N")
    g.add_argument("--samples", dest="samples", type=int, metavar="N")
    g.add_argument("--sigma-g-min", dest="sigma_g_min", type=float, metavar="M")
    g.add_argument("--sigma-g-max", dest="sigma_g_max", type=float, metavar="M")
    g.add_argument("--suite", dest="suite", metavar="NAME",
                   help="verification suite name or 'all'")

    parser = _Parser(prog="oamghost",
                     description="Thermal ghost imaging in the orbital-angular-momentum basis.")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("spectrum", parents=[shared],
                   help="spiral-spectrum CSVs for a source geometry")
    sub.add_parser("image", parents=[shared],
                   help="ghost-image rasters and mode tables for an object")
    sub.add_parser("discord", parents=[shared],
                   help="geometric-discord curve over a coherence sweep")
    sub.add_parser("oracle-csd", parents=[shared],
                   help="quadrature mode decomposition of the source correlations")
    sub.add_parser("verify", parents=[shared],
                   help="run numerical verification suites")
    return parser


def _convert(key: str, text: str, where: str):
    if key in _FLOAT_KEYS:
        if key == "extent" and text == "auto":
            return None
        try:
            value = float(text)
        except ValueError:
            raise UsageError(f"{where}: key {key!r}: unparsable number {text!r}") from None
        return value
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise UsageError(f"{where}: key {key!r}: unparsable integer {text!r}") from None
    if key in _BOOL_KEYS:
        low = text.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise UsageError(f"{where}: key {key!r}: expected a boolean, got {text!r}")
    if key in _STR_KEYS:
        return None if text.lower() == "none" else text
    raise UsageError(f"{where}: unknown key {key!r}")


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a UTF-8 text file ({exc.reason} at byte {exc.start})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        text = text.strip()
        if key == "command":
            continue  # manifests carry it; the subcommand comes from argv
        values[key] = _convert(key, text, f"{path}:{lineno}")
    return values


def _validate(m: dict) -> None:
    # None marks a verify suite parameter left to the suite's own default.
    for key in ("sigma_s", "wavelength", "z1", "z2", "clover_radius",
                "sigma_g_min", "sigma_g_max"):
        v = m[key]
        if v is not None and not (math.isfinite(v) and v > 0):
            raise UsageError(f"key {key!r} must be a positive finite number, got {v!r}")
    if m["sigma_g"] is not None and not m["sigma_g"] > 0:
        raise UsageError(f"key 'sigma_g' must be positive ('inf' allowed), got {m['sigma_g']!r}")
    if m["sigma_g_min"] >= m["sigma_g_max"]:
        raise UsageError("key 'sigma_g_min' must be below 'sigma_g_max'")
    for key, floor in (("l_max", 0), ("p_max", 0), ("grid", 2), ("seed", 0), ("samples", 2)):
        if m[key] is not None and m[key] < floor:
            raise UsageError(f"key {key!r} must be >= {floor}, got {m[key]}")
    if m["extent"] is not None and not (math.isfinite(m["extent"]) and m["extent"] > 0):
        raise UsageError(f"key 'extent' must be a positive finite number, got {m['extent']!r}")
    if m["suite"] != "all" and m["suite"] not in SUITES:
        raise UsageError(f"key 'suite' must be one of {', '.join(sorted(SUITES))}, or 'all'; "
                         f"got {m['suite']!r}")


def parse_config(argv) -> RunConfig:
    """Resolve a RunConfig from argv, honoring flag > config file > default."""
    ns = _build_parser().parse_args(list(argv))
    if ns.command is None:
        raise UsageError(f"missing subcommand; choose from {', '.join(COMMANDS)}")
    merged = dict(DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(ns.command, {}))
    if ns.config is not None:
        merged.update(_read_config_file(ns.config))
    for key in DEFAULTS:
        value = getattr(ns, key, None)
        if value is not None:
            merged[key] = value
    if merged["out_prefix"] is None:
        merged["out_prefix"] = ns.command
    _validate(merged)
    return RunConfig(command=ns.command, **merged)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_manifest(config: RunConfig, emitted: list[str]) -> str:
    path = os.path.join(config.out, "run_manifest.txt")
    lines = [
        "# run manifest; reproduce with: oamghost "
        f"{config.command} --config run_manifest.txt",
        f"command = {config.command}",
    ]
    for key in DEFAULTS:
        value = getattr(config, key)
        if value is None:
            if key == "extent":
                lines.append("extent = auto")
            continue  # unset input paths stay out of the manifest
        lines.append(f"{key} = {_format_value(value)}")
    for name in emitted:
        lines.append(f"# emitted: {name}")
    lines.append("# emitted: run_manifest.txt")
    _write_lines(path, lines)
    return path


def _out_path(config: RunConfig, suffix: str) -> str:
    return os.path.join(config.out, f"{config.out_prefix}_{suffix}")


def _write_lines(path: str, lines) -> None:
    """Write a text file, one entry of `lines` per line; every text artefact
    (CSVs, scaling sidecar, manifest) goes through here."""
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _mode_order(l_max: int, p_max: int) -> list[tuple[int, int]]:
    """(l, p) in CSV row order: sorted by (|l|, l, p), so l runs 0, -1, 1, -2, 2, ..."""
    ls = sorted(range(-l_max, l_max + 1), key=lambda l: (abs(l), l))
    return [(l, p) for l in ls for p in range(p_max + 1)]


def _run_spectrum(config: RunConfig) -> int:
    geo = source_geometry(config.sigma_s, config.sigma_g)
    spectrum = build_spectrum(geo, config.l_max, config.p_max)
    spath = _out_path(config, "spectrum.csv")
    mpath = _out_path(config, "marginal.csv")
    rows = ["l,p,P,P_squared"]
    for l, p in _mode_order(config.l_max, config.p_max):
        a = spectrum.amplitude(l, p)
        rows.append(f"{l},{p},{a:.17g},{a * a:.17g}")
    _write_lines(spath, rows)
    marginal = zip(range(-config.l_max, config.l_max + 1), spectrum.oam_marginal())
    _write_lines(mpath, ["l,P_l"] + [f"{l},{m:.17g}" for l, m in marginal])
    print(f"geometry: t = {geo.t:.12g}, matched waist = {geo.matched_waist:.6e} m")
    print(f"truncated sums: sum P = {spectrum.sum_amplitudes():.12g}, "
          f"sum P^2 = {spectrum.sum_squares():.12g}")
    print(f"schmidt number (truncated) = {schmidt_number(spectrum):.12g}")
    print(f"wrote {spath} and {mpath}")
    _write_manifest(config, [os.path.basename(spath), os.path.basename(mpath)])
    return EXIT_OK


def _run_image(config: RunConfig) -> int:
    geo = source_geometry(config.sigma_s, config.sigma_g)
    beam = BeamSpec(geo.matched_waist, config.wavelength)
    if config.extent is not None:
        spec = GridSpec(config.grid, config.extent)
    else:
        spec = image_grid(beam, config.z1, config.z2, config.clover_radius, config.grid)
    if config.object_path is not None:
        inten = read_pgm(config.object_path)
        phase = read_pgm(config.phase_path) if config.phase_path is not None else None
        obj = load_object(inten, phase, spec)
    else:
        obj = clover_object(spec, config.clover_radius)

    result = render_total(obj, geo, config.z1, config.z2, config.l_max, config.p_max, spec,
                          config.wavelength)
    pure_inten, pure_phase = intensity_and_phase(result.pure_field)

    emitted = []
    scaling = ["# raster value = lo + (pixel / 65535) * (hi - lo)"]
    for name, data, lo, hi in (
        ("pure_intensity", pure_inten, None, None),
        ("pure_phase", pure_phase, -math.pi, math.pi),
        ("background", result.background, None, None),
        ("total", result.total_intensity, None, None),
    ):
        path = _out_path(config, f"{name}.pgm")
        wlo, whi = write_pgm16(path, data, lo, hi)
        scaling.append(f"{name}_lo = {wlo!r}")
        scaling.append(f"{name}_hi = {whi!r}")
        emitted.append(os.path.basename(path))
    sidecar = _out_path(config, "scaling.txt")
    _write_lines(sidecar, scaling)
    emitted.append(os.path.basename(sidecar))

    cpath = _out_path(config, "spectrum.csv")
    coeffs, image = result.object_coefficients, result.image_coefficients
    rows = ["l,p,re_A,im_A,re_B,im_B"]
    for l, p in _mode_order(config.l_max, config.p_max):
        a, b = coeffs.value(l, p), image.value(l, p)
        rows.append(f"{l},{p},{a.real:.17g},{a.imag:.17g},{b.real:.17g},{b.imag:.17g}")
    _write_lines(cpath, rows)
    emitted.append(os.path.basename(cpath))
    if config.dump_field:
        fpath = _out_path(config, "pure.oamf")
        write_field(fpath, result.pure_field)
        emitted.append(os.path.basename(fpath))

    obj_power = float(np.sum(np.abs(obj.samples) ** 2)) * spec.pixel_area
    print(f"grid: {spec.side_points} points over {spec.extent:.6e} m")
    print(f"object power {obj_power:.6e}, captured fraction {coeffs.power() / obj_power:.4f}")
    print(f"background weight = {result.background_weight:.6e}")
    print(f"wrote {len(emitted)} files under {config.out!r} with prefix {config.out_prefix!r}")
    _write_manifest(replace(config, extent=spec.extent), emitted)
    return EXIT_OK


def _run_discord(config: RunConfig) -> int:
    sigma_gs = np.linspace(config.sigma_g_min, config.sigma_g_max, config.samples)
    rows = discord_curve(config.sigma_s, sigma_gs, [(config.l_max, config.p_max)])
    path = _out_path(config, "discord.csv")
    lines = ["sigma_g_over_sigma_s,L,P,d,D_rho,D_rhoQ,D_inf"]
    for ratio, l_max, p_max, d, d_rho, d_rho_q, d_inf in rows:
        lines.append(f"{ratio:.17g},{l_max},{p_max},{d},{d_rho:.17g},{d_rho_q:.17g},{d_inf:.17g}")
    _write_lines(path, lines)
    best = max(rows, key=lambda row: row[4])
    print(f"{len(rows)} rows; max D_rho = {best[4]:.9g} at sigma_g/sigma_s = {best[0]:.6g}")
    print(f"wrote {path}")
    _write_manifest(config, [os.path.basename(path)])
    return EXIT_OK


def _run_oracle_csd(config: RunConfig) -> int:
    geo = source_geometry(config.sigma_s, config.sigma_g)
    if config.extent is not None:
        spec = GridSpec(config.grid, config.extent)
    else:
        spec = oracle_grid(geo, config.l_max, config.p_max, config.grid)
    tensor = csd_mode_decompose(geo, config.l_max, config.p_max, spec, config.wavelength)

    modes = _mode_order(config.l_max, config.p_max)
    lines = ["l1,l2,p1,p2,re_f,im_f"]
    for l1, p1 in modes:
        for l2, p2 in modes:
            f = tensor.coefficient(l1, l2, p1, p2)
            lines.append(f"{l1},{l2},{p1},{p2},{f.real:.17g},{f.imag:.17g}")
    path = _out_path(config, "csd.csv")
    _write_lines(path, lines)

    f0 = tensor.coefficient(0, 0, 0, 0).real
    off, dev = _csd_deviations(tensor, geo.t)
    print(f"grid: {spec.side_points} points over {spec.extent:.6e} m; f0000 = {f0:.9e}")
    print(f"max off-selection |f|/f0000 = {off:.3e}; "
          f"max diagonal deviation from t^(|l|+2p): {dev:.3e}")
    print(f"wrote {path}")
    _write_manifest(replace(config, extent=spec.extent), [os.path.basename(path)])
    return EXIT_OK


def _run_verify(config: RunConfig) -> int:
    # Forward exactly the parameters set by flag or config file (see _COMMAND_DEFAULTS).
    kwargs = {"side_points" if key == "grid" else key: getattr(config, key)
              for key in _SUITE_KEYS if getattr(config, key) is not None}
    results = run_suite(config.suite, **kwargs)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"suite {config.suite!r}: {len(results) - len(failed)}/{len(results)} checks passed")
    _write_manifest(config, [])
    return EXIT_OK if not failed else EXIT_VERIFY


_HANDLERS = {
    "spectrum": _run_spectrum,
    "image": _run_image,
    "discord": _run_discord,
    "oracle-csd": _run_oracle_csd,
    "verify": _run_verify,
}


def run_command(config: RunConfig) -> int:
    """Dispatch a resolved RunConfig; returns the process exit code."""
    try:
        os.makedirs(config.out, exist_ok=True)
        if not os.access(config.out, os.W_OK):
            raise OSError(f"output directory {config.out!r} is not writable")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        return _HANDLERS[config.command](config)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def main(argv=None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return run_command(config)


if __name__ == "__main__":
    sys.exit(main())
