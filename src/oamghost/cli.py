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
from dataclasses import make_dataclass, replace

import numpy as np

from .field_grid import (
    BeamSpec,
    GridSpec,
    _worst_norm_defect,
    default_grid,
    intensity_and_phase,
    write_field,
)
from .quantum_correlations import discord_curve
from .spiral_imaging import (
    clover_object,
    load_object,
    read_pgm,
    render_total,
    write_pgm16,
)
from .thermal_source import (
    build_spectrum,
    csd_mode_decompose,
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


# Parsers shared by a flag and its config line; each one's return annotation
# is the RunConfig field type.
def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparsable number {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unparsable integer {text!r}") from None


def _extent(text: str) -> float | None:
    return None if text == "auto" else _number(text)


def _optional(text: str) -> str | None:
    return None if text.lower() == "none" else text


def _boolean(text: str) -> bool:  # config lines only; the flag is store_true
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


# Every run parameter, once: argparse group -> rows of (key, parser, default,
# metavar, help). The flag is --key with dashes unless _FLAGS names another.
_PARAMETERS = {
    "source and geometry": [
        ("sigma_s", _number, 1e-3, "M", "intensity-envelope width sigma_s in meters"),
        ("sigma_g", _number, 2.5e-5, "M",
         "coherence width sigma_g in meters ('inf' for the coherent limit)"),
        ("wavelength", _number, 632.8e-9, "M", None),
        ("z1", _number, 0.5, "M", "source-to-object distance"),
        ("z2", _number, 0.5, "M", "source-to-image distance"),
    ],
    "truncation and grid": [
        ("l_max", _integer, 20, "L", None),
        ("p_max", _integer, 20, "P", None),
        ("grid", _integer, 512, "N", "raster side in points"),
        ("extent", _extent, None, "M", "raster window side in meters (default: sized from the beam)"),
    ],
    "input and output": [
        ("out", str, ".", "DIR", "output directory"),
        ("out_prefix", _optional, None, "NAME", "filename prefix (default: the subcommand name)"),
        ("object_path", _optional, None, "PGM", "object intensity raster (default: built-in clover)"),
        ("phase_path", _optional, None, "PGM", "object phase raster, mapped onto [-pi, pi)"),
        ("clover_radius", _number, 7.5e-4, "M", None),
        ("dump_field", _boolean, False, None, "also write the complex pure field as .oamf"),
    ],
    "sweeps and verification": [
        ("seed", _integer, 0, "N", None),
        ("samples", _integer, 200, "N", None),
        ("sigma_g_min", _number, 2e-4, "M", None),
        ("sigma_g_max", _number, 1e-2, "M", None),
        ("suite", str, "all", "NAME", "verification suite name or 'all'"),
    ],
}
_FLAGS = {"object_path": "--object", "phase_path": "--phase"}
_PARSERS = {key: parse for rows in _PARAMETERS.values() for key, parse, *_ in rows}
DEFAULTS = {key: default for rows in _PARAMETERS.values() for key, _, default, *_ in rows}

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


class UsageError(Exception):
    """Bad flags, bad config keys, or out-of-range parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for verify failures
        raise UsageError(message)

    def _get_values(self, action, arg_strings):
        # Python before 3.13 drops a '--' given as an option's own value, so
        # `--out=--` would set out to []; only a lone '--' ends the options.
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


RunConfig = make_dataclass(
    "RunConfig",
    [("command", str)] + [(key, "str" if parse is str else parse.__annotations__["return"])
                          for key, parse in _PARSERS.items()],
    frozen=True,
    namespace={"__module__": __name__, "__doc__": (
        "Fully resolved parameters of one CLI invocation.\n\n"
        "Under `verify` the suite parameters left unset are None (see _COMMAND_DEFAULTS).")},
)


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    for title, rows in _PARAMETERS.items():
        g = shared.add_argument_group(title)
        for key, parse, _, metavar, help in rows:
            flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
            how = {"action": "store_true"} if parse is _boolean else {"type": parse, "metavar": metavar}
            g.add_argument(flag, dest=key, default=None, help=help, **how)
        if title == "input and output":
            g.add_argument("--config", dest="config", metavar="FILE",
                           help="read 'key = value' defaults from FILE")

    parser = _Parser(prog="oamghost",
                     description="Thermal ghost imaging in the orbital-angular-momentum basis.")
    sub = parser.add_subparsers(dest="command")
    for command, (_, help) in _COMMANDS.items():
        sub.add_parser(command, parents=[shared], help=help)
    return parser


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
        if key == "command":
            continue  # manifests carry it; the subcommand comes from argv
        if key not in _PARSERS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](text.strip())
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"{path}:{lineno}: key {key!r}: {exc}") from None
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
        raise UsageError(f"missing subcommand; choose from {', '.join(_COMMANDS)}")
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


def _window(config: RunConfig, beam: BeamSpec, z: float = 0.0, other_scale: float = 0.0) -> GridSpec:
    """The --extent window if one is set, else default_grid for the run's truncation and grid."""
    if config.extent is not None:
        return GridSpec(config.grid, config.extent)
    return default_grid(beam, config.l_max, config.p_max, config.grid, z, other_scale)


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
    z_far = max(abs(config.z1), abs(config.z2))
    spec = _window(config, beam, z_far, config.clover_radius)
    if config.object_path is not None:
        inten = read_pgm(config.object_path)
        phase = read_pgm(config.phase_path) if config.phase_path is not None else None
        obj = load_object(inten, phase, spec)
    else:
        obj = clover_object(spec, config.clover_radius)

    window = f"on the {spec.side_points}^2 window of {spec.extent:.3g} m"
    cause = ("change extent" if config.extent is not None else
             f"the automatic window follows the beam width {beam.width(z_far):.3g} m, set by sigma_s,"
             " sigma_g and wavelength; change sigma_g or set extent")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing pixel area is refused below
        obj_power = float(np.sum(np.abs(obj.samples) ** 2) * np.square(spec.pixel_pitch))
    if not (obj_power > 0.0 and math.isfinite(obj_power)):
        raise ValueError(f"object power {window} is {obj_power:g}, not positive and finite: {cause}")
    result = render_total(obj, geo, config.z1, config.z2, config.l_max, config.p_max, config.wavelength)
    coeffs, image = result.object_coefficients, result.image_coefficients
    capture = coeffs.power() / obj_power
    if not (capture > 0.0 and math.isfinite(capture)):  # e.g. coefficients that square to 0
        raise ValueError(f"captured fraction {window} is {capture:g}, not positive and finite: {cause}")
    defect, mode = max(_worst_norm_defect(beam, spec, z, config.l_max, config.p_max)
                       for z in (-config.z1, config.z2))  # read from the passes' cache
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

    print(f"grid: {spec.side_points} points over {spec.extent:.6e} m")
    print(f"object power {obj_power:.6e}, captured fraction {capture:.4f}")
    print(f"worst mode norm on the window: |norm^2 - 1| = {defect:.3g} at {mode}")
    if capture > 1.0:  # orthonormal modes capture at most all of the object's power
        print(f"warning: captured fraction {capture:.4f} exceeds 1: the modes are not orthonormal {window}"
              f" (|norm^2 - 1| = {defect:.3g} at {mode}); refine grid or widen extent", file=sys.stderr)
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
    spec = _window(config, BeamSpec(geo.matched_waist, config.wavelength))  # oracle_grid when automatic
    tensor = csd_mode_decompose(geo, config.l_max, config.p_max, spec)

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


# Every subcommand, once: name -> (handler, help).
_COMMANDS = {
    "spectrum": (_run_spectrum, "spiral-spectrum CSVs for a source geometry"),
    "image": (_run_image, "ghost-image rasters and mode tables for an object"),
    "discord": (_run_discord, "geometric-discord curve over a coherence sweep"),
    "oracle-csd": (_run_oracle_csd, "quadrature mode decomposition of the source correlations"),
    "verify": (_run_verify, "run numerical verification suites"),
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
        return _COMMANDS[config.command][0](config)
    except (UsageError, ValueError, ArithmeticError) as exc:  # ArithmeticError: an overflow no check names
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
