import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oamghost
from oamghost.cli import (
    DEFAULTS,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    RunConfig,
    UsageError,
    _COMMANDS,
    _FLAGS,
    _PARAMETERS,
    _extent,
    _format_value,
    _integer,
    _number,
    _read_config_file,
    main,
    parse_config,
)
from oamghost.field_grid import BeamSpec, ModeClippedWarning, ModeIndex, default_grid, read_field
from oamghost.quantum_correlations import discord_curve
from oamghost.spiral_imaging import clover_object, render_total
from oamghost.thermal_source import build_spectrum, source_geometry, spectrum_amplitude

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# CSV row order of the mode tables at l_max = 2, p_max = 1: by (|l|, l, p).
MODES_2_1 = [(0, 0), (0, 1), (-1, 0), (-1, 1), (1, 0), (1, 1), (-2, 0), (-2, 1), (2, 0), (2, 1)]


def test_defaults_resolve():
    c = parse_config(["spectrum"])
    assert c.command == "spectrum"
    assert c.sigma_s == 1e-3 and c.sigma_g == 2.5e-5
    assert c.wavelength == 632.8e-9
    assert c.z1 == 0.5 and c.z2 == 0.5
    assert c.l_max == 20 and c.p_max == 20 and c.grid == 512
    assert c.out_prefix == "spectrum"


def test_oracle_csd_command_defaults():
    c = parse_config(["oracle-csd"])
    assert (c.l_max, c.p_max, c.grid) == (3, 3, 128)
    # explicit flags still win
    c = parse_config(["oracle-csd", "--l-max", "1"])
    assert (c.l_max, c.p_max) == (1, 3)


def test_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nz1 = 0.5\nl_max = 2\nsigma-g = 1e-4\n")
    c = parse_config(["spectrum", "--config", str(cfg), "--z1", "0.7"])
    assert c.z1 == 0.7
    assert c.l_max == 2
    assert c.sigma_g == 1e-4


def test_sigma_g_inf():
    c = parse_config(["spectrum", "--sigma-g", "inf"])
    assert math.isinf(c.sigma_g)


# Text with no whitespace, line break or control character: what a flag and a
# config line both carry unchanged.
_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp", "Zs")))
# A value of each RunConfig field type that _format_value writes. An unset
# extent is written `auto` by the manifest, not by _format_value.
_VALUES = {
    "float": st.floats(allow_nan=False),
    "float | None": st.floats(allow_nan=False),
    "int": st.integers(),
    "bool": st.booleans(),
    "str": _TEXT,
    "str | None": st.none() | _TEXT.filter(lambda text: text.lower() != "none"),
}
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _resolve(argv):
    try:
        return parse_config(argv)
    except UsageError as exc:
        return str(exc)


@pytest.mark.parametrize("key", list(DEFAULTS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flag_and_config_line_share_one_parser(tmp_path_factory, key, data):
    value = data.draw(_VALUES[_FIELD_TYPES[key]])
    text = _format_value(value)
    cfg = tmp_path_factory.getbasetemp() / f"{key}.cfg"
    cfg.write_text(f"{key} = {text}\n", encoding="utf-8")
    assert _read_config_file(str(cfg)) == {key: value}
    flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
    flagged = ([flag] if value else []) if isinstance(value, bool) else [f"{flag}={text}"]
    # the same RunConfig, or the same validation error
    assert _resolve(["spectrum", *flagged]) == _resolve(["spectrum", "--config", str(cfg)])


def test_an_option_value_of_two_dashes_is_kept():
    c = parse_config(["spectrum", "--out=--", "--out-prefix=--", "--object=--"])
    assert (c.out, c.out_prefix, c.object_path) == ("--", "--", "--")
    with pytest.raises(UsageError, match="suite"):
        parse_config(["spectrum", "--suite=--"])
    with pytest.raises(UsageError, match="expected one argument"):
        parse_config(["spectrum", "--out", "--"])  # a lone '--' still ends the options


def test_config_out_none_is_a_directory(tmp_path, monkeypatch, capsys):
    # `none` unsets only out_prefix, object_path and phase_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("out = none\n")
    assert main(["spectrum", "--config", "run.cfg", "--l-max", "1", "--p-max", "1"]) == EXIT_OK
    assert (tmp_path / "none" / "spectrum_spectrum.csv").exists()


def test_readme_parameter_table_names_every_key():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("### Parameters and precedence", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("|")]
    assert sorted(key for cell in rows for key in re.findall(r"`(\w+)`", cell)) == sorted(DEFAULTS)


def test_unknown_config_key_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigmag = 1e-4\n")
    with pytest.raises(UsageError, match="sigmag"):
        parse_config(["spectrum", "--config", str(cfg)])


def test_bad_config_number_named(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma_g = fast\n")
    with pytest.raises(UsageError, match="sigma_g"):
        parse_config(["spectrum", "--config", str(cfg)])


def test_nonpositive_length_rejected():
    with pytest.raises(UsageError, match="sigma_s"):
        parse_config(["spectrum", "--sigma-s", "0"])
    with pytest.raises(UsageError, match="grid"):
        parse_config(["image", "--grid", "1"])
    with pytest.raises(UsageError, match="suite"):
        parse_config(["verify", "--suite", "bogus"])


def test_cli_import_leaves_scipy_unloaded():
    # scipy serves only the pointwise LG oracle and the discord search; a CLI
    # run that needs neither should not pay for importing it.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oamghost.__file__)))
    code = "import sys, oamghost.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
PRINT_THREAD_VARS = f"import json, os; print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))"


def _fresh_python(code, **preset):
    """stdout of `python -c code` with none of the thread variables set but `preset`."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=os.path.dirname(os.path.dirname(oamghost.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_import_pins_openblas_to_one_thread():
    out = _fresh_python("import oamghost; " + PRINT_THREAD_VARS)
    assert json.loads(out) == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}


def test_pinned_openblas_reports_one_live_thread():
    # the live count, read the way ghostbench/run.py:blas_info reads it
    code = """
import ctypes, oamghost
try:
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()})
except OSError:
    paths = []
for path in paths:
    lib = ctypes.CDLL(path)
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, symbol):
            get = getattr(lib, symbol)
            get.argtypes, get.restype = [], ctypes.c_int
            print(get())
            raise SystemExit
print("none")
"""
    out = _fresh_python(code).strip()
    if out == "none":
        pytest.skip("no OpenBLAS thread-count symbol in this numpy build")
    assert out == "1"


@pytest.mark.parametrize("name", THREAD_VARS)
def test_user_thread_setting_wins(name):
    out = _fresh_python("import oamghost; " + PRINT_THREAD_VARS, **{name: "2"})
    assert json.loads(out) == {k: "2" if k == name else None for k in THREAD_VARS}


def test_numpy_imported_first_keeps_its_threads():
    out = _fresh_python("import numpy, oamghost; " + PRINT_THREAD_VARS)
    assert json.loads(out) == dict.fromkeys(THREAD_VARS)


def test_usage_exit_codes(tmp_path, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["spectrum", "--no-such-flag"]) == EXIT_USAGE
    assert main(["spectrum", "--sigma-s", "-2", "--out", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "sigma_s" in err


@pytest.mark.parametrize("argv", [[], ["nope"]])
def test_a_missing_or_unknown_command_names_every_command(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and all(command in err for command in _COMMANDS)


def test_help_lists_every_command_with_its_help_line(capsys):
    with pytest.raises(SystemExit) as done:
        main(["-h"])
    assert done.value.code == 0
    out = capsys.readouterr().out
    for command, (_, help) in _COMMANDS.items():
        assert re.search(rf"^ +{re.escape(command)} +{re.escape(help)}$", out, re.M), command
    for key in DEFAULTS:
        assert _FLAGS.get(key, "--" + key.replace("_", "-")) in out, key


def test_options_may_come_before_the_command(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    assert main(["--grid", "32", "--out", str(before), "spectrum"]) == EXIT_OK
    assert main(["spectrum", "--grid", "32", "--out", str(after)]) == EXIT_OK
    capsys.readouterr()
    names = sorted(path.name for path in before.iterdir())
    assert names == sorted(path.name for path in after.iterdir())
    for name in names:
        assert ((before / name).read_text().replace(str(before), "OUT")
                == (after / name).read_text().replace(str(after), "OUT")), name


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["spectrum", "--config", str(tmp_path / "nope.cfg")]) == EXIT_IO


def test_non_utf8_config_file_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes(b"\xff\xfez\x001\x00 \x00=\x00 \x000\x00.\x005\x00\n\x00")
    assert main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_USAGE
    assert "utf16.cfg" in capsys.readouterr().err


def test_config_out_with_a_nul_byte_exits_1_without_traceback(tmp_path, capsys):
    # os.makedirs raises ValueError, not OSError, for a path holding a NUL byte.
    cfg = tmp_path / "nul.cfg"
    cfg.write_bytes(b"out = " + str(tmp_path).encode() + b"/a\x00b\n")
    assert main(["spectrum", "--config", str(cfg)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: embedded null byte\n"


def test_garbage_object_pgm_exits_1_without_traceback(tmp_path):
    garbage = tmp_path / "garbage.pgm"
    garbage.write_bytes(b"\x89PNG\r\n\x1a\n\x00\xff not a pgm")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oamghost.__file__)))
    run = subprocess.run([sys.executable, "-m", "oamghost.cli", "image", "--object", str(garbage),
                          "--grid", "32", "--out", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == EXIT_USAGE
    assert "Traceback" not in run.stderr
    assert "garbage.pgm" in run.stderr


def test_unwritable_out_is_io_error(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(["spectrum", "--out", str(blocker / "sub")]) == EXIT_IO


def test_spectrum_run_values_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["spectrum", "--sigma-g", "1e-4", "--l-max", "2", "--p-max", "1"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()

    body = (out1 / "spectrum_spectrum.csv").read_text()
    assert body == (out2 / "spectrum_spectrum.csv").read_text()
    geo = source_geometry(1e-3, 1e-4)
    lines = body.splitlines()
    assert lines[0] == "l,p,P,P_squared"
    assert [tuple(int(v) for v in line.split(",")[:2]) for line in lines[1:]] == MODES_2_1
    for line in lines[1:]:
        l, p, val, sq = line.split(",")
        expect = spectrum_amplitude(ModeIndex(int(l), int(p)), geo)
        assert float(val) == pytest.approx(expect, rel=1e-15)
        assert float(sq) == pytest.approx(expect ** 2, rel=1e-15)

    lines = (out1 / "spectrum_marginal.csv").read_text().splitlines()
    assert lines[0] == "l,P_l"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [-2, -1, 0, 1, 2]
    marginal = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(marginal, build_spectrum(geo, 2, 1).oam_marginal(), rtol=1e-15)


def test_manifest_round_trip(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["spectrum", "--sigma-g", "4e-4", "--l-max", "3", "--p-max", "2",
                 "--out", str(out1)]) == EXIT_OK
    manifest = out1 / "run_manifest.txt"
    text = manifest.read_text()
    assert "command = spectrum" in text
    assert "sigma_g = 0.0004" in text
    assert "# emitted: spectrum_spectrum.csv" in text
    assert main(["spectrum", "--config", str(manifest), "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert (out1 / "spectrum_spectrum.csv").read_bytes() == \
        (out2 / "spectrum_spectrum.csv").read_bytes()
    assert (out1 / "spectrum_marginal.csv").read_bytes() == \
        (out2 / "spectrum_marginal.csv").read_bytes()


def test_image_run_emits_file_set(tmp_path, capsys):
    out = tmp_path / "img"
    assert main(["image", "--grid", "64", "--l-max", "2", "--p-max", "1",
                 "--dump-field", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    names = sorted(os.listdir(out))
    assert names == [
        "image_background.pgm",
        "image_pure.oamf",
        "image_pure_intensity.pgm",
        "image_pure_phase.pgm",
        "image_scaling.txt",
        "image_spectrum.csv",
        "image_total.pgm",
        "run_manifest.txt",
    ]
    scaling = (out / "image_scaling.txt").read_text()
    for key in ("pure_intensity_lo", "pure_phase_hi", "background_hi", "total_hi"):
        assert key in scaling
    lines = (out / "image_spectrum.csv").read_text().splitlines()
    assert lines[0] == "l,p,re_A,im_A,re_B,im_B"
    assert [tuple(int(v) for v in line.split(",")[:2]) for line in lines[1:]] == MODES_2_1
    geo = source_geometry(DEFAULTS["sigma_s"], DEFAULTS["sigma_g"])
    spec = default_grid(BeamSpec(geo.matched_waist, DEFAULTS["wavelength"]), 2, 1, 64,
                        z=max(DEFAULTS["z1"], DEFAULTS["z2"]), other_scale=DEFAULTS["clover_radius"])
    result = render_total(clover_object(spec, DEFAULTS["clover_radius"]), geo, DEFAULTS["z1"],
                          DEFAULTS["z2"], 2, 1, DEFAULTS["wavelength"])
    for column, table in ((2, result.object_coefficients), (4, result.image_coefficients)):
        scale = np.max(np.abs(table.values))
        for line in lines[1:]:
            row = line.split(",")
            got = complex(float(row[column]), float(row[column + 1]))
            assert abs(got - table.value(int(row[0]), int(row[1]))) <= 1e-15 * scale
    field = read_field(out / "image_pure.oamf")
    assert field.spec.side_points == 64
    manifest = (out / "run_manifest.txt").read_text()
    assert "extent = auto" not in manifest  # image resolves the window size
    for name in names:
        if name != "run_manifest.txt":
            assert f"# emitted: {name}" in manifest


def test_default_image_run_warns_nothing(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["image", "--out", str(tmp_path)]) == EXIT_OK
    assert "worst mode norm on the window" in capsys.readouterr().out


def test_coarse_image_run_warns_with_the_worst_mode(tmp_path, capsys):
    # 64 points over the default window undersample the 3321-mode lattice.
    with pytest.warns(ModeClippedWarning) as record:
        assert main(["image", "--grid", "64", "--l-max", "40", "--p-max", "40",
                     "--out", str(tmp_path)]) == EXIT_OK
    mode = re.search(r"at (LG\((\+-)?\d+, \d+\))", capsys.readouterr().out).group(1)
    assert record and all(str(w.message).startswith(f"{mode} at z=") for w in record)


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@pytest.mark.parametrize("flags,flagged", [([], False), (["--grid", "112", "--z1", "0.3", "--z2", "0.5"], True)])
def test_image_flags_a_captured_fraction_above_one(tmp_path, capsys, flags, flagged):
    # 112 points undersample the nearer plane's modes at z1 = 0.3 m: the capture reads 1.0276.
    assert main(["image", "--out", str(tmp_path)] + flags) == EXIT_OK
    out, err = capsys.readouterr()
    capture = float(re.search(r"captured fraction (\S+)", out).group(1))
    assert (capture > 1.0) == flagged
    assert ("warning: captured fraction" in err) == flagged
    if flagged:
        assert f"captured fraction {capture:.4f} exceeds 1" in err and "LG(0, 15)" in err
    assert len(os.listdir(tmp_path)) == 7  # the same files either way


def test_image_manifest_round_trip(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["image", "--grid", "48", "--l-max", "1", "--p-max", "1",
                 "--out", str(out1)]) == EXIT_OK
    assert main(["image", "--config", str(out1 / "run_manifest.txt"),
                 "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    for name in ("image_total.pgm", "image_spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_image_with_pgm_object(tmp_path, capsys):
    out = tmp_path / "obj"
    src = tmp_path / "object.pgm"
    rng = np.random.default_rng(0)
    raster = (rng.uniform(0.2, 1.0, size=(32, 32)) * 255).astype("u1")
    src.write_bytes(b"P5\n32 32\n255\n" + raster.tobytes())
    assert main(["image", "--grid", "32", "--l-max", "1", "--p-max", "0",
                 "--object", str(src), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "image_total.pgm").exists()
    # mismatched raster side is a usage error
    assert main(["image", "--grid", "48", "--l-max", "1", "--p-max", "0",
                 "--object", str(src), "--out", str(out)]) == EXIT_USAGE


def test_discord_run(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["discord", "--samples", "11", "--l-max", "8", "--p-max", "8",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    lines = (out / "discord_discord.csv").read_text().splitlines()
    assert lines[0] == "sigma_g_over_sigma_s,L,P,d,D_rho,D_rhoQ,D_inf"
    assert len(lines) == 12
    ratios = [float(line.split(",")[0]) for line in lines[1:]]
    assert ratios[0] == pytest.approx(0.2)
    assert ratios[-1] == pytest.approx(10.0)
    sigma_gs = np.linspace(DEFAULTS["sigma_g_min"], DEFAULTS["sigma_g_max"], 11)
    for line, expect in zip(lines[1:], discord_curve(DEFAULTS["sigma_s"], sigma_gs, [(8, 8)])):
        row = line.split(",")
        assert tuple(int(v) for v in row[1:4]) == expect[1:4] == (8, 8, 153)
        for k in (0, 4, 5, 6):
            assert float(row[k]) == pytest.approx(expect[k], rel=1e-15)


@pytest.mark.parametrize("lo,hi", [("1e-3", "1e100"), ("1e-100", "1e-3")])
def test_discord_run_at_extreme_coherence_widths(tmp_path, capsys, lo, hi):
    # (x + 2/x)^4 overflows at both ends of the sweep; the D_inf column reads 0 there
    assert main(["discord", "--sigma-g-min", lo, "--sigma-g-max", hi, "--samples", "3",
                 "--l-max", "2", "--p-max", "2", "--out", str(tmp_path)]) == EXIT_OK
    d_inf = [float(line.split(",")[-1]) for line in
             (tmp_path / "discord_discord.csv").read_text().splitlines()[1:]]
    assert d_inf[0 if lo == "1e-100" else -1] == 0.0


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
@pytest.mark.parametrize("argv,code", [
    (["oracle-csd", "--sigma-g", "1e200"], EXIT_OK),  # sigma_g^2 is inf: the coherent-limit kernel
    (["image", "--z1", "1e300"], EXIT_USAGE),  # w(z) overflows
    (["image", "--wavelength", "1e300"], EXIT_USAGE),
    (["image", "--sigma-s", "1e300"], EXIT_USAGE),
    (["image", "--sigma-s", "1e-300"], EXIT_USAGE),  # Rayleigh range 0
    (["image", "--extent", "1e-300", "--grid", "32"], EXIT_USAGE),  # pixel area 0
])
def test_extreme_finite_inputs_exit_without_traceback(tmp_path, capsys, argv, code):
    assert main(argv + ["--out", str(tmp_path)]) == code
    if code == EXIT_USAGE:
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags,named", [
    (["--wavelength", "1e300"], "beam width"),  # z / zR overflows: zR is 1.6e-307 m
    (["--z1", "1e300"], "beam width"),
    (["--z2", "1e300"], "beam width"),
    (["--sigma-s", "1e300"], "Rayleigh range"),  # w0^2 overflows
    (["--sigma-s", "1e-300"], "Rayleigh range"),  # w0^2 underflows to 0
])
def test_image_names_an_unrepresentable_beam_before_writing(tmp_path, capsys, flags, named):
    out = tmp_path / "o"
    assert main(["image", "--grid", "32", "--out", str(out)] + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the clover at 1e200 m
@pytest.mark.parametrize("flags,named", [(["--extent", "1e-300"], "extent"), (["--sigma-g", "1e-300"], "sigma_g"),
                                         (["--extent", "1e200"], "extent")])
def test_image_refuses_a_window_without_object_power_before_writing(tmp_path, capsys, flags, named):
    out = tmp_path / "o"
    assert main(["image", "--grid", "32", "--out", str(out)] + flags) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: object power") and named in err
    assert list(out.iterdir()) == []


@pytest.mark.filterwarnings("ignore::oamghost.field_grid.ModeClippedWarning")
def test_image_refuses_an_underflowed_capture_before_writing(tmp_path, capsys):
    # The object power is tiny but normal; its coefficients, about 1e-298, square to 0.
    out = tmp_path / "o"
    assert main(["image", "--grid", "32", "--extent", "1e-150", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: captured fraction") and "extent" in err
    assert list(out.iterdir()) == []


def test_oracle_csd_refuses_a_truncation_over_its_budget(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle-csd", "--l-max", "11", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "l_max" in err and "allow_large" not in err  # a CLI user cannot pass allow_large
    assert list(out.iterdir()) == []


def test_oracle_csd_refuses_an_underflowing_sigma_g(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle-csd", "--sigma-g", "1e-300", "--grid", "32", "--out", str(out)]) == EXIT_USAGE
    assert "sigma_g" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Every numeric parameter at the edges of the float range, on a window and truncation small enough
# for all 4 x 14 x 7 runs to take about a second.
FUZZ_FLAGS = {key: _FLAGS.get(key, "--" + key.replace("_", "-")) for rows in _PARAMETERS.values()
              for key, parse, *_ in rows if parse in (_number, _integer, _extent)}
FUZZ_VALUES = ["0", "5e-324", "1e-300", "1e300", "inf", "nan", "-1"]
# What a refusal names: a key, a flag, or a quantity derived from them.
NAMEABLE = [*FUZZ_FLAGS, *FUZZ_FLAGS.values(),
            "object power", "captured fraction", "beam width", "Rayleigh range", "pixel area"]


def _written_numbers(path):
    """The numbers of a CSV (below its header) or of a `name = value` sidecar."""
    lines = path.read_text().splitlines()
    if path.suffix == ".csv":
        return [float(cell) for line in lines[1:] for cell in line.split(",")]
    return [float(line.partition("=")[2]) for line in lines if not line.startswith("#")]


@pytest.mark.filterwarnings("ignore")  # clipped modes, coarse pitches and overflows at the extremes
@pytest.mark.parametrize("command", ["image", "spectrum", "discord", "oracle-csd"])
def test_every_numeric_parameter_at_extreme_values_exits_cleanly(tmp_path, capsys, command):
    for flag in FUZZ_FLAGS.values():
        for value in FUZZ_VALUES:
            out = tmp_path / f"{flag}={value}"
            code = main([command, "--grid", "32", "--l-max", "3", "--p-max", "3", "--samples", "5",
                         "--out", str(out), f"{flag}={value}"])
            printed = capsys.readouterr()
            case = f"{command} {flag}={value}: exit {code}, {printed.err!r}"
            assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO), case
            assert "Traceback" not in printed.out + printed.err, case
            if code != EXIT_OK:
                assert not out.exists() or list(out.iterdir()) == [], case
            if code == EXIT_USAGE:
                named = (re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", printed.err) for name in NAMEABLE)
                assert any(named), case
            for path in out.glob("*") if code == EXIT_OK else ():
                if path.suffix == ".csv" or path.name.endswith("_scaling.txt"):  # the manifest may echo inf
                    assert all(map(math.isfinite, _written_numbers(path))), (case, path.name)


@pytest.mark.filterwarnings("error")  # refused before the pitch, the clipped modes and the overflowing kernel warn
def test_oracle_csd_names_a_window_whose_pixel_area_overflows(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle-csd", "--extent", "1e300", "--grid", "32", "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: pixel area overflows on the 32^2 window of extent 1e+300 m")
    assert list(out.iterdir()) == []


def test_oracle_csd_run(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle-csd", "--l-max", "1", "--p-max", "1", "--grid", "64",
                 "--sigma-g", "2e-3", "--out", str(out)]) == EXIT_OK
    msg = capsys.readouterr().out
    assert "off-selection" in msg
    lines = (out / "oracle-csd_csd.csv").read_text().splitlines()
    assert lines[0] == "l1,l2,p1,p2,re_f,im_f"
    assert len(lines) == 1 + 9 * 4


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    assert main(["verify", "--suite", "normalization", "--out", str(tmp_path)]) == EXIT_OK
    msg = capsys.readouterr().out
    assert "3/3 checks passed" in msg
    # a starved truncation leaves a visible sum-rule defect
    assert main(["verify", "--suite", "normalization", "--l-max", "1", "--p-max", "1",
                 "--out", str(tmp_path)]) == EXIT_VERIFY
    msg = capsys.readouterr().out
    assert "[FAIL] sum-squares" in msg
    # a single-mode truncation has no off-selection entries, which is a pass
    assert main(["verify", "--suite", "csd-oracle", "--l-max", "0", "--p-max", "0",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert "5/5 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("grid, pixels", [("2", 4), ("3", 9), ("4", 16), ("64", 16)])
def test_verify_imaging_on_a_window_of_fewer_than_16_pixels(tmp_path, capsys, grid, pixels):
    # The background oracle drew 16 distinct pixels, more than a 2^2 or 3^2 window holds. Each of
    # these windows undersamples the modes: the capture falls under its floor at 2^2 and 4^2 and
    # rises over its ceiling at 3^2 and 64^2, where orthonormal modes would capture at most all of it.
    # The pure term still tracks the object's projection there (0 rad, Pearson >= 0.99), so the
    # phase and correlation checks fail with basis-norm, not on their own figures.
    with pytest.warns(ModeClippedWarning):
        code = main(["verify", "--suite", "imaging", "--grid", grid, "--out", str(tmp_path)])
    assert code == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL] basis-norm" in out
    for name in ("phase-conjugation", "intensity-correlation"):
        (line,) = [line for line in out.splitlines() if f"] {name}: " in line]
        assert line.startswith("[FAIL]")
        assert line.endswith("; fails with basis-norm: the modes are not orthonormal on this window")
    capture = {"2": "0.0141", "3": "822.1276", "4": "0.0032", "64": "1.8783"}[grid]
    assert (f"[FAIL] mode-capture: truncation captures {capture} of object power (floor 0.95, ceiling 1.001)"
            in out)
    assert f"at {pixels} seeded pixels (tol 1e-10)" in out
    assert sum(line.startswith(("[ok]", "[FAIL]")) for line in out.splitlines()) == 9


def test_verify_forwards_only_explicit_parameters(tmp_path, capsys):
    # seed/l_max defaults differ per suite, so only the parameters set are forwarded
    assert main(["verify", "--suite", "separability", "--l-max", "1", "--p-max", "1",
                 "--out", str(tmp_path)]) == EXIT_OK
    msg = capsys.readouterr().out
    assert "4/4 checks passed" in msg
    # a value equal to the CLI default (p_max = 20) is forwarded too; the
    # structured criterion at d = 819 and 861 gives an exact 0, while the
    # suite's random d <= 16 shapes would give an eigvalsh rounding residue
    for l_max in ("19", "20"):
        assert main(["verify", "--suite", "separability", "--l-max", l_max, "--p-max", "20",
                     "--out", str(tmp_path)]) == EXIT_OK
        msg = capsys.readouterr().out
        assert "psd: min eigenvalue 0.000e+00" in msg
        assert "4/4 checks passed" in msg


@pytest.mark.parametrize("flags", [[], ["--l-max", "19", "--p-max", "20"]])
def test_verify_manifest_replays_checks(tmp_path, capsys, flags):
    assert main(["verify", "--suite", "separability", *flags,
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    first = capsys.readouterr().out
    manifest = tmp_path / "a" / "run_manifest.txt"
    # unset suite parameters stay out, so a replay keeps the suite's own defaults
    assert ("l_max = 19" in manifest.read_text()) == bool(flags)
    assert "grid =" not in manifest.read_text()
    assert main(["verify", "--config", str(manifest), "--out", str(tmp_path / "b")]) == EXIT_OK
    again = capsys.readouterr().out

    def checks(text):
        return [line for line in text.splitlines() if "runtime" not in line]

    assert checks(again) == checks(first)


@pytest.mark.parametrize("size", ["4", "10"])
def test_verify_separability_above_dense_cap(tmp_path, capsys, size):
    # d = 45 and d = 231 exceed the dense-view cap of 36
    assert main(["verify", "--suite", "separability", "--l-max", size, "--p-max", size,
                 "--out", str(tmp_path)]) == EXIT_OK
    assert "4/4 checks passed" in capsys.readouterr().out


def test_benchmark_tracer_binds_package_functions():
    # the benchmark's tracer wraps these functions by module and name; one
    # that moved or was renamed would otherwise surface only in a traced run
    spec = importlib.util.spec_from_file_location(
        "ghostbench_tracing", os.path.join(ROOT, "ghostbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, functions in tracing.TRACED.items():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_package_exports_every_library_name():
    for module_name in ("field_grid", "quantum_correlations", "spiral_imaging", "thermal_source"):
        module = importlib.import_module(f"oamghost.{module_name}")
        for name in module.__all__:
            assert getattr(oamghost, name) is getattr(module, name), f"{module_name}.{name}"
            assert name in oamghost.__all__
    assert len(oamghost.__all__) == len(set(oamghost.__all__))


def test_default_parameter_table():
    assert DEFAULTS["sigma_g"] == 2.5e-5
    assert DEFAULTS["samples"] == 200
    assert DEFAULTS["suite"] == "all"
