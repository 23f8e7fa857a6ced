"""Each checker passes the program's real output and rejects a corrupted copy;
every workload passes its checks on a seed of its own.

Run from the repository root: python -m pytest ghostbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

import checks
import inputs
import workloads
from conftest import BENCH, ROOT

import oamghost.cli
import oamghost.field_grid as fg
import oamghost.quantum_correlations as qc
import oamghost.spiral_imaging as si
import oamghost.thermal_source as ts


def test_lg_stack_matches_the_closed_form():
    rng = np.random.default_rng(7)
    r = rng.uniform(0.0, 2e-3, 40)
    phi = rng.uniform(-math.pi, math.pi, 40)
    waist, wavelength, z = 4e-4, 632.8e-9, 0.3
    stack = checks.lg_stack(4, 3, waist, wavelength, z, r, phi)
    zr = math.pi * waist ** 2 / wavelength
    w = waist * math.sqrt(1 + (z / zr) ** 2)
    curv = (2 * math.pi / wavelength) / (2 * z * (1 + (zr / z) ** 2))
    for l in range(-4, 5):
        for p in range(4):
            a = abs(l)
            norm = math.sqrt(2 * math.factorial(p) / (math.pi * math.factorial(p + a))) / w
            ref = (norm * (math.sqrt(2) * r / w) ** a * eval_genlaguerre(p, a, 2 * r * r / w ** 2)
                   * np.exp(-r * r / w ** 2)
                   * np.exp(1j * (l * phi + curv * r * r - (2 * p + a + 1) * math.atan2(z, zr))))
            assert np.max(np.abs(stack[l + 4, p] - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- image-cli ---------------------------------------------------------------

@pytest.fixture(scope="module")
def image_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("image") / "job"
    code = oamghost.cli.main(["image", "--grid", "64", "--l-max", "6", "--p-max", "6",
                              "--sigma-g", "4e-5", "--z1", "0.4", "--z2", "0.3",
                              "--dump-field", "--out", str(out)])
    assert code == 0
    return out


def _image_copy(image_dir, tmp_path):
    dest = tmp_path / "job"
    shutil.copytree(image_dir, dest)
    return dest


def _check_image(job_dir):
    return checks.check_image_job(str(job_dir), None, np.random.default_rng(0))


def test_image_checker_passes_real_output(image_dir):
    assert _check_image(image_dir) == []


def test_image_checker_rejects_sign_flipped_coefficient(image_dir, tmp_path):
    job = _image_copy(image_dir, tmp_path)
    path = job / "image_spectrum.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")  # (l, p) = (-1, 1) with l_max = p_max = 6
    row[2] = str(-float(row[2]))
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    fails = _check_image(job)
    assert any("quadrature" in f for f in fails)
    assert any("P conj(A" in f for f in fails)


def _edit_pgm(path, edit):
    pix = checks.read_pgm(path)
    edit(pix)
    checks.write_pgm(path, pix)


def test_image_checker_rejects_perturbed_total(image_dir, tmp_path):
    job = _image_copy(image_dir, tmp_path)
    _edit_pgm(job / "image_total.pgm", lambda pix: pix.__setitem__((20, 30), max(pix[20, 30] - 40, 0)))
    assert any("quantization" in f for f in _check_image(job))


def test_image_checker_rejects_asymmetric_background(image_dir, tmp_path):
    job = _image_copy(image_dir, tmp_path)
    _edit_pgm(job / "image_background.pgm", lambda pix: pix.__setitem__((10, 12), pix[10, 12] + 3))
    fails = _check_image(job)
    assert any("quarter-turn" in f for f in fails)


def test_image_checker_rejects_corrupted_field_dump(image_dir, tmp_path):
    job = _image_copy(image_dir, tmp_path)
    side, extent, field = checks.read_oamf(job / "image_pure.oamf")
    field = -field  # same intensity, wrong field
    fg.write_field(job / "image_pure.oamf", fg.ComplexField(fg.GridSpec(side, extent), field))
    assert any("dumped pure field" in f for f in _check_image(job))


# --- plane-sweep -------------------------------------------------------------

@pytest.fixture(scope="module")
def plane_case():
    geo = ts.source_geometry(1e-3, 1.5e-4)
    spec = {"grid": 64, "l_max": 3, "p_max": 4, "sigma_s": 1e-3, "sigma_g": 1.5e-4,
            "wavelength": 632.8e-9, "z1": 0.5, "planes": [0.3, 0.9]}
    beam = fg.BeamSpec(geo.matched_waist, spec["wavelength"])
    spec["extent"] = 2 * beam.width(0.9) * (1.3 * math.sqrt(2 * 4 + 3 + 1) + 2)
    grid = fg.GridSpec(spec["grid"], spec["extent"])
    inten, phase = inputs.blob_object(np.random.default_rng(3), spec["grid"])
    obj = np.sqrt(inten / inten.max()) * np.exp(1j * phase)
    thermal = ts.build_spectrum(geo, 3, 4)
    coeffs = si.object_spectrum(fg.ComplexField(grid, obj), beam, spec["z1"], 3, 4)
    image = si.image_spectrum(coeffs, thermal)
    pures, backgrounds, weights = [], [], []
    for z2 in spec["planes"]:
        pures.append(si.render_pure_image(image, grid, z2).samples)
        background, weight = si.render_background(coeffs, thermal, grid, z2)
        backgrounds.append(background)
        weights.append(weight)
    flat = si.render_pure_image(si.image_spectrum(coeffs, ts.flat_spectrum(3, 4)), grid, spec["z1"]).samples
    return spec, obj, (coeffs.values, image.values, pures, backgrounds, weights, flat)


def _check_plane(spec, obj, out):
    return checks.check_plane_sweep(spec, np.array([obj]), [out])


def test_plane_checker_passes_real_output(plane_case):
    assert _check_plane(*plane_case) == []


def test_plane_checker_rejects_sign_flipped_coefficient(plane_case):
    spec, obj, (a, b, pures, backgrounds, weights, flat) = plane_case
    b = b.copy()
    b[2, 1] = -b[2, 1]
    fails = _check_plane(spec, obj, (a, b, pures, backgrounds, weights, flat))
    assert any("P conj(A" in f for f in fails)
    assert any("pure field off" in f for f in fails)


def test_plane_checker_rejects_perturbed_pure_field(plane_case):
    spec, obj, (a, b, pures, backgrounds, weights, flat) = plane_case
    pure = pures[1].copy()
    pure[32, 40] *= 1.001
    fails = _check_plane(spec, obj, (a, b, [pures[0], pure], backgrounds, weights, flat))
    assert any("pure field off" in f for f in fails)


def test_plane_checker_rejects_scaled_background(plane_case):
    spec, obj, (a, b, pures, backgrounds, weights, flat) = plane_case
    fails = _check_plane(spec, obj, (a, b, pures, [backgrounds[0] * 1.001, backgrounds[1]], weights, flat))
    assert any("integral background" in f for f in fails)


def test_plane_checker_rejects_unconjugated_image(plane_case):
    spec, obj, (a, b, pures, backgrounds, weights, flat) = plane_case
    fails = _check_plane(spec, obj, (a, b, pures, backgrounds, weights, np.conj(flat)))
    assert any("flat-spectrum" in f for f in fails)


# --- correlations ------------------------------------------------------------

def test_discord_curve_checker():
    sigma_gs = list(np.linspace(0.5e-3, 8e-3, 300))
    rows = qc.discord_curve(1e-3, sigma_gs, [(60, 60)])
    assert checks.check_discord_curve("curve", 1e-3, sigma_gs, 60, 60, rows) == []
    bad = list(rows)
    bad[100] = bad[100][:4] + (bad[100][4] * (1 + 1e-9),) + bad[100][5:]
    assert checks.check_discord_curve("curve", 1e-3, sigma_gs, 60, 60, bad)
    # A sweep whose peak sits away from sqrt(2) is refused.
    shifted = [row[:4] + (checks.discord_infinite(row[0] / 1.1),) + row[5:] for row in rows]
    assert any("peak" in f for f in checks.check_discord_curve("curve", 1e-3, sigma_gs, 60, 60, shifted))


def test_brute_force_checker():
    t, _ = checks.geometry(1e-3, 0.5e-3)
    closed = checks.discord_closed(*checks.truncated_sums(t, 0, 3))
    spec = ts.build_spectrum(ts.source_geometry(1e-3, 0.5e-3), 0, 3)
    assert abs(closed - qc.geometric_discord_thermal(spec)) <= 1e-15
    assert checks.check_brute_force("search", t, 3, closed + 1e-4) == []
    assert checks.check_brute_force("search", t, 3, closed - 1e-5)


def test_certificate_checker():
    sigma_g = 1e-3 * (1 - 0.4) / math.sqrt(0.4)  # t = 0.4
    t, _ = checks.geometry(1e-3, sigma_g)
    state = qc.assemble_density(ts.build_spectrum(ts.source_geometry(1e-3, sigma_g), 2, 1))
    cert = qc.separability_decomposition(state)
    args = ("cert", t, 2, 1, state.rho, cert.R)
    assert checks.check_certificate(*args, cert.rho_S_minus, cert.rho_S_plus) == []
    plus = cert.rho_S_plus.copy()
    plus[3, 3] -= 1e-6
    assert any("reconstruction" in f for f in checks.check_certificate(*args, cert.rho_S_minus, plus))
    minus = cert.rho_S_minus.copy()
    minus[0, 0] = -1e-3
    assert any("eigenvalue" in f for f in checks.check_certificate(*args, minus, cert.rho_S_plus))


def test_csd_checker():
    geo = ts.source_geometry(1e-3, 1.5e-4)
    grid = ts.oracle_grid(geo, 2, 2, 96)
    coeffs = ts.csd_mode_decompose(geo, 2, 2, grid).coefficients
    assert checks.check_csd("csd", 1e-3, 1.5e-4, 2, 2, grid.pixel_pitch, coeffs) == []
    bad = coeffs.copy()
    bad[1, 3, 1, 1] *= 1.0001  # (l, l') = (-1, 1), p = p' = 1
    assert any("t^(|l|+2p)" in f for f in checks.check_csd("csd", 1e-3, 1.5e-4, 2, 2, grid.pixel_pitch, bad))
    bad = coeffs.copy()
    bad[0, 0, 0, 1] = 1e-6 * coeffs[2, 2, 0, 0]
    assert any("off-selection" in f for f in checks.check_csd("csd", 1e-3, 1.5e-4, 2, 2, grid.pixel_pitch, bad))


# --- Bessel tolerance and whole workloads -----------------------------------

def test_image_cli_modes_fit_their_window():
    """Every (sigma_g, plane) of image-cli keeps the largest mode radius inside
    the CLI's window, so the CLI emits no ModeClippedWarning."""
    for sigma_g in inputs.IMAGE["sigma_g"]:
        _, waist = checks.geometry(inputs.SIGMA_S, sigma_g)
        beam = fg.BeamSpec(waist)
        for z in inputs.IMAGE["planes"]:
            width = beam.width(z)
            half = 4 * max(width, 7.5e-4)
            assert width * math.sqrt(inputs.IMAGE["l_max"] / 2 + inputs.IMAGE["p_max"]) <= half


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_workload_passes_on_another_seed(workload, tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
                           "--seed", "2", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"jobs_per_s", "job_s", "cpu_s_per_job", "peak_rss_mb", "setup_s"}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "ghostbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "ghostbench/run.py", "--workload", "correlations",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
