"""The three workloads: each runs whole rounds of identical jobs, then checks
the outputs of the last round against ``checks``.

A job is one operation: one ``oamghost image`` process (image-cli), one
object decomposed and rendered at every plane (plane-sweep), or one pass over
every correlation family (correlations). Library calls go through module
attributes so that ``tracing.Tracer.install`` sees them.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Record:
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    failed: int = 0
    elapsed: float = 0.0
    peak_rss_kb: float = 0.0  # over the first round: later rounds add allocator fragmentation
    job_spans: dict = field(default_factory=dict)  # traced image-cli jobs: totals from the children
    fails: list = field(default_factory=list)


def measure(seconds: float, one_round) -> float:
    """Run whole rounds, stopping when half a round more would pass `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            return elapsed


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, log_path) -> tuple[float, float, float, int]:
    """(wall s, cpu s, peak rss kB, exit code) of one child process, all threads included."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, float(usage.ru_maxrss), proc.returncode


def _check(record: Record, fn, *args) -> None:
    """Add fn's failure messages to the record; an unreadable output is a failure too."""
    try:
        record.fails += fn(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        record.fails.append(f"{fn.__name__}: unreadable output: {exc!r}")


def _note_first_round_peak(record: Record) -> None:
    if not record.peak_rss_kb:
        record.peak_rss_kb = float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _in_process(record: Record, job) -> object:
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        out = job()
    except Exception:
        traceback.print_exc()
        record.failed += 1
        out = None
    record.walls.append(time.perf_counter() - wall0)
    record.cpus.append(time.process_time() - cpu0)
    return out


# --- image-cli ---------------------------------------------------------------

def image_cli(root: str, inputs: str, scratch: str, seconds: float, traced: bool) -> Record:
    with open(os.path.join(inputs, "jobs.json")) as fh:
        spec = json.load(fh)
    env = child_env(root)
    record = Record()

    def argv(k: int, job: dict) -> list[str]:
        out = os.path.join(scratch, f"job-{k}")
        args = ["image", "--grid", str(spec["grid"]), "--l-max", str(spec["l_max"]),
                "--p-max", str(spec["p_max"]), "--sigma-s", repr(spec["sigma_s"]),
                "--wavelength", repr(spec["wavelength"]), "--sigma-g", repr(job["sigma_g"]),
                "--z1", repr(job["z1"]), "--z2", repr(job["z2"]), "--out", out]
        if job["object"] != "clover":
            args += ["--object", os.path.join(inputs, f"{job['object']}_intensity.pgm"),
                     "--phase", os.path.join(inputs, f"{job['object']}_phase.pgm")]
        if job["dump"]:
            args.append("--dump-field")
        if traced:
            spans = os.path.join(scratch, f"spans-{k}.json")
            return [sys.executable, os.path.join(HERE, "tracing.py"), spans] + args
        return [sys.executable, "-m", "oamghost.cli"] + args

    codes = [None] * len(spec["jobs"])

    def one_round():
        for k, job in enumerate(spec["jobs"]):
            wall, cpu, rss, codes[k] = run_child(argv(k, job), env, os.path.join(scratch, f"job-{k}.log"))
            record.walls.append(wall)
            record.cpus.append(cpu)
            record.peak_rss_kb = max(record.peak_rss_kb, rss)
            if codes[k] != 0:
                record.failed += 1
                with open(os.path.join(scratch, f"job-{k}.log")) as fh:
                    sys.stderr.write(f"image job {k} exited {codes[k]}:\n{fh.read()}")
            elif traced:
                with open(os.path.join(scratch, f"spans-{k}.json")) as fh:
                    for key, value in json.load(fh).items():
                        record.job_spans[key] = record.job_spans.get(key, 0.0) + value

    record.elapsed = measure(seconds, one_round)
    rng = np.random.default_rng(0)
    for k, job in enumerate(spec["jobs"]):
        if codes[k] != 0:
            continue  # counted in `failed`
        obj = None
        if job["object"] != "clover":
            stem = os.path.join(inputs, job["object"])
            obj = checks.object_from_rasters(checks.read_pgm(f"{stem}_intensity.pgm"),
                                             checks.read_pgm(f"{stem}_phase.pgm"))
        _check(record, checks.check_image_job, os.path.join(scratch, f"job-{k}"), obj, rng)
    return record


# --- plane-sweep -------------------------------------------------------------

def plane_sweep(root: str, inputs: str, scratch: str, seconds: float, traced: bool) -> Record:
    import oamghost.field_grid as fg
    import oamghost.spiral_imaging as si
    import oamghost.thermal_source as ts

    with open(os.path.join(inputs, "spec.json")) as fh:
        spec = json.load(fh)
    objects = np.load(os.path.join(inputs, "objects.npy"))
    l_max, p_max, z1 = spec["l_max"], spec["p_max"], spec["z1"]
    geo = ts.source_geometry(spec["sigma_s"], spec["sigma_g"])
    beam = fg.BeamSpec(geo.matched_waist, spec["wavelength"])
    grid = fg.GridSpec(spec["grid"], spec["extent"])
    fields = [fg.ComplexField(grid, obj) for obj in objects]
    thermal = ts.build_spectrum(geo, l_max, p_max)
    flat = ts.flat_spectrum(l_max, p_max)
    record = Record()
    last = [None] * len(fields)

    def job(obj):
        coeffs = si.object_spectrum(obj, beam, z1, l_max, p_max)
        image = si.image_spectrum(coeffs, thermal)
        pures, backgrounds, weights = [], [], []
        for z2 in spec["planes"]:
            pures.append(si.render_pure_image(image, grid, z2).samples)
            background, weight = si.render_background(coeffs, thermal, grid, z2)
            backgrounds.append(background)
            weights.append(weight)
        conj = si.render_pure_image(si.image_spectrum(coeffs, flat), grid, z1).samples
        return coeffs.values, image.values, pures, backgrounds, weights, conj

    def one_round():
        for k, obj in enumerate(fields):
            last[k] = None
            last[k] = _in_process(record, lambda: job(obj))
        _note_first_round_peak(record)

    record.elapsed = measure(seconds, one_round)
    done = [k for k, out in enumerate(last) if out is not None]  # the others count in `failed`
    _check(record, checks.check_plane_sweep, spec, objects[done], [last[k] for k in done])
    return record


# --- correlations ------------------------------------------------------------

def correlations(root: str, inputs: str, scratch: str, seconds: float, traced: bool) -> Record:
    import oamghost.quantum_correlations as qc
    import oamghost.thermal_source as ts

    with open(os.path.join(inputs, "params.json")) as fh:
        params = json.load(fh)
    with np.load(os.path.join(inputs, "searches.npz")) as npz:
        searches = [npz[f"arr_{i}"] for i in range(len(npz.files))]
    sigma_s = params["sigma_s"]
    curve = params["curve"]
    record = Record()
    last = [None]

    def job():
        certs = []
        for item in params["separability"]:
            geo = ts.source_geometry(sigma_s, item["sigma_g"])
            state = qc.assemble_density(ts.build_spectrum(geo, item["l_max"], item["p_max"]))
            cert = qc.separability_decomposition(state)
            certs.append((state.rho, cert.R, cert.rho_S_minus, cert.rho_S_plus))
        values = [qc.brute_force_discord(rho, item["p_max"] + 1, restarts=0,
                                         iterations=params["iterations"], seed=0)
                  for item, rho in zip(params["brute_force"], searches)]
        rows = qc.discord_curve(sigma_s, curve["sigma_g"], [(curve["l_max"], curve["p_max"])])
        tensors = []
        for item in params["csd"]:
            geo = ts.source_geometry(sigma_s, item["sigma_g"])
            grid = ts.oracle_grid(geo, item["l_max"], item["p_max"], item["grid"])
            tensor = ts.csd_mode_decompose(geo, item["l_max"], item["p_max"], grid)
            tensors.append((grid.pixel_pitch, tensor.coefficients))
        return certs, values, rows, tensors

    def one_round():
        last[0] = None
        last[0] = _in_process(record, job)
        _note_first_round_peak(record)

    record.elapsed = measure(seconds, one_round)
    if last[0] is not None:
        certs, values, rows, tensors = last[0]
        for item, (rho, r, minus, plus) in zip(params["separability"], certs):
            t, _ = checks.geometry(sigma_s, item["sigma_g"])
            d = (2 * item["l_max"] + 1) * (item["p_max"] + 1)
            _check(record, checks.check_certificate, f"separability d={d}", t, item["l_max"],
                   item["p_max"], rho, r, minus, plus)
        for k, (item, value) in enumerate(zip(params["brute_force"], values)):
            t, _ = checks.geometry(sigma_s, item["sigma_g"])
            _check(record, checks.check_brute_force, f"search-{k}", t, item["p_max"], value)
        _check(record, checks.check_discord_curve, "discord-curve", sigma_s, curve["sigma_g"],
               curve["l_max"], curve["p_max"], rows)
        for k, (item, (pitch, coeffs)) in enumerate(zip(params["csd"], tensors)):
            _check(record, checks.check_csd, f"csd-{k}", sigma_s, item["sigma_g"], item["l_max"],
                   item["p_max"], pitch, coeffs)
    return record


RUNNERS = {"image-cli": image_cli, "plane-sweep": plane_sweep, "correlations": correlations}
