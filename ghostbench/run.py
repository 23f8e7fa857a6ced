"""Benchmark of oamghost: ghost-image CLI runs, plane sweeps and two-beam
correlations.

    python3 ghostbench/run.py --workload <image-cli|plane-sweep|correlations>
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree holding ``src/oamghost``. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A fuller record, with every job time
and the machine details, goes to ``.ghostbench/results/``. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time

import numpy as np

import workloads
from tracing import Tracer

SETUP_SAMPLES = 5
HERE = os.path.dirname(os.path.abspath(__file__))

PER_LAYER = {  # metric -> unit; per job, averaged over the run's jobs
    "spiral_imaging.object_spectrum_s": "s",
    "spiral_imaging.object_spectrum_cpu_s": "s",
    "spiral_imaging.render_pure_image_s": "s",
    "spiral_imaging.render_background_s": "s",
    "spiral_imaging.pgm_io_s": "s",
    "field_grid.lg_rasters": "count",
    "field_grid.lg_raster_s": "s",
    "field_grid.raster_bytes": "B",
    "field_grid.write_field_s": "s",
    "thermal_source.csd_mode_decompose_s": "s",
    "quantum_correlations.assemble_density_s": "s",
    "quantum_correlations.separability_decomposition_s": "s",
    "quantum_correlations.operator_bytes": "B",
    "quantum_correlations.brute_force_discord_s": "s",
    "quantum_correlations.discord_curve_s": "s",
    "cli.self_s": "s",
    "traced.job_s": "s",
}


def blas_info() -> dict:
    """BLAS name and version from numpy's build record, and its live thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.split()[-1].lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                info["threads"] = int(getattr(lib, symbol)())
                return info
    return info


def environment() -> dict:
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_info(), "machine": platform.machine()}


def set_up(workload: str, seed: int, inputs: str, samples: int) -> list[float]:
    """Wall times of `samples` fresh interpreters that import oamghost and write the inputs.

    One unmeasured run first writes the inputs and warms bytecode and file caches.
    """
    env = workloads.child_env(os.getcwd())
    argv = [sys.executable, os.path.join(HERE, "inputs.py"), workload, str(seed), inputs]
    times = []
    for k in range(samples + 1):
        wall, _, _, code = workloads.run_child(argv, env, os.path.join(inputs, "setup.log"))
        if code != 0:
            with open(os.path.join(inputs, "setup.log")) as fh:
                raise RuntimeError(f"input generation exited {code}:\n{fh.read()}")
        if k:
            times.append(wall)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of oamghost; see ghostbench/README.md.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "oamghost", "__init__.py")):
        print(f"error: no oamghost sources under {src}; run from the root of the source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import oamghost.cli  # noqa: F401  (every module, so tracing can patch the CLI's bindings too)

    if not os.path.abspath(oamghost.cli.__file__).startswith(src + os.sep):
        print(f"error: imported oamghost from {oamghost.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    base = os.path.join(root, ".ghostbench")
    scratch = os.path.join(base, "scratch", f"{args.workload}-{os.getpid()}")
    inputs = os.path.join(scratch, "inputs")
    os.makedirs(inputs)
    try:
        setup = set_up(args.workload, args.seed, inputs, 1 if args.trace else SETUP_SAMPLES)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        record = workloads.RUNNERS[args.workload](root, inputs, scratch, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    jobs = len(record.walls)
    if args.trace:
        spans = dict(record.job_spans if args.workload == "image-cli" else tracer.totals)
        mean_job = sum(record.walls) / jobs
        metrics = {name: {"value": spans.get(name, 0.0) / jobs, "unit": unit} for name, unit in PER_LAYER.items()}
        metrics["cli.self_s"]["value"] = mean_job - spans.get("top_s", 0.0) / jobs
        metrics["traced.job_s"]["value"] = mean_job
        if metrics["cli.self_s"]["value"] < 0:
            record.fails.append("traced spans exceed the job time")
    else:
        metrics = {
            "jobs_per_s": {"value": jobs / record.elapsed, "unit": "1/s"},
            "job_s": {"value": statistics.median(record.walls), "unit": "s"},
            "cpu_s_per_job": {"value": statistics.median(record.cpus), "unit": "s"},
            "peak_rss_mb": {"value": record.peak_rss_kb / 1024.0, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    for message in record.fails:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not record.fails, "attempted": jobs, "failed": record.failed, "metrics": metrics}

    full = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                elapsed_s=record.elapsed, job_walls_s=record.walls, job_cpus_s=record.cpus,
                setup_samples_s=setup, check_failures=record.fails, environment=environment(),
                finished=time.strftime("%Y-%m-%dT%H:%M:%S"))
    os.makedirs(os.path.join(base, "results"), exist_ok=True)
    out = os.path.join(base, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(full, fh, indent=1)
    print(f"environment: {json.dumps(full['environment'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
