"""Seeded inputs of the three workloads.

Run as a script to time set-up in a fresh interpreter: it imports the
workload's entry module of ``oamghost`` and then writes the inputs into a
directory.

    python ghostbench/inputs.py <workload> <seed> <directory>

Costs per job do not depend on the seed: every seed keeps the same grids,
truncations and call counts and varies only values (source widths, planes,
objects, sweep ends), so run-to-run spread is not confounded with input size.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys

import numpy as np

from checks import geometry, pair_state, spectrum, write_pgm

SIGMA_S = 1e-3
WAVELENGTH = 632.8e-9

# image-cli: the CLI's default truncation on a 112^2 grid. With these widths
# and planes every mode fits inside the CLI's window (no ModeClippedWarning).
IMAGE = {"grid": 112, "l_max": 20, "p_max": 20,
         "sigma_g": (2.5e-5, 4e-5, 6e-5), "planes": (0.3, 0.4, 0.5)}
# Objects alternate clover / PGM; half of the jobs dump the complex field.
IMAGE_ROUND = (("clover", False), ("pgm0", True), ("clover", True), ("pgm1", False))

# plane-sweep: heavy in pixels, light in modes; shared beam, grid and planes.
PLANE = {"grid": 256, "l_max": 5, "p_max": 9, "objects": 2, "planes": 3}

# correlations: one job runs every family once; the weights keep each family
# near a quarter of the job.
CORR = {
    "separability": ((1, 11), (5, 2)),  # d = 36 and d = 33
    "brute_force": ((1, 4), (3, 4)),  # (p_max, states) at l_max = 0: d = 2 and d = 4
    "brute_force_iterations": 5,
    "curve": {"l_max": 60, "p_max": 60, "samples": 800},
    "csd": ((3, 3, 128), (6, 6, 128), (6, 6, 128)),  # oracle-csd defaults, then l_max = p_max = 6
}

ENTRY = {"image-cli": "oamghost.cli", "plane-sweep": "oamghost", "correlations": "oamghost"}


def blob_object(rng: np.random.Generator, side: int) -> tuple[np.ndarray, np.ndarray]:
    """Smooth seeded (intensity, phase) rasters on a side x side window.

    Three Gaussian blobs within the central half of the window, and a phase
    made of two low-order plane waves.
    """
    ax = (np.arange(side) + 0.5) / side - 0.5
    x, y = np.meshgrid(ax, ax[::-1])
    inten = np.zeros((side, side))
    for _ in range(3):
        cx, cy = rng.uniform(-0.15, 0.15, size=2)
        width = rng.uniform(0.05, 0.1)
        inten += rng.uniform(0.3, 1.0) * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / width ** 2)
    kx, ky = rng.uniform(-1.5, 1.5, size=2)
    phase = np.cos(2 * math.pi * kx * x) + np.sin(2 * math.pi * ky * y)
    return inten, phase


def make_image_cli(seed: int, out: str) -> None:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for kind, dump in IMAGE_ROUND:
        job = {"object": kind, "dump": dump,
               "sigma_g": float(rng.choice(IMAGE["sigma_g"])),
               "z1": float(rng.choice(IMAGE["planes"])),
               "z2": float(rng.choice(IMAGE["planes"]))}
        if kind != "clover":
            inten, phase = blob_object(rng, IMAGE["grid"])
            # 16-bit levels; the rasters the CLI reads are exactly these.
            write_pgm(os.path.join(out, f"{kind}_intensity.pgm"), np.rint(65535 * inten / inten.max()))
            span = phase.max() - phase.min()
            write_pgm(os.path.join(out, f"{kind}_phase.pgm"), np.rint(65535 * (phase - phase.min()) / span))
        jobs.append(job)
    with open(os.path.join(out, "jobs.json"), "w") as fh:
        json.dump({"jobs": jobs, "grid": IMAGE["grid"], "l_max": IMAGE["l_max"], "p_max": IMAGE["p_max"],
                   "sigma_s": SIGMA_S, "wavelength": WAVELENGTH}, fh, indent=1)


def make_plane_sweep(seed: int, out: str) -> None:
    rng = np.random.default_rng([seed, 2])
    sigma_g = float(rng.uniform(1e-4, 2e-4))
    z1 = float(rng.uniform(0.4, 0.6))
    planes = sorted(float(z) for z in rng.uniform(0.25, 1.0, size=PLANE["planes"]))
    beta = math.atan(2.0 * SIGMA_S / sigma_g)
    waist = 2.0 * SIGMA_S * math.sqrt(math.cos(beta))
    zr = math.pi * waist ** 2 / WAVELENGTH
    width = waist * math.hypot(1.0, max(planes + [z1]) / zr)
    # Half-width: the largest mode radius w sqrt(2p + |l| + 1) plus two widths.
    half = width * (1.3 * math.sqrt(2 * PLANE["p_max"] + PLANE["l_max"] + 1) + 2.0)
    spec = {"grid": PLANE["grid"], "extent": 2.0 * half, "l_max": PLANE["l_max"],
            "p_max": PLANE["p_max"], "sigma_s": SIGMA_S, "sigma_g": sigma_g,
            "wavelength": WAVELENGTH, "z1": z1, "planes": planes}
    objects = []
    for _ in range(PLANE["objects"]):
        inten, phase = blob_object(rng, PLANE["grid"])
        objects.append(np.sqrt(inten / inten.max()) * np.exp(1j * phase))
    np.save(os.path.join(out, "objects.npy"), np.array(objects))
    with open(os.path.join(out, "spec.json"), "w") as fh:
        json.dump(spec, fh, indent=1)


def _haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def make_correlations(seed: int, out: str) -> None:
    rng = np.random.default_rng([seed, 3])
    sep = []
    for l_max, p_max in CORR["separability"]:
        # Draw t, then sigma_g from tan(beta) = 2 sqrt(t) / (1 - t).
        t = float(rng.uniform(0.2, 0.6))
        sep.append({"l_max": l_max, "p_max": p_max,
                    "sigma_g": SIGMA_S * (1.0 - t) / math.sqrt(t)})
    brute, states = [], []
    for p_max, count in CORR["brute_force"]:
        for _ in range(count):
            sigma_g = float(rng.uniform(0.3, 1.5)) * SIGMA_S
            brute.append({"p_max": p_max, "sigma_g": sigma_g})
            # The normalized thermal state, turned by a local unitary on side
            # B: the discord is unchanged but the optimum moves away from the
            # search's starting basis.
            rho, _ = pair_state(spectrum(geometry(SIGMA_S, sigma_g)[0], 0, p_max))
            rot = np.kron(np.eye(p_max + 1), _haar_unitary(rng, p_max + 1))
            states.append(rot @ (rho / np.trace(rho)) @ rot.conj().T)
    lo, hi = float(rng.uniform(0.5, 0.7)), float(rng.uniform(8.0, 10.0))
    curve = dict(CORR["curve"], sigma_g=list(np.linspace(lo, hi, CORR["curve"]["samples"]) * SIGMA_S))
    csd = [{"l_max": l, "p_max": p, "grid": n, "sigma_g": float(rng.uniform(1e-4, 2e-4))}
           for l, p, n in CORR["csd"]]
    np.savez(os.path.join(out, "searches.npz"), *states)
    with open(os.path.join(out, "params.json"), "w") as fh:
        json.dump({"sigma_s": SIGMA_S, "separability": sep, "brute_force": brute,
                   "iterations": CORR["brute_force_iterations"], "curve": curve, "csd": csd}, fh, indent=1)


MAKERS = {"image-cli": make_image_cli, "plane-sweep": make_plane_sweep, "correlations": make_correlations}


if __name__ == "__main__":
    workload, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    importlib.import_module(ENTRY[workload])
    os.makedirs(out, exist_ok=True)
    MAKERS[workload](seed, out)
