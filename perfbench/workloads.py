"""Seeded job lists for the four benchmark workloads.

Every workload is a closed loop: one client runs its job list back to back.
A job is ``{"name", "command", "payload", "expect"}``, where ``expect`` is the
exit code the job must return (``1`` is an expected failing verdict, not an
error).  ``jobs(workload, seed)`` is a pure function of its arguments, except
for ``examples``, which reads the shipped ``docs/examples`` payloads.

The seed perturbs box positions, target coefficients and schedule offsets.
It never changes a size (cell counts, window lengths, grid shapes, bases), so
the work per pass is the same for every seed and only the numbers move.  All
perturbations stay in the program's domain: ``hi < 2*lo`` on every box axis,
every box lower bound above 1 (so ``r = 1`` is admissible) and strictly
increasing schedules.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable, Dict, List

WORKLOADS = ("sweep", "carac", "checkers", "examples")

# sweep: sigma = base**2 for base 2^10 .. 2^17, so q grows 2,601 -> 12,996
SWEEP_BASES = [2**k for k in range(10, 18)]
# carac: n_k = 100*k + offset_k for k = 1..30
CARAC_Q = 30
CARAC_STEP = 100
CARAC_MAX_OFFSET = 10
# checkers: the q = 256 log covering for criterion-check
CRITERION_BASE = 100
CRITERION_GRID = 16

# shipped examples in the examples workload; witness_sweep is left out
# because the sweep workload covers it
EXAMPLES = {
    "carac_check": "carac-check",
    "corollary_check": "corollary-check",
    "criterion_check": "criterion-check",
    "graded_cover_build": "cover-build",
    "log_cover_build": "cover-build",
    "orbit_probe": "orbit-probe",
    "unif_check": "unif-check",
    "witness_eval": "witness-eval",
}


def _job(name: str, command: str, payload: dict, expect: int = 0) -> dict:
    return {"name": name, "command": command, "payload": payload, "expect": expect}


def _seq(entries) -> dict:
    return {"entries": [[k, c] for k, c in entries]}


def _box(rng: random.Random, lo: float, width: float, shift: float):
    """A square 2-d box starting near ``lo``; hi < 2*lo holds for lo > width.

    Both axes move together: the covering tiles the square [min lo, max hi]^2,
    so a square box keeps every sampled parameter in the same cell for every
    seed, and with it the cell index that sets the evaluation work.
    """
    a = round(lo + rng.uniform(-shift, shift), 6)
    return [[a, round(a + width, 6)] for _ in range(2)]


def sweep_jobs(seed: int) -> List[dict]:
    rng = random.Random(seed)
    box = _box(rng, 1.2, 0.1, 0.03)
    v = [_seq([(0, round(rng.uniform(0.9, 1.1), 6)), (1, round(rng.uniform(0.45, 0.55), 6))]),
         _seq([(0, round(rng.uniform(0.9, 1.1), 6))])]
    payload = {
        "config": {
            "log_cov": {"box": box, "m": 2, "r": 1, "base": SWEEP_BASES[0]},
            "u": [_seq([]), _seq([])],
            "v": v,
            "eta": 0.05,
        },
        "bases": list(SWEEP_BASES),
        "grid_per_axis": 3,
    }
    return [_job("witness_sweep", "witness-sweep", payload)]


def carac_jobs(seed: int) -> List[dict]:
    rng = random.Random(seed)
    a = round(rng.uniform(1.45, 1.55), 6)
    schedule = [[CARAC_STEP * k + rng.randint(-CARAC_MAX_OFFSET, CARAC_MAX_OFFSET), [a]]
                for k in range(1, CARAC_Q + 1)]
    out = []
    # affine(0) fails its hypothesis probe H by a wide margin: exit 1 is its verdict
    for alpha, expect in ((0.0, 1), (0.4, 0)):
        payload = {
            "families": [{"variant": "affine", "alpha": alpha}],
            "schedule": schedule,
            "params": {
                "m": 3, "tau": 1.0, "N": 50, "eps": 1.0, "K": [[a, a]],
                "F": {"kind": "power", "D1": 1.0, "alpha": 0.5},
                "c": 0.5, "C": 2.0,
            },
        }
        out.append(_job(f"carac_affine{alpha}", "carac-check", payload, expect))
    return out


def log_covering(box, m: int, r: int, base: int, g: int) -> dict:
    """The JSON form of the log covering of ``box`` with g cells per axis.

    Written out here, not built by the program under test, so the criterion
    job's input does not depend on the code it measures.  Cell j (1-based,
    row-major, last axis fastest) carries N_j = (m-1)*base**m +
    base**(m-1) * (j+r)**r and tiles [a, b]^2 with a the least lower and b
    the greatest upper bound.
    """
    a = min(lo for lo, _ in box)
    b = max(hi for _, hi in box)
    side = (b - a) / g
    cells = []
    for j in range(1, g * g + 1):
        rows, cols = divmod(j - 1, g)
        cell_box = [[a + i * side, a + (i + 1) * side] for i in (rows, cols)]
        cells.append({
            "n": (m - 1) * base**m + base ** (m - 1) * (j + r) ** r,
            "anchor": [(lo + hi) / 2.0 for lo, hi in cell_box],
            "box": cell_box,
        })
    return {"kind": "log", "params": {"kind": "log", "box": box, "m": m, "r": r, "base": base},
            "cells": cells}


def checkers_jobs(seed: int) -> List[dict]:
    rng = random.Random(seed)
    box = _box(rng, 1.2, 0.1, 0.03)
    criterion = {
        "families": [{"variant": "pure_power"}, {"variant": "pure_power"}],
        "covering": log_covering(box, 2, 1, CRITERION_BASE, CRITERION_GRID),
        "v": [_seq([(0, round(rng.uniform(0.9, 1.1), 6)), (1, round(rng.uniform(0.45, 0.55), 6))]),
              _seq([(0, round(rng.uniform(0.9, 1.1), 6))])],
        "m_lo": 1, "m_hi": 2, "eps": 0.2, "samples_per_axis": 3,
    }
    u_lo = round(rng.uniform(0.95, 1.05), 6)
    unif = {
        "family": {"variant": "exp_alpha", "alpha": 0.4},
        "params": {
            "m_prime": 2, "alpha": 0.4, "C1": 2.0, "C2": 0.4, "beta": 0.9, "M0": 50.0,
            "N0": 50, "d": 2, "n_max": 1000, "k_max": 10000,
            "F": {"kind": "power", "D1": 2.0, "alpha": 0.4},
            "I0": {"lo": u_lo, "hi": round(u_lo + 1.0, 6), "points": 9},
        },
    }
    # the affine(0) growth floor D2*n passes with margin log(1 + 1/n) at lo = 1,
    # so lo only moves up from 1
    c_lo = round(rng.uniform(1.0, 1.05), 6)
    out = [_job("criterion_q256", "criterion-check", criterion),
           _job("unif_exp_alpha0.4", "unif-check", unif)]
    for alpha, expect in ((0.0, 0), (0.4, 1)):
        corollary = {
            "family": {"variant": "affine", "alpha": alpha},
            "I0": {"lo": c_lo, "hi": round(c_lo + 1.0, 6), "points": 9},
            "variant": 2,
            "constants": {"D1": 1.0, "D2": 1.0, "gamma": 1.0},
            "N": 5, "n_max": 10**6,
        }
        out.append(_job(f"corollary_affine{alpha}", "corollary-check", corollary, expect))
    return out


def examples_jobs(root: Path) -> List[dict]:
    """The shipped examples, unchanged; the seed plays no part."""
    docs = root / "docs" / "examples"
    return [_job(name, command, json.loads((docs / f"{name}.json").read_text()))
            for name, command in EXAMPLES.items()]


def cover_verify_job(graded_build: dict, covering: dict) -> dict:
    """cover-verify on the covering that the graded build job produced."""
    return _job("graded_cover_verify", "cover-verify",
                {"covering": covering, "K": graded_build["payload"]["K"]})


SEEDED: Dict[str, Callable[[int], List[dict]]] = {
    "sweep": sweep_jobs,
    "carac": carac_jobs,
    "checkers": checkers_jobs,
}
