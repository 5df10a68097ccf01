"""Run one workload in a fresh interpreter and print one JSON line.

``run.py`` starts this file once per set-up probe (``--setup-only``) and once
for the measured run.  The measured run builds the payloads, then runs the
job list back to back through ``shiftlab.cli.run`` until ``--seconds`` are
used, checking every report.  With ``--trace 1`` untraced and traced passes
alternate: the tracer (``tracer.Tracer``) is installed only around each traced
pass, the per-layer numbers come from the traced passes, and
``trace.overhead_s`` is the median difference of each traced pass and the
untraced pass just before it.  The spans go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

# set-up time starts before the first import of numpy, jsonschema or shiftlab
_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, tracer, workloads  # noqa: E402
import shiftlab  # noqa: E402
from shiftlab import cli  # noqa: E402


def build_jobs(workload: str, seed: int):
    if workload in workloads.SEEDED:
        return workloads.SEEDED[workload](seed)
    jobs = workloads.examples_jobs(ROOT)
    graded = next(j for j in jobs if j["name"] == "graded_cover_build")
    rc, text, err = run_job(graded)
    if rc != 0:
        raise RuntimeError(f"graded_cover_build exited {rc}: {err}")
    return jobs + [workloads.cover_verify_job(graded, json.loads(text))]


def run_job(job: dict):
    """(exit code or None if it raised, report text, stderr or error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run({"command": job["command"], "payload": job["payload"]})
        except Exception as e:  # a raising job is a failed job, not a failed benchmark
            return None, "", f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue()


class Runner:
    """Runs passes over one job list and checks every outcome."""

    def __init__(self, workload: str, seed: int, jobs):
        self.jobs = jobs
        self.ref = checks.load_ref(workload, seed)
        self.first_digest = {}
        self.attempted = 0
        self.failures = []
        self.job_s = {j["name"]: [] for j in jobs}

    def one_pass(self, trace=None, pass_id=None):
        results = []
        t = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if trace is None:
                t_job = time.perf_counter()
                results.append(run_job(job))
                self.job_s[job["name"]].append(time.perf_counter() - t_job)
            else:
                trace.job = (pass_id, i, job["name"])
                with trace.span(f"job.{job['command']}"):
                    results.append(run_job(job))
        wall = time.perf_counter() - t
        return wall, self.check(results)

    def check(self, results):
        """Checks outside the timed region; returns (report bytes, identical, evaluations)."""
        report_bytes = identical = evaluations = 0
        for job, (rc, text, err) in zip(self.jobs, results):
            self.attempted += 1
            ref = self.ref["jobs"][job["name"]] if self.ref else None
            d = checks.digest(text)
            new = job["name"] not in self.first_digest
            problems = checks.check_job(job, rc, text, err, ref, oracle=new)
            if self.first_digest.setdefault(job["name"], d) != d:
                problems.append("report bytes differ from the first pass")
            if problems:
                self.failures.append({"job": job["name"], "problems": problems[:5]})
                continue
            report_bytes += len(text.encode())
            identical += int(ref is not None and ref["sha256"] == d)
            report = json.loads(text)
            evaluations += sum(c["evaluations"] for c in report.get("conditions", {}).values())
        return report_bytes, identical, evaluations

    def passes_until(self, deadline: float, trace=None):
        """(untraced walls, traced walls, traced counts) of passes up to the deadline.

        At least one round; a round is one untraced pass, followed by one
        traced pass if a tracer is given.  Stops when the next round would end
        past the deadline.
        """
        walls, traced, counts = [], [], []
        while True:
            walls.append(self.one_pass()[0])
            if trace is not None:
                with trace.installed():
                    wall, count = self.one_pass(trace, len(traced))
                leftover = tracer.leftover_wrappers()
                if leftover:
                    raise SystemExit(f"wrappers left installed: {leftover}")
                traced.append(wall)
                counts.append(count)
            round_s = statistics.median(walls) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() + round_s > deadline:
                return walls, traced, counts


def traced_metrics(trace: tracer.Tracer, walls, counts, untraced_walls):
    """Median over traced passes of every per-layer number.

    The lower median keeps each value one that was measured (and counts whole).
    """
    per_pass = []
    for p, (report_bytes, identical, evaluations) in enumerate(counts):
        spans = [s for s in trace.spans if s.job[0] == p]
        m = tracer.layer_metrics(spans)
        for command in cli.COMMANDS:
            m[f"job.{command}.s"] = sum(s.duration for s in spans
                                        if s.name == f"job.{command}")
        m["cli.report_bytes"] = report_bytes
        m["cli.reports_identical"] = identical
        m["criteria.evaluations"] = evaluations
        per_pass.append(m)
    out = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    # names that do not follow <module>.<function>.<stat>
    for alias, name in (("cli.self_s", "cli.run.self_s"), ("cli.validate_s", "cli.validate.s"),
                        ("seqspace.SeqVec.constructions", "seqspace.SeqVec.__init__.calls"),
                        ("seqspace.SeqVec.entries", "seqspace.SeqVec.__init__.entries"),
                        ("witness.merged_rows", "witness.build_witness.merged_rows")):
        out[alias] = out.pop(name)
    out["trace.overhead_s"] = statistics.median(t - u for t, u in zip(walls, untraced_walls))
    return out


def conditions(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "seed": seed,
        # cli.run's default with no "threads" key and SHIFTLAB_THREADS unset
        "sweep_workers": os.cpu_count() or 1,
        "SHIFTLAB_THREADS": os.environ.get("SHIFTLAB_THREADS"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if not Path(shiftlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"shiftlab imported from {shiftlab.__file__}, not from this checkout")
    jobs = build_jobs(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    runner = Runner(args.workload, args.seed, jobs)
    trace = tracer.Tracer() if args.trace else None
    walls, traced_walls, counts = runner.passes_until(time.perf_counter() + args.seconds, trace)
    result = {"setup_s": setup_s, "wall_s": walls, "conditions": conditions(args.seed)}
    if trace is not None:
        result["traced_wall_s"] = traced_walls
        result["per_layer"] = traced_metrics(trace, traced_walls, counts, walls)
        result["orphan_leaf_calls"] = trace.orphans
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"conditions": result["conditions"], "spans": tracer.spans_json(trace.spans)}))
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "job_s": runner.job_s,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:20],
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
