"""shiftlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload carac --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seconds 36    # every workload in turn

Run from any directory; the checkout is found from this file's location and
shiftlab is imported from its ``src/``.  Each workload runs in fresh
interpreters (``worker.py``): several set-up probes, then one measured run.
``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record, with the
run conditions, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"  # worker.py writes traced runs' spans here too
SETUP_PROBES = 4  # with the measured run's own set-up, setup_s is a median of 5
BUDGET_S = 170.0  # one invocation per workload ends within 180 s


class BenchError(RuntimeError):
    pass


def summary(values):
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def worker(args, deadline: float, env: dict) -> dict:
    """Run worker.py to completion within the deadline; its last line is JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget used up before the measured run")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as e:  # run() has killed and reaped the child
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int):
    """(metrics as in BENCHMARK.json, full record) for one workload."""
    deadline = time.monotonic() + BUDGET_S
    # jobs run with the CLI's default thread setting
    env = {k: v for k, v in os.environ.items() if k != "SHIFTLAB_THREADS"}
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setups = [worker(common + ["--setup-only"], deadline, env)["setup_s"]
              for _ in range(SETUP_PROBES)]
    main = worker(common + ["--trace", str(trace)], deadline, env)
    setups.append(main["setup_s"])

    end_to_end = {"wall_s": summary(main["wall_s"]), "setup_s": summary(setups),
                  "peak_rss_mb": summary([main["peak_rss_mb"]])}
    if trace:
        names = spec["per_layer"]
        values = {m["name"]: main["per_layer"][m["name"]] for m in names}
    else:
        names = spec["end_to_end"]
        values = {m["name"]: end_to_end[m["name"]]["median"] for m in names}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "conditions": main["conditions"],
        "end_to_end": end_to_end,
        "samples": {"wall_s": main["wall_s"], "setup_s": setups},
        "fail_ratio": main["failed"] / main["attempted"],
        "attempted": main["attempted"], "failed": main["failed"],
        "failures": main["failures"],
        "job_s": {k: summary(v) for k, v in main["job_s"].items() if v},
        "per_layer": main.get("per_layer"),
        "traced_wall_s": main.get("traced_wall_s"),
        "orphan_leaf_calls": main.get("orphan_leaf_calls"),
        "metrics": metrics,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return metrics, record


def print_table(record: dict):
    c = record["conditions"]
    print(f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={c['nproc']} python={c['python']} numpy={c['numpy']} "
          f"jsonschema={c['jsonschema']} sweep_workers={c['sweep_workers']}")
    if record["trace"]:
        for name, m in record["metrics"].items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        for name, s in record["end_to_end"].items():
            unit = record["metrics"][name]["unit"]
            print(f"  {name:<12} median {s['median']:>10.4f} {unit:<3} "
                  f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} n {s['n']}")
    print(f"  {'fail_ratio':<12} {record['fail_ratio']:.4g} "
          f"({record['failed']} of {record['attempted']} jobs failed)")
    for f in record["failures"][:5]:
        print(f"    {f['job']}: {'; '.join(f['problems'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shiftlab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time per run (run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("BENCHMARK.json", "src/shiftlab/__init__.py", "docs/examples")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not a shiftlab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for w in chosen:
            m, record = run_workload(spec, w, args.seed, args.seconds, args.trace)
            print_table(record)
            prefix = f"{w}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            attempted += record["attempted"]
            failed += record["failed"]
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
