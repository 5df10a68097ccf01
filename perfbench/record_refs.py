"""Record the reference outcomes that the output checks compare against.

    python3 perfbench/record_refs.py            # seeds 0 and 1

For every workload and seed this runs each job once and stores its exit
code, the SHA-256 of its report bytes and the parsed report under
``perfbench/refs/``.  ``examples`` does not depend on the seed and is stored
once.  Re-record only when a report is meant to change, and say why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import checks  # noqa: E402
from perfbench.worker import build_jobs, run_job  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

REF_SEEDS = (0, 1)  # the default seed and one held-out seed


def main() -> int:
    checks.REFS.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in REF_SEEDS[:1] if workload == "examples" else REF_SEEDS:
            jobs = {}
            for job in build_jobs(workload, seed):
                rc, text, err = run_job(job)
                problems = checks.check_job(job, rc, text, err)
                if problems:
                    raise SystemExit(f"{workload} seed {seed} {job['name']}: {problems}")
                jobs[job["name"]] = {"exit": rc, "sha256": checks.digest(text),
                                     "report": json.loads(text)}
            path = checks.ref_path(workload, seed)
            path.write_text(json.dumps({"workload": workload, "seed": seed, "jobs": jobs},
                                       sort_keys=True, separators=(",", ":")) + "\n")
            print(f"wrote {path.relative_to(checks.REFS.parent.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
