"""The output checks recompute checker reports for any seed."""

import copy
import json

import pytest

import shiftlab.criteria
from perfbench import checks
from perfbench.worker import build_jobs, run_job

ORACLE_JOBS = [j for j in build_jobs("examples", 0) if j["command"] in checks.ORACLES]


@pytest.mark.parametrize("job", ORACLE_JOBS, ids=[j["name"] for j in ORACLE_JOBS])
def test_oracle_accepts_the_report_and_catches_a_moved_value(job):
    rc, text, err = run_job(job)
    assert checks.check_job(job, rc, text, err) == []
    report = json.loads(text)
    caught = 0
    for name in report["conditions"]:
        moved = copy.deepcopy(report)
        moved["conditions"][name]["achieved"] *= 1 + 1e-5
        caught += bool(checks.ORACLES[job["command"]](job, moved))
    assert caught >= 1


def test_a_window_offset_off_by_one_fails_the_carac_check(monkeypatch):
    job = next(j for j in ORACLE_JOBS if j["command"] == "carac-check")
    window = shiftlab.criteria.log_cum_window
    monkeypatch.setattr(shiftlab.criteria, "log_cum_window",
                        lambda fam, lam, l, n: window(fam, lam, l + 1 if l else l, n))
    rc, text, err = run_job(job)
    assert any(p.startswith("carac iii") for p in checks.check_job(job, rc, text, err))
