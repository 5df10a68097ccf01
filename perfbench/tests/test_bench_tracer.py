"""Self-time arithmetic and wrapper lifetime of the traced run."""

import pytest

import shiftlab
from perfbench import tracer
from perfbench.worker import build_jobs, run_job


def span(i, parent, start, end, leaf_time=0.0):
    return tracer.Span(i, f"s{i}", parent, None, 0, start, end, leaf_time=leaf_time)


def test_self_time_on_nested_spans():
    spans = [
        span(0, None, 0.0, 10.0, leaf_time=1.0),
        span(1, 0, 1.0, 4.0),       # overlaps span 2: the union [1, 6] counts once
        span(2, 0, 3.0, 6.0),
        span(3, 1, 2.0, 3.0),
        span(4, 3, 2.2, 2.7, leaf_time=0.5),
    ]
    own = tracer.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0 - 0.5)
    assert own[4] == pytest.approx(0.0)


def test_covered_clips_and_merges():
    assert tracer.covered([(2.0, 5.0), (-1.0, 1.0), (4.0, 12.0)], 0.0, 10.0) == 9.0
    assert tracer.covered([], 0.0, 1.0) == 0.0


def originals():
    out = {}
    for mod_name, attr, *_ in tracer.TARGETS:
        owner, name = tracer._resolve(getattr(shiftlab, mod_name), attr)
        out[(mod_name, attr)] = owner.__dict__[name]
    out["jsonschema"] = shiftlab.cli.jsonschema
    out["seq_norm"] = shiftlab.cli.seq_norm
    out["criteria.log_cum_window"] = shiftlab.criteria.log_cum_window
    return out


def test_traced_run_removes_every_wrapper_and_keeps_report_bytes():
    jobs = [j for j in build_jobs("examples", 0)
            if j["name"] in ("carac_check", "orbit_probe", "log_cover_build")]
    before = originals()
    untraced = [run_job(j) for j in jobs]
    trace = tracer.Tracer()
    with trace.installed():
        assert tracer.leftover_wrappers()
        for i, job in enumerate(jobs):
            trace.job = (0, i, job["name"])
            with trace.span(f"job.{job['command']}"):
                assert run_job(job) == untraced[i]
    assert tracer.leftover_wrappers() == []
    after = originals()
    assert all(after[k] is before[k] for k in before)

    m = tracer.layer_metrics(trace.spans)
    assert m["cli.run.calls"] == len(jobs)
    assert m["cli.validate.calls"] == len(jobs)
    assert m["covering.build_log_covering.calls"] == 1
    assert m["weights.log_cum_window.calls"] > 0
    assert m["weights.log_cum_prefix.calls"] > 0
    assert m["criteria.check_carac_conditions.self_s"] <= m["criteria.check_carac_conditions.s"]


def test_wrappers_removed_when_a_job_raises():
    trace = tracer.Tracer()
    with pytest.raises(ZeroDivisionError):
        with trace.installed():
            1 / 0
    assert tracer.leftover_wrappers() == []
