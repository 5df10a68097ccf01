"""The seeded generator: deterministic, schema-valid and in-domain."""

import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from perfbench import workloads
from perfbench.worker import build_jobs
from shiftlab.covering import LogCoveringParams, build_log_covering

ROOT = Path(__file__).resolve().parents[2]
SEEDS = (0, 1, 2, 17, 123456)


def schema(command):
    name = command.replace("-", "_") + ".schema.json"
    return json.loads(resources.files("shiftlab.schemas").joinpath(name).read_text())


@pytest.mark.parametrize("workload", sorted(workloads.SEEDED))
def test_deterministic_per_seed(workload):
    gen = workloads.SEEDED[workload]
    for seed in SEEDS:
        assert json.dumps(gen(seed)) == json.dumps(gen(seed))
    assert json.dumps(gen(0)) != json.dumps(gen(1))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_payloads_pass_their_schema(workload):
    for seed in SEEDS[:2] if workload == "examples" else SEEDS:
        for job in build_jobs(workload, seed):
            jsonschema.validate(job["payload"], schema(job["command"]))


def test_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        (sweep,) = workloads.sweep_jobs(seed)
        carac = workloads.carac_jobs(seed)
        checkers = workloads.checkers_jobs(seed)
        return (sweep["payload"]["bases"], sweep["payload"]["grid_per_axis"],
                [len(j["payload"]["schedule"]) for j in carac],
                len(checkers[0]["payload"]["covering"]["cells"]),
                [j["payload"].get("n_max") for j in checkers])

    assert all(sizes(seed) == sizes(0) for seed in SEEDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_payloads_stay_in_domain(seed):
    (sweep,) = workloads.sweep_jobs(seed)
    criterion = workloads.checkers_jobs(seed)[0]["payload"]
    for box in (sweep["payload"]["config"]["log_cov"]["box"],
                criterion["covering"]["params"]["box"]):
        for lo, hi in box:
            assert 1.0 < lo < hi < 2.0 * lo  # lo > 1 admits r = 1
    for job in workloads.carac_jobs(seed):
        ns = [n for n, _ in job["payload"]["schedule"]]
        assert all(b > a for a, b in zip(ns, ns[1:]))
        assert ns[0] >= job["payload"]["params"]["N"]


def test_generated_covering_is_the_library_log_covering():
    cov = workloads.checkers_jobs(5)[0]["payload"]["covering"]
    params = LogCoveringParams.from_json_dict(cov["params"])
    built = build_log_covering(params, q_override=workloads.CRITERION_GRID**2)
    assert built.to_json_dict() == json.loads(json.dumps(cov))


def test_examples_are_shipped_payloads():
    jobs = workloads.examples_jobs(ROOT)
    for job in jobs:
        shipped = json.loads((ROOT / "docs" / "examples" / f"{job['name']}.json").read_text())
        assert job["payload"] == shipped
    assert "witness_sweep" not in {j["name"] for j in jobs}
