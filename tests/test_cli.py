"""Tests for the batch CLI: exit codes, determinism, schemas, orbit probe."""

import collections
import csv
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import pytest

from shiftlab.cli import main, orbit_probe, run
from shiftlab.covering import LogCoveringParams, build_log_covering
from shiftlab.seqspace import L1, SUP, SeqVec, SpaceNorm, basis, norm
from shiftlab.weights import WeightFamily, log_cum_prefix
from shiftlab.witness import WitnessConfig, build_witness, eval_analytic

PP = WeightFamily.pure_power()

GRADED_PARAMS = {"alpha": 0.3, "beta": 0.7, "D": 0.3, "tau": 0.055,
                 "eta": 2.0, "N": 150, "d": 2}
K_SMALL = [[1.0, 1.02], [1.0, 1.02]]
EXAMPLES = Path(__file__).resolve().parent.parent / "docs" / "examples"
# every docs/examples payload and the command that runs it
EXAMPLE_COMMANDS = {
    "carac_check": "carac-check",
    "corollary_check": "corollary-check",
    "criterion_check": "criterion-check",
    "graded_cover_build": "cover-build",
    "log_cover_build": "cover-build",
    "orbit_probe": "orbit-probe",
    "unif_check": "unif-check",
    "witness_build": "witness-build",
    "witness_eval": "witness-eval",
    "witness_sweep": "witness-sweep",
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def witness_cfg_json(base=100, q=4):
    cov = build_log_covering(
        LogCoveringParams(box=((1.2, 1.3), (1.2, 1.3)), m=2, r=1, base=base),
        q_override=q)
    return {
        "log_cov": {"box": [[1.2, 1.3], [1.2, 1.3]], "m": 2, "r": 1, "base": base},
        "u": [{"entries": []}, {"entries": []}],
        "v": [{"entries": [[0, 1.0]]}, {"entries": [[0, 1.0]]}],
        "eta": 0.5,
        "cov_override": cov.to_json_dict(),
    }


def numeric_leaves(obj, path=()):
    """Paths to the int and float leaves of a JSON value, in document order."""
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return [path]
    else:
        return []
    return [leaf for k, v in obj for leaf in numeric_leaves(v, path + (k,))]


def with_leaf(payload, path, value):
    """A copy of the payload with the leaf at ``path`` set to ``value``."""
    payload = json.loads(json.dumps(payload))
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return payload


class TestCoverCommands:
    def test_build_verify_pipeline(self, tmp_path):
        build_cfg = write(tmp_path, "build.json",
                          {"kind": "graded", "K": K_SMALL, "params": GRADED_PARAMS})
        cov_out = str(tmp_path / "cov.json")
        assert main(["cover-build", "--config", build_cfg, "--out", cov_out]) == 0
        params = write(tmp_path, "params.json",
                       {"K": K_SMALL, "params": GRADED_PARAMS})
        rep_out = str(tmp_path / "verify.json")
        code = main(["cover-verify", "--in", cov_out, "--params", params,
                     "--out", rep_out])
        assert code == 0
        rep = json.loads(Path(rep_out).read_text())
        assert rep["pass"] is True
        assert set(rep["properties"]) == {"a", "b_containment", "b_cover", "c", "d", "e"}

    def test_verify_failure_exit_one_report_written(self, tmp_path):
        cells = [{"n": 100 * 2**j, "anchor": [0.0, 0.0],
                  "box": [[0.0, 1.0], [0.0, 1.0]]} for j in range(4)]
        cov = write(tmp_path, "cov.json", {"cells": cells})
        params = write(tmp_path, "p.json", {
            "K": [[0.0, 1.0], [0.0, 1.0]],
            "params": {"alpha": 0.3, "beta": 1.0, "D": 100.0, "tau": 1000.0,
                       "eta": 0.01, "N": 1, "d": 2}})
        out = str(tmp_path / "rep.json")
        code = main(["cover-verify", "--in", cov, "--params", params, "--out", out])
        assert code == 1
        rep = json.loads(Path(out).read_text())
        assert rep["pass"] is False
        assert rep["properties"]["d"]["achieved"] == pytest.approx(0.01875, rel=1e-15)

    def test_graded_cap_past_double_range_does_not_bind(self, capsys):
        # (tau*g/S)**(1/alpha) passes the double range at S = 1e-4 and
        # alpha = 0.01: the containment cap does not bind, so one cell at
        # n = N covers K
        payload = {"kind": "graded", "K": [[1.0, 1.0001]],
                   "params": {"alpha": 0.01, "beta": 0.3, "D": 0.5, "tau": 1.0,
                              "eta": 1.4, "N": 290, "d": 1}}
        assert run({"command": "cover-build", "payload": payload}) == 0
        built = capsys.readouterr()
        assert built.err == ""
        cov = json.loads(built.out)
        assert [c["n"] for c in cov["cells"]] == [290]
        del cov["meta"]
        assert run({"command": "cover-verify",
                    "payload": {"covering": cov, "K": payload["K"]}}) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_log_cover_build(self, tmp_path):
        cfg = write(tmp_path, "log.json",
                    {"kind": "log",
                     "params": {"box": [[1.2, 1.3], [1.2, 1.3]], "m": 2, "r": 1,
                                "base": 4}})
        out = str(tmp_path / "cov.json")
        assert main(["cover-build", "--config", cfg, "--out", out]) == 0
        cov = json.loads(Path(out).read_text())
        assert len(cov["cells"]) == 16
        assert cov["cells"][0]["n"] == 24


class TestExitCodeContract:
    def test_invalid_invariant_exit_two_no_file(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {
            "family": {"variant": "pure_power"},
            "params": {"m_prime": 2, "alpha": 0.4, "C1": 2.0, "C2": 0.4,
                       "beta": 0.5, "M0": 1.0, "N0": 10,
                       "F": {"kind": "power", "D1": 2.0, "alpha": 0.4},
                       "n_max": 50, "k_max": 50,
                       "I0": {"lo": 1.0, "hi": 2.0, "points": 3}, "d": 2}})
        out = str(tmp_path / "never.json")
        code = main(["unif-check", "--config", bad, "--out", out])
        assert code == 2
        assert not os.path.exists(out)
        err = capsys.readouterr().err
        assert "beta" in err and "alpha*d" in err

    def test_criterion_check_bad_beta_exit_two(self, tmp_path, capsys):
        # invalid invariant embedded in the covering params: beta <= alpha*d
        bad = write(tmp_path, "bad.json", {
            "families": [{"variant": "affine", "alpha": 0.0}] * 2,
            "covering": {
                "kind": "graded",
                "params": {"kind": "graded", "alpha": 0.4, "beta": 0.7,
                           "D": 1.0, "tau": 1.0, "eta": 0.5, "N": 10, "d": 2},
                "cells": [{"n": 10, "anchor": [1.0, 1.0],
                           "box": [[1.0, 1.05], [1.0, 1.05]]}],
            },
            "v": [{"entries": [[0, 1.0]]}] * 2,
            "m_lo": 1, "m_hi": 1, "eps": 0.5,
        })
        assert main(["criterion-check", "--config", bad]) == 2
        err = capsys.readouterr().err
        assert "beta" in err

    def test_schema_violation_exit_two(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.json", {"families": "nope"})
        assert main(["criterion-check", "--config", bad]) == 2
        assert "schema" in capsys.readouterr().err

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["orbit-probe", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        assert run({"command": "no-such-thing", "payload": {}}) == 2

    def test_infeasible_graded_build_exit_two(self, tmp_path, capsys):
        cfg = write(tmp_path, "b.json", {
            "kind": "graded", "K": [[0.0, 1.0], [0.0, 1.0]],
            "params": {"alpha": 0.3, "beta": 0.7, "D": 1.0, "tau": 1.0,
                       "eta": 0.5, "N": 10, "d": 2}})
        out = str(tmp_path / "no.json")
        assert main(["cover-build", "--config", cfg, "--out", out]) == 2
        assert not os.path.exists(out)
        assert "diam" in capsys.readouterr().err

    def test_witness_collision_exit_two(self, tmp_path, capsys):
        payload = {"config": witness_cfg_json(base=4, q=4)}
        job = {"command": "witness-build", "payload": payload,
               "output": {"format": "json", "path": str(tmp_path / "w.json")}}
        assert run(job) == 2
        assert not (tmp_path / "w.json").exists()
        assert "collision" in capsys.readouterr().err

    def test_unopenable_output_exit_two(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "dir" / "x.json")
        cfg = write(tmp_path, "log.json", {"kind": "log", "params": {
            "box": [[1.2, 1.3], [1.2, 1.3]], "m": 2, "r": 1, "base": 4}})
        assert main(["cover-build", "--config", cfg, "--out", out]) == 2
        job = {"command": "cover-build", "payload": json.loads(Path(cfg).read_text()),
               "output": {"format": "json", "path": out}}
        assert run(job) == 2
        assert not os.path.exists(out)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all(e.startswith("shiftlab: config error:") and "x.json" in e for e in err)

    def test_unif_check_huge_k_max_exits_two(self, tmp_path, capsys):
        # k_max = 2**63 does not fit an int64 arange; the guard reads the integers
        payload = json.loads((EXAMPLES / "unif_check.json").read_text())
        payload["params"]["k_max"] = 2**63
        out = tmp_path / "unif.json"
        job = {"command": "unif-check", "payload": payload,
               "output": {"format": "json", "path": str(out)}}
        assert run(job) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: n_max*k_max grid too large; lower the evaluation bounds"]
        assert not out.exists()

    @staticmethod
    def run_exit_two(job, capsys):
        """stderr lines of a job that exits 2, writes no stdout and warns of no overflow."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(job) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        out, err = capsys.readouterr()
        assert out == ""
        return err.splitlines()

    def test_graded_bound_past_the_double_range_exits_two(self, capsys):
        # D*|n_l - n_j|**alpha overflows before its division by n_l**alpha,
        # in the search's (c) screen and in verify_graded alike
        build = json.loads((EXAMPLES / "graded_cover_build.json").read_text())
        assert run({"command": "cover-build", "payload": build}) == 0
        cov = json.loads(capsys.readouterr().out)
        del cov["meta"]
        build["params"]["D"] = 1e308
        verify = {"covering": cov, "K": build["K"], "params": build["params"]}
        for command, payload in (("cover-build", build), ("cover-verify", verify)):
            assert self.run_exit_two({"command": command, "payload": payload}, capsys) == [
                "shiftlab: config error: D*|n_l - n_j|**alpha overflows the double range"]

    def test_log_covering_past_the_cell_cap_exits_two(self, monkeypatch, capsys):
        # m = 10**6 at base 100 asks for about 9.9e9 cells per axis, a 73.6 GiB
        # edge array: the cap reads q from the integers, so no grid is built,
        # and where m*log(base) alone puts q far past it, sigma is not formed
        from shiftlab import covering

        box = [[1.2, 1.3], [1.2, 1.3]]
        cap = "exceeds the cap of 1000000"
        cases = [({"kind": "log", "params": {"box": box, "m": m, "r": 1, "base": 100}},
                  f"log covering over sigma = 100**{m} {cap} cells") for m in (10**6, 10**400)]
        cases.append(({"kind": "log", "params": {"box": box, "m": 2, "r": 1, "base": 100},
                       "q_override": 1001**2}, f"log covering of q = 1002001 cells {cap}"))
        cfg = witness_cfg_json()
        del cfg["cov_override"]
        cfg["log_cov"]["base"] = 10**22  # (log sigma)^3 = 1.04e6 cells, q = 1019**2
        cases.append(({"config": cfg}, f"log covering of q = {1019**2} cells {cap}"))

        def no_grid(K, g):
            raise AssertionError(f"a grid of {g} cells per axis was built")

        def small_sigma(p):
            assert p.m < 100, f"sigma = {p.base}**{p.m} was formed"
            return p.base**p.m

        monkeypatch.setattr(covering, "_grid_boxes", no_grid)
        monkeypatch.setattr(covering.LogCoveringParams, "sigma", property(small_sigma))
        for payload, line in cases:
            command = "witness-build" if "config" in payload else "cover-build"
            assert self.run_exit_two({"command": command, "payload": payload}, capsys) == [
                f"shiftlab: config error: {line}"]

    def test_separator_floor_past_the_digit_limit_is_named_without_sigma(
            self, monkeypatch, capsys):
        # with cov_override, (m-1)*sigma at base 100 has 4,300 digits at
        # m = 2148, int-to-str's limit, and more from m = 2149 on: there the
        # N_1 test names sigma as 100**m and never forms it
        def small_sigma(p):
            assert p.m <= 2148, f"sigma = {p.base}**{p.m} was formed"
            return p.base**p.m

        monkeypatch.setattr(LogCoveringParams, "sigma", property(small_sigma))
        payload = json.loads((EXAMPLES / "witness_eval.json").read_text())
        head = "shiftlab: config error: cell power N_1 = 10200 smaller than (m-1)*sigma = "
        for m, floor in ((2148, "2147" + "0" * 4296), (2149, "2148*100**2149"),
                         (3000, "2999*100**3000"), (10**6, "999999*100**1000000")):
            payload["config"]["log_cov"]["m"] = m
            assert self.run_exit_two({"command": "witness-eval", "payload": payload},
                                     capsys) == [head + floor]

    def test_carac_norm_past_the_double_range_is_named(self, capsys):
        # geometric at lambda = 0.5: the (iii) tail at k = 0 holds the log
        # coefficient (n_2 - n_0)*log 2 = 1386; (ii)'s -n_k*log(0.5)/m passes
        # 709 on axis 1 at n_k = 2000 with m = 1
        payload = json.loads((EXAMPLES / "carac_check.json").read_text())
        payload["families"] = [{"variant": "geometric"}]
        payload["schedule"] = [[n, [0.5]] for n in (1000, 2000, 3000)]
        payload["params"]["K"] = [[0.5, 0.5]]
        job = {"command": "carac-check", "payload": payload}
        assert self.run_exit_two(job, capsys) == [
            "shiftlab: config error: the (iii) norm at k = 0 on axis 0 overflows the double range"]
        payload["families"] = [{"variant": "geometric"}] * 2
        payload["schedule"] = [[n, [1.5, 0.5]] for n in (1030, 2000)]
        payload["params"].update(K=[[1.5, 1.5], [0.5, 0.5]], m=1)
        assert self.run_exit_two(job, capsys) == [
            "shiftlab: config error: the (ii) norm on axis 1 overflows the double range"]

    def test_orbit_past_the_double_range_is_named(self, capsys):
        # T^N e_2000 = 3**N e_(2000-N) under geometric weights at lambda = 3
        payload = json.loads((EXAMPLES / "orbit_probe.json").read_text())
        payload.update(families=[{"variant": "geometric"}], n_max=2000,
                       x=[{"entries": [[2000, 1.0]]}])
        payload["lambda"] = [3.0]
        assert self.run_exit_two({"command": "orbit-probe", "payload": payload}, capsys) == [
            "shiftlab: config error: T^N x at N = 647 overflows the double range"]

    @pytest.mark.parametrize("name,path,value", [
        ("graded_cover_build", ("params", "D"), math.nan),
        ("corollary_check", ("constants", "D2"), math.inf),
        ("carac_check", ("params", "tau"), math.nan),
    ], ids=["graded_D_nan", "corollary_D2_inf", "carac_tau_nan"])
    def test_non_finite_json_number_exits_two(self, name, path, value, tmp_path, capsys):
        # Python's json writes and reads NaN and Infinity; no job may run on them
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        payload[path[0]][path[1]] = value
        cfg = write(tmp_path, "cfg.json", payload)
        assert ("NaN" if math.isnan(value) else "Infinity") in Path(cfg).read_text()
        out = tmp_path / "report.json"
        assert main([EXAMPLE_COMMANDS[name], "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"shiftlab: config error: non-finite number {value} at payload/{'/'.join(path)}"]
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(EXAMPLE_COMMANDS))
    def test_every_non_finite_leaf_exits_two(self, name, tmp_path, capsys):
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        for path in numeric_leaves(payload):
            for value in (math.nan, math.inf, -math.inf):
                job = {"command": EXAMPLE_COMMANDS[name],
                       "payload": with_leaf(payload, path, value),
                       "output": {"format": "json", "path": str(tmp_path / "mutant.json")}}
                assert run(job) == 2, (path, value)
                assert capsys.readouterr().err.splitlines() == [
                    f"shiftlab: config error: non-finite number {value} at "
                    f"payload/{'/'.join(map(str, path))}"], (path, value)
        assert not (tmp_path / "mutant.json").exists()

    # (edit of the criterion example, path of a number the edit adds, whether
    # the edited payload is valid)
    UNVISITED = {
        "top-level-key": (lambda p: p.update(extra={"deep": [1.0, 0.0]}), ("extra", "deep", 1), True),
        "params-key": (lambda p: p["covering"]["params"].update(extra=0.0),
                       ("covering", "params", "extra"), True),
        "cell-key": (lambda p: p["covering"]["cells"][2].update(extra=[0.0]),
                     ("covering", "cells", 2, "extra", 0), True),
        "tuple-tail": (lambda p: p["v"][0]["entries"][0].append(0.0),
                       ("v", 0, "entries", 0, 2), False),  # past maxItems 2
        "eps-and-schema-error": (lambda p: p["covering"]["cells"][3].update(n=0), ("eps",), False),
    }

    @pytest.mark.parametrize("case", sorted(UNVISITED))
    def test_non_finite_number_no_subschema_reaches_exits_two(self, case, capsys):
        # no subschema visits the number at the first four paths, and the
        # last payload fails the schema elsewhere; each non-finite number is
        # reported before any schema message
        edit, path, valid = self.UNVISITED[case]
        payload = json.loads((EXAMPLES / "criterion_check.json").read_text())
        edit(payload)
        assert (run({"command": "criterion-check", "payload": payload}) == 0) == valid
        capsys.readouterr()
        for value in (math.nan, math.inf, -math.inf):
            job = {"command": "criterion-check", "payload": with_leaf(payload, path, value)}
            assert run(job) == 2, (path, value)
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == [f"shiftlab: config error: non-finite number {value} "
                                        f"at payload/{'/'.join(map(str, path))}"], (path, value)

    @pytest.mark.parametrize("n_1,profile", [
        (0, {"kind": "power", "D1": 1.0, "alpha": 0.5}),
        (-1, {"kind": "power", "D1": 1.0, "alpha": 0.5}),
        (1, {"kind": "log", "D1": 1.0}),
    ])
    def test_carac_check_rejects_zero_profile_at_schedule_power(
            self, tmp_path, capsys, n_1, profile):
        # F(n_1) = 0 would divide the box radius tau / F(n_1) by zero
        payload = json.loads((EXAMPLES / "carac_check.json").read_text())
        payload["schedule"][0][0] = n_1
        payload["params"]["F"] = profile
        out = tmp_path / "carac.json"
        job = {"command": "carac-check", "payload": payload,
               "output": {"format": "json", "path": str(out)}}
        assert run(job) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("shiftlab: config error:")
        assert not out.exists()

    # numeric leaves per payload in the mutation test below; all leaves times
    # all values is about 1,800 runs and a minute, this subset about 110 runs
    LEAVES_PER_PAYLOAD = 16
    MUTANTS = (0, 1, -1, 0.5, 2, 1e-300)

    def assert_contract(self, command, payload, path, value, tmp_path, capsys):
        job = {"command": command, "payload": with_leaf(payload, path, value),
               "output": {"format": "json", "path": str(tmp_path / "mutant.json")}}
        code = run(job)
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 1, 2), (path, value)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("shiftlab: config error:"), \
                (path, value, err)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_COMMANDS))
    def test_mutated_example_keeps_exit_contract(self, name, tmp_path, capsys):
        # one numeric leaf set to an edge value: exit 0, 1 or 2, never a raise,
        # and exit 2 prints exactly one config-error line
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        if name == "witness_sweep":
            payload["bases"] = payload["bases"][:2]
        leaves = numeric_leaves(payload)
        stride = -(-len(leaves) // self.LEAVES_PER_PAYLOAD)
        for i, path in enumerate(leaves[::stride]):
            value = self.MUTANTS[i % len(self.MUTANTS)]
            self.assert_contract(EXAMPLE_COMMANDS[name], payload, path, value,
                                 tmp_path, capsys)

    @pytest.mark.parametrize("value", MUTANTS)
    def test_mutated_first_schedule_power_keeps_exit_contract(self, value, tmp_path, capsys):
        payload = json.loads((EXAMPLES / "carac_check.json").read_text())
        self.assert_contract("carac-check", payload, ("schedule", 0, 0), value,
                             tmp_path, capsys)

    def test_criterion_check_product_is_coordinatewise_only(self, tmp_path, capsys):
        # the checker computes coordinatewise displays only, so the schema
        # admits no other product
        payload = json.loads((EXAMPLES / "criterion_check.json").read_text())
        golden = Path(__file__).resolve().parent / "golden" / "criterion_check.json"
        out = tmp_path / "crit.json"
        job = {"command": "criterion-check", "payload": dict(payload, product="convolution"),
               "output": {"format": "json", "path": str(out)}}
        assert run(job) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("shiftlab: config error:")
        assert not out.exists()
        job["payload"] = dict(payload, product="coordinatewise")
        assert run(job) == 0
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("name,path,value", [
        *(("orbit_probe", ("x", 0, "entries", 0), pair)
          for pair in ([0.5, 1.0], ["1", 1.0], [True, 1.0], [1, "2.5"], [1, True])),
        ("witness_eval", ("config", "families"), []),
    ], ids=["index_0.5", "index_str", "index_true", "coeff_str", "coeff_true", "no_families"])
    def test_malformed_shared_form_exits_two(self, name, path, value, tmp_path, capsys):
        # a sequence entry is [integer >= 0, number] and nothing is coerced
        # into one; a families list is never empty ([] ran pure_power on
        # every axis of a witness config)
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        out = tmp_path / "report.json"
        job = {"command": EXAMPLE_COMMANDS[name], "payload": with_leaf(payload, path, value),
               "output": {"format": "json", "path": str(out)}}
        assert run(job) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("shiftlab: config error:"), err
        assert not out.exists()


    def test_csv_of_a_command_without_csv_form_exits_two(self, capsys):
        payload = json.loads((EXAMPLES / "log_cover_build.json").read_text())
        job = {"command": "cover-build", "payload": payload, "output": {"format": "csv"}}
        assert run(job) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "shiftlab: config error: cover-build has no CSV form\n"

    def test_cover_verify_without_graded_params_exits_two(self, capsys):
        cov = build_log_covering(
            LogCoveringParams(box=((1.2, 1.3), (1.2, 1.3)), m=2, r=1, base=4), q_override=4)
        payload = {"covering": cov.to_json_dict(), "K": [[1.2, 1.3], [1.2, 1.3]]}
        assert run({"command": "cover-verify", "payload": payload}) == 2
        assert capsys.readouterr().err == ("shiftlab: config error: graded parameters missing"
                                          " (neither payload nor covering has them)\n")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = write(tmp_path, "sweep.json",
                    {"config": witness_cfg_json(), "bases": [100, 200],
                     "grid_per_axis": 2})
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        job = {"command": "witness-sweep",
               "payload": json.loads(Path(cfg).read_text()),
               "seed": 5}
        job["payload"]["config"].pop("cov_override")
        for out in (out1, out2):
            job["output"] = {"format": "csv", "path": out}
            assert run(job) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_json_report_contains_seed(self, tmp_path, capsys):
        cfg = {"families": [{"variant": "pure_power"}], "lambda": [1.5],
               "x": [{"entries": [[0, 0.05]]}],
               "targets": [[{"entries": [[0, 0.05]]}]],
               "eps": 0.1, "n_max": 5}
        job = {"command": "orbit-probe", "payload": cfg, "seed": 99,
               "output": {"format": "json", "path": None}}
        assert run(job) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["meta"]["seed"] == 99


class TestWitnessCommands:
    def test_witness_build_reports(self, tmp_path, capsys):
        cfg = {"config": witness_cfg_json(), "include_coeffs": False}
        job = {"command": "witness-build", "payload": cfg,
               "output": {"format": "json", "path": None}}
        assert run(job) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["q"] == 4
        assert rep["powers"] == [10200, 10300, 10400, 10500]
        assert "coeffs" not in rep

    def test_witness_eval_analytic_vs_bruteforce(self, tmp_path):
        base_payload = {"config": witness_cfg_json(), "lambda": [1.24, 1.27]}
        outs = {}
        for path_kind in ("analytic", "bruteforce"):
            out = str(tmp_path / f"{path_kind}.json")
            payload = dict(base_payload, path=path_kind)
            job = {"command": "witness-eval", "payload": payload,
                   "output": {"format": "json", "path": out}}
            assert run(job) == 0
            outs[path_kind] = json.loads(Path(out).read_text())
        a, b = outs["analytic"], outs["bruteforce"]
        assert a["pass"] and b["pass"]
        for key in ("p1_err", "p2_norm", "p3_norm"):
            for x, y in zip(a[key], b[key]):
                assert x == pytest.approx(y, rel=1e-9)

    @staticmethod
    def geometric_sweep(box, m, r, base):
        cfg = {"log_cov": {"box": [box], "m": m, "r": r, "base": base},
               "u": [{"entries": []}], "v": [{"entries": [[0, 1.0]]}], "eta": 0.05,
               "families": [{"variant": "geometric"}]}
        return {"command": "witness-sweep", "payload": {"config": cfg, "bases": [base]}}

    @pytest.mark.parametrize("box, m, r, base, what", [
        ([1.15, 1.51], 3, 1, 96, "P1 on axis 0 at lambda = 1.33"),  # in eval_analytic
        ([0.6, 0.9], 2, 2, 40, "the separator coefficient eps on axis 0 at lambda = 0.6"),
        # the fifth cell's anchor: base*(j + r)**r*log(1/anchor) passes 709 at j = 5
        ([0.6, 0.9], 2, 2, 37, "a d-coefficient on axis 0 at lambda = 0.6035809018567639"),
    ])
    def test_a_value_past_the_double_range_is_named(self, capsys, box, m, r, base, what):
        assert run(self.geometric_sweep(box, m, r, base)) == 2
        assert capsys.readouterr().err == \
            f"shiftlab: config error: {what} overflows the double range\n"

    def test_the_row_below_the_overflow_keeps_its_values(self, capsys):
        assert run(self.geometric_sweep([1.15, 1.51], 3, 1, 48)) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [{
            "N_1": 225792, "N_q": 3833856, "p1_worst": 4.6442294073033424e+126,
            "p2_worst": 2.9660575756098296e-170, "p3_worst": 0.0,
            "predicted_p2_slope": -0.49249448123620293, "premature_max": 0.0,
            "q": 1567, "separation_ok": False, "sigma": 110592}]

    def test_witness_build_coeffs_follow_the_formula(self, capsys):
        # include_coeffs defaults to true; with v = e_0 on both axes and pure
        # power weights, d_{0,j} = exp(-(m-1) log eps - W(anchor_j, 0, N_j)) / m
        # with W(a, 0, n) = a log n and log eps = -1.2 log(m sigma) / m
        cfg = witness_cfg_json()
        assert run({"command": "witness-build", "payload": {"config": cfg}}) == 0
        rep = json.loads(capsys.readouterr().out)
        m, sigma = 2, 100**2
        log_eps = -1.2 * math.log(m * sigma) / m
        want = [[ax, 0, j, math.exp(-(m - 1) * log_eps - c["anchor"][ax] * math.log(c["n"])) / m]
                for ax in range(2) for j, c in enumerate(cfg["cov_override"]["cells"], start=1)]
        assert [row[:3] for row in rep["coeffs"]] == [row[:3] for row in want]
        for got, exp in zip(rep["coeffs"], want):
            assert got[3] == pytest.approx(exp[3], rel=1e-12)

    def test_cell_power_below_the_separator_exits_two(self, capsys):
        # m = 2 and base 100: N_j must reach (m - 1) * sigma = 10000
        cfg = witness_cfg_json()
        for j, cell in enumerate(cfg["cov_override"]["cells"], start=1):
            cell["n"] = 100 * j
        assert run({"command": "witness-build", "payload": {"config": cfg}}) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: cell power N_1 = 100 smaller than (m-1)*sigma = 10000"]

    def test_sweep_with_one_point_per_axis_evaluates_the_box_center(self, capsys):
        cfg = witness_cfg_json()
        cfg.pop("cov_override")
        payload = {"config": cfg, "bases": [100], "grid_per_axis": 1}
        assert run({"command": "witness-sweep", "payload": payload}) == 0
        row, = json.loads(capsys.readouterr().out)["rows"]
        wcfg = WitnessConfig.from_json_dict(cfg)
        ev = eval_analytic(build_witness(wcfg, on_collision="merge"), (1.25, 1.25))
        assert row["p1_worst"] == math.fsum(ev.p1_err)
        assert row["p2_worst"] == math.fsum(ev.p2_norm)
        assert row["p3_worst"] == math.fsum(ev.p3_norm)
        assert row["separation_ok"] is ev.separation_ok

    def test_sweep_reaches_the_upper_box_corner(self, capsys):
        # g = 25 cells per axis over [1.011, 1.833]: the last cell edge and the
        # last grid point must both be 1.833 itself, or (1.011, 1.833) misses
        payload = {"config": {
            "log_cov": {"box": [[1.011, 1.833]] * 2, "m": 2, "r": 1, "base": 72},
            "u": [{"entries": []}] * 2, "v": [{"entries": [[0, 1.0]]}] * 2, "eta": 0.05},
            "bases": [72], "grid_per_axis": 3}
        assert run({"command": "witness-sweep", "payload": payload}) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        row, = json.loads(captured.out)["rows"]
        assert row["q"] == 625

    def test_premature_budget_error_names_the_analytic_fallback(self, capsys):
        # m = 3 at base 64: support arithmetic cannot rule out the square of
        # the 3,872-term axis-0 vector, and expanding it is over the budget
        payload = json.loads((EXAMPLES / "witness_sweep.json").read_text())
        payload["config"]["log_cov"]["m"] = 3
        payload["bases"] = [64]
        assert run({"command": "witness-sweep", "payload": payload}) == 2
        assert capsys.readouterr().err.splitlines() == [
            "shiftlab: config error: axis 0: 3872 nonzeros to the power 2 exceeds the "
            "budget 2000000; support arithmetic could not show that power 2 < m = 3 "
            "vanishes after N = 532480 shifts; use a larger base"]

    def test_sweep_csv_columns(self, tmp_path):
        payload = {"config": witness_cfg_json(), "bases": [100, 128],
                   "grid_per_axis": 2}
        payload["config"].pop("cov_override")
        out = str(tmp_path / "sweep.csv")
        job = {"command": "witness-sweep", "payload": payload,
               "output": {"format": "csv", "path": out}}
        assert run(job) == 0
        header = Path(out).read_text().splitlines()[0]
        assert header == ("sigma,q,N_1,N_q,separation_ok,p1_worst,p2_worst,"
                          "p3_worst,premature_max,predicted_p2_slope")


class TestCheckerCommands:
    def test_criterion_check_end_to_end(self, tmp_path):
        from shiftlab.covering import GradedParams, build_graded_covering

        K = tuple(tuple(ax) for ax in K_SMALL)
        cov = build_graded_covering(K, GradedParams(**GRADED_PARAMS))
        payload = {
            "families": [{"variant": "affine", "alpha": 0.0}] * 2,
            "covering": cov.to_json_dict(),
            "v": [{"entries": [[0, 1.0]]}] * 2,
            "m_lo": 1, "m_hi": 2, "eps": 0.1,
            "samples_per_axis": 2, "norm": "l1", "region": K_SMALL,
        }
        out = str(tmp_path / "crit.json")
        job = {"command": "criterion-check", "payload": payload,
               "output": {"format": "json", "path": out}}
        assert run(job) == 0
        rep = json.loads(Path(out).read_text())
        assert rep["pass"] is True
        assert set(rep["conditions"]) == {"I", "II.a", "II.b", "III", "IV"}

    def test_unif_check_csv_rows(self, tmp_path):
        payload = {
            "family": {"variant": "exp_alpha", "alpha": 0.4},
            "params": {"m_prime": 2, "alpha": 0.4, "C1": 2.0, "C2": 0.4,
                       "beta": 0.9, "M0": 50.0, "N0": 50,
                       "F": {"kind": "power", "D1": 2.0, "alpha": 0.4},
                       "n_max": 200, "k_max": 300,
                       "I0": {"lo": 1.0, "hi": 2.0, "points": 5}, "d": 2,
                       "divergence_threshold": 1000.0},
        }
        out = str(tmp_path / "unif.csv")
        job = {"command": "unif-check", "payload": payload,
               "output": {"format": "csv", "path": out}}
        assert run(job) == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "condition,pass,achieved,bound,margin,evaluations"
        assert len(lines) == 5  # i, ii, iii.growth, iii.root

    def test_unif_check_table_csv_rows_are_the_report_table(self, capsys):
        payload = {
            "family": {"variant": "exp_alpha", "alpha": 0.4},
            "params": {"m_prime": 2, "alpha": 0.4, "C1": 2.0, "C2": 0.4,
                       "beta": 0.9, "M0": 50.0, "N0": 50,
                       "F": {"kind": "power", "D1": 2.0, "alpha": 0.4},
                       "n_max": 53, "k_max": 55, "I0": {"lo": 1.0, "hi": 2.0}},
            "table": True,
        }
        # the divergence probe fails at k_max = 55: exit 1, report written
        assert run({"command": "unif-check", "payload": payload}) == 1
        table = json.loads(capsys.readouterr().out)["meta"]["table"]
        assert run({"command": "unif-check", "payload": payload,
                    "output": {"format": "csv"}}) == 1
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["n"], r["k"]) for r in rows] == [
            (str(n), str(k)) for n in range(50, 54) for k in range(50, 56)]
        assert [{"n": int(r["n"]), "k": int(r["k"]),
                 "log_margin_growth": float(r["log_margin_growth"]),
                 "log_margin_root": float(r["log_margin_root"])} for r in rows] == table

    @pytest.mark.parametrize("spec,p", [("sup", math.inf), ({"lp": 2.5}, 2.5)],
                             ids=["sup", "lp2.5"])
    def test_carac_norm_from_payload(self, spec, p, capsys):
        # pure_power: what_n(lambda) = n**lambda, so (ii) is the norm of
        # (n_k**(-lambda/m))_k with lambda = 1.5 and m = 3
        ns = [100 * k for k in range(1, 11)]
        payload = {
            "families": [{"variant": "pure_power"}],
            "schedule": [[n, [1.5]] for n in ns],
            "params": {"m": 3, "tau": 1.0, "N": 5, "eps": 1.0, "K": [[1.5, 1.5]],
                       "F": {"kind": "power", "D1": 1.0, "alpha": 0.5},
                       "c": 0.5, "C": 2.0, "norm": spec},
        }
        run({"command": "carac-check", "payload": payload})
        rep = json.loads(capsys.readouterr().out)
        assert rep["meta"]["norm"] == spec
        coeffs = [n ** -0.5 for n in ns]
        want = max(coeffs) if p == math.inf else math.fsum(c**p for c in coeffs) ** (1 / p)
        assert rep["conditions"]["ii"]["achieved"] == pytest.approx(want, rel=1e-12)

    def test_corollary_check_failure_exit(self, tmp_path):
        payload = {"family": {"variant": "geometric"},
                   "I0": {"lo": 2.0, "hi": 3.0, "points": 9},
                   "variant": 2,
                   "constants": {"D1": 1.0, "D2": 1.0, "gamma": 1.0},
                   "N": 5, "n_max": 1000}
        job = {"command": "corollary-check", "payload": payload,
               "output": {"format": "json", "path": str(tmp_path / "c.json")}}
        assert run(job) == 1

    def test_carac_check_end_to_end(self, tmp_path, capsys):
        payload = {
            "families": [{"variant": "exp_alpha", "alpha": 0.5}],
            "schedule": [[100 * k, [1.5]] for k in range(1, 11)],
            "params": {"m": 3, "tau": 1.0, "N": 50, "eps": 1.0,
                       "K": [[1.5, 1.5]],
                       "F": {"kind": "power", "D1": 1.0, "alpha": 0.5},
                       "c": 0.5, "C": 2.0},
        }
        job = {"command": "carac-check", "payload": payload,
               "output": {"format": "json", "path": None}}
        assert run(job) == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep["conditions"]) == {"0", "i", "ii", "iii", "H"}


class TestOrbitProbe:
    def test_hit_at_zero_when_allowed(self):
        x = (0.05 * basis(0),)
        res = orbit_probe((PP,), (1.5,), x, [x], eps=0.1, n_max=10, allow_zero=True)
        assert res[0] == {"target": 0, "hit": True, "N": 0, "error": 0.0}

    def test_first_recurrence_when_zero_disallowed(self):
        x = (0.05 * basis(0),)
        res = orbit_probe((PP,), (1.5,), x, [x], eps=0.1, n_max=10, allow_zero=False)
        assert res[0]["hit"] and res[0]["N"] == 1  # shift kills x; ||0 - x|| < eps

    def test_eps_zero_misses(self):
        x = (basis(3),)
        res = orbit_probe((PP,), (1.5,), x, [x], eps=0.0, n_max=20, allow_zero=True)
        assert not res[0]["hit"]
        assert res[0]["N"] is None

    def test_witness_orbit_hits_target(self):
        from shiftlab.seqspace import ProductKind, power

        cfg = WitnessConfig.from_json_dict(witness_cfg_json())
        w = build_witness(cfg)
        lam = (1.275, 1.225)  # anchor coordinates: approach error vanishes
        ev = eval_analytic(w, lam)
        n_i = w.powers[ev.cell_index]
        assert ev.total_error < 0.05
        squared = tuple(power(x, cfg.m, ProductKind.CONVOLUTION) for x in w.vectors)
        res = orbit_probe(cfg.fams, lam, squared, [cfg.v], eps=0.05, n_max=n_i)
        assert res[0]["hit"]
        assert res[0]["N"] <= n_i
        # consistent with the analytic path at the designated power
        res_at = orbit_probe(cfg.fams, lam, squared, [cfg.v],
                             eps=ev.total_error * 1.0001, n_max=n_i)
        assert res_at[0]["hit"] and res_at[0]["N"] <= n_i

    def test_multi_target_report(self):
        x = (basis(5),)
        targets = [(basis(4),), (SeqVec({4: 5.0 / 4.0}),)]
        res = orbit_probe((PP,), (1.0,), x, targets, eps=1e-9, n_max=3)
        assert not res[0]["hit"]
        assert res[1]["hit"] and res[1]["N"] == 1

    @staticmethod
    def probe_each_target(fams, lam, x, targets, eps, n_max, space_norm, allow_zero):
        """The probe as a plain scan: for every target, every N up to n_max."""
        prefs = [log_cum_prefix(f, a, v.support_max() or 0) for f, a, v in zip(fams, lam, x)]
        out = []
        for t, target in enumerate(targets):
            if len(target) != len(fams):
                raise ValueError("every target needs one vector per axis")
            hit = (None, None)
            minus = [-1.0 * y for y in target]  # orbit - y is orbit + (-1.0) * y
            for N in range(0 if allow_zero else 1, n_max + 1):
                err = 0.0
                for v, p, y in zip(x, prefs, minus):
                    orbit = SeqVec({k - N: c * math.exp(p[k] - p[k - N])
                                    for k, c in v.items() if k >= N})
                    err += norm(orbit + y, space_norm)
                if err < eps:
                    hit = (N, err)
                    break
            out.append({"target": t, "hit": hit[0] is not None, "N": hit[0], "error": hit[1]})
        return out

    def test_random_probes_match_a_scan_of_every_target_and_step(self):
        fams = [WeightFamily.affine(0.0), WeightFamily.affine(0.4), PP,
                WeightFamily.exp_alpha(0.5), WeightFamily.power_ratio(),
                WeightFamily.geometric()]
        norms = [L1, SUP, SpaceNorm.lp(2.5)]
        rng = random.Random(18)

        def vec(top, scale):
            return SeqVec({rng.randint(0, top): rng.uniform(-scale, scale)
                           for _ in range(rng.randint(0, 3))})

        hits = 0
        for _ in range(3000):
            d = rng.randint(1, 3)
            x = tuple(vec(12, 2.0) for _ in range(d))
            targets = [tuple(vec(6, 0.4) for _ in range(d)) for _ in range(rng.randint(0, 4))]
            if targets and rng.random() < 0.02:
                targets[-1] = targets[-1][:-1]
            args = ([rng.choice(fams) for _ in range(d)],
                    [rng.uniform(0.2, 2.5) for _ in range(d)], x, targets,
                    0.0 if rng.random() < 0.1 else rng.uniform(0.0, 2.0),
                    rng.randint(0, rng.choice([12, 80])),
                    rng.choice(norms), rng.random() < 0.5)
            try:
                want = self.probe_each_target(*args)
            except ValueError as e:
                with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                    orbit_probe(*args)
                continue
            got = orbit_probe(*args)
            assert json.dumps(got) == json.dumps(want), args
            hits += sum(r["hit"] for r in got)
        assert hits > 2000

    def test_scan_stops_one_step_past_the_support(self):
        t0 = time.perf_counter()
        res = orbit_probe((PP,), (1.5,), (basis(5),), [(basis(0),)], eps=1e-9, n_max=10**12)
        assert time.perf_counter() - t0 < 1.0
        assert res == [{"target": 0, "hit": False, "N": None, "error": None}]


class TestDocsExamples:
    # every shipped example must run green through the CLI
    DOCS = Path(__file__).resolve().parent.parent / "docs" / "examples"
    CASES = {
        "log_cover_build.json": "cover-build",
        "graded_cover_build.json": "cover-build",
        "criterion_check.json": "criterion-check",
        "unif_check.json": "unif-check",
        "corollary_check.json": "corollary-check",
        "carac_check.json": "carac-check",
        "witness_eval.json": "witness-eval",
        "orbit_probe.json": "orbit-probe",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_example_runs_clean(self, name, tmp_path):
        payload = json.loads((self.DOCS / name).read_text())
        out = str(tmp_path / "out.json")
        job = {"command": self.CASES[name], "payload": payload,
               "output": {"format": "json", "path": out}}
        assert run(job) == 0
        assert json.loads(Path(out).read_text())

    def test_module_entry_point_runs_without_warnings(self):
        # python -m shiftlab.cli must not find shiftlab.cli already imported
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONWARNINGS="default", PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "shiftlab.cli", "cover-build",
             "--config", str(self.DOCS / "log_cover_build.json")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_sweep_example_runs_clean(self, tmp_path):
        payload = json.loads((self.DOCS / "witness_sweep.json").read_text())
        out = str(tmp_path / "sweep.csv")
        job = {"command": "witness-sweep", "payload": payload,
               "output": {"format": "csv", "path": out}}
        assert run(job) == 0
        assert len(Path(out).read_text().splitlines()) == 6  # header + 5 bases


class TestSchemas:
    def test_every_command_has_schema(self):
        from shiftlab.cli import COMMANDS, _schema_for
        for cmd in COMMANDS:
            schema = _schema_for(cmd)
            assert schema["type"] == "object"

    # property names under which several schemas hold the same payload form
    SHARED_FORMS = (("entries",), ("family",), ("families",), ("norm",), ("F",), ("I0",),
                    ("K", "region", "box"), ("covering", "cov_override"), ("log_cov",),
                    ("config",))

    def test_shared_forms_agree_in_every_schema(self):
        # each command schema is read on its own, so a shared form is repeated
        # in every file that uses it (once, under definitions, where the file
        # uses it twice); with local refs resolved the copies must not drift apart
        found = {names: [] for names in self.SHARED_FORMS}

        def collect(node, where):
            if isinstance(node, list):
                for val in node:
                    collect(val, where)
            elif isinstance(node, dict):
                for key, sub in node.get("properties", {}).items():
                    for names in self.SHARED_FORMS:
                        if key in names:
                            found[names].append((where, json.dumps(sub, sort_keys=True)))
                for val in node.values():
                    collect(val, where)

        for f in _schema_files():
            schema = json.loads(f.read_text())
            collect(_resolve_local_refs(schema, schema.get("definitions", {})), f.name)
        for names, copies in found.items():
            assert len(copies) >= 2, names
            assert len({form for _, form in copies}) == 1, (names, sorted(copies))

    def test_every_ref_names_a_definition_of_its_file(self):
        # perfbench validates each file with a bare jsonschema.validate, so no
        # $ref may leave its file, and draft-07 ignores a $ref's siblings
        for f in _schema_files():
            schema = json.loads(f.read_text())
            defs = schema.get("definitions", {})
            refs = [node for _, node in _json_nodes(schema)
                    if isinstance(node, dict) and "$ref" in node]
            for node in refs:
                assert list(node) == ["$ref"], (f.name, node)
                assert node["$ref"].startswith("#/definitions/"), (f.name, node)
                assert node["$ref"].removeprefix("#/definitions/") in defs, (f.name, node)
            used = {node["$ref"].removeprefix("#/definitions/") for node in refs}
            assert used == set(defs), (f.name, sorted(set(defs) - used))

    def test_every_schema_is_draft07(self):
        # the CLI validates with a draft-07 class directly, not the class its
        # $schema names, so the declaration must say draft-07; a 2020-12
        # schema was also about 4x as costly to check as a draft-07 one
        from jsonschema import Draft7Validator
        files = _schema_files()
        assert len(files) == 10
        for f in files:
            schema = json.loads(f.read_text())
            assert schema["$schema"] == "http://json-schema.org/draft-07/schema#", f.name
            Draft7Validator.check_schema(schema)


def _schema_files():
    from importlib import resources
    return [f for f in resources.files("shiftlab.schemas").iterdir()
            if f.name.endswith(".schema.json")]


def _resolve_local_refs(node, defs):
    """A copy of a schema node with each {"$ref": "#/definitions/<name>"}
    replaced by that definition, itself resolved."""
    if isinstance(node, list):
        return [_resolve_local_refs(val, defs) for val in node]
    if not isinstance(node, dict):
        return node
    if "$ref" in node:
        return _resolve_local_refs(defs[node["$ref"].removeprefix("#/definitions/")], defs)
    return {key: _resolve_local_refs(val, defs) for key, val in node.items()}


def _schema_file(command):
    from importlib import resources
    name = command.replace("-", "_") + ".schema.json"
    return json.loads(resources.files("shiftlab.schemas").joinpath(name).read_text())


def _json_nodes(obj, path=()):
    """(path, value) for every node of a JSON value, in document order."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _json_nodes(val, path + (key,))


def _target(op, path):
    # an "extra" fault sets the norm of the object at path to the lp form, the
    # one payload form whose schema forbids other keys, with a key too many
    return path + ("norm",) if op == "extra" else path


def _apply(payload, faults):
    """A copy of the payload with each (op, path) fault applied in turn."""
    payload = json.loads(json.dumps(payload))
    for op, path in faults:
        path = _target(op, path)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "drop":
            del parent[key]
        elif op == "extra":
            parent[key] = {"lp": 2.5, "unexpected": 1}
        elif op == "type":
            parent[key] = 1 if isinstance(parent[key], str) else "nope"
        else:  # "below": under every minimum the schemas set
            parent[key] = -1000
    return payload


# the schema keywords that reject each kind of fault
FAULT_KINDS = {"drop": ("required",), "type": ("type",),
               "extra": ("additionalProperties",), "below": ("minimum", "exclusiveMinimum")}


@functools.cache
def example_faults(name):
    """Up to three single faults of each kind for a docs example, each one
    rejected by its schema for that kind, spread over the payload."""
    payload = json.loads((EXAMPLES / f"{name}.json").read_text())
    validator = jsonschema.Draft7Validator(_schema_file(EXAMPLE_COMMANDS[name]))
    found = {op: [] for op in FAULT_KINDS}
    for path, val in _json_nodes(payload):
        ops = ["extra"] if isinstance(val, dict) else []
        ops += ["type"] if path else []
        ops += ["below"] if isinstance(val, (int, float)) and not isinstance(val, bool) else []
        faults = [(op, path) for op in ops]
        if isinstance(val, dict):
            faults += [("drop", path + (key,)) for key in val]
        for op, where in faults:
            bad = _apply(payload, [(op, where)])
            err = jsonschema.exceptions.best_match(validator.iter_errors(bad))
            if err is not None and err.validator in FAULT_KINDS[op]:
                found[op].append((op, where))
    return {op: tuple(fs[::max(1, len(fs) // 3)][:3]) for op, fs in found.items()}


class TestSchemaRejections:
    # an exit-2 message must be the one plain jsonschema.validate raises: the
    # best match among all errors, not the first error a validator meets

    @staticmethod
    def multi_faults(singles):
        """Two sets of up to three single faults whose targets do not nest,
        picked first-fit from the front and from the back of the list."""
        flat = [f for faults in singles.values() for f in faults]
        sets = []
        for order in (flat, flat[::-1]):
            picked = {}
            for op, path in order:
                t = _target(op, path)
                if len(picked) < 3 and all(t[:len(u)] != u and u[:len(t)] != t for u in picked):
                    picked[t] = (op, path)
            sets.append(list(picked.values()))
        return [faults for faults in sets if len(faults) >= 2]

    @pytest.mark.parametrize("name", sorted(EXAMPLE_COMMANDS))
    def test_message_matches_plain_validate(self, name, capsys):
        command = EXAMPLE_COMMANDS[name]
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        singles = example_faults(name)
        assert singles["drop"] and singles["type"], singles
        multis = self.multi_faults(singles)
        assert multis
        for faults in [[f] for fs in singles.values() for f in fs] + multis:
            bad = _apply(payload, faults)
            with pytest.raises(jsonschema.ValidationError) as plain:
                jsonschema.validate(bad, _schema_file(command))
            assert run({"command": command, "payload": bad}) == 2, faults
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == ("shiftlab: config error: payload rejected by schema for "
                               f"{command}: {plain.value.message}\n"), faults

    def test_every_fault_kind_is_exercised(self):
        kinds = {op for name in EXAMPLE_COMMANDS for op, fs in example_faults(name).items() if fs}
        assert kinds == set(FAULT_KINDS)


class TestSchemaCheckedOncePerProcess:
    @pytest.fixture(autouse=True)
    def fresh_schema_cache(self):
        from shiftlab import cli
        cli._schema_for.cache_clear()
        yield
        cli._schema_for.cache_clear()

    def test_one_metaschema_check_per_command(self, monkeypatch, capsys):
        checked = []
        check = jsonschema.Draft7Validator.check_schema

        def counting(cls, schema):
            checked.append(schema["title"])
            check(schema)

        monkeypatch.setattr(jsonschema.Draft7Validator, "check_schema", classmethod(counting))
        for _ in range(3):
            for name, command in EXAMPLE_COMMANDS.items():
                payload = json.loads((EXAMPLES / f"{name}.json").read_text())
                assert run({"command": command, "payload": payload}) == 0, name
        capsys.readouterr()
        commands = set(EXAMPLE_COMMANDS.values())
        assert sorted(checked) == sorted(f"shiftlab {c} payload" for c in commands)

    def test_a_broken_schema_raises_on_every_call(self, monkeypatch, tmp_path):
        # a schema that fails its metaschema check is a bug in shiftlab, not
        # a user's config error, so it must not exit 2, on any call
        import types

        from shiftlab import cli
        (tmp_path / "orbit_probe.schema.json").write_text(json.dumps(
            {"$schema": "http://json-schema.org/draft-07/schema#", "type": 12}))
        monkeypatch.setattr(cli, "resources", types.SimpleNamespace(files=lambda pkg: tmp_path))
        payload = json.loads((EXAMPLES / "orbit_probe.json").read_text())
        for _ in range(3):
            with pytest.raises(jsonschema.SchemaError):
                run({"command": "orbit-probe", "payload": payload})


def _perfbench_payloads():
    """(command, payload) of every benchmark job at seeds 0-3."""
    root = str(EXAMPLES.parent.parent)
    if root not in sys.path:
        sys.path.insert(0, root)
    from perfbench.worker import build_jobs
    return [(job["command"], job["payload"])
            for workload in ("examples", "carac", "checkers") for seed in range(4)
            for job in build_jobs(workload, seed)]


# the values each single-leaf mutation sets, JSON-typed, bool and int apart
LEAF_VALUES = (0, 1, -1, 0.5, 1.0, 2.0, True, False, None, "x", [], {})
DROP = object()  # a mutation that deletes the key


def _mutants(payload, seen):
    """Each single-leaf mutation, key deletion and added unknown key of a
    payload at a schema position not in ``seen``, which the position then
    joins: a position is the path with # for each list index, so a covering
    of 256 cells is mutated in its first cell only."""
    for path, node in _json_nodes(payload):
        position = tuple("#" if isinstance(k, int) else k for k in path)
        if position in seen:
            continue
        seen.add(position)
        if path:
            for value in LEAF_VALUES:
                yield with_leaf(payload, path, value)
        if isinstance(node, dict):
            for key in node:
                yield _apply(payload, [("drop", path + (key,))])
            yield with_leaf(payload, path + ("unknown_key",), 1)


def cli_schema(command):
    from shiftlab.cli import _schema_for
    return _schema_for(command)


class TestCompiledPass:
    # the compiled pass may accept only what draft-07 accepts, and on values
    # of JSON types it must give draft-07's verdict exactly

    @staticmethod
    def agree(command, payloads):
        schema = _schema_file(command)
        draft7 = jsonschema.Draft7Validator(schema)
        accepts = cli_schema(command).accepts
        verdicts = set()
        for payload in payloads:
            verdict = accepts(payload)
            assert verdict == draft7.is_valid(payload), (command, payload)
            verdicts.add(verdict)
        return verdicts

    def test_every_shipped_schema_compiles(self):
        from shiftlab.cli import COMMANDS, _compile
        for command in COMMANDS:
            _compile(_schema_file(command))  # raises SchemaError at a keyword it does not cover

    @pytest.mark.parametrize("name", sorted(EXAMPLE_COMMANDS))
    def test_agrees_with_draft7_on_example_mutations(self, name):
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        mutants = list(_mutants(payload, set()))
        assert self.agree(EXAMPLE_COMMANDS[name], [payload] + mutants) == {True, False}

    def test_agrees_with_draft7_on_benchmark_payloads(self):
        # every payload whole, then the mutations at each schema position that
        # no earlier payload of the same command has mutated
        seen = collections.defaultdict(set)
        for command, payload in _perfbench_payloads():
            assert self.agree(command, [payload]) == {True}
            self.agree(command, _mutants(payload, seen[command]))

    def test_agrees_with_draft7_on_random_multi_leaf_mutations(self):
        rng = random.Random(20)
        for name, command in sorted(EXAMPLE_COMMANDS.items()):
            payload = json.loads((EXAMPLES / f"{name}.json").read_text())
            paths = [p for p, _ in _json_nodes(payload) if p]
            mutants = []
            for _ in range(40):
                mutant = payload
                for path in rng.sample(paths, 3):
                    try:
                        mutant = with_leaf(mutant, path, rng.choice(LEAF_VALUES))
                    except (KeyError, IndexError, TypeError):
                        pass  # an earlier mutation removed the path
                mutants.append(mutant)
            self.agree(command, mutants)

    def test_integral_float_is_an_integer(self, capsys):
        payload = json.loads((EXAMPLES / "criterion_check.json").read_text())
        payload["covering"]["cells"][0]["n"] = 5.0
        assert cli_schema("criterion-check").accepts(payload)
        assert run({"command": "criterion-check", "payload": payload}) in (0, 1)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("name,path,value", [
        ("graded_cover_build", ("K",), ((1.0, 1.02), (1.0, 1.02))),
        ("corollary_check", ("variant",), True),
        ("corollary_check", ("variant",), 1),
        ("corollary_check", ("constants", "gamma"), DROP),
        ("criterion_check", ("covering", "params"), {"kind": "graded", "alpha": 0.3}),
        ("witness_eval", ("config", "cov_override", "params"), {"kind": "log", "box": 0}),
        ("carac_check", ("schedule", 0, 1, 0), None),
    ], ids=["tuple_box", "variant_true", "variant_1_without_D3", "variant_2_without_gamma",
            "covering_params_short", "cov_override_box_zero", "schedule_coordinate_null"])
    def test_rejection_keeps_draft7_message(self, name, path, value, capsys):
        # a tuple is no JSON array and True is not 1; a covering's params, the
        # schedule entries and the constant each corollary variant reads are
        # checked by the schema, so none of them reaches a handler
        command = EXAMPLE_COMMANDS[name]
        payload = json.loads((EXAMPLES / f"{name}.json").read_text())
        if value is DROP:
            payload = _apply(payload, [("drop", path)])
        else:
            payload = with_leaf(payload, path, value)
        assert not cli_schema(command).accepts(payload)
        with pytest.raises(jsonschema.ValidationError) as plain:
            jsonschema.validate(payload, _schema_file(command))
        assert run({"command": command, "payload": payload}) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("shiftlab: config error: payload rejected by schema for "
                           f"{command}: {plain.value.message}\n")

    def test_uncovered_keyword_is_a_schema_error(self):
        # like a metaschema failure, a keyword the pass does not cover is a
        # bug in shiftlab: it raises, and no payload is judged without the pass
        from shiftlab import cli
        with pytest.raises(jsonschema.SchemaError, match="keyword 'pattern'"):
            cli._compile({"properties": {"name": {"pattern": "^a"}}})

    @pytest.mark.parametrize("schema", [
        {"properties": {"K": {"$ref": "box.schema.json#/definitions/box"}},
         "definitions": {"box": {"type": "array"}}},
        {"properties": {"K": {"$ref": "#/definitions/box", "minItems": 1}},
         "definitions": {"box": {"type": "array"}}},
        {"properties": {"K": {"$ref": "#/definitions/missing"}},
         "definitions": {"box": {"type": "array"}}},
        {"properties": {"K": {"$ref": "#/properties/L"}, "L": {"type": "array"}}},
    ], ids=["other_file", "sibling_keyword", "missing_definition", "not_a_definition"])
    def test_ref_outside_the_definitions_is_a_schema_error(self, schema):
        from shiftlab import cli
        with pytest.raises(jsonschema.SchemaError, match=r"\$ref in "):
            cli._compile(schema)

    @staticmethod
    def without_params(covering):
        # a hand-built covering of the same cells: it serializes with
        # "kind": "custom" and "params": null
        from shiftlab.covering import Covering
        custom = Covering(Covering.from_json_dict(covering).cells).to_json_dict()
        assert custom["kind"] == "custom" and custom["params"] is None
        return custom

    def test_criterion_check_takes_a_covering_without_params(self, capsys):
        payload = json.loads((EXAMPLES / "criterion_check.json").read_text())
        assert run({"command": "criterion-check", "payload": payload}) == 0
        report = json.loads(capsys.readouterr().out)
        payload["covering"] = self.without_params(payload["covering"])
        assert cli_schema("criterion-check").accepts(payload)
        assert run({"command": "criterion-check", "payload": payload}) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert json.loads(out.out)["conditions"] == report["conditions"]

    def test_cover_verify_takes_a_covering_without_params(self, capsys):
        # with no params in the covering, the payload's graded params apply
        build = json.loads((EXAMPLES / "graded_cover_build.json").read_text())
        assert run({"command": "cover-build", "payload": build}) == 0
        covering = json.loads(capsys.readouterr().out)
        del covering["meta"]
        payload = {"covering": covering, "K": build["K"], "params": build["params"]}
        assert run({"command": "cover-verify", "payload": payload}) == 0
        report = capsys.readouterr().out
        payload["covering"] = self.without_params(covering)
        assert cli_schema("cover-verify").accepts(payload)
        assert run({"command": "cover-verify", "payload": payload}) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == report

    def test_numpy_scalar_goes_to_draft7(self, capsys):
        import numpy as np
        payload = json.loads((EXAMPLES / "orbit_probe.json").read_text())
        expected = run({"command": "orbit-probe", "payload": payload})
        report = capsys.readouterr().out
        index, coeff = payload["x"][0]["entries"][0]
        payload["x"][0]["entries"][0] = [index, np.float64(coeff)]
        assert not cli_schema("orbit-probe").accepts(payload)
        assert jsonschema.Draft7Validator(_schema_file("orbit-probe")).is_valid(payload)
        assert run({"command": "orbit-probe", "payload": payload}) == expected
        assert capsys.readouterr().out == report


class TestInternalErrorsRaise:
    @pytest.mark.parametrize("error", [KeyError, TypeError])
    def test_handler_error_is_not_a_config_error(self, error, monkeypatch, capsys):
        # exit 2 means a user's config error; a handler that raises KeyError
        # or TypeError on a payload its schema accepted has a bug
        from shiftlab import cli

        def broken(payload):
            raise error("internal")

        monkeypatch.setitem(cli._HANDLERS, "orbit-probe", broken)
        payload = json.loads((EXAMPLES / "orbit_probe.json").read_text())
        with pytest.raises(error):
            run({"command": "orbit-probe", "payload": payload})
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command,key,value", [
        ("log_cover_build", "kind", "other"), ("witness_eval", "path", "other")])
    def test_a_value_the_schema_admits_but_no_handler_takes_raises(
            self, command, key, value, monkeypatch, capsys):
        # cover-build's kind and witness-eval's path are schema enums; a
        # handler that drifts from its enum is a bug in shiftlab, not exit 2
        from shiftlab import cli

        monkeypatch.setattr(cli, "_validate_payload", lambda command, payload: None)
        payload = json.loads((EXAMPLES / f"{command}.json").read_text())
        payload[key] = value
        with pytest.raises(UnboundLocalError):
            run({"command": EXAMPLE_COMMANDS[command], "payload": payload})
        assert capsys.readouterr().err == ""
