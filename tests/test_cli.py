"""Tests for the batch CLI: exit codes, determinism, schemas, orbit probe."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shiftlab.cli import main, orbit_probe, run
from shiftlab.covering import LogCoveringParams, build_log_covering
from shiftlab.seqspace import SeqVec, basis
from shiftlab.weights import WeightFamily
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
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith(
                    "shiftlab: config error: non-finite number"), (path, value, err)
        assert not (tmp_path / "mutant.json").exists()

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
        ev = eval_analytic(w, cfg, lam)
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

