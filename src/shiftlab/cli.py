"""Batch front-end: job configs in, JSON/CSV reports out.

Subcommands map one-to-one onto the library checkers plus an orbit probe.
Every payload is scanned for NaN and infinities, then validated against its
JSON schema (shipped under ``shiftlab/schemas``), before any computation.
Exit codes: 0 all checks passed, 1 a check failed (the report is still
written), 2 usage or configuration error, including a non-finite number or
an output path that cannot be opened (nothing is written).

Reports are deterministic: an identical job yields byte-identical output.
The seed is echoed into ``meta.seed`` only; nothing draws a random number.
Every command runs in the calling thread.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import jsonschema

from . import covering as covmod
from . import criteria as critmod
from . import witness as witmod
from .covering import Covering, CoveringInfeasibleError, GradedParams, LogCoveringParams
from .seqspace import L1, SeqVec, SpaceNorm, norm as seq_norm
from .weights import LipschitzProfile, WeightFamily, log_cum_prefix

COMMANDS = (
    "cover-build", "cover-verify", "criterion-check", "unif-check",
    "corollary-check", "carac-check", "witness-build", "witness-eval",
    "witness-sweep", "orbit-probe",
)


class ConfigError(ValueError):
    pass


def _schema_for(command: str) -> dict:
    name = command.replace("-", "_") + ".schema.json"
    ref = resources.files("shiftlab.schemas").joinpath(name)
    return json.loads(ref.read_text())


def _reject_non_finite(obj, path=("payload",)):
    """Reject NaN and infinities: Python's json reads them and the schemas let them pass."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ConfigError(f"non-finite number {obj} at {'/'.join(map(str, path))}")
    if isinstance(obj, (dict, list)):
        for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            _reject_non_finite(val, path + (key,))


def _validate_payload(command: str, payload: dict):
    try:
        jsonschema.validate(payload, _schema_for(command))
    except jsonschema.ValidationError as e:
        raise ConfigError(f"payload rejected by schema for {command}: {e.message}") from e


# ---------------------------------------------------------------------------
# payload parsing helpers
# ---------------------------------------------------------------------------


def _parse_families(objs) -> Tuple[WeightFamily, ...]:
    return tuple(WeightFamily.from_json_dict(o) for o in objs)


def _parse_vecs(objs) -> Tuple[SeqVec, ...]:
    return tuple(SeqVec.from_json_dict(o) for o in objs)


def _parse_norm(obj) -> SpaceNorm:
    return L1 if obj is None else SpaceNorm.from_json(obj)


# ---------------------------------------------------------------------------
# orbit probe
# ---------------------------------------------------------------------------


def orbit_probe(
    fams: Sequence[WeightFamily],
    lam: Sequence[float],
    x: Sequence[SeqVec],
    targets: Sequence[Sequence[SeqVec]],
    eps: float,
    n_max: int,
    space_norm: SpaceNorm = L1,
    allow_zero: bool = False,
) -> List[dict]:
    """First hitting times of finite targets along a product-shift orbit.

    For each target tuple, reports the least N <= n_max with
    ||T^N x - target|| < eps in the chosen norm, or a miss.  The N-fold
    application is closed-form, O(nonzeros) per step via per-axis prefix
    tables of the log cumulative weights.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    fams = tuple(fams)
    lam = tuple(float(a) for a in lam)
    x = tuple(x)
    d = len(fams)
    if len(lam) != d or len(x) != d:
        raise ValueError("lambda and x must match the family dimension")
    prefixes = []
    for ax in range(d):
        top = x[ax].support_max() or 0
        prefixes.append(log_cum_prefix(fams[ax], lam[ax], top))
    results = []
    for t_idx, target in enumerate(targets):
        target = tuple(target)
        if len(target) != d:
            raise ValueError("every target needs one vector per axis")
        hit_n: Optional[int] = None
        hit_err = math.inf
        start = 0 if allow_zero else 1
        for N in range(start, n_max + 1):
            err = 0.0
            for ax in range(d):
                pref = prefixes[ax]
                entries = {}
                for k, c in x[ax].items():
                    if k >= N:
                        entries[k - N] = c * math.exp(pref[k] - pref[k - N])
                err += seq_norm(SeqVec(entries) - target[ax], space_norm)
            if err < eps:
                hit_n, hit_err = N, err
                break
        results.append({
            "target": t_idx,
            "hit": hit_n is not None,
            "N": hit_n,
            "error": hit_err if hit_n is not None else None,
        })
    return results


# ---------------------------------------------------------------------------
# command handlers: payload -> (passed, report, csv_rows)
# ---------------------------------------------------------------------------

CsvData = Optional[Tuple[List[str], List[dict]]]


def _h_cover_build(payload: dict):
    kind = payload["kind"]
    if kind == "log":
        params = LogCoveringParams.from_json_dict(payload["params"])
        cov = covmod.build_log_covering(params, q_override=payload.get("q_override"))
    elif kind == "graded":
        params = GradedParams.from_json_dict(payload["params"])
        cov = covmod.build_graded_covering(covmod.as_box(payload["K"]), params)
    else:
        raise ConfigError(f"unknown covering kind {kind!r}")
    return True, cov.to_json_dict(), None


def _h_cover_verify(payload: dict):
    cov = Covering.from_json_dict(payload["covering"])
    params_obj = payload.get("params")
    if params_obj is not None:
        params = GradedParams.from_json_dict(params_obj)
    elif isinstance(cov.params, GradedParams):
        params = cov.params
    else:
        raise ConfigError("graded parameters missing (neither payload nor covering has them)")
    report = covmod.verify_graded(cov, covmod.as_box(payload["K"]), params)
    return report.overall, report.to_json_dict(), None


def _report_out(report: critmod.CriterionReport) -> Tuple[bool, dict, CsvData]:
    rows = report.rows()
    header = ["condition", "pass", "achieved", "bound", "margin", "evaluations"]
    return report.overall, report.to_json_dict(), (header, rows)


def _h_criterion_check(payload: dict):
    report = critmod.check_basic_criterion(
        fams=_parse_families(payload["families"]),
        cov=Covering.from_json_dict(payload["covering"]),
        v=_parse_vecs(payload["v"]),
        m_lo=int(payload["m_lo"]),
        m_hi=int(payload["m_hi"]),
        eps=float(payload["eps"]),
        samples_per_axis=int(payload.get("samples_per_axis", 3)),
        space_norm=_parse_norm(payload.get("norm")),
        region=payload.get("region"),
    )
    return _report_out(report)


def _h_unif_check(payload: dict):
    po = dict(payload["params"])
    params = critmod.UnifParams(
        m_prime=int(po["m_prime"]), alpha=float(po["alpha"]), C1=float(po["C1"]),
        C2=float(po["C2"]), beta=float(po["beta"]), M0=float(po["M0"]),
        N0=int(po["N0"]), F=LipschitzProfile.from_json_dict(po["F"]),
        n_max=int(po["n_max"]), k_max=int(po["k_max"]),
        I0_lo=float(po["I0"]["lo"]), I0_hi=float(po["I0"]["hi"]),
        I0_points=int(po["I0"].get("points", 9)), d=int(po.get("d", 1)),
        divergence_threshold=float(po.get("divergence_threshold", 1e6)),
    )
    fam = WeightFamily.from_json_dict(payload["family"])
    report = critmod.check_unif_hypotheses(fam, params,
                                           collect_table=bool(payload.get("table", False)))
    passed, obj, csv_data = _report_out(report)
    table = report.meta.get("table")
    if table:
        csv_data = (["n", "k", "log_margin_growth", "log_margin_root"], table)
    return passed, obj, csv_data


def _h_corollary_check(payload: dict):
    import numpy as np

    i0 = payload["I0"]
    grid = np.linspace(float(i0["lo"]), float(i0["hi"]), int(i0.get("points", 9)))
    report = critmod.check_corollary_hypotheses(
        fam=WeightFamily.from_json_dict(payload["family"]),
        I0_grid=grid.tolist(),
        variant=int(payload["variant"]),
        constants=payload["constants"],
        N=int(payload["N"]),
        n_max=int(payload["n_max"]),
    )
    return _report_out(report)


def _h_carac_check(payload: dict):
    po = payload["params"]
    params = critmod.CaracParams(
        m=int(po["m"]), tau=float(po["tau"]), N=int(po["N"]), eps=float(po["eps"]),
        K=po["K"], F=LipschitzProfile.from_json_dict(po["F"]),
        c=float(po["c"]), C=float(po["C"]),
        space_norm=_parse_norm(po.get("norm")),
    )
    schedule = [(int(n), tuple(float(x) for x in lam)) for n, lam in payload["schedule"]]
    report = critmod.check_carac_conditions(
        _parse_families(payload["families"]), schedule, params)
    return _report_out(report)


def _h_witness_build(payload: dict):
    cfg = witmod.WitnessConfig.from_json_dict(payload["config"])
    w = witmod.build_witness(cfg)
    return True, w.to_json_dict(include_coeffs=bool(payload.get("include_coeffs", True))), None


def _h_witness_eval(payload: dict):
    cfg = witmod.WitnessConfig.from_json_dict(payload["config"])
    w = witmod.build_witness(cfg)
    lam = [float(a) for a in payload["lambda"]]
    path = payload.get("path", "analytic")
    if path == "analytic":
        ev = witmod.eval_analytic(w, cfg, lam)
    elif path == "bruteforce":
        n = payload.get("N")
        if n is None:
            n = w.powers[witmod.locate_cell(w.covering, lam)]
        ev = witmod.eval_bruteforce(w, cfg, lam, int(n),
                                    budget=int(payload.get("budget", 2_000_000)))
    else:
        raise ConfigError(f"unknown evaluation path {path!r}")
    worst = max(math.fsum(ev.p1_err), math.fsum(ev.p2_norm), math.fsum(ev.p3_norm),
                ev.premature_max)
    passed = bool(ev.separation_ok and worst < cfg.eta)
    obj = ev.to_json_dict()
    obj["eta"] = cfg.eta
    obj["pass"] = passed
    return passed, obj, None


def _h_witness_sweep(payload: dict):
    cfg = witmod.WitnessConfig.from_json_dict(payload["config"])
    rows = witmod.sweep_sigma(cfg, [int(b) for b in payload["bases"]],
                              grid_per_axis=int(payload.get("grid_per_axis", 3)))
    return True, {"rows": rows}, (witmod.SWEEP_COLUMNS, rows)


def _h_orbit_probe(payload: dict):
    results = orbit_probe(
        fams=_parse_families(payload["families"]),
        lam=[float(a) for a in payload["lambda"]],
        x=_parse_vecs(payload["x"]),
        targets=[_parse_vecs(t) for t in payload["targets"]],
        eps=float(payload["eps"]),
        n_max=int(payload["n_max"]),
        space_norm=_parse_norm(payload.get("norm")),
        allow_zero=bool(payload.get("allow_zero", False)),
    )
    header = ["target", "hit", "N", "error"]
    return all(r["hit"] for r in results), {"results": results}, (header, results)


_HANDLERS = {
    "cover-build": _h_cover_build,
    "cover-verify": _h_cover_verify,
    "criterion-check": _h_criterion_check,
    "unif-check": _h_unif_check,
    "corollary-check": _h_corollary_check,
    "carac-check": _h_carac_check,
    "witness-build": _h_witness_build,
    "witness-eval": _h_witness_eval,
    "witness-sweep": _h_witness_sweep,
    "orbit-probe": _h_orbit_probe,
}


# ---------------------------------------------------------------------------
# job runner
# ---------------------------------------------------------------------------


def _csv_text(header: List[str], rows: List[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def run(job: dict) -> int:
    """Execute one job dict; returns the process exit status.

    The report is written only after the computation finished, so a job that
    exits with status 2 leaves no partial file behind.
    """
    try:
        command = job["command"]
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        payload = job.get("payload") or {}
        output = job.get("output") or {}
        fmt = output.get("format", "json")
        if fmt not in ("json", "csv"):
            raise ConfigError(f"unknown output format {fmt!r}")
        seed = int(job.get("seed", 0))
        _reject_non_finite(payload)
        _validate_payload(command, payload)
        passed, report, csv_data = _HANDLERS[command](payload)
    except (ConfigError, ValueError, KeyError, TypeError, OverflowError,
            CoveringInfeasibleError, witmod.BruteForceBudgetError,
            json.JSONDecodeError) as e:
        print(f"shiftlab: config error: {e}", file=sys.stderr)
        return 2

    if fmt == "csv":
        if csv_data is None:
            print(f"shiftlab: config error: {command} has no CSV form", file=sys.stderr)
            return 2
        text = _csv_text(*csv_data)
    else:
        report = dict(report)
        report.setdefault("meta", {})
        report["meta"] = dict(report["meta"])
        report["meta"]["seed"] = seed
        report["meta"]["command"] = command
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"

    path = output.get("path")
    if path:
        try:
            f = open(path, "w")
        except OSError as e:
            print(f"shiftlab: config error: {e}", file=sys.stderr)
            return 2
        with f:
            f.write(text)
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # downstream consumer (e.g. head) closed the pipe; not an error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
    return 0 if passed else 1


def _load_json(path: str):
    with open(path) as f:
        return json.load(f)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="weighted-shift laboratory: coverings, criteria checkers, "
                    "witness vectors and orbit probes")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", help="payload JSON file")
        sp.add_argument("--in", dest="in_file", help="input object file "
                        "(covering for cover-verify)")
        sp.add_argument("--params", dest="params_file",
                        help="parameters JSON file (merged into the payload)")
        sp.add_argument("--out", help="output path (default: stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--seed", type=int, default=0,
                        help="echoed into meta.seed (nothing is random)")
    args = parser.parse_args(argv)

    try:
        payload = _load_json(args.config) if args.config else {}
        if args.in_file:
            payload["covering"] = _load_json(args.in_file)
        if args.params_file:
            extra = _load_json(args.params_file)
            if not isinstance(extra, dict):
                raise ConfigError("--params file must hold a JSON object")
            payload.update(extra)
    except (OSError, json.JSONDecodeError, ConfigError) as e:
        print(f"shiftlab: config error: {e}", file=sys.stderr)
        return 2

    job = {
        "command": args.command,
        "payload": payload,
        "output": {"format": args.format, "path": args.out},
        "seed": args.seed,
    }
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
