"""Batch front-end: job configs in, JSON/CSV reports out.

Subcommands map one-to-one onto the library checkers plus an orbit probe.
Every payload is validated against its JSON schema (shipped under
``shiftlab/schemas``) before any computation, in one pass that also rejects
NaN and infinities; a non-finite number is reported before any schema error.
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
import functools
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


# ---------------------------------------------------------------------------
# payload validation
# ---------------------------------------------------------------------------


class _Unsure(Exception):
    """The compiled pass cannot judge a value exactly: draft-07 decides."""


def _uncovered(what) -> jsonschema.SchemaError:
    """A schema form the compiled pass does not cover: a bug in shiftlab, like
    a schema that fails its metaschema check."""
    return jsonschema.SchemaError(f"the compiled pass does not cover {what}")


# The types json.load builds.  A value of any other type (a tuple, a numpy
# scalar, a Decimal, a dict subclass) that the compiled pass reaches raises
# _Unsure, so draft-07 judges it with its own type rules.
_JSON_TYPES = frozenset((dict, list, str, int, float, bool, type(None)))

# the JSON types of each draft-07 type name; True is neither an integer nor a
# number, and an integral float (5.0) is an integer too
_TYPES = {"object": {dict}, "array": {list}, "string": {str}, "boolean": {bool},
          "null": {type(None)}, "number": {int, float}, "integer": {int}}

# annotations, definitions, which act only through $ref, and then and else,
# which act only through if
_PASSIVE = frozenset(("$schema", "title", "definitions", "then", "else"))


def _never(x):
    return False


def _equals(c):
    """jsonschema's equality with the JSON scalar c, for a JSON-typed value."""
    if type(c) is str:
        return lambda x: x == c
    if type(c) is bool or c is None:
        return lambda x: x is c
    if type(c) in (int, float):
        return lambda x: type(x) in (int, float) and x == c
    raise _uncovered(f"const or enum value {c!r}")


def _keyword_tests(key, val, schema, defs):
    """(types, test) of one draft-07 keyword: the test x -> bool judges the
    values of those JSON types, and the keyword passes every other value.
    ``defs`` are the definitions a ``$ref`` under val may name."""
    if key == "type":
        names = {val} if type(val) is str else set(val)
        allowed = set().union(*(_TYPES[name] for name in names))
        tests = {t: _never for t in _JSON_TYPES - allowed}
        if "integer" in names and float in tests:
            tests[float] = float.is_integer
        return [((t,), test) for t, test in tests.items()]
    if key == "const":
        return [(_JSON_TYPES, _equals(val))]
    if key == "enum":
        tests = [_equals(c) for c in val]
        return [(_JSON_TYPES, lambda x: any(test(x) for test in tests))]
    if key == "minimum":
        return [((int, float), lambda x: not x < val)]
    if key == "exclusiveMinimum":
        return [((int, float), lambda x: not x <= val)]
    if key == "minItems":
        return [((list,), lambda x: len(x) >= val)]
    if key == "maxItems":
        return [((list,), lambda x: len(x) <= val)]
    if key == "required":
        keys = frozenset(val)
        return [((dict,), lambda x: x.keys() >= keys)]
    if key == "additionalProperties" and val is False:
        allowed = frozenset(schema.get("properties", ()))
        return [((dict,), lambda x: x.keys() <= allowed)]
    if key == "properties":
        subs = [(k, _compile(sub, defs)) for k, sub in val.items()]

        def properties(x):
            for k, sub in subs:
                if k in x and not sub(x[k]):
                    return False
            return True
        return [((dict,), properties)]
    if key == "items" and isinstance(val, dict):
        sub = _compile(val, defs)

        def items(x):
            for v in x:
                if not sub(v):
                    return False
            return True
        return [((list,), items)]
    if key == "items" and type(val) is list:
        subs = [_compile(s, defs) for s in val]
        return [((list,), lambda x: all(sub(v) for sub, v in zip(subs, x)))]
    if key == "oneOf":
        subs = [_compile(s, defs) for s in val]
        return [(_JSON_TYPES, lambda x: sum(sub(x) for sub in subs) == 1)]
    if key == "allOf":
        subs = [_compile(s, defs) for s in val]
        return [(_JSON_TYPES, lambda x: all(sub(x) for sub in subs))]
    if key == "if":
        cond, then, else_ = (_compile(schema.get(k, {}), defs) for k in ("if", "then", "else"))
        return [(_JSON_TYPES, lambda x: then(x) if cond(x) else else_(x))]
    raise _uncovered(f"keyword {key!r}")


def _non_finite(obj):
    """The first NaN or infinity under a dict or list, with the keys down to
    it innermost first, or None; the keys are gathered only on the way back."""
    for key, val in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(val, float):
            if not math.isfinite(val):
                return val, [key]
        elif isinstance(val, (dict, list)):
            found = _non_finite(val)
            if found:
                found[1].append(key)
                return found
    return None


def _reject_non_finite(payload):
    """Reject NaN and infinities: Python's json reads them and the schemas let them pass."""
    found = _non_finite({"payload": payload})  # so that the path starts at payload
    if found:
        val, keys = found
        raise ConfigError(f"non-finite number {val} at {'/'.join(map(str, reversed(keys)))}")


def _finite(x) -> bool:
    """No NaN or infinity in x or anywhere under it."""
    if isinstance(x, float):
        return math.isfinite(x)
    return not isinstance(x, (dict, list)) or _non_finite(x) is None


def _compile(schema, defs=None):
    """A check x -> bool equal to draft-07's verdict on any value of JSON types
    free of NaN and infinities, and False on any other JSON value.

    A float must be finite, and the values a dict or list holds where no
    ``properties`` or ``items`` of this schema reaches are scanned, so every
    number under x meets a finiteness test.  The check raises _Unsure where
    it reaches a value of a type json.load does not build.  Compiling raises
    jsonschema.SchemaError for a keyword or form the pass does not cover.

    ``defs`` defaults to the schema's own ``definitions``.  The one ``$ref``
    covered is ``{"$ref": "#/definitions/<name>"}`` with no sibling keyword,
    and it compiles to the check of that definition, as if written in place.
    """
    if not isinstance(schema, dict):
        raise _uncovered(f"schema {schema!r}")
    if defs is None:
        defs = schema.get("definitions", {})
    if "$ref" in schema:
        ref = schema["$ref"]
        name = ref.removeprefix("#/definitions/") if type(ref) is str else ref
        if len(schema) > 1 or name == ref or name not in defs:
            raise _uncovered(f"$ref in {schema!r}")
        return _compile(defs[name], defs)
    by_type = {t: [] for t in _JSON_TYPES}
    by_type[float].append(math.isfinite)
    if schema.get("additionalProperties") is not False:  # else every key is named
        named = frozenset(schema.get("properties", ()))
        by_type[dict].append(lambda x: x.keys() <= named
                             or all(_finite(v) for k, v in x.items() if k not in named))
    items = schema.get("items")
    if not isinstance(items, dict):
        start = len(items) if type(items) is list else 0
        by_type[list].append(lambda x: len(x) <= start or all(map(_finite, x[start:])))
    for key, val in schema.items():
        if key not in _PASSIVE:
            for types, test in _keyword_tests(key, val, schema, defs):
                for t in types:
                    by_type[t].append(test)

    def check(x):
        tests = by_type.get(type(x))
        if tests is None:
            raise _Unsure(f"value of type {type(x).__name__}")
        for test in tests:
            if not test(x):
                return False
        return True

    return check


class _Schema(dict):
    """A command's schema, with ``accepts`` its compiled pass."""

    def __init__(self, schema: dict):
        super().__init__(schema)
        self._check = _compile(schema)

    def accepts(self, payload) -> bool:
        """True only if draft-07 accepts the payload and it holds no NaN or
        infinity; False leaves it to _reject_non_finite and draft-07."""
        try:
            return self._check(payload)
        except _Unsure:
            return False


def _iter_errors_compiled(self, instance):
    """No error for a payload the schema's compiled pass accepts.  Any other
    payload exits 2 on its first NaN or infinity, before any schema message,
    and otherwise gets draft-07's errors, and so jsonschema's best_match
    message."""
    if self.schema.accepts(instance):
        return iter(())
    _reject_non_finite(instance)
    return jsonschema.Draft7Validator(self.schema).iter_errors(instance)


# Draft-07 validation that tries the compiled pass first, without the
# metaschema check that jsonschema.validate makes on every call: _schema_for
# makes it once per command instead.
_Draft7Compiled = jsonschema.validators.extend(jsonschema.Draft7Validator)
_Draft7Compiled.check_schema = classmethod(lambda cls, schema: None)
_Draft7Compiled.iter_errors = _iter_errors_compiled


@functools.cache
def _schema_for(command: str) -> _Schema:
    """The command's schema, checked against draft-07 and compiled on the first call.

    Every call returns the same dict: read it, do not change it.
    """
    name = command.replace("-", "_") + ".schema.json"
    ref = resources.files("shiftlab.schemas").joinpath(name)
    schema = json.loads(ref.read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    return _Schema(schema)


def _validate_payload(command: str, payload: dict):
    try:
        jsonschema.validate(payload, _schema_for(command), cls=_Draft7Compiled)
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


def _given(obj: dict, **convert) -> dict:
    """Keyword arguments for the keys present in ``obj``, each converted.

    A key left out of the payload takes the library's own default.
    """
    return {k: f(obj[k]) for k, f in convert.items() if k in obj}


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
    tables of the log cumulative weights; each step's T^N x is built once
    for every target not yet hit.  T^N x is zero for every N past the
    largest support index of x, so the scan stops at the first such N.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    fams = tuple(fams)
    lam = tuple(float(a) for a in lam)
    x = tuple(x)
    d = len(fams)
    if len(lam) != d or len(x) != d:
        raise ValueError("lambda and x must match the family dimension")
    targets = [tuple(t) for t in targets]
    if any(len(t) != d for t in targets):
        raise ValueError("every target needs one vector per axis")
    tops = [v.support_max() for v in x]
    prefixes = [log_cum_prefix(f, a, top or 0) for f, a, top in zip(fams, lam, tops)]
    start = 0 if allow_zero else 1
    last = max(start, max((t for t in tops if t is not None), default=-1) + 1)
    found = [(None, None)] * len(targets)
    for N in range(start, min(n_max, last) + 1):
        pending = [t for t, (n, _) in enumerate(found) if n is None]
        if not pending:
            break
        orbit = [SeqVec({k - N: c * math.exp(pref[k] - pref[k - N])
                         for k, c in v.items() if k >= N}) for v, pref in zip(x, prefixes)]
        for t in pending:
            err = 0.0
            for ax in range(d):
                err += seq_norm(orbit[ax] - targets[t][ax], space_norm)
            if err < eps:
                found[t] = (N, err)
    return [{"target": t, "hit": n is not None, "N": n, "error": err}
            for t, (n, err) in enumerate(found)]


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
        space_norm=_parse_norm(payload.get("norm")),
        region=payload.get("region"),
        **_given(payload, samples_per_axis=int),
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
        I0_points=int(po["I0"].get("points", critmod.I0_POINTS)),
        **_given(po, d=int, divergence_threshold=float),
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
    grid = np.linspace(float(i0["lo"]), float(i0["hi"]), int(i0.get("points", critmod.I0_POINTS)))
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
    return True, w.to_json_dict(**_given(payload, include_coeffs=bool)), None


def _h_witness_eval(payload: dict):
    cfg = witmod.WitnessConfig.from_json_dict(payload["config"])
    w = witmod.build_witness(cfg)
    lam = [float(a) for a in payload["lambda"]]
    path = payload.get("path", "analytic")
    if path == "analytic":
        ev = witmod.eval_analytic(w, lam)
    elif path == "bruteforce":
        n = payload.get("N")
        if n is None:
            n = w.powers[witmod.locate_cell(w.covering, lam)]
        ev = witmod.eval_bruteforce(w, lam, int(n), **_given(payload, budget=int))
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
                              **_given(payload, grid_per_axis=int))
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
        **_given(payload, allow_zero=bool),
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
        _validate_payload(command, payload)
        passed, report, csv_data = _HANDLERS[command](payload)
    except (ConfigError, ValueError, OverflowError, CoveringInfeasibleError,
            witmod.BruteForceBudgetError) as e:
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
