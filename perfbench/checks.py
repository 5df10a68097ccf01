"""Output checks behind ``fail_ratio``.

A job fails when it raises, exits with a code other than its expected one,
returns a report whose verdict disagrees with its exit code, breaks an
invariant below, changes its report bytes from one pass to the next, or (for
seeds with a recorded reference) leaves the reference's tolerance.

Tolerance.  Numbers are compared with ``math.isclose(rel_tol=RTOL,
abs_tol=ATOL)``.  Byte identity would be too strict: a more accurate window
kernel moves low-order bits on purpose.  The lossy cumulative-sum window path
has a relative error near 1e-10 at offset 1e6 and 1.2e-8 at offset 4e7, and
the windows here are at most 1e6 long, so a correct kernel stays well inside
RTOL = 1e-6.  A wrong window length or offset moves a log window by at least
log(1 + lam/n), about 1.5e-6 at n = 1e6 and 5e-4 at n = 3,000, so it fails.
ATOL only lets an exact zero match a rounding residue.

Two kinds of field are skipped, and both are still covered elsewhere.
``margin`` is bound minus achieved: when the two nearly cancel, its relative
change is not a measure of accuracy, and both operands are compared anyway.
``witness`` holds the location of a sampled maximum, which may move between
near-tied points when low-order bits move; the maximum itself is compared.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import List, Optional

import numpy as np

RTOL = 1e-6
ATOL = 1e-15
SKIPPED_KEYS = frozenset({"margin", "witness"})

REFS = Path(__file__).resolve().parent / "refs"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ref_path(workload: str, seed: int) -> Path:
    if workload == "examples":  # seed-independent payloads
        return REFS / "examples.json"
    return REFS / f"{workload}-seed{seed}.json"


def load_ref(workload: str, seed: int) -> Optional[dict]:
    path = ref_path(workload, seed)
    return json.loads(path.read_text()) if path.is_file() else None


def compare(got, ref, path: str = "report") -> List[str]:
    """Differences between a report and its reference beyond the tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ from the reference"]
        out = []
        for k in sorted(ref):
            if k not in SKIPPED_KEYS:
                out += compare(got[k], ref[k], f"{path}.{k}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from the reference"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += compare(g, r, f"{path}[{i}]")
        return out
    if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(ref, (int, float)):
        return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]
    if not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if isinstance(ref, int) and isinstance(got, int):
        return [] if got == ref else [f"{path}: {got} != reference {ref}"]
    if math.isnan(ref) and math.isnan(got):
        return []
    if math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL):
        return []
    return [f"{path}: {got!r} differs from reference {ref!r} beyond rtol {RTOL:g}"]


def _sweep_invariants(job: dict, report: dict) -> List[str]:
    """Exact sizes and the paper's decay trend, for any seed."""
    cfg = job["payload"]["config"]
    m, r = cfg["log_cov"]["m"], cfg["log_cov"]["r"]
    box = cfg["log_cov"]["box"]
    bases = job["payload"]["bases"]
    rows = report.get("rows", [])
    if len(rows) != len(bases):
        return [f"sweep has {len(rows)} rows for {len(bases)} bases"]
    out = []
    lam_min = min(lo for lo, _ in box)
    slope = -(min(lo / hi for lo, hi in box) - 1.0 / m) * lam_min
    for base, row in zip(bases, rows):
        sigma = base**m
        # q is the largest square not above floor(log(sigma)**3 + 1)
        g = math.isqrt(math.floor(math.log(sigma) ** 3 + 1.0))
        q = g * g
        want = {"sigma": sigma, "q": q,
                "N_1": (m - 1) * sigma + base ** (m - 1) * (1 + r) ** r,
                "N_q": (m - 1) * sigma + base ** (m - 1) * (q + r) ** r}
        for key, val in want.items():
            if row.get(key) != val:
                out.append(f"row base={base}: {key} = {row.get(key)!r}, expected {val}")
        if not math.isclose(row["predicted_p2_slope"], slope, rel_tol=1e-12):
            out.append(f"row base={base}: predicted_p2_slope {row['predicted_p2_slope']!r}")
        for key in ("p1_worst", "p2_worst", "p3_worst", "premature_max"):
            if not (math.isfinite(row[key]) and row[key] >= 0.0):
                out.append(f"row base={base}: {key} = {row[key]!r}")
    if out:
        return out
    totals = [row["p1_worst"] + row["p2_worst"] + row["p3_worst"] for row in rows]
    if not all(b < a for a, b in zip(totals, totals[1:])):
        out.append("witness error does not decrease with sigma")
    return out


def log_window(family: dict, lam: float, l: int, n: int) -> float:
    """sum_{i=l+1}^{l+n} log w_i(lam), written from the weight definitions.

    affine: w_i = 1 + lam / i**(1-alpha), summed term by term and rounded
    once by math.fsum.  pure_power: w_1 = 1 and w_i = (i/(i-1))**lam, which
    telescopes to lam*log((l+n)/max(l,1)).  exp_alpha: w_i =
    exp(lam*(i**a - (i-1)**a)), which telescopes to lam*((l+n)**a - l**a).
    """
    variant = family["variant"]
    if n == 0:
        return 0.0
    if variant == "affine":
        i = np.arange(l + 1, l + n + 1, dtype=np.float64)
        return math.fsum(np.log1p(lam / i ** (1.0 - family["alpha"])).tolist())
    if variant == "pure_power":
        return lam * (math.log(l + n) - math.log(max(l, 1)))
    if variant == "exp_alpha":
        a = family["alpha"]
        return lam * ((l + n) ** a - l**a)
    raise ValueError(f"no oracle window for {variant}")


ORACLE_VARIANTS = frozenset({"affine", "pure_power", "exp_alpha"})


def _has_oracle(*families: dict) -> bool:
    return all(f["variant"] in ORACLE_VARIANTS for f in families)


def _close(name: str, got: float, want: float) -> List[str]:
    if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL):
        return []
    return [f"{name} = {got!r}, recomputed {want!r}"]


def _not_above(name: str, worst: float, val: float) -> List[str]:
    """A reported maximum must not lie below a value at another point."""
    if val <= worst + RTOL * abs(worst) + ATOL:
        return []
    return [f"{name} = {worst!r} is not the maximum: recomputed {val!r} elsewhere"]


def _carac_oracle(job: dict, report: dict) -> List[str]:
    """Conditions ii and iii of carac-check, recomputed for any seed.

    Only for one axis and the default l1 norm, as in the carac workload.
    Condition ii is sum_k exp(-W(lam_k, 0, n_k) / m).  Condition iii is
    recomputed at the (k, l) that the report names as its witness, and at a
    few other (k, l), which must not exceed the reported maximum; these use
    window offsets l > 0 and n_j - n_k + l.
    """
    p = job["payload"]
    if (len(p["families"]) != 1 or p["params"].get("norm", "l1") != "l1"
            or not _has_oracle(*p["families"])):
        return []
    fam, m, N = p["families"][0], p["params"]["m"], p["params"]["N"]
    sched = [(n, lam[0]) for n, lam in p["schedule"]]
    ii = math.fsum(math.exp(-log_window(fam, lam, 0, n) / m) for n, lam in sched)
    out = _close("carac ii", report["conditions"]["ii"]["achieved"], ii)

    def iii(k: int, l: int) -> float:
        n_k, lam_k = sched[k]
        return math.fsum(math.exp(log_window(fam, lam_k, n_j - n_k + l, n_k)
                                  - log_window(fam, lam_j, l, n_j))
                         for n_j, lam_j in sched[k + 1:])

    cond = report["conditions"]["iii"]
    w = cond["witness"]
    out += _close("carac iii", cond["achieved"], iii(w["k"], w["l"]))
    q = len(sched)
    for k, l in ((0, 0), (0, N), (q // 2, N // 2), (q - 2, N)):
        out += _not_above("carac iii", cond["achieved"], iii(k, l))
    return out


def _corollary_oracle(job: dict, report: dict) -> List[str]:
    """The growth minimum over the I0 grid at the reported n, recomputed for any seed."""
    p = job["payload"]
    if p["family"]["variant"] != "affine":
        return []
    growth = report["conditions"]["growth"]
    n = growth["witness"]["n"]
    grid = np.linspace(p["I0"]["lo"], p["I0"]["hi"], p["I0"]["points"]).tolist()
    want = min(log_window(p["family"], a, 0, n) for a in grid)
    return _close("corollary growth", growth["achieved"], want)


def _unif_oracle(job: dict, report: dict) -> List[str]:
    """unif-check conditions ii and iii at their witnesses, for any seed.

    ii is min over the I0 grid of W(a, 0, k_max).  The iii margins are the
    log of each display minus log(M0 / k**beta), at the reported (n, k, a).
    """
    p = job["payload"]["params"]
    fam = job["payload"]["family"]
    F = p["F"]
    if F["kind"] != "power" or not _has_oracle(fam):
        return []
    grid = np.linspace(p["I0"]["lo"], p["I0"]["hi"], p["I0"]["points"]).tolist()
    conds = report["conditions"]
    out = _close("unif ii", conds["ii"]["achieved"],
                 min(log_window(fam, a, 0, p["k_max"]) for a in grid))

    def log_rhs(k: int) -> float:
        return math.log(p["M0"]) - p["beta"] * math.log(k)

    w = conds["iii.growth"]["witness"]
    n, k, a = w["n"], w["k"], w["a"]
    growth = p["C2"] * k ** p["alpha"] * F["D1"] * (n + k) ** (F["alpha"] - p["alpha"])
    out += _close("unif iii.growth", conds["iii.growth"]["achieved"],
                  growth - log_window(fam, a, 0, k) - log_rhs(k))
    w = conds["iii.root"]["witness"]
    k, a = w["k"], w["a"]
    out += _close("unif iii.root", conds["iii.root"]["achieved"],
                  -log_window(fam, a, 0, k) / p["m_prime"] - log_rhs(k))
    return out


def _criterion_oracle(job: dict, report: dict) -> List[str]:
    """criterion-check II.a, and II.b, III and IV at their witnesses, for any seed.

    Only for the default l1 norm.  With A_j(l) = root_l * exp(-W(anchor_j, l,
    n_j) / m_lo) on every axis, the displays are sums of positive terms, so
    each l1 norm is a plain sum: II.a sums A_j(l) over cells j; II.b sums
    A_j(l)**m * exp(W(lam, l + n_j - n_i, n_i)) over j != i; III sums
    A_i(l)**m * exp(W(lam, l, n_i)); IV sums |A_i(l)**m_lo * exp(W(lam, l,
    n_i)) - v_l|.
    """
    p = job["payload"]
    if p.get("norm", "l1") != "l1" or not _has_oracle(*p["families"]):
        return []
    fams, m_lo, cells = p["families"], p["m_lo"], p["covering"]["cells"]
    ns = [c["n"] for c in cells]
    v = [{k: c for k, c in vec["entries"]} for vec in p["v"]]
    root = [{l: c ** (1.0 / m_lo) for l, c in vec.items()} for vec in v]
    A = [[{l: r * math.exp(-log_window(fams[ax], cell["anchor"][ax], l, n) / m_lo)
           for l, r in root[ax].items()}
          for cell, n in zip(cells, ns)]
         for ax in range(len(fams))]
    conds = report["conditions"]
    out = _close("criterion II.a", conds["II.a"]["achieved"],
                 math.fsum(c for axis in A for row in axis for c in row.values()))

    def head(ax: int, i: int, lam: float, m: int):
        return {l: a**m * math.exp(log_window(fams[ax], lam, l, ns[i]))
                for l, a in A[ax][i].items()}

    if "witness" in conds["II.b"]:
        w = conds["II.b"]["witness"]
        i, lam, m = w["cell"], w["lambda"], w["m"]
        want = math.fsum(
            a**m * math.exp(log_window(fams[ax], lam[ax], l + ns[j] - ns[i], ns[i]))
            for ax in range(len(fams)) for j in range(len(cells)) if j != i
            for l, a in A[ax][j].items() if l + ns[j] - ns[i] >= 0)
        out += _close("criterion II.b", conds["II.b"]["achieved"], want)
    if "witness" in conds["III"]:
        w = conds["III"]["witness"]
        want = math.fsum(c for ax in range(len(fams))
                         for c in head(ax, w["cell"], w["lambda"][ax], w["m"]).values())
        out += _close("criterion III", conds["III"]["achieved"], want)
    if "witness" in conds["IV"]:
        w = conds["IV"]["witness"]
        want = math.fsum(abs(head(ax, w["cell"], w["lambda"][ax], m_lo).get(l, 0.0)
                             - v[ax].get(l, 0.0))
                         for ax in range(len(fams)) for l in v[ax])
        out += _close("criterion IV", conds["IV"]["achieved"], want)
    return out


ORACLES = {"carac-check": _carac_oracle, "corollary-check": _corollary_oracle,
           "unif-check": _unif_oracle, "criterion-check": _criterion_oracle}


def _condition_invariants(report: dict) -> List[str]:
    conds = report["conditions"]
    out = []
    for name, c in conds.items():
        if not isinstance(c.get("achieved"), (int, float)) or math.isnan(c["achieved"]):
            out.append(f"condition {name}: achieved = {c.get('achieved')!r}")
        if not isinstance(c.get("evaluations"), int) or c["evaluations"] < 0:
            out.append(f"condition {name}: evaluations = {c.get('evaluations')!r}")
    if report["pass"] != all(c["pass"] for c in conds.values()):
        out.append("overall pass disagrees with the conditions")
    return out


def check_job(job: dict, rc, text: str, error: str = "",
              ref: Optional[dict] = None, oracle: bool = True) -> List[str]:
    """Every problem with one job's outcome; an empty list means it is correct.

    ``oracle`` recomputes numbers of carac, corollary, unif and criterion
    reports from the weight definitions, for any seed; a caller that already
    checked the same bytes may skip it.
    """
    if rc is None:
        return [f"raised {error}"]
    problems = []
    if rc != job["expect"]:
        problems.append(f"exit {rc}, expected {job['expect']}: {error.strip()[:200]}")
    if rc == 2:
        return problems
    try:
        report = json.loads(text)
    except ValueError as e:
        return problems + [f"report is not JSON: {e}"]
    try:
        return problems + _report_problems(job, rc, report, ref, oracle)
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        return problems + [f"report lacks an expected field: {e!r}"]


def _report_problems(job: dict, rc: int, report: dict, ref: Optional[dict],
                     oracle: bool) -> List[str]:
    problems = []
    if report.get("meta", {}).get("command") != job["command"]:
        problems.append("report meta.command does not name the job's command")
    if "pass" in report and report["pass"] != (rc == 0):
        problems.append(f"report pass = {report['pass']!r} but exit {rc}")
    if "conditions" in report:
        problems += _condition_invariants(report)
    if job["command"] == "witness-sweep":
        problems += _sweep_invariants(job, report)
    if oracle and job["command"] in ORACLES:
        problems += ORACLES[job["command"]](job, report)
    if ref is not None:
        if rc != ref["exit"]:
            problems.append(f"exit {rc}, reference {ref['exit']}")
        problems += compare(report, ref["report"])
    return problems
