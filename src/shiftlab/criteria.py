"""Numeric checkers for the shift-family criteria.

Four checkers share a common report shape:

* ``check_basic_criterion``  -- the four displayed norms (II.a, II.b, III, IV)
  of the algebra criterion, sampled over a covering's cells;
* ``check_unif_hypotheses``  -- Lipschitz profile, divergence probe and the
  two tail displays bounded by M0 / k**beta;
* ``check_corollary_hypotheses`` -- the two practical bullet conditions
  (power or log Lipschitz profile plus a cumulative growth floor);
* ``check_carac_conditions`` -- spacing, box cover and the two tail sums of
  the characterization.

Every checker is a pure function returning a CriterionReport with one entry
per condition: pass flag, worst achieved value, bound, and the witnessing
parameter point.  Identical inputs produce bitwise-identical JSON reports.
Large cumulative products are compared in log domain throughout.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from .covering import CheckResult, Covering, CriterionReport, box_union_covers, as_box
from .lognum import logsumexp
from .seqspace import _TINY, L1, ProductKind, SeqVec, SpaceNorm, _norm, cw_root, norm
from .weights import (
    LipschitzProfile,
    WeightFamily,
    _max_slope,
    log_cum_prefix,
    log_cum_window,
    log_cum_windows,
    log_weight,
)

_MAX_PAIR_GRID = 50_000_000  # guard for the (n, k) product in the tail displays


def _require_fnorm_bullets(space_norm: SpaceNorm):
    """Precondition on the chosen norm: the three scalar-scaling bullets.

    |c| <= 1 must not increase the norm, ||c*x|| <= (|c|+1)*||x|| must hold,
    and scaling to zero must drive the norm to zero.  Probed numerically on a
    fixed vector and scalar grid.
    """
    probe = SeqVec({0: 1.0, 3: -0.5, 7: 2.0})
    base = norm(probe, space_norm)
    for c in (-1.5, -1.0, -0.5, -0.1, 0.1, 0.5, 1.0, 1.5):
        val = norm(c * probe, space_norm)
        if abs(c) <= 1.0 and val > base * (1 + 1e-9):
            raise ValueError(f"norm violates the contraction bullet at c = {c}")
        if val > (abs(c) + 1.0) * base * (1 + 1e-9):
            raise ValueError(f"norm violates the (|c|+1) scaling bullet at c = {c}")
    if norm(1e-200 * probe, space_norm) > 1e-150:
        raise ValueError("norm does not scale to zero with the scalar")


def _canonical(c: np.ndarray) -> np.ndarray:
    """Coefficients as a SeqVec stores them: |c| below the least normal is 0."""
    if not np.isfinite(c).all():
        raise ValueError("non-finite coefficient in a criterion display")
    return np.where(np.abs(c) < _TINY, 0.0, c)


def _norm_from_logcoeffs(logcs: Sequence[float], n: SpaceNorm) -> float:
    """Norm of a vector given the logs of its (positive) coefficients."""
    logcs = [c for c in logcs if c != -math.inf]
    if not logcs:
        return 0.0
    if n.kind == "sup":
        return math.exp(max(logcs))
    return math.exp(logsumexp([n.p * c for c in logcs]) / n.p)


# ---------------------------------------------------------------------------
# basic criterion for algebras
# ---------------------------------------------------------------------------


def check_basic_criterion(
    fams: Sequence[WeightFamily],
    cov: Covering,
    v: Sequence[SeqVec],
    m_lo: int,
    m_hi: int,
    eps: float,
    samples_per_axis: int = 3,
    space_norm: SpaceNorm = L1,
    product_kind: ProductKind = ProductKind.COORDINATEWISE,
    region=None,
) -> CriterionReport:
    """Evaluate the four displayed norms of the algebra criterion on a covering.

    For every cell i, every sampled lambda in its box and every power m in
    the admitted range, the displays are evaluated with the coordinatewise
    product and compared against eps; the report carries the worst sample per
    condition.  Condition I (the cover itself) is delegated to the covering's
    union check and only evaluated when ``region`` is supplied.
    """
    if product_kind is not ProductKind.COORDINATEWISE:
        raise ValueError("check_basic_criterion supports the coordinatewise product only")
    _require_fnorm_bullets(space_norm)
    fams = tuple(fams)
    v = tuple(v)
    d = cov.d
    if len(fams) != d or len(v) != d:
        raise ValueError(f"need {d} weight families and {d} target vectors")
    if m_lo < 1 or m_hi < m_lo:
        raise ValueError("power range must satisfy 1 <= m_lo <= m_hi")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    for ax, vec in enumerate(v):
        for k, c in vec.items():
            if c < 0.0:
                raise ValueError(f"target vector {ax} has negative entry at index {k}")

    roots = [cw_root(vec, m_lo) for vec in v]
    ms = range(m_lo, m_hi + 1)

    # Flat per-axis arrays over the (cell j, support index l) pairs, j-major:
    # l, n_j, the target at l and the powers A**m of the forward coefficients
    # A = root_l * exp(-window(anchor_j, l, n_j)/m_lo).  Powers use Python's
    # float pow and the windows below math.exp, as the sparse operators do;
    # np.power and np.exp can differ from them in the last bit.
    flat = []
    total = 0.0  # II.a: the lambda-independent forward sum
    for ax, root in enumerate(roots):
        supp = np.asarray(root.support(), dtype=np.int64)
        coeffs = np.asarray([root.coeff(int(l)) for l in supp])
        with np.errstate(over="ignore"):  # _canonical rejects the overflow below
            A = np.concatenate([coeffs * np.exp(-log_cum_windows(
                fams[ax], cell.anchor[ax], supp, np.full(supp.shape, cell.n)) / m_lo)
                for cell in cov.cells])
        ls, ns = np.tile(supp, cov.q), np.repeat(cov.powers, len(supp))
        # bincount adds colliding indices in (j, l) order, as dict updates do
        _, inv = np.unique(ls + ns, return_inverse=True)
        total += _norm(_canonical(np.bincount(inv, A)).tolist(), space_norm)
        target = np.asarray([v[ax].coeff(int(l)) for l in supp])
        flat.append((ls, ns, target, {m: np.asarray([a**m for a in A.tolist()]) for m in ms}))

    conds: Dict[str, CheckResult] = {}
    if region is None:
        conds["I"] = CheckResult(
            True, 0.0, 0.0, evaluations=0,
            note="delegated to the covering union check; no region supplied")
    else:
        covered, missing, count = box_union_covers([c.box for c in cov.cells], as_box(region))
        conds["I"] = CheckResult(
            covered, float(count), 0.0, evaluations=1,
            witness=None if covered else {"uncovered_point": list(missing)})
    conds["II.a"] = CheckResult(total <= eps, total, eps, evaluations=1)

    worst = {name: CheckResult(True, 0.0, eps, evaluations=0) for name in ("II.b", "III", "IV")}

    def record(name, val, witness):
        cur = worst[name]
        cur.evaluations += 1
        if val > cur.achieved:
            cur.achieved, cur.witness, cur.passed = val, witness, val <= eps

    for i, cell in enumerate(cov.cells):
        n_i = cell.n
        # B^{n_i} moves (j, l) to l + n_j - n_i; the row j = i lands on l
        axes = []
        for (ls, ns, target, Am), a, (lo, hi) in zip(flat, cell.anchor, cell.box):
            offs = ls + ns - n_i
            keep = offs >= 0
            offs, own = offs[keep], ns[keep] == n_i
            _, inv = np.unique(offs[~own], return_inverse=True)
            lams = [a] if samples_per_axis == 1 else np.linspace(lo, hi, samples_per_axis).tolist()
            axes.append((lams, offs, own, ~own, inv, target, {m: x[keep] for m, x in Am.items()}))

        @functools.cache
        def axis_norms(ax, k):
            # per power m: II.b over the rows j != i, III (IV for m_lo) over j = i
            lams, offs, own, other, inv, target, Am = axes[ax]
            w = log_cum_windows(fams[ax], lams[k], offs, np.full(offs.shape, n_i))
            e = np.asarray([math.exp(x) for x in w.tolist()])
            out = []
            for m in ms:
                c = Am[m] * e
                tail = _norm(_canonical(np.bincount(inv, c[other])).tolist(), space_norm)
                c = _canonical(c[own])
                if m == m_lo:
                    c = _canonical(c - target)
                out.append((tail, _norm(c.tolist(), space_norm)))
            return out

        # sum in axis order with + (sum() may compensate); an axis value is computed on first use
        for idx in itertools.product(range(samples_per_axis), repeat=d):
            lam = [axes[ax][0][k] for ax, k in enumerate(idx)]
            for mi, m in enumerate(ms):
                tail = head = 0.0
                for ax, k in enumerate(idx):
                    t, h = axis_norms(ax, k)[mi]
                    tail, head = tail + t, head + h
                record("II.b", tail, {"cell": i, "lambda": list(lam), "m": m})
                if m == m_lo:
                    record("IV", head, {"cell": i, "lambda": list(lam)})
                else:
                    record("III", head, {"cell": i, "lambda": list(lam), "m": m})

    if m_hi == m_lo:
        worst["III"].note = "vacuous: the power range (m_lo, m_hi] is empty"
    conds.update(worst)

    meta = {"q": cov.q, "d": d, "m_lo": m_lo, "m_hi": m_hi, "eps": eps,
            "samples_per_axis": samples_per_axis, "norm": space_norm.to_json(),
            "sampled_sup_note": "sampled maxima are lower bounds on the true suprema"}
    return CriterionReport(conditions=conds, meta=meta)


# ---------------------------------------------------------------------------
# unified-criterion hypotheses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnifParams:
    m_prime: int
    alpha: float
    C1: float
    C2: float
    beta: float
    M0: float
    N0: int
    F: LipschitzProfile
    n_max: int
    k_max: int
    I0_lo: float
    I0_hi: float
    I0_points: int = 9
    d: int = 1
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if self.m_prime < 1:
            raise ValueError("m_prime must be a positive integer")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not (0.0 < self.alpha < 1.0 / self.d):
            raise ValueError(f"alpha must lie in (0, 1/d); got {self.alpha}")
        if not (self.beta > self.alpha * self.d):
            raise ValueError(
                f"beta must exceed alpha*d = {self.alpha * self.d}; got {self.beta}")
        for name in ("C1", "C2", "M0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.N0 < 1 or self.n_max < self.N0 or self.k_max < self.N0:
            raise ValueError("need 1 <= N0 <= n_max and N0 <= k_max")
        if not (self.I0_lo > 0.0 and self.I0_hi >= self.I0_lo):
            raise ValueError("I0 must be a compact interval in (0, +inf)")
        if self.I0_points < 2:
            raise ValueError("I0 grid needs at least 2 points")
        if (self.n_max - self.N0 + 1) * (self.k_max - self.N0 + 1) > _MAX_PAIR_GRID:
            raise ValueError("n_max*k_max grid too large; lower the evaluation bounds")
        ns = np.arange(self.N0, self.n_max + 1, dtype=np.float64)
        if (np.asarray(self.F(ns)) > self.C1 * ns**self.alpha).any():
            raise ValueError("profile violates F(n) <= C1 * n**alpha on [N0, n_max]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.I0_lo, self.I0_hi, self.I0_points)


def check_unif_hypotheses(
    fam: WeightFamily, p: UnifParams, collect_table: bool = False
) -> CriterionReport:
    """Check the Lipschitz, divergence and tail-display hypotheses.

    (i) grid Lipschitz ratios against F(n); (ii) divergence probe of the
    cumulative products at k_max (a finite check cannot certify divergence,
    so the report labels it a probe); (iii) the two displayed inequalities
    against M0/k**beta for all admitted (n, k) pairs, in log domain.  The
    growth display depends on n only through n + k, so (iii) takes the worst
    n per k as a window max and holds O(n_max + k_max) floats per grid
    point; only ``collect_table`` materializes the (n, k) margins.
    """
    grid = p.grid()
    ns = np.arange(p.N0, p.n_max + 1, dtype=np.int64)
    ks = np.arange(p.N0, p.k_max + 1, dtype=np.int64)
    conds: Dict[str, CheckResult] = {}

    # one prefix per distinct grid point serves (i) and (iii)
    pts = sorted(set(grid.tolist()))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct grid points")
    prefs = {a: log_cum_prefix(fam, a, max(p.n_max, p.k_max)) for a in pts}
    ratios = _max_slope(pts, (prefs[a][ns] for a in pts))
    fn = np.asarray(p.F(ns), dtype=np.float64)
    diff = ratios - fn
    w = int(np.argmax(diff))
    conds["i"] = CheckResult(
        bool(diff[w] <= 0.0), float(ratios[w]), float(fn[w]),
        witness={"n": int(ns[w])}, evaluations=len(ns))

    # (ii) divergence probe: smallest cumulative product at k_max over the grid
    fk_last = np.asarray([log_cum_window(fam, a, 0, p.k_max) for a in grid])
    w = int(np.argmin(fk_last))
    conds["ii"] = CheckResult(
        bool(fk_last[w] >= math.log(p.divergence_threshold)),
        float(fk_last[w]), math.log(p.divergence_threshold), sense="floor",
        witness={"a": float(grid[w]), "k": p.k_max}, evaluations=len(grid),
        note="probe, not proof: log of the cumulative product at k_max")

    # (iii) both tail displays, worst over (n, k, a), log domain.  The growth
    # display c_k * h(n + k), c_k = C2*k**alpha and h(s) = F(s)/s**alpha, sees
    # n only through s: row k - N0 of the window view holds h(k+N0..k+n_max).
    # Scaling by c_k > 0 and subtracting are monotone in floating point, so
    # the window max gives the worst n per k with the bits of the full grid.
    s = np.arange(2 * p.N0, p.n_max + p.k_max + 1, dtype=np.float64)
    h = p.F(s) / s**p.alpha
    win = np.lib.stride_tricks.sliding_window_view(h, len(ns))
    ck = p.C2 * ks.astype(np.float64) ** p.alpha
    log_rhs = math.log(p.M0) - p.beta * np.log(ks.astype(np.float64))
    fk = np.stack([prefs[a][ks] for a in grid.tolist()])  # (grid point, k)
    m1 = (ck * win.max(axis=1) - fk) - log_rhs
    m2 = (-fk / p.m_prime) - log_rhs

    # witnesses: the first grid point, then the first (n, k) in n-major order;
    # only the columns tying for the maximum are rescanned (rounding ties n)
    g = int(np.argmax(m1.max(axis=1)))
    top = m1[g].max()
    cols = np.flatnonzero(m1[g] == top)
    hit = ((ck[cols, None] * win[cols] - fk[g, cols, None]) - log_rhs[cols, None]).T == top
    i, j = np.unravel_index(int(np.argmax(hit)), hit.shape)
    conds["iii.growth"] = CheckResult(
        bool(top <= 0.0), float(top), 0.0,
        witness={"n": int(ns[i]), "k": int(ks[cols[j]]), "a": float(grid[g])},
        evaluations=len(grid) * len(ns) * len(ks),
        note="log-domain margin of the growth display against M0/k**beta")
    g, j = np.unravel_index(int(np.argmax(m2)), m2.shape)
    conds["iii.root"] = CheckResult(
        bool(m2[g, j] <= 0.0), float(m2[g, j]), 0.0,
        witness={"k": int(ks[j]), "a": float(grid[g])},
        evaluations=len(grid) * len(ks),
        note="log-domain margin of the 1/m'-root display against M0/k**beta")

    meta = {"family": fam.to_json_dict(), "m_prime": p.m_prime, "alpha": p.alpha,
            "beta": p.beta, "M0": p.M0, "N0": p.N0, "n_max": p.n_max, "k_max": p.k_max}
    if collect_table:
        # per-(n, k) margins, worst over the parameter grid, hence at its least
        # prefix; the root display carries no n dependence and repeats along rows
        fmin = fk.min(axis=0)
        t1 = ((ck[:, None] * win - fmin[:, None]) - log_rhs[:, None]).T.tolist()
        t2 = ((-fmin / p.m_prime) - log_rhs).tolist()
        meta["table"] = [{"n": n, "k": k, "log_margin_growth": t1[i][j],
                          "log_margin_root": t2[j]}
                         for i, n in enumerate(ns.tolist()) for j, k in enumerate(ks.tolist())]
    return CriterionReport(conditions=conds, meta=meta)


# ---------------------------------------------------------------------------
# corollary hypotheses
# ---------------------------------------------------------------------------


def check_corollary_hypotheses(
    fam: WeightFamily,
    I0_grid: Sequence[float],
    variant: int,
    constants: dict,
    N: int,
    n_max: int,
) -> CriterionReport:
    """Check the two bullet conditions of one practical corollary.

    Variant 1: D1*n**alpha-Lipschitz window sums plus growth floor
    D2*exp(D3*n**alpha).  Variant 2: D1*log(n)-Lipschitz plus growth floor
    D2*n**gamma.  Both bullets are verified on the grid for N <= n <= n_max.
    """
    grid = sorted(set(float(a) for a in I0_grid))
    if len(grid) < 2:
        raise ValueError("I0 grid needs at least 2 distinct points")
    if N < 1 or n_max < N:
        raise ValueError("need 1 <= N <= n_max")
    D1 = float(constants["D1"])
    D2 = float(constants["D2"])
    if D1 <= 0.0 or D2 <= 0.0:
        raise ValueError("constants must be positive")
    nsf = np.arange(N, n_max + 1, dtype=np.float64)

    if variant == 1:
        alpha = constants.get("alpha", fam.alpha)
        if alpha is None:
            raise ValueError("variant 1 needs alpha (from constants or the family)")
        D3 = float(constants["D3"])
        if D3 <= 0.0:
            raise ValueError("constants must be positive")
        lip_bound = D1 * nsf**alpha
        growth_floor = math.log(D2) + D3 * nsf**alpha
    elif variant == 2:
        gamma = float(constants["gamma"])
        if gamma <= 0.0:
            raise ValueError("constants must be positive")
        lip_bound = D1 * np.log(nsf)
        growth_floor = math.log(D2) + gamma * np.log(nsf)
    else:
        raise ValueError(f"variant must be 1 or 2, got {variant}")

    # one prefix per grid point serves both bullets; two are held at a time
    fmin = np.full(len(nsf), math.inf)

    def rows():
        for a in grid:
            row = log_cum_prefix(fam, a, n_max)[N:]
            np.minimum(fmin, row, out=fmin)
            yield row

    ratios = _max_slope(grid, rows())
    diff = ratios - lip_bound
    w = int(np.argmax(diff))
    lip = CheckResult(
        bool(diff[w] <= 0.0), float(ratios[w]), float(lip_bound[w]),
        witness={"n": N + w}, evaluations=len(nsf))

    # growth floor: min over the grid of the log cumulative product
    gdiff = fmin - growth_floor
    w = int(np.argmin(gdiff))
    grw = CheckResult(
        bool(gdiff[w] >= 0.0), float(fmin[w]), float(growth_floor[w]),
        sense="floor", witness={"n": N + w}, evaluations=len(grid) * len(nsf),
        note="log of the cumulative product against the log of the floor")

    meta = {"family": fam.to_json_dict(), "variant": variant, "N": N, "n_max": n_max,
            "constants": {k: float(v) for k, v in constants.items()}}
    return CriterionReport(conditions={"lipschitz": lip, "growth": grw}, meta=meta)


# ---------------------------------------------------------------------------
# characterization conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaracParams:
    m: int
    tau: float
    N: int
    eps: float
    K: tuple
    F: LipschitzProfile
    c: float
    C: float
    space_norm: SpaceNorm = L1

    def __post_init__(self):
        object.__setattr__(self, "K", as_box(self.K))
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.tau <= 0.0 or self.eps <= 0.0:
            raise ValueError("tau and eps must be positive")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if not (0.0 < self.c <= self.C):
            raise ValueError("need 0 < c <= C")


def check_carac_conditions(
    fams: Sequence[WeightFamily],
    schedule: Sequence[Tuple[int, Sequence[float]]],
    p: CaracParams,
) -> CriterionReport:
    """Check the box-cover and tail-sum conditions of the characterization.

    ``schedule`` is the list of (n_k, lambda_k) pairs with lambda_k a point
    in R^d.  Spacing violations are reported as condition '0'; (ii) and (iii)
    are evaluated in log domain; a hypothesis probe of the Lipschitz sandwich
    and the weight-ratio floor runs on a coordinate grid drawn from K.
    """
    _require_fnorm_bullets(p.space_norm)
    fams = tuple(fams)
    d = len(fams)
    sched = [(int(n), tuple(float(x) for x in lam)) for n, lam in schedule]
    if not sched:
        raise ValueError("schedule must be nonempty")
    for _, lam in sched:
        if len(lam) != d:
            raise ValueError("schedule points must match the family dimension")
    if len(p.K) != d:
        raise ValueError("K must match the family dimension")
    q = len(sched)
    ns = [n for n, _ in sched]
    if min(ns) < 1 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("schedule powers must be positive and strictly increasing")
    fns = [float(p.F(n)) for n in ns]
    if not all(f > 0.0 for f in fns):
        raise ValueError("growth profile F(n_k) must be positive at every schedule power")
    conds: Dict[str, CheckResult] = {}

    gaps_min = min([ns[0]] + [b - a for a, b in zip(ns, ns[1:])])
    conds["0"] = CheckResult(
        gaps_min >= p.N, float(gaps_min), float(p.N), sense="floor", evaluations=0,
        note="n_1 and consecutive gaps must reach the spacing floor N")

    # (i) box cover of K by the backward tau/F(n_k) boxes
    boxes = []
    for f, (_, lam) in zip(fns, sched):
        r = p.tau / f
        boxes.append(tuple((lam[ax] - r, lam[ax]) for ax in range(d)))
    covered, missing, count = box_union_covers(boxes, p.K)
    conds["i"] = CheckResult(
        covered, float(count), 0.0, evaluations=0,
        witness=None if covered else {"uncovered_point": list(missing)})

    # (ii) per axis: || sum_k what_{n_k}(lambda_k(i))^{-1/m} e_{n_k} || < eps
    worst_ii = (-math.inf, None)
    for ax in range(d):
        logcs = [-log_cum_window(fams[ax], lam[ax], 0, n_k) / p.m for n_k, lam in sched]
        val = _norm_from_logcoeffs(logcs, p.space_norm)
        if val > worst_ii[0]:
            worst_ii = (val, {"axis": ax})
    conds["ii"] = CheckResult(
        worst_ii[0] < p.eps, worst_ii[0], p.eps, witness=worst_ii[1],
        evaluations=d * q)

    # (iii) tail sums over j > k for every (k, axis, l).  The denominator
    # window(lambda_j, l, n_j) does not depend on k: dens[ax][j][l] holds it
    # for j >= 1, computed one lambda_j at a time so the window memo stays warm.
    dens = [[None] + [[log_cum_window(fams[ax], lam_j[ax], l, n_j) for l in range(p.N + 1)]
                      for n_j, lam_j in sched[1:]]
            for ax in range(d)]
    worst_iii = (-math.inf, None)
    evals = 0
    for k in range(q):
        n_k, lam_k = sched[k]
        for ax in range(d):
            den = dens[ax]
            for l in range(p.N + 1):
                logcs = []
                for j in range(k + 1, q):
                    num = log_cum_window(fams[ax], lam_k[ax], sched[j][0] - n_k + l, n_k)
                    logcs.append(num - den[j][l])
                evals += 1
                if not logcs:
                    continue
                val = _norm_from_logcoeffs(logcs, p.space_norm)
                if val > worst_iii[0]:
                    worst_iii = (val, {"k": k, "axis": ax, "l": l})
    if worst_iii[0] == -math.inf:
        worst_iii = (0.0, None)
    conds["iii"] = CheckResult(
        worst_iii[0] < p.eps, worst_iii[0], p.eps, witness=worst_iii[1],
        evaluations=evals)

    # hypothesis probe: Lipschitz sandwich and weight-ratio floor on K's grid
    conds["H"] = _carac_hypothesis_probe(fams, ns, fns, p)

    meta = {"q": q, "d": d, "m": p.m, "tau": p.tau, "N": p.N, "eps": p.eps,
            "norm": p.space_norm.to_json()}
    return CriterionReport(conditions=conds, meta=meta)


def _carac_hypothesis_probe(fams, ns, fns, p: CaracParams) -> CheckResult:
    worst, witness, checked = math.inf, None, 0
    for ax, fam in enumerate(fams):
        lo, hi = p.K[ax]
        pts = sorted({lo, (lo + hi) / 2.0, hi})
        if len(pts) < 2:
            pts = [lo, lo * 1.5 + 0.5]
        for n_k, fn in zip(ns, fns):
            for a, b in itertools.combinations(pts, 2):
                df = abs(log_cum_window(fam, b, 0, n_k) - log_cum_window(fam, a, 0, n_k))
                lo_m = df - p.c * fn * (b - a)
                hi_m = p.C * fn * (b - a) - df
                ratio_m = math.exp(log_weight(fam, a, n_k) - log_weight(fam, b, n_k)) - p.c
                m = min(lo_m, hi_m, ratio_m)
                checked += 1
                if m < worst:
                    worst = m
                    witness = {"axis": ax, "n": n_k, "a": a, "b": b}
    return CheckResult(
        worst >= 0.0, -worst, 0.0, witness=witness, evaluations=checked,
        note="hypothesis probe: Lipschitz sandwich and weight-ratio floor on K's grid")
