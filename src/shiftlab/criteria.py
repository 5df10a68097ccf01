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

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, Sequence, Tuple

import numpy as np

from .covering import (
    _MAX_PAIR_GRID,
    CheckResult,
    Covering,
    CriterionReport,
    as_box,
    box_union_covers,
)
from .seqspace import _TINY, L1, MAX_INDEX, SeqVec, SpaceNorm, _norm, cw_root
from .weights import (
    LipschitzProfile,
    WeightFamily,
    _in_double_range,
    _max_slope,
    _positive,
    _require_admissible,
    _require_admissible_array,
    chord_points,
    lipschitz_ratio_profile,
    log_cum_chunks,
    log_cum_prefix,
    log_cum_window,
    log_cum_window_offsets,
    log_cum_windows,
    log_weight,
)

I0_POINTS = 9  # default size of an I0 grid
# criterion-check takes consecutive cells into a block while their sizes sum
# to at most this: a cell's size is its most (cell, pair) entries on an axis,
# and at least its s**d * M display values (one cell if it needs more).  The
# benchmark's q = 256 job peaks through cli.run at 1.2 MiB under tracemalloc
# with 2**13, 2.2 MiB with 2**14 and 8.4 MiB with all its cells in one block,
# in about the same time.
_BLOCK = 1 << 13
# criterion-check evaluates II.b at every sample point of each cell whose
# upper-corner value is at least (1 - _CORNER_SLACK) times the largest one
_CORNER_SLACK = 1e-4


def _canonical(c: np.ndarray) -> np.ndarray:
    """Coefficients as a SeqVec stores them, in place: |c| below the least normal is 0."""
    if not np.isfinite(c).all():
        raise ValueError("non-finite coefficient in a criterion display")
    c[np.abs(c) < _TINY] = 0.0
    return c


def _segment_norms(c: np.ndarray, at: np.ndarray, n: SpaceNorm) -> np.ndarray:
    """The norms _norm gives the segments c[..., at[i]:at[i + 1]], shaped (..., len(at) - 1).

    ``at`` runs from 0 to c.shape[-1] and bounds the same segments in every row.
    """
    if n.kind == "sup":
        seg = partial(max, default=0.0)
    elif n.p == 1.0:  # fsum is correctly rounded, so any order gives these bits
        seg = math.fsum
    else:
        seg = partial(_norm, n=n)
    at, *lead, width = at.tolist(), *c.shape
    out = [[seg(row[i:j].tolist()) for i, j in zip(at, at[1:])]
           for row in map(np.abs, c.reshape(math.prod(lead), width))]
    return np.asarray(out).reshape(*lead, len(at) - 1)


def _exps(w: np.ndarray) -> np.ndarray:
    """math.exp of each window, as the sparse operators take it."""
    try:
        return np.fromiter(map(math.exp, w.tolist()), np.float64, len(w))
    except OverflowError:
        raise ValueError("non-finite coefficient in a criterion display") from None


def _norm_from_logcoeffs(rows, n: SpaceNorm) -> list:
    """Norms of the vectors whose (positive) coefficients have the logs in each row.

    -inf logs are zero coefficients and drop out: exp(-inf - top) is 0.0,
    and a row of them has norm 0.0.  Each norm has the bits of lognum's
    logsumexp over the row: the row maxima and the shifts x - top are exact
    in numpy, and math.exp and math.fsum do the rest, since numpy's exp can
    differ from libm's in the last bit.
    """
    x = np.asarray(rows, dtype=np.float64)
    if n.kind != "sup":
        x = n.p * x
    tops = x.max(axis=1, initial=-math.inf)
    if n.kind == "sup":
        return [0.0 if t == -math.inf else math.exp(t) for t in tops.tolist()]
    with np.errstate(invalid="ignore"):  # inf - inf in rows whose top is infinite
        x -= tops[:, None]
    out = []
    for t, row in zip(tops.tolist(), x):
        if math.isinf(t):  # logsumexp returns an infinite top as it is
            out.append(0.0 if t < 0.0 else math.inf)
        else:
            out.append(math.exp((t + math.log(math.fsum(map(math.exp, row.tolist())))) / n.p))
    return out


# ---------------------------------------------------------------------------
# basic criterion for algebras
# ---------------------------------------------------------------------------


@np.errstate(over="ignore")  # _canonical rejects an overflowed coefficient
def check_basic_criterion(
    fams: Sequence[WeightFamily],
    cov: Covering,
    v: Sequence[SeqVec],
    m_lo: int,
    m_hi: int,
    eps: float,
    samples_per_axis: int = 3,
    space_norm: SpaceNorm = L1,
    region=None,
) -> CriterionReport:
    """Evaluate the four displayed norms of the algebra criterion on a covering.

    For every cell i, every sampled lambda in its box and every power m in
    the admitted range, the displays are evaluated with the coordinatewise
    product and compared against eps; the report carries the worst sample per
    condition.  Condition I (the cover itself) is delegated to the covering's
    union check and only evaluated when ``region`` is supplied.
    """
    fams = tuple(fams)
    v = tuple(v)
    d = cov.d
    if len(fams) != d or len(v) != d:
        raise ValueError(f"need {d} weight families and {d} target vectors")
    if m_lo < 1 or m_hi < m_lo:
        raise ValueError("power range must satisfy 1 <= m_lo <= m_hi")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"constants must be finite and nonnegative; got eps = {eps!r}")
    if samples_per_axis < 1:
        raise ValueError("samples_per_axis must be >= 1")
    s, M = samples_per_axis, m_hi - m_lo + 1
    if s**d * M > _MAX_PAIR_GRID:
        raise ValueError(f"samples_per_axis**d * (m_hi - m_lo + 1) exceeds {_MAX_PAIR_GRID};"
                         " lower samples_per_axis or the power range")
    for ax, vec in enumerate(v):
        for k, c in vec.items():
            if c < 0.0:
                raise ValueError(f"target vector {ax} has negative entry at index {k}")

    roots = [cw_root(vec, m_lo) for vec in v]
    ms = range(m_lo, m_hi + 1)
    cells, powers = cov.cells, cov.powers

    # Per axis, arrays over the (cell j, support index l) pairs: n_j, the
    # target at l, the powers A**m of the forward coefficients
    # A = root_l * exp(-window(anchor_j, l, n_j)/m_lo) and the key l + n_j.
    # Powers use Python's float pow and the windows below math.exp, as the
    # sparse operators do; np.power and np.exp can differ from them in the
    # last bit.  B^{n_i} moves (j, l) to l + n_j - n_i, so cell i's entries
    # are the pairs whose key is at least n_i: with the pairs in stable key
    # order ((j, l) order among equal keys), the suffix from starts[i].
    flat = []
    total = 0.0  # II.a: the lambda-independent forward sum
    for ax, root in enumerate(roots):
        supp = np.asarray(root.support(), dtype=np.int64)
        anchors = _require_admissible_array(fams[ax], [c.anchor[ax] for c in cells])
        ls, ns = np.tile(supp, cov.q), np.repeat(powers, len(supp))
        coeffs = np.tile([root.coeff(int(l)) for l in supp], cov.q)
        A = coeffs * np.exp(-log_cum_windows(fams[ax], np.repeat(anchors, len(supp)), ls, ns)
                            / m_lo)
        # bincount adds colliding indices in (j, l) order, as dict updates do
        keys = ls + ns
        _, inv = np.unique(keys, return_inverse=True)
        total += _norm(_canonical(np.bincount(inv, A)).tolist(), space_norm)
        target = np.tile([v[ax].coeff(int(l)) for l in supp], cov.q)
        try:
            Am = np.asarray([[a**m for a in A.tolist()] for m in ms])
        except OverflowError:
            raise ValueError("non-finite coefficient in a criterion display") from None
        order = np.lexsort((keys,))  # stable: equal keys stay in (j, l) order
        keys = keys[order]
        flat.append((ns[order], target[order], Am[:, order], keys,
                     np.searchsorted(keys, powers), len(supp)))
    conds: Dict[str, CheckResult] = {}
    if region is None:
        conds["I"] = CheckResult(
            True, 0.0, 0.0, evaluations=0,
            note="delegated to the covering union check; no region supplied")
    else:
        covered, missing, count = box_union_covers([c.box for c in cells], as_box(region))
        conds["I"] = CheckResult(
            covered, float(count), 0.0, evaluations=1,
            witness=None if covered else {"uncovered_point": list(missing)})
    conds["II.a"] = CheckResult(total <= eps, total, eps, evaluations=1)

    # sampled lambdas per cell, axis and sample: the anchor if s = 1, else
    # np.linspace(lo, hi, s)'s bits, k*step + lo for k < s - 1 (k/(s-1)*(hi-lo)
    # + lo where step is 0.0) and then hi itself
    if s == 1:
        lams = np.asarray([c.anchor for c in cells], dtype=np.float64)[..., None]
    else:
        lo, hi = np.asarray([c.box for c in cells], dtype=np.float64).transpose(2, 0, 1)[..., None]
        k, step = np.arange(s - 1.0), (hi - lo) / (s - 1)
        lams = np.concatenate(
            (np.where(step == 0.0, k / (s - 1) * (hi - lo), k * step) + lo, hi), axis=-1)
    # every lambda before any display: the first bad one in (cell, axis,
    # sample) order raises, with its axis's family in the message
    bad = ~((lams > 0.0) & np.isfinite(lams))
    if bad.any():
        i, ax, k = np.unravel_index(int(np.argmax(bad)), bad.shape)
        _require_admissible(fams[ax], lams[i, ax, k])

    def tables(i0: int, nb: int, corner: bool = False):
        """II.b and III/IV display values of cells i0..i0+nb-1, shaped (nb, s, ..., s, M).

        With ``corner``, II.b is evaluated at the upper corner only (sample
        s - 1 on every axis) and shaped (nb, M); III/IV keep every sample.
        """
        n_blk = np.asarray(powers[i0:i0 + nb])
        # Per axis, (nb, s, M) tables of the II.b norm (rows j != i) and the
        # III/IV norm (row j = i).  Adding them in axis order gives each grid
        # point 0.0 + t_0 + ... + t_{d-1}.
        tail = head = np.zeros((nb, M))
        for ax, ((ns, target, Am, keys, starts, n_own), fam) in enumerate(zip(flat, fams)):
            # cell-major entries, each cell's in sorted key order
            st = starts[i0:i0 + nb]
            count = len(keys) - st
            cell = np.repeat(np.arange(nb), count)
            at = np.arange(len(cell)) + (st - np.cumsum(count) + count)[cell]
            n_e = n_blk[cell]
            offs = keys[at] - n_e
            own = ns[at] == n_e
            other = ~own
            lam = lams[i0:i0 + nb, ax]
            # the corner first: its call takes every entry, so it raises what
            # a call at any other sample would; one more call takes the other
            # samples of the entries wanted there, (entry, sample)-major
            e = _exps(log_cum_windows(fam, lam[cell, -1], offs, n_e))
            x = own if corner else slice(None)
            ex = e[x][:, None]
            if s > 1:
                rest = _exps(log_cum_windows(fam, lam[cell[x], :-1].ravel(),
                                             np.repeat(offs[x], s - 1), np.repeat(n_e[x], s - 1)))
                ex = np.concatenate((rest.reshape(-1, s - 1), ex), axis=1)
            tail_e, head_e = (e[other, None], ex) if corner else (ex[other], ex[own])
            # c[mi, k, entry] for power mi and tail sample k, and each one's cell
            at_o, cl = at[other], cell[other]
            c = Am.take(at_o, axis=1)[:, None] * tail_e.T
            # one bin per (cell, key); bincount adds each bin in (j, l) order
            key = keys[at_o]
            new = np.ones(len(key), dtype=bool)
            new[1:] = (key[1:] != key[:-1]) | (cl[1:] != cl[:-1])
            bins, cl = np.cumsum(new) - 1, cl[new]
            c = np.array([[np.bincount(bins, row, len(cl)) for row in rows] for rows in c])
            tail_at = np.searchsorted(cl, np.arange(nb + 1))
            tail_t = _segment_norms(_canonical(c), tail_at, space_norm)
            at_h = at[own]
            c = _canonical(Am.take(at_h, axis=1)[:, None] * head_e.T)
            c[0] = _canonical(c[0] - target[at_h])
            head_t = _segment_norms(c, np.arange(nb + 1) * n_own, space_norm)
            shape = (nb,) + (1,) * ax + (s, M)
            if corner:
                tail = tail + tail_t[:, 0].T
            else:
                tail = tail[..., None, :] + tail_t.transpose(2, 1, 0).reshape(shape)
            head = head[..., None, :] + head_t.transpose(2, 1, 0).reshape(shape)
        return tail, head

    worst = {name: CheckResult(True, 0.0, eps, evaluations=0) for name in ("II.b", "III", "IV")}

    def record(name: str, vals: np.ndarray, i0: int, pows):
        """Take the first maximum of vals, shaped (cells from i0, s, ..., s, powers)."""
        # the first maximum in C order is the first in (cell, sample point, m)
        # order; strict > across calls keeps the earliest cell
        cur = worst[name]
        val = float(vals.max(initial=0.0))
        if val > cur.achieved:
            b, *idx, mi = np.unravel_index(int(np.argmax(vals)), vals.shape)
            cur.achieved, cur.passed = val, val <= eps
            cur.witness = {"cell": i0 + int(b), "lambda": lams[i0 + b, range(d), idx].tolist()}
            if name != "IV":
                cur.witness["m"] = pows[mi]

    # II.b is nondecreasing in each lambda, so a cell's largest value is at
    # its upper corner: the blocks evaluate II.b there only, and every cell
    # whose corner value is within _CORNER_SLACK of the best corner value is
    # evaluated again at every sample point.  That finds the first maximum
    # where lower samples tie the corner (a zero-width box side) and where
    # rounding breaks the order by a few ulp.
    # blocks of consecutive cells whose sizes sum to at most _BLOCK
    size = np.maximum(s**d * M, np.max([len(keys) - starts for *_, keys, starts, _ in flat],
                                       axis=0))
    ends = np.cumsum(size)
    corners = np.empty((cov.q, M))
    i0 = 0
    while i0 < cov.q:
        nb = max(1, int(np.searchsorted(ends, ends[i0] - size[i0] + _BLOCK, "right")) - i0)
        corners[i0:i0 + nb], head = tables(i0, nb, corner=True)
        worst["II.b"].evaluations += nb * s**d * M
        for name, vals, pows in (("IV", head[..., :1], ms[:1]), ("III", head[..., 1:], ms[1:])):
            worst[name].evaluations += vals.size
            record(name, vals, i0, pows)
        i0 += nb
    best = corners.max(axis=1)
    top = float(best.max(initial=0.0))
    if top > 0.0:  # else every corner value is 0.0, and so every II.b value
        for i in np.flatnonzero(best >= top * (1.0 - _CORNER_SLACK)).tolist():
            record("II.b", tables(i, 1)[0], i, ms)

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
    I0_points: int = I0_POINTS
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
        for name in ("C1", "C2", "M0", "divergence_threshold"):
            _positive(name, getattr(self, name))
        if self.N0 < 1 or self.n_max < self.N0 or self.k_max < self.N0:
            raise ValueError("need 1 <= N0 <= n_max and N0 <= k_max")
        if not (self.I0_lo > 0.0 and self.I0_hi >= self.I0_lo):
            raise ValueError("I0 must be a compact interval in (0, +inf)")
        if self.I0_points < 2:
            raise ValueError("I0 grid needs at least 2 points")
        if (self.n_max - self.N0 + 1) * (self.k_max - self.N0 + 1) > _MAX_PAIR_GRID:
            raise ValueError("n_max*k_max grid too large; lower the evaluation bounds")
        ns = np.arange(self.N0, self.n_max + 1, dtype=np.float64)
        fn = np.asarray(self.F(ns))
        with _in_double_range("C1*n**alpha"):
            bound = self.C1 * ns**self.alpha
        if (fn > bound).any():
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
    against M0/k**beta for all admitted (n, k) pairs, in log domain.  Every
    family's log cumulative product is nondecreasing in lambda, so (ii) and
    (iii) are worst over I0 at its least point and read one prefix there.
    The growth display depends on n only through n + k, so (iii) takes the
    worst n per k as a window max: memory is O(n_max + k_max); only
    ``collect_table`` materializes the (n, k) margins.
    """
    grid = p.grid()
    lo = float(grid[0])
    ns = np.arange(p.N0, p.n_max + 1, dtype=np.int64)
    ks = np.arange(p.N0, p.k_max + 1, dtype=np.int64)
    conds: Dict[str, CheckResult] = {}

    ratios = lipschitz_ratio_profile(fam, grid, ns)
    fn = np.asarray(p.F(ns), dtype=np.float64)
    diff = ratios - fn
    w = int(np.argmax(diff))
    conds["i"] = CheckResult(
        bool(diff[w] <= 0.0), float(ratios[w]), float(fn[w]),
        witness={"n": int(ns[w])}, evaluations=len(ns))

    # (ii) divergence probe: the cumulative product at k_max, least at lo
    fk_last = log_cum_window(fam, lo, 0, p.k_max)
    conds["ii"] = CheckResult(
        fk_last >= math.log(p.divergence_threshold),
        fk_last, math.log(p.divergence_threshold), sense="floor",
        witness={"a": lo, "k": p.k_max}, evaluations=len(grid),
        note="probe, not proof: log of the cumulative product at k_max")

    # (iii) both tail displays, worst over (n, k), log domain.  The growth
    # display c_k * h(n + k), c_k = C2*k**alpha and h(s) = F(s)/s**alpha, sees
    # n only through s: row k - N0 of the window view holds h(k+N0..k+n_max).
    # Scaling by c_k > 0 and subtracting are monotone in floating point, so
    # the window max gives the worst n per k with the bits of the full grid.
    s = np.arange(2 * p.N0, p.n_max + p.k_max + 1, dtype=np.float64)
    h = p.F(s) / s**p.alpha
    win = np.lib.stride_tricks.sliding_window_view(h, len(ns))
    with _in_double_range("C2*k**alpha"):
        ck = p.C2 * ks.astype(np.float64) ** p.alpha
    log_rhs = math.log(p.M0) - p.beta * np.log(ks.astype(np.float64))
    fk = log_cum_prefix(fam, lo, p.k_max)[ks]
    with _in_double_range("C2*k**alpha*F(n + k)/(n + k)**alpha"):
        m1 = (ck * win.max(axis=1) - fk) - log_rhs
    m2 = (-fk / p.m_prime) - log_rhs

    # witness: the first (n, k) in n-major order; only the columns tying for
    # the maximum are rescanned (rounding ties n)
    top = m1.max()
    cols = np.flatnonzero(m1 == top)
    hit = ((ck[cols, None] * win[cols] - fk[cols, None]) - log_rhs[cols, None]).T == top
    i, j = np.unravel_index(int(np.argmax(hit)), hit.shape)
    conds["iii.growth"] = CheckResult(
        bool(top <= 0.0), float(top), 0.0,
        witness={"n": int(ns[i]), "k": int(ks[cols[j]]), "a": lo},
        evaluations=len(grid) * len(ns) * len(ks),
        note="log-domain margin of the growth display against M0/k**beta")
    j = int(np.argmax(m2))
    conds["iii.root"] = CheckResult(
        bool(m2[j] <= 0.0), float(m2[j]), 0.0,
        witness={"k": int(ks[j]), "a": lo},
        evaluations=len(grid) * len(ks),
        note="log-domain margin of the 1/m'-root display against M0/k**beta")

    meta = {"family": fam.to_json_dict(), "m_prime": p.m_prime, "alpha": p.alpha,
            "beta": p.beta, "M0": p.M0, "N0": p.N0, "n_max": p.n_max, "k_max": p.k_max}
    if collect_table:
        # per-(n, k) margins at lo, the worst over I0; the root display carries
        # no n dependence and repeats along rows
        t1 = ((ck[:, None] * win - fk[:, None]) - log_rhs[:, None]).T.tolist()
        t2 = m2.tolist()
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
    D2*n**gamma.  Both bullets are verified for N <= n <= n_max, scanned in
    blocks at the grid's chord points (weights.chord_points: the two least
    for affine and geometric, every point otherwise): memory is
    O(len(points) * block) for any N and n_max.  The growth floor is read at
    the least grid point, where every family is least.
    The constants used must be finite and positive.
    """
    grid = sorted(set(float(a) for a in I0_grid))
    if len(grid) < 2:
        raise ValueError("I0 grid needs at least 2 distinct points")
    if N < 1 or n_max < N:
        raise ValueError("need 1 <= N <= n_max")

    D1 = _positive("D1", constants["D1"])
    log_D2 = math.log(_positive("D2", constants["D2"]))
    if variant == 1:
        alpha = constants.get("alpha", fam.alpha)
        if alpha is None:
            raise ValueError("variant 1 needs alpha (from constants or the family)")
        c_growth = _positive("D3", constants["D3"])
        alpha = _positive("alpha", alpha)
    elif variant == 2:
        c_growth = _positive("gamma", constants["gamma"])
    else:
        raise ValueError(f"variant must be 1 or 2, got {variant}")

    # one chunked scan yields every chord point's prefix and serves both
    # bullets, block by block, with the block's indices as nsf; strict
    # comparisons keep the first worst n, as argmax/argmin do
    g_name = "n**alpha" if variant == 1 else "log(n)"
    floor_name = f"log(D2) + {'D3' if variant == 1 else 'gamma'}*{g_name}"
    pts = chord_points(fam, grid)
    lip = grw = None
    n0 = N
    for nsf, rows in log_cum_chunks(fam, pts, N, n_max):
        with _in_double_range(g_name):
            g = nsf**alpha if variant == 1 else np.log(nsf)
        with _in_double_range(f"D1*{g_name}"):
            lip_bound = D1 * g
        with _in_double_range(floor_name):  # log(D2) + c*g, in g's place
            growth_floor = np.add(log_D2, np.multiply(c_growth, g, out=g), out=g)
        ratios = _max_slope(pts, rows)
        diff = ratios - lip_bound
        w = int(np.argmax(diff))
        if lip is None or diff[w] > lip[0]:
            lip = (diff[w], ratios[w], lip_bound[w], n0 + w)
        # least at the least grid point; in diff's place
        gdiff = np.subtract(rows[0], growth_floor, out=diff)
        w = int(np.argmin(gdiff))
        if grw is None or gdiff[w] < grw[0]:
            grw = (gdiff[w], rows[0][w], growth_floor[w], n0 + w)
        n0 += len(nsf)

    count = n_max - N + 1
    lip = CheckResult(
        bool(lip[0] <= 0.0), float(lip[1]), float(lip[2]),
        witness={"n": lip[3]}, evaluations=count)
    # growth floor: the log cumulative product at the grid's least point
    grw = CheckResult(
        bool(grw[0] >= 0.0), float(grw[1]), float(grw[2]),
        sense="floor", witness={"n": grw[3]}, evaluations=len(grid) * count,
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
        _positive("tau", self.tau)
        _positive("eps", self.eps)
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if _positive("c", self.c) > _positive("C", self.C):
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
    fns = p.F(ns).tolist()
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

    # (ii) reads its windows from (iii)'s tables below; its lambda_k are
    # checked here, axis by axis in k order, so a bad one raises before (iii)
    for ax in range(d):
        _require_admissible_array(fams[ax], [lam[ax] for _, lam in sched])

    # (iii) tail sums over j > k for every (k, axis, l).  Per (k, axis), one
    # array call gives window(lambda_k, n_j - n_k + l, n_k) for j >= k as an
    # (N + 1, q - k) table: column j = k is the denominator window(lambda_k,
    # l, n_k) that every earlier k reads, so k runs backwards and dens[ax, k]
    # keeps it; the other columns are the numerators, and row l minus the
    # later denominators holds the tail's log coefficients in j order; its norm is
    # tails[k, ax, l], and argmax takes the first maximum in (k, axis, l) order.
    dt = np.int64 if ns[-1] + p.N <= MAX_INDEX else object
    ls = np.arange(p.N + 1).astype(dt)
    dens = np.empty((d, q, p.N + 1))
    tails = np.empty((q - 1, d, p.N + 1))
    for k in reversed(range(q)):
        n_k, lam_k = sched[k]
        offs = (np.asarray(ns[k:], dtype=dt) - n_k)[None, :] + ls[:, None]
        for ax in range(d):
            w = _windows_at(fams[ax], lam_k[ax], offs, n_k)
            dens[ax, k] = w[:, 0]
            if k < q - 1:
                logcs = w[:, 1:] - dens[ax, k + 1:].T
                try:
                    tails[k, ax] = _norm_from_logcoeffs(logcs, p.space_norm)
                except OverflowError:  # a guard per (k, axis) took about a tenth of a q = 30 job
                    with _in_double_range(f"the (iii) norm at k = {k} on axis {ax}"):
                        raise
    # (ii) per axis: || sum_k what_{n_k}(lambda_k(i))^{-1/m} e_{n_k} || < eps,
    # where log what_{n_k}(lambda_k) = window(lambda_k, 0, n_k) is dens[ax, k, 0]
    vals = []
    for ax in range(d):
        with _in_double_range(f"the (ii) norm on axis {ax}"):
            vals += _norm_from_logcoeffs(-dens[ax:ax + 1, :, 0] / p.m, p.space_norm)
    ax = int(np.argmax(vals))  # the first axis at the maximum
    conds["ii"] = CheckResult(
        vals[ax] < p.eps, vals[ax], p.eps, witness={"axis": ax}, evaluations=d * q)
    worst_iii, witness = 0.0, None
    if q > 1:
        k, ax, l = np.unravel_index(int(np.argmax(tails)), tails.shape)
        worst_iii, witness = float(tails[k, ax, l]), {"k": int(k), "axis": int(ax), "l": int(l)}
    conds["iii"] = CheckResult(
        worst_iii < p.eps, worst_iii, p.eps, witness=witness, evaluations=q * d * (p.N + 1))

    # hypothesis probe: Lipschitz sandwich and weight-ratio floor on K's grid
    conds["H"] = _carac_hypothesis_probe(fams, ns, fns, p)

    meta = {"q": q, "d": d, "m": p.m, "tau": p.tau, "N": p.N, "eps": p.eps,
            "norm": p.space_norm.to_json()}
    return CriterionReport(conditions=conds, meta=meta)


def _windows_at(fam: WeightFamily, lam: float, offs: np.ndarray, n: int) -> np.ndarray:
    """window(lam, l, n) for every offset l in offs.

    Affine windows are one log_cum_window_offsets call: a gather from the
    compensated prefix table.  Closed forms have no table; they take this
    module's log_cum_window one window at a time, with the same bits, so
    that perfbench/tests/test_bench_checks.py, which patches that name, can
    still see the carac oracle catch a wrong window offset.
    """
    if fam.variant == "affine":
        return log_cum_window_offsets(fam, lam, offs, n)
    return np.reshape([log_cum_window(fam, lam, l, n) for l in offs.ravel().tolist()],
                      offs.shape)


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
