"""Explicit witness vectors whose shifted convolution powers hit prescribed targets.

``build_witness`` assembles, per axis, the vector

    u' = u + sum_j sum_l d_{l,j} e_{N_j - (m-1)*sigma + l} + eps * e_sigma

whose m-th convolution power, shifted back N_i times, approximates the target
v for every parameter in cell i of a log-grid covering.  Two independent
evaluation paths are provided: ``eval_analytic`` computes the three error
components from closed-form log-window ratios in O(q * p) per point, reading
the windows at the parameter with one array call per axis, and
``eval_bruteforce`` expands the convolution power sparsely and applies the
backward shift.  Whenever the finite-size support-separation flag holds, the
two paths agree to rounding error; ``sweep_sigma`` tabulates the error decay
as sigma grows.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .covering import Covering, LogCoveringParams, build_log_covering
from .seqspace import L1, MAX_INDEX, ProductKind, SeqVec, norm, product
from .weights import (WeightFamily, _in_double_range, _positive, apply_backward_power,
                      log_cum_window, log_cum_window_offsets)

_BUDGET = 2_000_000  # default nonzeros**m allowed in a sparse expansion

SWEEP_COLUMNS = [
    "sigma", "q", "N_1", "N_q", "separation_ok", "p1_worst", "p2_worst",
    "p3_worst", "premature_max", "predicted_p2_slope",
]


class SupportCollisionError(ValueError):
    """Two witness terms land on the same index (sigma too small)."""

    def __init__(self, indices: Sequence[int]):
        self.indices = sorted(indices)
        super().__init__(
            f"witness support collision at indices {self.indices}; increase sigma "
            f"or shrink the target support")


class BruteForceBudgetError(RuntimeError):
    """Convolution power too large to expand; use the analytic path."""


def _support_top(xs: Sequence[SeqVec]) -> Optional[int]:
    """Largest index stored in any of xs, or None when every one is empty."""
    return max((t for t in map(SeqVec.support_max, xs) if t is not None), default=None)


@dataclass(frozen=True)
class WitnessConfig:
    log_cov: LogCoveringParams
    u: Tuple[SeqVec, ...]
    v: Tuple[SeqVec, ...]
    eta: float
    fams: Optional[Tuple[WeightFamily, ...]] = None
    cov_override: Optional[Covering] = None

    def __post_init__(self):
        d = self.log_cov.d
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        if len(self.u) != d or len(self.v) != d:
            raise ValueError(f"u and v must have {d} axes")
        _positive("eta", self.eta)
        fams = self.fams
        if fams is None:
            fams = tuple(WeightFamily.pure_power() for _ in range(d))
        else:
            fams = tuple(fams)
            if len(fams) != d:
                raise ValueError(f"need {d} weight families")
        object.__setattr__(self, "fams", fams)
        if self.cov_override is not None and self.cov_override.d != d:
            raise ValueError("covering override dimension mismatch")

    @property
    def d(self) -> int:
        return self.log_cov.d

    @property
    def m(self) -> int:
        return self.log_cov.m

    @property
    def sigma(self) -> int:
        return self.log_cov.sigma

    @property
    def p_support(self) -> int:
        """Largest index appearing in u or v (0 when all are empty)."""
        return _support_top(self.u + self.v) or 0

    def to_json_dict(self) -> dict:
        out = {
            "log_cov": self.log_cov.to_json_dict(),
            "u": [x.to_json_dict() for x in self.u],
            "v": [x.to_json_dict() for x in self.v],
            "eta": self.eta,
            "families": [f.to_json_dict() for f in self.fams],
        }
        if self.cov_override is not None:
            out["cov_override"] = self.cov_override.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WitnessConfig":
        fams = obj.get("families")
        return cls(
            log_cov=LogCoveringParams.from_json_dict(obj["log_cov"]),
            u=tuple(SeqVec.from_json_dict(x) for x in obj["u"]),
            v=tuple(SeqVec.from_json_dict(x) for x in obj["v"]),
            eta=float(obj["eta"]),
            fams=(tuple(WeightFamily.from_json_dict(f) for f in fams)
                  if fams is not None else None),
            cov_override=(Covering.from_json_dict(obj["cov_override"])
                          if obj.get("cov_override") is not None else None),
        )


@dataclass
class Witness:
    cfg: WitnessConfig
    vectors: Tuple[SeqVec, ...]
    eps: Tuple[float, ...]
    log_eps: Tuple[float, ...]
    # per axis a (q, |supp v_ax|) array: row j - 1 for cell j, one column per
    # support index l of v_ax in increasing order
    coeffs: Tuple[np.ndarray, ...]  # the d coefficients d_{l,j}
    anchor_windows: Tuple[np.ndarray, ...]  # W(anchor_j, l, N_j)
    powers: List[int]
    q: int
    cprime: float
    covering: Covering
    collision_indices: Tuple[int, ...] = ()

    def to_json_dict(self, include_coeffs: bool = True) -> dict:
        out = {
            "vectors": [x.to_json_dict() for x in self.vectors],
            "eps": list(self.eps),
            "powers": list(self.powers),
            "q": self.q,
            "cprime": self.cprime,
            "collision_indices": list(self.collision_indices),
        }
        if include_coeffs:
            out["coeffs"] = [[ax, l, j, c]
                             for ax, (v, cs) in enumerate(zip(self.cfg.v, self.coeffs))
                             for l, col in zip(v.support(), cs.T.tolist())
                             for j, c in enumerate(col, start=1)]
        return out


@dataclass
class WitnessEval:
    p1_err: Tuple[float, ...]
    p2_norm: Tuple[float, ...]
    p3_norm: Tuple[float, ...]
    premature_max: float
    separation_ok: bool
    cell_index: int
    dominant_branch: Tuple[int, ...] = ()

    @property
    def total_error(self) -> float:
        return math.fsum(self.p1_err) + math.fsum(self.p2_norm) + math.fsum(self.p3_norm)

    def to_json_dict(self) -> dict:
        return {
            "p1_err": list(self.p1_err), "p2_norm": list(self.p2_norm),
            "p3_norm": list(self.p3_norm), "total_error": self.total_error,
            "premature_max": self.premature_max, "separation_ok": self.separation_ok,
            "cell_index": self.cell_index, "dominant_branch": list(self.dominant_branch),
        }


def build_witness(cfg: WitnessConfig, on_collision: str = "error") -> Witness:
    """Assemble the witness vectors; coefficients are computed in log domain.

    When two formula terms land on the same index (sigma too small relative
    to q and the target support) the default is a SupportCollisionError
    listing the indices.  ``on_collision='merge'`` records the collisions on
    the witness and sums the clashing coefficients instead; the closed-form
    error components remain well defined, but the merged vector no longer
    separates, so every evaluation reports separation_ok = False.
    """
    if on_collision not in ("error", "merge"):
        raise ValueError("on_collision must be 'error' or 'merge'")
    cov = cfg.cov_override if cfg.cov_override is not None else build_log_covering(cfg.log_cov)
    m, base = cfg.m, cfg.log_cov.base
    d = cfg.d
    powers = cov.powers
    q = cov.q

    # a covering's powers strictly increase, so only N_1 can be too small;
    # tested before any window, since the separator's has length m*sigma.
    # Where log10 puts (m-1)*sigma past int-to-str's digit limit (Python
    # 3.10.7 on), every printable N_1 is smaller: sigma = base**m is then
    # neither formed nor printed
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if (limit and math.log10(m - 1) + m * math.log10(base) >= limit
            and powers[0] < 10**limit):
        raise ValueError(f"cell power N_1 = {powers[0]} smaller than (m-1)*sigma = "
                         f"{m - 1}*{base}**{m}")
    sigma = cfg.sigma
    if powers[0] < (m - 1) * sigma:
        raise ValueError(f"cell power N_1 = {powers[0]} smaller than (m-1)*sigma = {(m-1)*sigma}")
    log_eps, eps = [], []
    for ax in range(d):
        a_lo = cfg.log_cov.box[ax][0]
        log_eps.append(-log_cum_window(cfg.fams[ax], a_lo, 0, m * sigma) / m)
        with _in_double_range(
                f"the separator coefficient eps on axis {ax} at lambda = {a_lo!r}"):
            eps.append(math.exp(log_eps[-1]))

    coeffs = []
    anchor_windows = []
    vecs = []
    collision: set = set()
    for ax, fam in enumerate(cfg.fams):
        v = cfg.v[ax].items_sorted()
        # log|d_{l,j}| = log|v_l| - log m - (m-1) log eps - W(anchor_j, l, N_j)
        shift = [math.log(abs(vl)) - math.log(m) - (m - 1) * log_eps[ax] for _, vl in v]
        windows = [[log_cum_window(fam, cell.anchor[ax], l, n_j) for l, _ in v]
                   for cell, n_j in zip(cov.cells, powers)]
        cs = []
        for cell, row in zip(cov.cells, windows):
            try:
                cs += [math.copysign(math.exp(sh - wl), vl)
                       for sh, wl, (_, vl) in zip(shift, row, v)]
            except OverflowError:  # a guard per cell would cost more than its exps
                with _in_double_range(
                        f"a d-coefficient on axis {ax} at lambda = {cell.anchor[ax]!r}"):
                    raise
        anchor_windows.append(np.reshape(windows, (q, len(v))))
        coeffs.append(np.reshape(cs, (q, len(v))))

        # u, then the d-part in (j, l) order, then the separator; a repeated
        # index is a collision and its coefficients add up in that order
        d_idx = [n_j - (m - 1) * sigma + l for n_j in powers for l, _ in v]
        entries: Dict[int, float] = {}
        for k, c in itertools.chain(cfg.u[ax].items(), zip(d_idx, cs), [(sigma, eps[ax])]):
            if k in entries:
                collision.add(k)
            entries[k] = entries.get(k, 0.0) + c
        vecs.append(SeqVec(entries))

    if collision and on_collision == "error":
        raise SupportCollisionError(collision)

    cprime = min(lo / hi for lo, hi in cfg.log_cov.box) - 1.0 / m
    return Witness(cfg=cfg, vectors=tuple(vecs), eps=tuple(eps), log_eps=tuple(log_eps),
                   coeffs=tuple(coeffs), anchor_windows=tuple(anchor_windows),
                   powers=list(powers), q=q, cprime=cprime, covering=cov,
                   collision_indices=tuple(sorted(collision)))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def locate_cell(cov: Covering, lam: Sequence[float]) -> int:
    """Index of the first covering cell whose box contains lam."""
    for i, cell in enumerate(cov.cells):
        if all(lo <= x <= hi for x, (lo, hi) in zip(lam, cell.box)):
            return i
    raise ValueError(f"lambda = {tuple(lam)} lies outside the covering")


def _p0_support_bound(w: Witness) -> int:
    """Upper bound for the support of every cross term of (u')^m.

    Cross terms multiply m factors drawn from {target part (<= p), d-part
    (<= d_top), separator e_sigma}; the two pure combinations (one d factor
    with m-1 separators, and m separators) are the main and tail terms and
    are excluded.
    """
    cfg = w.cfg
    m, sigma = cfg.m, cfg.sigma
    u_top, v_top = _support_top(cfg.u), _support_top(cfg.v)
    d_top = None if v_top is None else w.powers[-1] - (m - 1) * sigma + v_top
    best = -1
    for a_u in range(m + 1):
        for a_d in range(m + 1 - a_u):
            a_e = m - a_u - a_d
            if (a_u, a_d, a_e) in ((0, 1, m - 1), (0, 0, m)):
                continue
            if a_u > 0 and u_top is None:
                continue
            if a_d > 0 and d_top is None:
                continue
            s = a_u * (u_top or 0) + a_d * (d_top or 0) + a_e * sigma
            best = max(best, s)
    return best


def _separation(w: Witness, n_i: int) -> bool:
    if w.collision_indices:
        return False
    m, sigma = w.cfg.m, w.cfg.sigma
    p = w.cfg.p_support
    if not ((m - 1) * sigma + p < n_i):
        return False
    if not (n_i > _p0_support_bound(w)):
        return False
    return m * sigma - n_i >= 0


def eval_analytic(w: Witness, lam: Sequence[float]) -> WitnessEval:
    """Closed-form evaluation of the three error components at one parameter.

    Selects the cell containing lam (ties resolve to the lowest index) and
    computes, per axis, the approach error ||P1 - v||_1, the later-cell tail
    ||P2||_1 and the separator tail ||P3||_1 from log-window ratios.  The
    premature powers are reported as exactly zero when support arithmetic
    certifies they vanish, and by sparse expansion otherwise.
    """
    lam = tuple(float(x) for x in lam)
    i = locate_cell(w.covering, lam)
    n_i = w.powers[i]
    p1, p2, p3, branches = zip(*(_axis_errors(w, ax, lam[ax], i) for ax in range(w.cfg.d)))
    sep = _separation(w, n_i)
    top = _support_top(w.vectors) or 0
    if (w.cfg.m - 1) * top < n_i:
        premature = 0.0
    else:
        premature = _premature_bruteforce(w, lam, n_i)[0]

    return WitnessEval(p1_err=p1, p2_norm=p2, p3_norm=p3, premature_max=premature,
                       separation_ok=sep, cell_index=i, dominant_branch=branches)


def _axis_errors(w: Witness, ax: int, x: float, i: int) -> Tuple[float, float, float, int]:
    """(||P1 - v||_1, ||P2||_1, ||P3||_1, dominant branch) on one axis at lam = x in cell i.

    One array call reads W(x, N_j - N_i + l, N_i) for the cells j >= i (rows)
    and the support indices l of v (columns); against the anchor windows,
    row j = i gives P1 and the later rows P2.  The branch is the side of its
    anchor that x lies on for the first largest P2 term.
    """
    cfg, n_i = w.cfg, w.powers[i]
    fam, v = cfg.fams[ax], cfg.v[ax].items_sorted()
    p1 = p2 = 0.0
    branch = 0
    if v:
        ls = [l for l, _ in v]
        dt = np.int64 if w.powers[-1] + ls[-1] <= MAX_INDEX else object
        offs = (np.array(w.powers[i:], dtype=dt) - n_i)[:, None] + np.array(ls, dtype=dt)
        dw = (log_cum_window_offsets(fam, x, offs, n_i) - w.anchor_windows[ax][i:]).tolist()
        with _in_double_range(f"P1 on axis {ax} at lambda = {x!r}"):
            p1 = math.fsum(abs(vl) * abs(math.expm1(e)) for e, (_, vl) in zip(dw[0], v))
        with _in_double_range(f"P2 on axis {ax} at lambda = {x!r}"):
            terms = [abs(vl) * math.exp(e) for row in dw[1:] for e, (_, vl) in zip(row, v)]
            p2 = math.fsum(terms)
        if terms:
            anchor = w.covering.cells[i + 1 + terms.index(max(terms)) // len(v)].anchor[ax]
            branch = 1 if x > anchor else (-1 if x < anchor else 0)
    k = cfg.m * cfg.sigma - n_i  # the separator's index after the shift
    p3 = 0.0
    if k >= 0:
        with _in_double_range(f"P3 on axis {ax} at lambda = {x!r}"):
            p3 = math.exp(cfg.m * w.log_eps[ax] + log_cum_window(fam, x, k, n_i))
    return p1, p2, p3, branch


def _conv_budget_check(w: Witness, n: int, budget: int, advice: str):
    for ax, vec in enumerate(w.vectors):
        if vec.nnz**n > budget:
            raise BruteForceBudgetError(
                f"axis {ax}: {vec.nnz} nonzeros to the power {n} exceeds the "
                f"budget {budget}; {advice}")


def _shift(w: Witness, ax: int, x: float, N: int, vec: SeqVec) -> SeqVec:
    """B^N vec on axis ax at lam = x, by the closed-form sparse shift."""
    with _in_double_range(f"the brute-force shift B^{N} on axis {ax} at lambda = {x!r}"):
        return apply_backward_power(w.cfg.fams[ax], x, N, vec)


def _premature_bruteforce(w: Witness, lam, N: int,
                          budget: int = _BUDGET) -> Tuple[float, List[SeqVec]]:
    """(max over n < m of the summed ||B^N (u')^n||_1, the per-axis (u')^(m-1))."""
    # eval_bruteforce has checked power m against the same budget, so only
    # eval_analytic's fallback can fail here
    m = w.cfg.m
    worst = 0.0
    pws = list(w.vectors)  # pws[ax] is power(w.vectors[ax], n, CONVOLUTION)
    for n in range(1, m):
        _conv_budget_check(w, n, budget, (
            f"support arithmetic could not show that power {n} < m = {m} vanishes "
            f"after N = {N} shifts; use a larger base"))
        total = 0.0
        for ax in range(w.cfg.d):
            if n > 1:
                pws[ax] = product(pws[ax], w.vectors[ax], ProductKind.CONVOLUTION)
            total += norm(_shift(w, ax, lam[ax], N, pws[ax]), L1)
        worst = max(worst, total)
    return worst, pws


def eval_bruteforce(w: Witness, lam: Sequence[float], N: int,
                    budget: int = _BUDGET) -> WitnessEval:
    """Oracle evaluation: expand (u')^n sparsely and apply the backward shift.

    Error components are read off the support of the result: indices up to
    the target support give the approach error, the index m*sigma - N gives
    the separator tail, everything else is the later-cell tail.  Feasibility
    (nonzeros**m against the budget) is checked before any expansion.
    (u')^m is one more product on the premature powers' (u')^(m-1).
    """
    lam = tuple(float(x) for x in lam)
    cfg = w.cfg
    m, sigma, d = cfg.m, cfg.sigma, cfg.d
    p = cfg.p_support
    _conv_budget_check(w, m, budget, "use the analytic path")
    i = locate_cell(w.covering, lam)
    premature, pws = _premature_bruteforce(w, lam, N, budget)

    p1 = []
    p2 = []
    p3 = []
    idx3 = m * sigma - N
    for ax in range(d):
        pw = product(pws[ax], w.vectors[ax], ProductKind.CONVOLUTION)
        res = _shift(w, ax, lam[ax], N, pw)
        head: Dict[int, float] = {}
        tail_sum = []
        p3_val = 0.0
        for k, c in res.items():
            if k <= p:
                head[k] = c
            elif k == idx3:
                p3_val = abs(c)
            else:
                tail_sum.append(abs(c))
        p1.append(norm(SeqVec(head) - cfg.v[ax], L1))
        p2.append(math.fsum(tail_sum))
        p3.append(p3_val)

    sep = _separation(w, N)
    return WitnessEval(p1_err=tuple(p1), p2_norm=tuple(p2), p3_norm=tuple(p3),
                       premature_max=premature, separation_ok=sep, cell_index=i)


# ---------------------------------------------------------------------------
# sigma sweep
# ---------------------------------------------------------------------------


def _lambda_grid(box, per_axis: int) -> List[Tuple[float, ...]]:
    """per_axis points per axis from np.linspace; one point is the box centre."""
    if per_axis == 1:
        return [tuple((lo + hi) / 2.0 for lo, hi in box)]
    return list(itertools.product(*(np.linspace(lo, hi, per_axis).tolist() for lo, hi in box)))


def sweep_sigma(cfg_template: WitnessConfig, bases: Sequence[int],
                grid_per_axis: int = 3) -> List[dict]:
    """Witness error table over increasing sigma = base**m.

    For each base a fresh covering and witness are built and evaluated on a
    lambda grid over the parameter box with the analytic path; rows carry the
    worst error components, the all-points separation flag and the predicted
    decay exponent of the later-cell tail for comparison.  Rows are computed
    one after another: the work holds the GIL, so threads would not help.
    """
    bases = [int(b) for b in bases]
    if any(b2 <= b1 for b1, b2 in zip(bases, bases[1:])):
        raise ValueError("bases must be strictly increasing")
    return [_sweep_row(cfg_template, base, grid_per_axis) for base in bases]


def _sweep_row(cfg_template: WitnessConfig, base: int, grid_per_axis: int) -> dict:
    """One ``sweep_sigma`` row; its witness is freed when the row returns."""
    cfg = replace(cfg_template,
                  log_cov=replace(cfg_template.log_cov, base=base),
                  cov_override=None)
    # small-sigma rows may collide on the separator index; the analytic
    # components stay formula-true and such rows report separation_ok=False
    w = build_witness(cfg, on_collision="merge")
    evals = [eval_analytic(w, lam)
             for lam in _lambda_grid(cfg.log_cov.box, grid_per_axis)]
    return {
        "sigma": cfg.sigma,
        "q": w.q,
        "N_1": w.powers[0],
        "N_q": w.powers[-1],
        "separation_ok": all(e.separation_ok for e in evals),
        "p1_worst": max(math.fsum(e.p1_err) for e in evals),
        "p2_worst": max(math.fsum(e.p2_norm) for e in evals),
        "p3_worst": max(math.fsum(e.p3_norm) for e in evals),
        "premature_max": max(e.premature_max for e in evals),
        "predicted_p2_slope": -w.cprime * min(lo for lo, _ in cfg.log_cov.box),
    }
