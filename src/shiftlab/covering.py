"""Parameter-box coverings: graded coverings and the log-grid covering.

A covering is an ordered list of cells.  Each cell ties an integer shift
power n to an axis-aligned box with an anchor point.  Two constructions are
provided:

* ``build_log_covering`` tiles the enclosing cube [a, b]^d with g cells per
  axis (anchors at cell centers) and attaches the power schedule
  N_j = (m-1)*sigma + sigma**((m-1)/m) * (j+r)**r with sigma = base**m.
* ``build_graded_covering`` searches for a covering satisfying the five
  graded-covering properties (spacing, box containment, pairwise proximity,
  power summability, gap summability), as certified by ``verify_graded``.
  The verifier, not the constructor, is the source of truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .weights import _in_double_range, _positive

Box = Tuple[Tuple[float, float], ...]

# guard on q**2-entry arrays: the graded search's cell pairs, unif's (n, k)
# grid and criterion's s^d * M per cell
_MAX_PAIR_GRID = 50_000_000
# entries per row block of verify_graded's (c) and (e) pair arrays: at
# q = 12**3 in d = 3 they peak near 64 MiB, against 205 MiB unblocked
_ROW_BLOCK = 1 << 22
# largest q of a log covering: a Cell holds about 410 B at d = 2 and 520 B at
# d = 3, and cover-build peaks near 2.3 and 2.8 KB per cell with its report
_MAX_LOG_CELLS = 1_000_000


class CoveringInfeasibleError(ValueError):
    """Covering construction failed; ``reason`` is 'diam' or 'budget'."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def as_box(obj) -> Box:
    box = tuple((float(lo), float(hi)) for lo, hi in obj)
    if not box:
        raise ValueError("box needs at least one axis")
    for lo, hi in box:
        if not (lo <= hi):
            raise ValueError(f"empty box axis [{lo}, {hi}]")
    return box


@dataclass(frozen=True)
class Cell:
    n: int
    anchor: Tuple[float, ...]
    box: Box

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cell power must be a positive integer")
        if len(self.anchor) != len(self.box):
            raise ValueError("anchor and box dimensions differ")
        object.__setattr__(self, "box", as_box(self.box))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "anchor": list(self.anchor),
            "box": [list(ax) for ax in self.box],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Cell":
        return cls(int(obj["n"]), tuple(float(a) for a in obj["anchor"]), obj["box"])


@dataclass(frozen=True)
class GradedParams:
    alpha: float
    beta: float
    D: float
    tau: float
    eta: float
    N: int
    c: float = 0.1
    d: int = 2

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension d must be >= 1")
        if not (0.0 < self.alpha < 1.0 / self.d):
            raise ValueError(f"alpha must lie in (0, 1/d) = (0, {1.0/self.d}); got {self.alpha}")
        if not (self.beta > self.alpha * self.d):
            raise ValueError(f"beta must exceed alpha*d = {self.alpha * self.d}; got {self.beta}")
        for name in ("D", "tau", "eta", "c"):
            _positive(name, getattr(self, name))
        if self.N < 1:
            raise ValueError("spacing floor N must be a positive integer")

    def to_json_dict(self) -> dict:
        return {
            "kind": "graded", "alpha": self.alpha, "beta": self.beta, "D": self.D,
            "tau": self.tau, "eta": self.eta, "N": self.N, "c": self.c, "d": self.d,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GradedParams":
        return cls(
            alpha=float(obj["alpha"]), beta=float(obj["beta"]), D=float(obj["D"]),
            tau=float(obj["tau"]), eta=float(obj["eta"]), N=int(obj["N"]),
            c=float(obj.get("c", cls.c)), d=int(obj.get("d", cls.d)),
        )


@dataclass(frozen=True)
class LogCoveringParams:
    box: Box
    m: int
    r: int
    base: int

    def __post_init__(self):
        object.__setattr__(self, "box", as_box(self.box))
        if self.m < 2:
            raise ValueError("log covering requires m >= 2")
        if self.base < 2:
            raise ValueError("base must be an integer >= 2")
        if self.r < 1:
            raise ValueError("r must be a positive integer")
        lows = [lo for lo, _ in self.box]
        if min(lows) <= 0.0:
            raise ValueError("box must sit in the positive orthant")
        for lo, hi in self.box:
            if not (hi < 2.0 * lo):
                raise ValueError(f"box axis [{lo}, {hi}] violates hi < 2*lo")
        amin = min(lows)
        r_floor = max(1.0 / amin, 1.0)
        if not (self.r > r_floor) and not (amin > 1.0):
            raise ValueError(
                f"r = {self.r} too small: need r > {r_floor} unless every lower bound exceeds 1")

    @property
    def sigma(self) -> int:
        return self.base**self.m

    @property
    def d(self) -> int:
        return len(self.box)

    def to_json_dict(self) -> dict:
        return {"kind": "log", "box": [list(ax) for ax in self.box],
                "m": self.m, "r": self.r, "base": self.base}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LogCoveringParams":
        return cls(box=obj["box"], m=int(obj["m"]), r=int(obj["r"]), base=int(obj["base"]))


@dataclass(frozen=True)
class Covering:
    cells: Tuple[Cell, ...]
    params: Optional[object] = None  # GradedParams | LogCoveringParams | None
    kind: str = "custom"

    def __post_init__(self):
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise ValueError("covering needs at least one cell")
        d = len(cells[0].box)
        for c in cells:
            if len(c.box) != d:
                raise ValueError("all cells must share one dimension")
        ns = [c.n for c in cells]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("cell powers must be strictly increasing")

    @property
    def q(self) -> int:
        return len(self.cells)

    @property
    def d(self) -> int:
        return len(self.cells[0].box)

    @property
    def powers(self) -> List[int]:
        return [c.n for c in self.cells]

    def to_json_dict(self) -> dict:
        params = self.params.to_json_dict() if self.params is not None else None
        return {"kind": self.kind, "params": params,
                "cells": [c.to_json_dict() for c in self.cells]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Covering":
        kind = obj.get("kind", "custom")
        params = obj.get("params")
        if params is not None:
            pk = params.get("kind")
            if pk == "graded":
                params = GradedParams.from_json_dict(params)
            elif pk == "log":
                params = LogCoveringParams.from_json_dict(params)
            else:
                raise ValueError(f"unknown covering params kind {pk!r}")
        cells = tuple(Cell.from_json_dict(c) for c in obj["cells"])
        return cls(cells=cells, params=params, kind=kind)


# -- geometry helpers -----------------------------------------------------------


def _axis_midpoints(lo: float, hi: float, edges: Sequence[float]) -> List[float]:
    if hi == lo:
        return [lo]
    pts = {lo, hi}
    for e in edges:
        if lo < e < hi:
            pts.add(e)
    srt = sorted(pts)
    return [(a + b) / 2.0 for a, b in zip(srt, srt[1:]) if b > a]


def box_union_covers(boxes: Sequence[Box], K: Box):
    """Does the union of closed boxes contain the closed box K?

    Exact for closed boxes: the arrangement induced by all box edges is
    probed at elementary-cell midpoints, and every elementary open cell is
    either inside a given box or disjoint from it.

    Returns (covered, first_uncovered_point_or_None, uncovered_count).
    """
    d = len(K)
    axes_mids = []
    for ax in range(d):
        lo, hi = K[ax]
        edges = [b[ax][0] for b in boxes] + [b[ax][1] for b in boxes]
        axes_mids.append(np.asarray(_axis_midpoints(lo, hi, edges)))
    shape = tuple(len(m) for m in axes_mids)
    covered = np.zeros(shape, dtype=bool)
    for b in boxes:
        sl = []
        for ax in range(d):
            mids = axes_mids[ax]
            i0 = int(np.searchsorted(mids, b[ax][0], side="left"))
            i1 = int(np.searchsorted(mids, b[ax][1], side="right"))
            sl.append(slice(i0, i1))
        covered[tuple(sl)] = True
    if covered.all():
        return True, None, 0
    missing = np.argwhere(~covered)
    first = tuple(float(axes_mids[ax][i]) for ax, i in enumerate(missing[0]))
    return False, first, int(missing.shape[0])


def _row_blocks(q: int, width: int) -> Iterator[slice]:
    """Consecutive slices of rows 0..q-1 of a pair array, _ROW_BLOCK entries or fewer each."""
    step = max(1, _ROW_BLOCK // width)
    return (slice(j, min(j + step, q)) for j in range(0, q, step))


# -- log covering ---------------------------------------------------------------


def _iroot(x: int, d: int) -> int:
    """Largest integer g with g**d <= x, for x >= 0."""
    g = int(round(x ** (1.0 / d)))
    while g**d > x:
        g -= 1
    while (g + 1) ** d <= x:
        g += 1
    return g


def _grid_boxes(K: Box, g: int) -> Iterator[Box]:
    """Boxes of the g x ... x g grid over K in row-major order (last axis fastest).

    np.linspace gives each axis's edges; its last edge is hi itself.
    """
    edges = [np.linspace(lo, hi, g + 1).tolist() for lo, hi in K]
    for idx in itertools.product(range(g), repeat=len(K)):
        yield tuple((e[i], e[i + 1]) for e, i in zip(edges, idx))


def log_covering_power(p: LogCoveringParams, j: int) -> int:
    """Power N_j attached to the j-th cell (1-based), an exact integer."""
    return (p.m - 1) * p.sigma + p.base ** (p.m - 1) * (j + p.r) ** p.r


def build_log_covering(p: LogCoveringParams, q_override: Optional[int] = None) -> Covering:
    """Grid covering of [a, b]^d with a = min lower, b = max upper bound.

    Cell count q is the largest perfect d-th power below floor((log sigma)^3+1)
    (q_override replaces it for oracle runs); anchors sit at cell centers in
    row-major order and cell j carries the exact integer power N_j.  A q
    past _MAX_LOG_CELLS raises CoveringInfeasibleError('budget') before any
    cell is built, and before sigma is formed where m*log(base) alone puts q
    far past it.
    """
    d = p.d
    if q_override is None:
        # log sigma is m*log(base) to rounding; past twice the cube root of
        # G**d, the least d-th power above the cap, q passes the cap however
        # it rounds (sigma = 100**10**9 alone would take 830 MB).  Compared
        # in logs, so that no m or d overflows a float.
        if (math.log(p.m) + math.log(math.log(p.base))
                > math.log(2.0) + d * math.log(_iroot(_MAX_LOG_CELLS, d) + 1) / 3):
            raise CoveringInfeasibleError(
                "budget", f"log covering over sigma = {p.base}**{p.m} exceeds the cap of "
                f"{_MAX_LOG_CELLS} cells")
        q = _iroot(math.floor(math.log(p.sigma) ** 3 + 1.0), d) ** d
    else:
        q = int(q_override)
        if q < 1:
            raise ValueError("q_override must be >= 1")
    if q > _MAX_LOG_CELLS:
        raise CoveringInfeasibleError(
            "budget", f"log covering of q = {q} cells exceeds the cap of {_MAX_LOG_CELLS}")
    g = _iroot(q, d)
    if g**d != q:
        raise ValueError(f"q_override = {q} is not a perfect {d}-th power")
    a = min(lo for lo, _ in p.box)
    b = max(hi for _, hi in p.box)
    cells = tuple(
        Cell(n=log_covering_power(p, j), anchor=tuple((lo + hi) / 2.0 for lo, hi in box),
             box=box)
        for j, box in enumerate(_grid_boxes(((a, b),) * d, g), start=1))
    return Covering(cells=cells, params=p, kind="log")


# -- graded covering ------------------------------------------------------------


@dataclass
class CheckResult:
    """Outcome of one checked condition or covering property.

    ``sense`` says which side of the bound passes: 'ceiling' needs
    achieved <= bound, 'floor' needs achieved >= bound.  ``margin`` is the
    slack toward the bound and is nonnegative exactly when the check passes.
    ``evaluations`` counts the grid points a verdict covers, all of them for
    a floor read at the grid's least point; it is written only when set.
    """

    passed: bool
    achieved: float
    bound: float
    sense: str = "ceiling"
    witness: Optional[dict] = None
    evaluations: Optional[int] = None
    note: str = ""

    @property
    def margin(self) -> float:
        if self.sense == "floor":
            return self.achieved - self.bound
        return self.bound - self.achieved

    def to_json_dict(self) -> dict:
        out = {"pass": bool(self.passed), "achieved": self.achieved,
               "bound": self.bound, "margin": self.margin, "sense": self.sense}
        if self.evaluations is not None:
            out["evaluations"] = self.evaluations
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class CriterionReport:
    """Named check results plus metadata; it passes when every result passes.

    ``section`` is the JSON key holding the results ('properties' for the
    graded-covering verifier).
    """

    conditions: Dict[str, CheckResult]
    meta: dict = field(default_factory=dict)
    section: str = "conditions"

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def to_json_dict(self) -> dict:
        return {
            "pass": bool(self.overall),
            self.section: {k: v.to_json_dict() for k, v in self.conditions.items()},
            "meta": self.meta,
        }

    def rows(self) -> List[dict]:
        """Flat per-condition rows for CSV export."""
        return [{"condition": name, "pass": c.passed, "achieved": c.achieved,
                 "bound": c.bound, "margin": c.margin, "evaluations": c.evaluations}
                for name, c in self.conditions.items()]


def verify_graded(cov: Covering, K, p: GradedParams) -> CriterionReport:
    """Check the five graded-covering properties; always returns a report.

    (a) spacing: n_0 >= N and consecutive gaps >= N.
    (b) every box inside its anchor's tau/n**alpha square, and the union of
        boxes covers K (edge-grid sweep, exact for closed boxes).
    (c) pairwise sup of the max-norm distance bounded by
        D*(n_l - n_j)**alpha / n_l**alpha, checked on box corners (exact).
    (d) sum of n_j**-beta bounded by eta.
    (e) for every j, sum over l != j of |n_l - n_j|**-beta bounded by eta.
    """
    K = as_box(K)
    ns = np.asarray(cov.powers, dtype=np.float64)
    q = cov.q
    props = {}

    gaps = np.diff(ns)
    ach_a = float(min(ns[0], gaps.min())) if q > 1 else float(ns[0])
    props["a"] = CheckResult(ach_a >= p.N, ach_a, float(p.N), sense="floor",
                             note="min of n_0 and consecutive gaps")

    # (b) containment in the anchor square
    worst_slack = math.inf
    worst_cell = None
    for j, c in enumerate(cov.cells):
        room = p.tau / c.n**p.alpha
        for ax in range(cov.d):
            lo_slack = c.box[ax][0] - c.anchor[ax]
            hi_slack = (c.anchor[ax] + room) - c.box[ax][1]
            s = min(lo_slack, hi_slack)
            if s < worst_slack:
                worst_slack, worst_cell = s, j
    props["b_containment"] = CheckResult(
        worst_slack >= 0.0, -worst_slack, 0.0, witness={"cell": worst_cell},
        note="achieved is the worst containment violation; negative means slack")

    covered, missing_pt, miss_count = box_union_covers([c.box for c in cov.cells], K)
    props["b_cover"] = CheckResult(
        covered, float(miss_count), 0.0,
        witness=None if covered else {"uncovered_point": list(missing_pt)},
        note="achieved value counts uncovered elementary cells")

    props["c"] = _check_c([c.box for c in cov.cells], ns, p)
    props["d"] = _check_d(cov.powers, p)

    if q > 1:
        row_sums = np.empty(q)
        for rows in _row_blocks(q, q):
            diff = np.abs(ns[rows, None] - ns[None, :])
            np.fill_diagonal(diff[:, rows.start:], np.inf)
            row_sums[rows] = (diff**-p.beta).sum(axis=1)
        worst_j = int(np.argmax(row_sums))
        worst_e = float(row_sums[worst_j])
        props["e"] = CheckResult(worst_e <= p.eta, worst_e, p.eta, witness={"cell": worst_j})
    else:
        props["e"] = CheckResult(True, 0.0, p.eta, note="vacuous for a single cell")

    return CriterionReport(conditions=props, section="properties")


def _check_c(boxes: Sequence[Box], ns: np.ndarray, p: GradedParams) -> CheckResult:
    """(c): pairwise proximity on box corners, for the float64 powers ns.

    The supremum of ||x - y||_inf over two boxes is attained at corners and
    equals max over axes of max(hi_j - lo_l, hi_l - lo_j).  The pairs j < l
    are read in blocks of rows j; the witness is the first least slack in
    row-major (j, l) order.
    """
    q = len(ns)
    if q == 1:
        return CheckResult(True, 0.0, math.inf, note="vacuous for a single cell")
    arr = np.asarray(boxes, dtype=np.float64)  # (q, d, 2)
    lo, hi = arr[:, :, 0], arr[:, :, 1]
    best = None
    for rows in _row_blocks(q - 1, q * arr.shape[1]):
        cols = slice(rows.start + 1, q)  # l > j for the block's first row j
        dist = hi[rows, None, :] - lo[None, cols, :]
        np.maximum(dist, hi[None, cols, :] - lo[rows, None, :], out=dist)
        dist = dist.max(axis=2)
        n_l = ns[None, cols]
        with _in_double_range("D*|n_l - n_j|**alpha"):
            bound = p.D * np.abs(n_l - ns[rows, None]) ** p.alpha / n_l ** p.alpha
        gap = bound - dist
        gap[np.tril_indices(gap.shape[0], -1, gap.shape[1])] = np.inf  # the pairs l <= j
        r, c = divmod(int(np.argmin(gap)), gap.shape[1])
        if best is None or gap[r, c] < best[0]:
            best = (gap[r, c], dist[r, c], bound[r, c], [rows.start + r, rows.start + 1 + c])
    gap, dist, bound, pair = best
    return CheckResult(bool(gap >= 0.0), float(dist), float(bound), witness={"pair": pair})


def _check_d(powers: Sequence[int], p: GradedParams) -> CheckResult:
    """(d): power summability, over the integer powers."""
    ach = math.fsum(1.0 / n**p.beta for n in powers)
    return CheckResult(ach <= p.eta, ach, p.eta)


def _screen(powers: List[int], boxes: List[Box], g: int, p: GradedParams) -> bool:
    """Does a g-per-axis grid candidate pass (d), and (c) at its last row wrap?

    Both use verify_graded's own expressions, so a rejected candidate fails
    the verifier.  The cells q - g - 1 and q - g are the last consecutive
    pair whose last-axis index wraps: their distance spans K's last side,
    against the least (c) bound among such pairs.  (e) needs no screen:
    delta keeps each of its row sums at most 2*s_beta*delta**-beta <= eta.
    """
    if not _check_d(powers, p).passed:
        return False
    q = len(powers)
    if q == g:  # d = 1: no wrap
        return True
    wrap = slice(q - g - 1, q - g + 1)
    return _check_c(boxes[wrap], np.asarray(powers[wrap], dtype=np.float64), p).passed


def build_graded_covering(K, p: GradedParams, g_max: int = 40) -> Covering:
    """Deterministic search for a covering that passes ``verify_graded``.

    K is tiled by a g x ... x g grid with an arithmetic power schedule;
    grid size, spacing and offset escalate until the verifier passes or the
    budget runs out.  Grids stop where verify_graded's q**2 pair arrays
    would exceed _MAX_PAIR_GRID, and schedules past 2**53 are skipped, since
    the verifier reads the powers as float64.  Raises CoveringInfeasibleError
    with reason 'diam' when the precondition diam(K) <= c*D fails and
    'budget' when the search space is exhausted.
    """
    K = as_box(K)
    d = len(K)
    if d != p.d:
        raise ValueError(f"params declare d = {p.d} but K has {d} axes")
    S = max(hi - lo for lo, hi in K)
    if S > p.c * p.D:
        raise CoveringInfeasibleError(
            "diam", f"diam(K) = {S} exceeds c*D = {p.c * p.D}")

    def n_cap_for(g: int) -> int:
        if S == 0.0:
            return 10**15
        try:
            cap = int((p.tau * g / S) ** (1.0 / p.alpha))
        except OverflowError:  # past the double range: the cap does not bind
            return 10**15
        # float rounding in the power can overshoot by ~cap/alpha ulps, so
        # step down multiplicatively until the containment bound holds
        while cap >= 1 and p.tau / cap**p.alpha < S / g:
            cap = min(cap - 1, int(cap * (1.0 - 1e-9)))
        return cap

    # single cell: box = K, anchor at the lower corner
    n_lo = max(p.N, math.ceil(p.eta ** (-1.0 / p.beta)))
    cap1 = n_cap_for(1)
    if n_lo <= cap1:
        cov = Covering(cells=(Cell(n=n_lo, anchor=tuple(lo for lo, _ in K), box=K),),
                       params=p, kind="graded")
        if verify_graded(cov, K, p).overall:
            return cov

    g_top = min(g_max, _iroot(math.isqrt(_MAX_PAIR_GRID), d))
    for g in range(2, g_top + 1):
        q = g**d
        s_beta = math.fsum(k ** (-p.beta) for k in range(1, q))
        cap = n_cap_for(g)
        delta = max(p.N, math.ceil((2.0 * s_beta / p.eta) ** (1.0 / p.beta)))
        span = (q - 1) * delta
        if p.N + span > cap:
            continue
        slack = cap - span - p.N
        boxes = list(_grid_boxes(K, g))
        for frac in (0.5, 0.25, 0.75, 0.0, 1.0):
            n0 = p.N + int(frac * slack)
            if n0 + span > 2**53:
                continue
            powers = [n0 + j * delta for j in range(q)]
            if not _screen(powers, boxes, g, p):
                continue
            # anchors at the lower corners
            cells = tuple(Cell(n=n, anchor=tuple(lo for lo, _ in box), box=box)
                          for n, box in zip(powers, boxes))
            cov = Covering(cells=cells, params=p, kind="graded")
            if verify_graded(cov, K, p).overall:
                return cov
    limit = "" if g_top == g_max else (
        f"; {g_top + 1} per axis gives more than {_MAX_PAIR_GRID} cell pairs")
    raise CoveringInfeasibleError(
        "budget", f"no covering found with grid size up to {g_top} per axis{limit}")
