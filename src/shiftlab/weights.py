"""Parametrized weight families and N-fold shift application in log domain.

A weight family maps a parameter lam > 0 to a sequence of positive weights
(w_n(lam))_{n>=1}.  All cumulative products live in log domain: the central
primitive is the window sum  sum_{i=l+1}^{l+n} log w_i(lam),  evaluated in
closed form whenever one exists and by compensated summation otherwise.
Ratios of cumulative weights are exp of window differences, which keeps
n ~ 1e8 with lam <= 3 inside double range.

The scalar affine window sum_{i=l+1}^{l+n} log1p(lam / i**(1-alpha)) takes
one of three paths; each is measured against math.fsum of the same float
terms (or mpmath) in tests/test_weights.py:
    table     l + n < _TABLE_MAX (2**16): O(1) difference of a memoized
              compensated prefix table, within 1 ulp of fsum; for one
              (lam, n) and an array of offsets, log_cum_window_offsets
              reads it with one gather
    Stirling  alpha == 0, n > _FSUM_MAX (2**21): Gamma-ratio telescoping
              with lognum.lgamma_ratio, relative error below 1e-11
    fsum      any other window: one math.fsum over all its terms, fed
              _CHUNK at a time; correctly rounded at any length

Windows and prefixes are nondecreasing in lam as computed, which the
checkers rely on to read floors at the least parameter point; the Stirling
path keeps this for lam spacings from 1e-12 relative, not one ulp apart.
affine and geometric log cumulative products are also strictly concave in
lam, so the largest chord slope over a grid is the first one, between its
two least points (chord_points).  As computed, the first chord has the bits
of the largest neighbouring chord on grids with hi/lo - 1 from 1e-4 to 30
(tests/test_weights.py, tests/test_criteria.py); below about 1e-5 rounding
can outweigh the concavity gap, and the first chord may read below the
largest.

Families:
    affine(alpha):   w_n(lam) = 1 + lam / n**(1-alpha),  alpha in [0, 1)
    pure_power:      w_1(lam)...w_n(lam) = n**lam
    exp_alpha(alpha):w_1(lam)...w_n(lam) = exp(lam * n**alpha), alpha in (0, 1]
    power_ratio:     w_n(lam) = (1 + 1/n)**lam
    geometric:       w_n(lam) = lam
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .lognum import lgamma_ratio
from .seqspace import MAX_INDEX, IndexOverflowError, SeqVec

_VARIANTS = ("affine", "pure_power", "exp_alpha", "power_ratio", "geometric")

# Affine window paths, tried in this order (see the module docstring):
# windows ending below _TABLE_MAX difference a memoized compensated prefix
# table (within 1 ulp of fsum, O(1) per window once the table is built:
# 0.1 ms for 2**12 entries, about 2 ms for 2**16); affine(0) windows longer
# than _FSUM_MAX use the Stirling form (relative error below 1e-11); all
# others take one math.fsum over their terms (correctly rounded).  Tables
# come in power-of-two sizes from _TABLE_MIN up, so one (alpha, lam) holds
# at most five of them.
_TABLE_MIN = 1 << 12
_TABLE_MAX = 1 << 16
_FSUM_MAX = 1 << 21
# Stirling's series for log Gamma ratios is used from this argument on.
_STIRLING_MIN = 1 << 14
# Block of log_cum_chunks and of the fsum path.  glibc keeps freed heap, so
# it sets the peak: the benchmark's two n_max 1e6 corollary jobs peaked at
# 36 MB RSS with 2**14, 45 MB with 2**16, 75 MB with 2**18 and 111 MB with
# whole prefixes.
_CHUNK = 1 << 14


class InadmissibleParameterError(ValueError):
    """Weight parameter outside the family's admissible domain."""


@dataclass(frozen=True)
class WeightFamily:
    variant: str
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown weight family {self.variant!r}")
        if self.variant == "affine":
            if self.alpha is None or not (0.0 <= self.alpha < 1.0):
                raise ValueError("affine family requires alpha in [0, 1)")
        elif self.variant == "exp_alpha":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError("exp_alpha family requires alpha in (0, 1]")
        elif self.alpha is not None:
            raise ValueError(f"{self.variant} family takes no alpha")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def affine(cls, alpha: float = 0.0) -> "WeightFamily":
        return cls("affine", float(alpha))

    @classmethod
    def pure_power(cls) -> "WeightFamily":
        return cls("pure_power")

    @classmethod
    def exp_alpha(cls, alpha: float) -> "WeightFamily":
        return cls("exp_alpha", float(alpha))

    @classmethod
    def power_ratio(cls) -> "WeightFamily":
        return cls("power_ratio")

    @classmethod
    def geometric(cls) -> "WeightFamily":
        return cls("geometric")

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        out = {"variant": self.variant}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "WeightFamily":
        if not isinstance(obj, dict) or "variant" not in obj:
            raise ValueError("weight family JSON needs a 'variant' key")
        return cls(obj["variant"], obj.get("alpha"))


def _positive(name: str, value) -> float:
    """``value`` as a float; raises ValueError unless it is finite and positive."""
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"constants must be finite and positive; got {name} = {value!r}")
    return value


@contextmanager
def _in_double_range(what: str):
    """Raise a numpy overflow in the block as a ValueError naming the quantity."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        raise ValueError(f"{what} overflows the double range") from None


def _require_admissible(fam: WeightFamily, lam: float) -> float:
    lam = float(lam)
    if not (lam > 0.0) or not math.isfinite(lam):
        raise InadmissibleParameterError(
            f"parameter {lam!r} not admissible for {fam.variant} (need lam > 0)")
    return lam


def _require_admissible_array(fam: WeightFamily, lam) -> np.ndarray:
    """``lam`` as a float64 array; the first inadmissible entry raises as in the scalar check."""
    lam = np.asarray(lam, dtype=np.float64)
    bad = ~((lam > 0.0) & np.isfinite(lam))
    if bad.any():
        _require_admissible(fam, lam.flat[int(np.argmax(bad))])
    return lam


def log_weight(fam: WeightFamily, lam: float, n: int) -> float:
    """log w_n(lam) for a single index n >= 1."""
    lam = _require_admissible(fam, lam)
    if n < 1:
        raise ValueError("weights are indexed from 1")
    v = fam.variant
    if v == "affine":
        return math.log1p(lam / n ** (1.0 - fam.alpha))
    if v == "pure_power":
        return 0.0 if n == 1 else lam * math.log1p(1.0 / (n - 1))
    if v == "exp_alpha":
        a = fam.alpha
        return lam * (n**a - (n - 1) ** a)
    if v == "power_ratio":
        return lam * math.log1p(1.0 / n)
    return math.log(lam)  # geometric


# -- affine window machinery --------------------------------------------------


def _affine_terms(alpha: float, lam: float, idx: np.ndarray) -> np.ndarray:
    """The terms log1p(lam / i**(1-alpha)) for the float indices i, in place in idx."""
    if alpha:
        np.power(idx, 1.0 - alpha, out=idx)
    return np.log1p(np.divide(lam, idx, out=idx), out=idx)


def _affine_fsum_window(alpha: float, lam: float, l: int, n: int) -> float:
    """math.fsum over the window's terms, correctly rounded at any length.

    The terms reach fsum as Python floats _CHUNK at a time, in order, so
    memory is one _CHUNK block and fsum sees the sequence of one whole list.
    """
    return math.fsum(itertools.chain.from_iterable(
        _affine_terms(alpha, lam, np.arange(s, min(s + _CHUNK, l + n + 1),
                                            dtype=np.float64)).tolist()
        for s in range(l + 1, l + n + 1, _CHUNK)))


def _affine0_lgamma_shift(lam: float, z: int) -> float:
    """log(Gamma(z+lam)/Gamma(z)) for the affine(0) cumulative product.

    Exact-grade partial product below the Stirling threshold, Stirling's
    cancellation-free ratio above it.
    """
    if z < _STIRLING_MIN:
        head = math.lgamma(1.0 + lam)
        if z > 1:
            head += _affine_fsum_window(0.0, lam, 0, z - 1)
        return head
    return lgamma_ratio(float(z), lam)


@lru_cache(maxsize=8)
def _affine_prefix_table(alpha: float, lam: float, size: int):
    """Compensated prefix sums (s, c) of t_i = log1p(lam / i**(1-alpha)), i < size.

    s = cumsum(t) and c = cumsum(e), where e_i is the TwoSum rounding error
    of the step s_i = fl(s_{i-1} + t_i), so s_i + c_i carries the prefix to
    about eps**2 (Ogita, Rump and Oishi, "Accurate sum and dot product",
    SISC 2005).  Entry i does not depend on ``size``.  Both are read-only
    float64 buffers (at most 1 MB per table); lru_cache keeps the memo's
    memory bounded.
    """
    t = _affine_terms(alpha, lam, np.arange(1, size, dtype=np.float64))
    s = np.zeros(size)
    np.cumsum(t, out=s[1:])
    z = s[1:] - s[:-1]
    e = s[:-1] - (s[1:] - z)
    e += np.subtract(t, z, out=z)
    c = np.zeros(size)
    np.cumsum(e, out=c[1:])
    # memoryview indexing yields Python floats, about 2x faster than numpy's
    return memoryview(s).toreadonly(), memoryview(c).toreadonly()


def _table_diff(sb, sl, cb, cl):
    """The window (sb + cb) - (sl + cl) between two compensated prefix entries.

    sb >= sl >= 0, so Fast2Sum recovers the rounding error of hi.  Python
    floats and float64 arrays give the same bits: each step is one IEEE
    operation.
    """
    hi = sb - sl
    return hi + (((sb - hi) - sl) + (cb - cl))


def _table_size(b: int) -> int:
    return max(_TABLE_MIN, 1 << b.bit_length())


def _affine_window(alpha: float, lam: float, l: int, n: int) -> float:
    b = l + n
    if b < _TABLE_MAX:
        s, c = _affine_prefix_table(alpha, lam, _table_size(b))
        return _table_diff(s[b], s[l], c[b], c[l])
    if alpha == 0.0 and n > _FSUM_MAX:
        # prod_{i=l+1}^{l+n} (1 + lam/i) = Gamma-ratio telescoping
        return _affine0_lgamma_shift(lam, l + n + 1) - _affine0_lgamma_shift(lam, l + 1)
    return _affine_fsum_window(alpha, lam, l, n)


# -- public window operations ---------------------------------------------------


def log_cum_window(fam: WeightFamily, lam: float, l: int, n: int) -> float:
    """sum_{i=l+1}^{l+n} log w_i(lam); closed form where one exists.

    l >= 0 is the window offset and n >= 0 its length; n == 0 gives 0.
    """
    lam = _require_admissible(fam, lam)
    if l < 0 or n < 0:
        raise ValueError("window offset and length must be nonnegative")
    return _window(fam, lam, l, n)


def _window(fam: WeightFamily, lam: float, l: int, n: int) -> float:
    """log_cum_window for an admissible lam and l, n >= 0, unchecked."""
    if n == 0:
        return 0.0
    v = fam.variant
    if v == "pure_power":
        # log what_n = lam log n, with what_0 = 1
        if l == 0:
            return lam * math.log(n)
        return lam * math.log1p(n / l)
    if v == "exp_alpha":
        a = fam.alpha
        if l == 0:
            return lam * float(n) ** a
        return lam * l**a * math.expm1(a * math.log1p(n / l))
    if v == "power_ratio":
        return lam * math.log1p(n / (l + 1))
    if v == "geometric":
        return n * math.log(lam)
    return _affine_window(fam.alpha, lam, l, n)


def log_cum_window_offsets(fam: WeightFamily, lam: float, offsets, n: int) -> np.ndarray:
    """Array form of log_cum_window for one lam and n: element i is
    log_cum_window(fam, lam, offsets[i], n), with its bits.

    The offsets are an int64 array, or an object array of Python ints where
    windows reach beyond 2**63 - 1.  lam, n and the offsets are validated
    once per call.  Affine windows ending below _TABLE_MAX read the
    compensated prefix table sized for the largest such end with one gather;
    a table entry does not depend on the table's size, so each has the bits
    of the scalar table path.  Closed forms and the longer affine windows
    loop the scalar path: numpy's log1p, expm1 and power can differ from
    libm's in the last bit.
    """
    lam = _require_admissible(fam, lam)
    offs = np.asarray(offsets)
    if offs.dtype != object:
        offs = offs.astype(np.int64, copy=False)
    if n < 0 or (offs < 0).any():
        raise ValueError("window offset and length must be nonnegative")
    out = np.empty(offs.shape)
    loop = np.ones(offs.shape, dtype=bool)
    if fam.variant == "affine" and n > 0:
        ends = offs + n
        loop = ends >= _TABLE_MAX
        if not loop.all():
            near = ~loop
            b = ends[near].astype(np.int64, copy=False)
            l = offs[near].astype(np.int64, copy=False)
            s, c = _affine_prefix_table(fam.alpha, lam, _table_size(int(b.max())))
            s, c = np.asarray(s), np.asarray(c)
            out[near] = _table_diff(s[b], s[l], c[b], c[l])
    at = np.flatnonzero(loop)
    out.flat[at] = [_window(fam, lam, l, n) for l in offs.flat[at].tolist()]
    return out


def log_cum_prefix(fam: WeightFamily, lam: float, upto: int) -> np.ndarray:
    """Array P with P[n] = log_cum_window(fam, lam, 0, n) for n = 0..upto.

    Closed forms are exact; the affine family uses a vectorized cumulative
    sum, adequate for checker margins (absolute error ~ n * eps).  This is
    the one-block case of log_cum_chunks.
    """
    if upto < 0:
        raise ValueError("prefix length must be nonnegative")
    return next(log_cum_chunks(fam, lam, 0, upto, upto + 1))


def log_cum_chunks(
    fam: WeightFamily, lam: float, lo: int, hi: int, block: int = _CHUNK
) -> Iterator[np.ndarray]:
    """Yield P[lo..hi] of log_cum_prefix in blocks of ``block`` entries from lo on.

    Closed forms are elementwise.  The affine family prepends a block's last
    prefix value to the next block's cumsum; np.add.accumulate adds in
    sequence, so each entry has the bits of one cumsum over 1..hi.  Terms
    below lo are summed in blocks too: memory is O(block) for any lo.  Affine
    blocks are views of one reused buffer: use each before asking for the next.
    """
    lam = _require_admissible(fam, lam)
    closed = {"pure_power": lambda ns: lam * np.log(np.maximum(ns, 1.0)),
              "exp_alpha": lambda ns: lam * ns**fam.alpha,
              "power_ratio": lambda ns: lam * np.log(ns + 1.0),
              "geometric": lambda ns: ns * math.log(lam)}.get(fam.variant)
    if closed:
        for s in range(lo, hi + 1, block):
            yield closed(np.arange(s, min(s + block, hi + 1), dtype=np.float64))
        return
    # buffers of at most hi + 1 terms; out[0] carries P[s - 1] (P[-1] = 0) and
    # out[1:] takes the terms k..e-1, k = max(s, 1), so s = 0 keeps its P[0]
    block = min(block, hi + 1)
    buf = np.empty(block + 1)
    carry = 0.0
    for s in itertools.chain(range(1, lo, block), range(lo, hi + 1, block)):
        e = min(s + block, lo if s < lo else hi + 1)
        k = max(s, 1)
        out = buf[:e - k + 1]
        out[1:] = np.arange(k, e, dtype=np.float64)
        _affine_terms(fam.alpha, lam, out[1:])
        out[0] = carry
        np.cumsum(out, out=out)
        carry = out[-1]
        if s >= lo:
            yield out[1 if s else 0:]


def log_cum_windows(
    fam: WeightFamily, lam, offsets: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Vectorized window sums: element i is log_cum_window(fam, lam_i, offs[i], lens[i]).

    ``lam`` is one scalar for every element, or an array shaped like
    ``offsets`` holding each element's lam_i; the first inadmissible lam_i
    raises with the scalar message.  Closed-form families are evaluated
    elementwise, with the bits of one scalar-lam call per element (geometric
    takes math.log once per distinct lam).  The affine family builds one
    transient cumulative-sum prefix per distinct lam (checker-grade accuracy,
    ~n*eps absolute); a prefix entry does not depend on the prefix length,
    so array and scalar lam give the same bits here too.
    """
    if np.ndim(lam) == 0:
        lam = np.full(np.shape(offsets), _require_admissible(fam, lam))
    else:
        lam = _require_admissible_array(fam, lam)
    offs = np.asarray(offsets, dtype=np.int64)
    lens = np.asarray(lengths, dtype=np.int64)
    if lam.shape != offs.shape:
        raise ValueError("an array lam must have the shape of the offsets")
    if (offs < 0).any() or (lens < 0).any():
        raise ValueError("window offsets and lengths must be nonnegative")
    v = fam.variant
    if v == "affine":
        ends = (offs + lens).ravel()
        if int(ends.max(initial=0)) > 50_000_000:
            raise ValueError(
                "affine windows beyond 5e7 need the scalar log_cum_window path")
        out, starts = np.empty(ends.shape), offs.ravel()
        uniq, inv = np.unique(lam.ravel(), return_inverse=True)
        groups = np.split(np.argsort(inv, kind="stable"), np.cumsum(np.bincount(inv))[:-1])
        for u, idx in zip(uniq.tolist(), groups):
            pref = log_cum_prefix(fam, u, int(ends[idx].max()))
            out[idx] = pref[ends[idx]] - pref[starts[idx]]
        return out.reshape(offs.shape)
    out = np.zeros(offs.shape, dtype=np.float64)
    pos = lens > 0
    o = offs[pos].astype(np.float64)
    n = lens[pos].astype(np.float64)
    lam = lam[pos]
    if v == "pure_power":
        vals = np.where(o == 0.0, lam * np.log(np.maximum(n, 1.0)),
                        lam * np.log1p(n / np.maximum(o, 1.0)))
    elif v == "exp_alpha":
        a = fam.alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(
                o == 0.0, lam * n**a,
                lam * o**a * np.expm1(a * np.log1p(n / np.maximum(o, 1.0))))
    elif v == "power_ratio":
        vals = lam * np.log1p(n / (o + 1.0))
    else:  # geometric
        uniq, inv = np.unique(lam, return_inverse=True)
        vals = n * np.array([math.log(u) for u in uniq.tolist()])[inv]
    out[pos] = vals
    return out


def apply_backward_power(fam: WeightFamily, lam: float, N: int, x: SeqVec) -> SeqVec:
    """N-fold weighted backward shift B_w^N in closed form.

    Entry k maps to k - N with factor w_{k-N+1}(lam)...w_k(lam); entries with
    index < N are annihilated.
    """
    if N < 0:
        raise ValueError("shift power must be nonnegative")
    if N == 0:
        return x
    out = {}
    for k, c in x.items():
        if k < N:
            continue
        out[k - N] = c * math.exp(log_cum_window(fam, lam, k - N, N))
    return SeqVec(out)


def apply_forward_root_power(fam: WeightFamily, lam: float, m: int, N: int, x: SeqVec) -> SeqVec:
    """N-fold forward shift with weights w_n(lam)**(-1/m).

    Entry k maps to k + N with factor exp(-window(k, N)/m); with m = 1 this is
    a right inverse of apply_backward_power.
    """
    if N < 0:
        raise ValueError("shift power must be nonnegative")
    if m < 1:
        raise ValueError("root order must be >= 1")
    if N == 0:
        return x
    out = {}
    for k, c in x.items():
        if k + N > MAX_INDEX:
            raise IndexOverflowError(f"forward shift index {k}+{N} exceeds 2**63-1")
        out[k + N] = c * math.exp(-log_cum_window(fam, lam, k, N) / m)
    return SeqVec(out)


def chord_points(fam: WeightFamily, pts: Sequence[float]) -> Sequence[float]:
    """The points of the sorted, distinct grid ``pts`` that a Lipschitz ratio reads.

    affine and geometric windows are strictly concave in lam (each term
    log1p(lam / i**(1-alpha)), and log(lam), is), so the neighbouring chord
    slopes decrease along the grid and the first one, over the two least
    points, is the largest.  The other families are linear in lam: their
    chords tie in exact arithmetic and _max_slope keeps the one rounding
    favours, so every point is read.
    """
    return pts[:2] if fam.variant in ("affine", "geometric") else pts


def lipschitz_ratio(fam: WeightFamily, grid: Sequence[float], l: int, n: int) -> float:
    """Largest difference quotient of a -> window(a, l, n) over grid pairs."""
    pts = sorted(set(float(a) for a in grid))
    if len(pts) < 2:
        raise ValueError("lipschitz_ratio needs at least 2 distinct grid points")
    pts = chord_points(fam, pts)
    return float(_max_slope(pts, (np.array([log_cum_window(fam, a, l, n)]) for a in pts))[0])


def lipschitz_ratio_profile(
    fam: WeightFamily, grid: Sequence[float], n_values: np.ndarray
) -> np.ndarray:
    """lipschitz_ratio(fam, grid, 0, n) for every n in n_values, vectorized."""
    pts = sorted(set(float(a) for a in grid))
    if len(pts) < 2:
        raise ValueError("need at least 2 distinct grid points")
    pts = chord_points(fam, pts)
    n_values = np.asarray(n_values, dtype=np.int64)
    upto = int(n_values.max(initial=0))
    return _max_slope(pts, (log_cum_prefix(fam, a, upto)[n_values] for a in pts))


def _max_slope(pts: Sequence[float], rows: Iterable[np.ndarray]) -> np.ndarray:
    """Elementwise max over pairs i < j of |rows[j] - rows[i]| / (pts[j] - pts[i]).

    ``pts`` are sorted and distinct; ``rows`` holds one block of each point's
    values per call and may be an iterator: only neighbouring chords are
    taken, so two rows are held at a time.  They carry the maximum, since the
    chord over [p_i, p_j] is the mean of the neighbouring chords it spans
    weighted by their lengths, and a mean is at most the largest of its terms.
    In floating point the result is never above the all-pairs maximum.  It
    has the same bits wherever pts[-1] <= 2 * pts[0] and the row values at
    each index lie within a factor of two of each other: every subtraction is
    then exact (Sterbenz), and rounding the quotient is monotone, so no chord
    rounds above its largest neighbour.
    """
    rows = iter(rows)
    prev, best = next(rows), 0.0
    for a, b, row in zip(pts, pts[1:], rows):
        best, prev = np.maximum(best, np.abs(row - prev) / (b - a)), row
    return best


@dataclass(frozen=True)
class LipschitzProfile:
    """Growth profile F(n): either D1 * n**alpha or D1 * log n."""

    kind: str  # "power" | "log"
    D1: float
    alpha: Optional[float] = None

    def __post_init__(self):
        _positive("D1", self.D1)
        if self.kind == "power":
            if self.alpha is None or not (0.0 < self.alpha <= 1.0):
                raise ValueError("power profile requires alpha in (0, 1]")
        elif self.kind == "log":
            if self.alpha is not None:
                raise ValueError("log profile takes no alpha")
        else:
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def __call__(self, n) -> float:
        n = np.asarray(n, dtype=np.float64)
        if self.kind == "power":
            with _in_double_range("F(n) = D1*n**alpha"):
                return self.D1 * n**self.alpha
        with _in_double_range("F(n) = D1*log(n)"):
            return self.D1 * np.log(n)

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "D1": self.D1}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "LipschitzProfile":
        return cls(obj["kind"], float(obj["D1"]), obj.get("alpha"))
