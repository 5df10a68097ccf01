"""Sparse, finitely supported real sequences and their two algebra products.

A sequence is stored as a map index -> coefficient with no explicit zeros
(canonical form).  Indices are nonnegative and bounded by 2**63 - 1; index
arithmetic that would leave that range raises instead of wrapping.  Two
products are supported: the coordinatewise product and the convolution
(Cauchy) product.  Norms: l^p for p >= 1 (l1 is lp(1)) and the sup norm.
For p > 1 the l^p norm is s * (sum (|c|/s)**p)**(1/p) with s the largest
|c|, so it neither underflows nor overflows where the norm itself is a
normal double (Blue, ACM TOMS 4(1), 1978).

Coefficients below the smallest normal double (sys.float_info.min) in
magnitude count as zero: products or powers that underflow into the
subnormal range drop the entry from the canonical form silently.  Which
entries underflow still depends on the order of the products, so the
convolution power keeps the order of the repeated product.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

MAX_INDEX = 2**63 - 1
_TINY = sys.float_info.min  # |c| < _TINY is stored as an exact zero


class IndexOverflowError(OverflowError):
    """Index arithmetic left the 64-bit nonnegative range."""


class ProductKind(enum.Enum):
    COORDINATEWISE = "coordinatewise"
    CONVOLUTION = "convolution"


def _check_index(k: int) -> int:
    if not isinstance(k, int) or isinstance(k, bool):
        raise TypeError(f"index must be an int, got {type(k).__name__}")
    if k < 0 or k > MAX_INDEX:
        raise IndexOverflowError(f"index {k} outside [0, 2**63-1]")
    return k


class SeqVec:
    """Finitely supported sequence of doubles, canonical sparse form.

    Entries at a repeated index are added in the order given, and a sum that
    is not finite raises ValueError.
    """

    __slots__ = ("_e",)

    def __init__(self, entries: Optional[Dict[int, float] | Iterable[Tuple[int, float]]] = None):
        e: Dict[int, float] = {}
        tiny = _TINY
        if entries is not None:
            items = entries.items() if isinstance(entries, dict) else entries
            for k, c in items:
                _check_index(k)
                c = float(c) + e.get(k, 0.0)
                if not math.isfinite(c):
                    raise ValueError(f"non-finite coefficient {c!r} at index {k}")
                if -tiny < c < tiny:
                    e.pop(k, None)
                else:
                    e[k] = c
        self._e = e

    # -- queries ------------------------------------------------------------

    def coeff(self, k: int) -> float:
        return self._e.get(k, 0.0)

    def items(self) -> Iterator[Tuple[int, float]]:
        return iter(self._e.items())

    def items_sorted(self) -> List[Tuple[int, float]]:
        return sorted(self._e.items())

    def support(self) -> List[int]:
        return sorted(self._e)

    def support_max(self) -> Optional[int]:
        """Largest stored index, or None for the empty sequence."""
        return max(self._e) if self._e else None

    @property
    def nnz(self) -> int:
        return len(self._e)

    def is_empty(self) -> bool:
        return not self._e

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "SeqVec") -> "SeqVec":
        if not isinstance(other, SeqVec):
            return NotImplemented
        return SeqVec(itertools.chain(self.items(), other.items()))

    def __sub__(self, other: "SeqVec") -> "SeqVec":
        if not isinstance(other, SeqVec):
            return NotImplemented
        return self + (-1.0) * other

    def __mul__(self, scalar: float) -> "SeqVec":
        if isinstance(scalar, SeqVec):
            raise TypeError("use product(x, y, kind) for vector products")
        s = float(scalar)
        return SeqVec({k: c * s for k, c in self._e.items()})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeqVec) and self._e == other._e

    def __hash__(self):
        return hash(tuple(self.items_sorted()))

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {c!r}" for k, c in self.items_sorted())
        return f"SeqVec({{{body}}})"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"entries": [[k, c] for k, c in self.items_sorted()]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SeqVec":
        if not isinstance(obj, dict) or "entries" not in obj:
            raise ValueError("sequence JSON must be an object with an 'entries' list")
        return cls(_json_entry(k, c) for k, c in obj["entries"])


def _json_entry(k, c) -> Tuple[int, float]:
    """One [index, coefficient] pair as the schema reads it, or ValueError.

    The index is an integer (an integral float such as 1.0 included) and the
    coefficient a number; bools and strings are neither.
    """
    if isinstance(k, bool) or not (isinstance(k, numbers.Integral)
                                   or isinstance(k, float) and k.is_integer()):
        raise ValueError(f"sequence index must be an integer, got {k!r}")
    if isinstance(c, bool) or not isinstance(c, numbers.Real):
        raise ValueError(f"sequence coefficient must be a number, got {c!r}")
    return int(k), float(c)


def basis(k: int) -> SeqVec:
    """Canonical basis vector e_k."""
    _check_index(k)
    return SeqVec({k: 1.0})


def product(x: SeqVec, y: SeqVec, kind: ProductKind) -> SeqVec:
    """Coordinatewise or convolution product of two sparse sequences."""
    if kind is ProductKind.COORDINATEWISE:
        small, big = (x, y) if x.nnz <= y.nnz else (y, x)
        return SeqVec({k: c * big.coeff(k) for k, c in small.items() if k in big._e})
    if kind is ProductKind.CONVOLUTION:
        acc: Dict[int, float] = {}
        for i, a in x.items():
            for j, b in y.items():
                s = i + j
                if s > MAX_INDEX:
                    raise IndexOverflowError(
                        f"convolution index {i}+{j} exceeds 2**63-1")
                acc[s] = acc.get(s, 0.0) + a * b
        return SeqVec(acc)
    raise TypeError(f"unknown product kind {kind!r}")


def power(x: SeqVec, m: int, kind: ProductKind) -> SeqVec:
    """m-fold product of x with itself, m >= 1.

    The coordinatewise power uses the closed form (entry k maps to entry_k**m).
    The convolution power multiplies by x from the right, m - 1 times, so its
    rounding and underflow are exactly those of the repeated product
    product(...product(x, x)..., x).  Reordering the products (binary
    exponentiation) lets intermediate entries near the underflow range vanish
    in one order and survive in another, which changes the support.
    """
    if m < 1:
        raise ValueError(f"power requires m >= 1, got {m}")
    if kind is ProductKind.COORDINATEWISE:
        return SeqVec({k: c**m for k, c in x.items()})
    if kind is ProductKind.CONVOLUTION:
        acc = x
        for _ in range(m - 1):
            acc = product(acc, x, kind)
        return acc
    raise TypeError(f"unknown product kind {kind!r}")


def cw_root(x: SeqVec, m: int) -> SeqVec:
    """Entrywise m-th root; defined only for nonnegative coefficients."""
    if m < 1:
        raise ValueError(f"root order must be >= 1, got {m}")
    out: Dict[int, float] = {}
    for k, c in x.items():
        if c < 0.0:
            raise ValueError(f"cw_root: negative coefficient {c!r} at index {k}")
        out[k] = c ** (1.0 / m)
    return SeqVec(out)


@dataclass(frozen=True)
class SpaceNorm:
    """l^p (p >= 1) or sup norm tag.  l1 is the alias lp(1)."""

    kind: str  # "lp" | "sup"
    p: Optional[float] = None

    def __post_init__(self):
        if self.kind == "lp":
            if self.p is None or not (self.p >= 1.0):
                raise ValueError(f"lp norm requires p >= 1, got {self.p!r}")
        elif self.kind == "sup":
            if self.p is not None:
                raise ValueError("sup norm takes no exponent")
        else:
            raise ValueError(f"unknown norm kind {self.kind!r}")

    @classmethod
    def lp(cls, p: float) -> "SpaceNorm":
        return cls("lp", float(p))

    @classmethod
    def l1(cls) -> "SpaceNorm":
        return cls("lp", 1.0)

    @classmethod
    def sup(cls) -> "SpaceNorm":
        return cls("sup")

    def to_json(self):
        if self.kind == "sup":
            return "sup"
        if self.p == 1.0:
            return "l1"
        return {"lp": self.p}

    @classmethod
    def from_json(cls, obj) -> "SpaceNorm":
        if obj == "l1":
            return cls.l1()
        if obj == "sup":
            return cls.sup()
        if isinstance(obj, dict) and set(obj) == {"lp"}:
            return cls.lp(obj["lp"])
        raise ValueError(f"unrecognized norm spec {obj!r}")


L1 = SpaceNorm.l1()
SUP = SpaceNorm.sup()


def _norm(coeffs: Iterable[float], n: SpaceNorm) -> float:
    """Norm of a sequence given its coefficients in any order; none gives 0."""
    a = [abs(c) for c in coeffs]
    if not a:
        return 0.0
    if n.kind == "sup":
        return max(a)
    if n.p == 1.0:
        return math.fsum(a)
    s = max(a)
    if s == 0.0:
        return 0.0
    return s * math.fsum((c / s) ** n.p for c in a) ** (1.0 / n.p)


def norm(x: SeqVec, n: SpaceNorm) -> float:
    """Norm of a sparse sequence; the empty sequence has norm 0."""
    return _norm(x._e.values(), n)
