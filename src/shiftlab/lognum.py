"""Log-domain numeric helpers: log-sum-exp and a Stirling ratio of Gamma values."""

from __future__ import annotations

import math
from typing import Iterable


def logsumexp(xs: Iterable[float]) -> float:
    """log(sum(exp(x) for x in xs)), stable against overflow and underflow.

    Returns -inf for an empty input.
    """
    xs = list(xs)
    if not xs:
        return float("-inf")
    m = max(xs)
    if math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(x - m) for x in xs))


def lgamma_ratio(z: float, a: float) -> float:
    """log(Gamma(z+a) / Gamma(z)) without subtracting two large lgamma values.

    Stirling's expansion rearranged so every term is O(a*log z); for
    z >= ~1e4 and moderate a the truncation error sits below 1e-13.
    """
    t = (z - 0.5) * math.log1p(a / z) + a * (math.log(z + a) - 1.0)
    t += 1.0 / (12.0 * (z + a)) - 1.0 / (12.0 * z)
    return t
