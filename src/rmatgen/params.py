"""R-MAT model parameters and their information-theoretic summaries.

An R-MAT graph on 2**k nodes is generated by k recursive quadrant choices,
drawn from the distribution (a, b, c, d).  Everything downstream -- fragment
tables, generators, partition splits -- consumes the validated parameter
object defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class NegativeOrZeroWeight(ValueError):
    """A quadrant probability was zero or negative."""


class SumOutOfTolerance(ValueError):
    """a + b + c + d strayed from 1 by more than the allowed tolerance."""


class BadExponent(ValueError):
    """k outside the supported range [1, 62]."""


SUM_TOLERANCE = 1e-9

#: Largest supported index width.  make_scramble_key's range, [1, 62], is
#: what holds it: both kernels cut an edge from two 64-bit words, and they
#: matched the scalar reference at k = 63 and 64 too, but no output past
#: 62 is pinned.
MAX_K = 62

GRAPH500 = (0.57, 0.19, 0.19, 0.05)


@dataclass(frozen=True)
class RmatParams:
    """Validated quadrant probabilities plus the index bit count k.

    Construct via :func:`validate`; the stored probabilities sum to exactly
    1.0 in double precision.
    """

    a: float
    b: float
    c: float
    d: float
    k: int

    @property
    def quadrants(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    @property
    def nodes(self) -> int:
        return 1 << self.k


def validate(a: float, b: float, c: float, d: float, k: int) -> RmatParams:
    """Check raw user input and return normalized parameters.

    The probabilities are renormalized so the stored sum is exactly 1.0:
    a, b, c are divided by the raw sum and d is recomputed as the exact
    complement.  Validating already-validated values returns them unchanged.
    """
    raw = (a, b, c, d)
    if any(p <= 0 for p in raw) or any(not math.isfinite(p) for p in raw):
        raise NegativeOrZeroWeight(f"quadrant probabilities must be > 0, got {raw}")
    s = a + b + c + d
    if abs(s - 1.0) > SUM_TOLERANCE:
        raise SumOutOfTolerance(f"probabilities sum to {s!r}, expected 1 within {SUM_TOLERANCE}")
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_K:
        raise BadExponent(f"k must be an integer in [1, {MAX_K}], got {k!r}")
    na, nb, nc = a / s, b / s, c / s
    # The complement keeps the stored sum at exactly 1.0 (x + (1 - x) rounds
    # to 1.0 for any x in [0, 1]), which also makes validation idempotent.
    nd = 1.0 - (na + nb + nc)
    if nd <= 0.0:
        raise NegativeOrZeroWeight(f"d collapsed to {nd!r} after normalization")
    return RmatParams(na, nb, nc, nd, k)


def entropy(params: RmatParams) -> float:
    """Entropy of the quadrant distribution in bits per recursion level.

    Each level of the recursion emits one 4-ary digit; H = -sum(p * log2 p)
    is the average information that digit carries.  Ranges over (0, 2],
    with 2 reached only by the uniform distribution.
    """
    return -sum(p * math.log2(p) for p in params.quadrants)


def speedup_bound(params: RmatParams) -> float:
    """Upper bound 2/H on the sampling advantage of variable-depth tables.

    A fixed-depth table resolves log4(size) levels per sample; an ideal
    variable-depth table of equal size resolves log2(size)/H levels.  Their
    ratio is 2/H >= 1, with equality exactly at uniform parameters.
    """
    return 2.0 / entropy(params)
