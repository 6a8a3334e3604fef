"""Walker alias tables with Vose's construction: O(n) build, O(1) sampling.

A draw needs one uniform variate, split by the caller into a bucket index
and a fraction; the sampler compares the fraction against the bucket's
threshold and returns either the bucket's own index or its alias.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EmptyInput(ValueError):
    """No weights supplied."""


class AllZeroWeights(ValueError):
    """Weights sum to zero; no distribution to sample."""


class NegativeWeight(ValueError):
    """Weights must be non-negative."""


@dataclass(frozen=True)
class AliasTable:
    """Immutable alias structure over a finite weight vector.

    threshold[i] is the probability of keeping index i when bucket i is hit;
    alias[i] is the index returned otherwise.  total_weight preserves the
    input scale for callers that need it.
    """

    threshold: np.ndarray  # float64, in [0, 1]
    alias: np.ndarray  # int64 entry indices
    total_weight: float

    @property
    def size(self) -> int:
        return int(self.threshold.shape[0])

    def reconstructed_probs(self) -> np.ndarray:
        """Per-index sampling probability implied by the table.

        Index e receives threshold[e] from its own bucket plus (1 - threshold)
        from every bucket aliased to it, all divided by the bucket count.
        Equals weight/total_weight up to float rounding; the tests check this
        exhaustively.
        """
        n = self.size
        mass = self.threshold.copy()
        np.add.at(mass, self.alias, 1.0 - self.threshold)
        return mass / n


def build_alias(weights) -> AliasTable:
    """Build an alias table from a sequence of non-negative weights.

    Vose's two-worklist refinement of Walker's method: buckets are scaled so
    the average weight is 1, then each underfull bucket is paired with an
    overfull one.  Every bucket is pushed and popped at most once, so the
    build is linear in len(weights).
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise EmptyInput("need a non-empty 1-d weight sequence")
    if not np.all(np.isfinite(w)):
        raise NegativeWeight(f"weights must be finite, got {w[~np.isfinite(w)][:4]}")
    if np.any(w < 0):
        raise NegativeWeight("weights must be non-negative")
    total = float(w.sum())
    if total <= 0.0:
        raise AllZeroWeights("at least one weight must be positive")

    n = w.size
    threshold = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    # The loop reads and writes one bucket at a time.  Memoryviews do that
    # with plain Python floats and ints, several times faster than numpy
    # element access; Python floats are IEEE doubles, so every value rounds
    # exactly as float64 does.  keep[i] is bucket i's threshold, other[i]
    # its alias.
    scaled = memoryview(w * (n / total))
    keep, other = memoryview(threshold), memoryview(alias)

    # Ties (scaled weight exactly 1) go to the large list; together with the
    # fixed LIFO order below this makes the table a deterministic function of
    # the weight vector.
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]

    while small and large:
        s = small.pop()
        g = large.pop()
        keep[s] = scaled[s]
        other[s] = g
        # Donate exactly the mass bucket s is missing.
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        if scaled[g] < 1.0:
            small.append(g)
        else:
            large.append(g)

    # Leftovers are within rounding of 1; pin them to keep their own index.
    for rest in (large, small):
        while rest:
            i = rest.pop()
            keep[i] = 1.0
            other[i] = i

    threshold.flags.writeable = False
    alias.flags.writeable = False
    return AliasTable(threshold=threshold, alias=alias, total_weight=total)


def alias_sample(table: AliasTable, uniform_draw):
    """Resolve one draw (index_part, fraction_part) to an entry index.

    Accepts scalars or equal-shaped arrays and is branch-free either way:
    returns index_part where fraction_part < threshold[index_part], else
    alias[index_part].  Consumes nothing from any RNG -- the caller provides
    the single uniform draw.
    """
    idx, frac = uniform_draw
    idx = np.asarray(idx, dtype=np.int64)
    out = np.where(np.asarray(frac) < table.threshold[idx], idx, table.alias[idx])
    if out.ndim == 0:
        return int(out)
    return out
