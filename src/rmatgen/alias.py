"""Walker alias tables with Vose's construction: O(n) build, O(1) sampling.

A draw needs one uniform variate, split into a bucket index and a
fraction; it keeps the bucket's own index while the fraction lies below
the bucket's threshold and takes the bucket's alias otherwise.  The
emission kernels make that choice with integer arithmetic
(`generator._select`).
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
    overfull one.  The pairing runs as a merge of the two worklists by
    running mass (see _pair), linear in len(weights).
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
    scaled = w * (n / total)
    # A bucket left unpaired is within rounding of 1 and keeps its own index.
    threshold = np.ones(n, dtype=np.float64)
    alias = np.arange(n, dtype=np.int64)
    # Ties (scaled weight exactly 1) go to the large list.  Both worklists
    # are stacks, so each is listed in pop order, highest index first;
    # together with the tie rule this makes the table a deterministic
    # function of the weight vector.
    small = np.flatnonzero(scaled < 1.0)[::-1]
    large = np.flatnonzero(scaled >= 1.0)[::-1]
    if len(small) and len(large):
        _pair(scaled, small, large, threshold, alias)
    threshold.flags.writeable = False
    alias.flags.writeable = False
    return AliasTable(threshold=threshold, alias=alias, total_weight=total)


#: Shortest merge window after an early commit.  A merge's fixed cost in
#: numpy calls equals the array work of a few hundred steps, so a window
#: this long costs little more than a shorter one and often reaches past
#: the next near-tie.
_MIN_WINDOW = 64


def _pair(scaled, small, large, threshold, alias) -> None:
    """Vose's pairing loop over the two worklists, written into threshold and alias.

    Each step of the loop pops a small and a large bucket, gives the small
    one its own scaled weight as threshold and the large one as alias, and
    pushes the large one back with residual (r + x) - 1: its own residual r
    plus the small weight x, less one.  That bucket is on top of the stack
    it went to, so the next step pops it again: as the large one while
    r >= 1, and as the small one once r < 1, when it keeps threshold r and
    the next large bucket becomes its alias.  Nothing else is ever pushed,
    so every other pop takes the next bucket of a worklist in its first
    order.  The loop's whole state is thus one residual, r = (r + x) - 1,
    where x is the next small weight while r >= 1 and the next large weight
    once r < 1, until the list it needs is empty; every bucket the loop
    does not pair keeps (1, itself).  Replaying that recurrence in the same
    order with the same float operations gives the loop's bytes.

    _merge proposes the order of a window of steps, and replays r along it
    exactly.  The steps up to the first whose r >= 1 decision disagrees
    with the proposal are the loop's own, and are committed; the next
    merge starts from that step, with its exact residual, so every merge
    commits at least one step.  A window doubles after a full commit and
    halves after an early one, down to _MIN_WINDOW steps: a run of
    near-ties costs a short merge per tie, never a rescan of the rest.
    """
    a, b = scaled[small], scaled[large]
    i = j = 0  # the next small bucket, the current large one
    r = float(b[0])
    window = len(a) + len(b)
    while i < len(a) if r >= 1.0 else j + 1 < len(b):
        is_small, run, before = _merge(r, a[i : i + window], b[j + 1 : j + 1 + window])
        wrong = np.flatnonzero((run[:-1] >= 1.0) != is_small)
        steps = int(wrong[0]) if len(wrong) else len(is_small)
        took = int(np.count_nonzero(is_small[:steps]))
        done = small[i : i + took]
        threshold[done] = a[i : i + took]
        alias[done] = large[j + before[:took]]
        retired = large[j : j + steps - took]
        threshold[retired] = run[:steps][~is_small[:steps]]
        alias[retired] = large[j + 1 : j + 1 + steps - took]
        i, j, r = i + took, j + steps - took, float(run[steps])
        window = max(_MIN_WINDOW, window // 2) if len(wrong) else 2 * window


def _merge(r, a, b):
    """The pairing loop's proposed steps from residual r over small weights a and next large weights b.

    In exact arithmetic, after k smalls and l new larges the residual is
    r - sum(1 - a[:k]) + sum(b[:l] - 1), so small k is taken once the
    current large's ceiling (r - 1) + sum(b[:l] - 1) reaches its deficit
    sum(1 - a[:k]); one searchsorted over the two prefix sums merges the
    lists.  The proposal stops where it needs a weight past a or b.

    Returns (is_small, run, before): whether each step takes a small
    weight, the residual before each step and after the last, and for each
    small weight the number of larges started before it.  run is exact
    along the proposed order: one cumsum over [r, x0, -1, x1, -1, ...]
    adds in sequence, so it rounds each step's (r + x) - 1 as the loop does.
    """
    deficit = np.zeros(len(a) + 1)
    np.cumsum(1.0 - a, out=deficit[1:])
    ceiling = np.cumsum(np.concatenate(([r - 1.0], b - 1.0)))
    before = np.searchsorted(ceiling, deficit)
    took = int(np.searchsorted(before[:-1], len(b), side="right"))
    steps = took + min(int(before[took]), len(b))
    is_small = np.zeros(steps, dtype=bool)
    is_small[np.arange(took) + before[:took]] = True
    seq = np.full(2 * steps + 1, -1.0)
    seq[0] = r
    x = seq[1::2]
    x[is_small] = a[:took]
    x[~is_small] = b[: steps - took]
    return is_small, np.cumsum(seq, out=seq)[::2], before
