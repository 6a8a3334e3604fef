"""Statistical verification: exact cell probabilities, chi-square, degrees.

The adjacency matrix of a k-level R-MAT graph has 4^k cells whose exact
probabilities are tiny products of the quadrant weights; this module
enumerates them, histograms generated edges over them, and runs the
Pearson goodness-of-fit test that the test suite and the `verify`
subcommand share.  A degree summary rounds it out.  Everything here is a
pure function.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .params import RmatParams

#: Enumerating 4^k cells is only sensible while they fit in memory.
MAX_ENUM_K = 12

#: The classical validity rule of the chi-square test: every cell expects
#: at least this many counts.  Rarer cells are pooled first.
MIN_EXPECTED = 5.0

#: Cells per slice of pool_small_cells's running sum of the pooled probabilities.
_POOL_SLICE = 1 << 16


class KTooLargeForEnumeration(ValueError):
    """Cell enumeration requested for k beyond the 4^k practicality bound."""


class InvalidExpectedVector(ValueError):
    """Expected probabilities malformed: wrong length, nonpositive, or not summing to 1."""


class SampleTooSmall(ValueError):
    """Too few observations for the smallest expected cell (classical 5-count rule)."""


def _check_enum_k(k: int) -> None:
    if not 1 <= k <= MAX_ENUM_K:
        raise KTooLargeForEnumeration(f"k must be in [1, {MAX_ENUM_K}], got {k}")


@dataclass(frozen=True)
class CellHistogram:
    """Counts of edges per adjacency cell, cell (u, v) at index u*2^k + v."""

    k: int
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        _check_enum_k(self.k)
        if self.counts.shape != (4**self.k,):
            raise ValueError(f"counts must have length 4**{self.k}, got {self.counts.shape}")


def _cells(edges: np.ndarray, k: int) -> np.ndarray:
    """The cell index u*2^k + v of each edge of an (m, 2) array."""
    _check_enum_k(k)
    if len(edges) and int(edges.max()) >> k:
        raise ValueError(f"edge endpoints exceed 2**{k} - 1")
    return ((edges[:, 0].astype(np.int64) << k) | edges[:, 1].astype(np.int64)).astype(np.intp)


def cell_histogram(edges: np.ndarray, k: int) -> CellHistogram:
    """Histogram an (m, 2) edge array over the 4^k adjacency cells."""
    counts = np.bincount(_cells(edges, k), minlength=4**k)
    return CellHistogram(k=k, counts=counts, total=int(counts.sum()))


def exact_cell_probs(params: RmatParams, k: int) -> np.ndarray:
    """Exact probability of every adjacency cell, index u*2^k + v.

    Each level contributes an independent factor chosen by that level's
    (row bit, col bit), so the 2^k x 2^k probability matrix is the k-fold
    Kronecker power of [[a, b], [c, d]].
    """
    _check_enum_k(k)
    a, b, c, d = params.quadrants
    level = np.array([[a, b], [c, d]], dtype=np.float64)
    return reduce(np.kron, [level] * k).ravel()


def chi_square_quantile(dof: int, upper_tail: float) -> float:
    """Chi-square quantile at probability 1 - upper_tail (Wilson-Hilferty)."""
    if not 0.0 < upper_tail < 1.0:
        raise ValueError(f"upper_tail must be in (0, 1), got {upper_tail}")
    # Imported here: at module level statistics would add about 0.4 MB to
    # every `rmat generate`, because the cli imports this module.
    from statistics import NormalDist

    z = NormalDist().inv_cdf(1.0 - upper_tail)
    t = 2.0 / (9.0 * dof)
    return dof * (1.0 - t + z * math.sqrt(t)) ** 3


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    threshold: float
    alpha: float
    passed: bool


def chi_square(
    observed: CellHistogram | np.ndarray,
    expected: np.ndarray,
    alpha: float = 1e-3,
) -> ChiSquareResult:
    """Pearson goodness-of-fit of observed counts against expected probs.

    Requires every expected cell count total*p to clear the classical
    validity rule total >= MIN_EXPECTED / min(p); callers with sparse
    tails should pool first (pool_small_cells).
    """
    counts = observed.counts if isinstance(observed, CellHistogram) else np.asarray(observed)
    expected = np.asarray(expected, dtype=np.float64)
    if expected.shape != counts.shape:
        raise InvalidExpectedVector(
            f"expected length {expected.shape} does not match observed {counts.shape}"
        )
    if expected.size < 2 or not np.all(expected > 0.0) or not np.all(np.isfinite(expected)):
        raise InvalidExpectedVector("expected probabilities must be positive and finite")
    if abs(float(expected.sum()) - 1.0) > 1e-6:
        raise InvalidExpectedVector(f"expected probabilities sum to {expected.sum()!r}, not 1")
    total = int(counts.sum())
    if total < MIN_EXPECTED / float(expected.min()):
        raise SampleTooSmall(
            f"need at least {math.ceil(MIN_EXPECTED / float(expected.min()))} observations "
            f"for the smallest cell, got {total}"
        )
    e = total * expected
    statistic = float((np.square(counts - e) / e).sum())
    dof = expected.size - 1
    threshold = chi_square_quantile(dof, alpha)
    return ChiSquareResult(
        statistic=statistic, dof=dof, threshold=threshold, alpha=alpha,
        passed=statistic < threshold,
    )


def pool_small_cells(probs: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge low-expectation cells into one pooled cell.

    Cells whose expected count total*p falls below MIN_EXPECTED are
    combined, smallest first, until the pool itself clears the bar; the
    pooled cell is appended last.  Returns (probs, counts) ready for
    chi_square.  Raises SampleTooSmall if even full pooling cannot reach
    MIN_EXPECTED per cell.
    """
    probs = np.asarray(probs, dtype=np.float64)
    counts = np.asarray(counts)
    total = int(counts.sum())
    cells = len(probs)
    order = np.argsort(probs, kind="stable")
    # Pool the n smallest cells, where n is the largest count for which the
    # n-th smallest cell is individually short OR the pool is still short.
    # total*p grows with p, so the short cells lead the order: a binary
    # search finds them, and only the pool's running sum is taken, a slice
    # at a time, instead of arrays of every cell's sum and expectation.
    n_pool = bisect.bisect_left(range(cells), True,
                                key=lambda i: probs[order[i]] * total >= MIN_EXPECTED)
    if 0 < n_pool < cells:
        pool = 0.0
        for lo in range(0, n_pool, _POOL_SLICE):
            part = probs[order[lo : lo + _POOL_SLICE][: n_pool - lo]]
            part[0] += pool  # the running sum goes on from the last slice's end
            pool = np.cumsum(part)[-1]
        while n_pool < cells and pool * total < MIN_EXPECTED:
            pool += probs[order[n_pool]]
            n_pool += 1
    if n_pool == 0:
        return probs, counts
    if n_pool >= cells:
        raise SampleTooSmall(
            f"pooling all {cells} cells still cannot reach {MIN_EXPECTED} expected"
        )
    pooled = order[:n_pool]
    pooled_prob = probs[pooled].sum()  # in the pool's order, which sets the rounding
    kept = np.ones(cells, dtype=bool)
    kept[pooled] = False
    del order, pooled
    out_probs = np.empty(cells - n_pool + 1)
    out_counts = np.empty(cells - n_pool + 1, dtype=counts.dtype)
    np.compress(kept, probs, out=out_probs[:-1])
    np.compress(kept, counts, out=out_counts[:-1])
    out_probs[-1] = pooled_prob
    out_counts[-1] = total - out_counts[:-1].sum()
    return out_probs, out_counts


@dataclass(frozen=True)
class DegreeStats:
    """Sparse out-degree summary: node_counts[i] nodes have degree degrees[i]."""

    degrees: np.ndarray
    node_counts: np.ndarray
    max_degree: int
    isolated: int


def degree_stats(edges: np.ndarray, k: int) -> DegreeStats:
    """Out-degree histogram, max out-degree, and isolated-node count.

    A node is isolated when it appears in no edge at all, in either
    position.  The degree-0 bucket counts every node that never occurs
    as a source, which for sparse graphs is nearly all of 2^k, so the
    histogram is returned sparsely.
    """
    n_nodes = 1 << k
    if len(edges) == 0:
        return DegreeStats(
            degrees=np.array([0], dtype=np.uint64),
            node_counts=np.array([n_nodes], dtype=np.uint64),
            max_degree=0,
            isolated=n_nodes,
        )
    _, per_source = np.unique(edges[:, 0], return_counts=True)
    degrees, node_counts = np.unique(per_source, return_counts=True)
    zero_sources = n_nodes - len(per_source)
    if zero_sources:
        degrees = np.append(np.uint64(0), degrees.astype(np.uint64))
        node_counts = np.append(np.uint64(zero_sources), node_counts.astype(np.uint64))
    touched = len(np.union1d(edges[:, 0], edges[:, 1]))
    return DegreeStats(
        degrees=degrees.astype(np.uint64),
        node_counts=node_counts.astype(np.uint64),
        max_degree=int(per_source.max()),
        isolated=n_nodes - touched,
    )
