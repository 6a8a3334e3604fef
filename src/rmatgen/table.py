"""Fragment tables: precomputed recursion-path prefixes with O(1) sampling.

A fragment is a partial run of the R-MAT recursion -- equal-length row and
column bit strings plus the probability of that run.  Generating an edge
then reduces to concatenating sampled fragments instead of walking the
recursion one level at a time.  Two constructions are provided: all 4**l
paths of a fixed length l, and the greedy variable-depth set that keeps
expanding the most probable path until a size budget is reached.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._rng import DOMAIN_PERTURB, keyed_stream
from .alias import AliasTable, build_alias
from .params import RmatParams

DEFAULT_DEPTH_CAP = 62

#: Both table kinds are bounded in entries before allocating: a fixed table
#: with its compiled arrays takes about 140 B per entry, a variable build 340 B.
MAX_TABLE_ENTRIES = 4**11
MAX_FIXED_DEPTH = (MAX_TABLE_ENTRIES.bit_length() - 1) // 2


class DepthOutOfRange(ValueError):
    """Fragment depth outside the representable range."""


class SizeLimitTooSmall(ValueError):
    """Variable tables need room for at least one expansion (4 entries)."""


class TableTooLarge(ValueError):
    """Variable tables are bounded by MAX_TABLE_ENTRIES entries."""


class NoiseOutOfRange(ValueError):
    """Perturbation level must lie in [0, 1)."""


class TableModelMismatch(ValueError):
    """A table built for one model's quadrants was asked to drive another's."""


@dataclass(frozen=True)
class PathEntry:
    """One precomputed recursion path.

    row_bits/col_bits hold the path's index bits with the first (top-level)
    recursion decision in the most significant of the `depth` positions.
    prob is the product of the quadrant probabilities along the path.
    """

    row_bits: int
    col_bits: int
    depth: int
    prob: float


@dataclass(frozen=True)
class FragmentTable:
    """A complete, prefix-free fragment set with an embedded alias sampler.

    Stored column-wise as numpy arrays so the generator can gather thousands
    of sampled fragments per call.  Interpreting each entry's interleaved
    (row, col) bit pairs as a path in the 4-ary recursion tree, the entries
    are exactly the leaves of a finite tree: no entry prefixes another and
    every infinite path meets exactly one entry.

    sampler.size is the least power of two >= len(table); the buckets past
    len(table) have zero weight (threshold 0, alias a real entry).
    """

    row_bits: np.ndarray  # uint64
    col_bits: np.ndarray  # uint64
    depths: np.ndarray  # uint64, >= 1
    probs: np.ndarray  # float64, sums to 1
    sampler: AliasTable
    max_depth: int
    kind: str  # "fixed" | "variable"
    mean_depth: float  # sum(p * depth): expected bits per sample, per side
    quadrants: tuple[float, float, float, float]  # of the model it was built for

    def __len__(self) -> int:
        return int(self.probs.shape[0])

    def entry(self, i: int) -> PathEntry:
        return PathEntry(
            row_bits=int(self.row_bits[i]),
            col_bits=int(self.col_bits[i]),
            depth=int(self.depths[i]),
            prob=float(self.probs[i]),
        )

    def __iter__(self) -> Iterator[PathEntry]:
        return (self.entry(i) for i in range(len(self)))


def _check_model(table: FragmentTable, params: RmatParams) -> None:
    if table.quadrants != params.quadrants:
        raise TableModelMismatch(f"table built for {table.quadrants}, not {params.quadrants}")


def _assemble(row, col, dep, prob, kind: str, quadrants) -> FragmentTable:
    dep = dep.astype(np.uint64)
    pad = (1 << (len(prob) - 1).bit_length()) - len(prob)
    table = FragmentTable(
        row_bits=row.astype(np.uint64),
        col_bits=col.astype(np.uint64),
        depths=dep,
        probs=prob,
        sampler=build_alias(np.concatenate([prob, np.zeros(pad)])),
        max_depth=int(dep.max()),
        kind=kind,
        mean_depth=float(np.dot(prob, dep.astype(np.float64))),
        quadrants=quadrants,
    )
    for arr in (table.row_bits, table.col_bits, table.depths, table.probs):
        arr.flags.writeable = False
    return table


def build_fixed_table(params: RmatParams, depth: int) -> FragmentTable:
    """All 4**depth recursion paths of one fixed length.

    Entries are ordered lexicographically by their interleaved path digits,
    i.e. by the base-4 number whose digits are the per-level quadrant
    choices, most significant decision first.
    """
    if not 1 <= depth <= MAX_FIXED_DEPTH:
        raise DepthOutOfRange(f"fixed depth must be in [1, {MAX_FIXED_DEPTH}], got {depth}")
    n = 4**depth
    codes = np.arange(n, dtype=np.uint64)
    quads = np.array(params.quadrants, dtype=np.float64)
    row = np.zeros(n, dtype=np.uint64)
    col = np.zeros(n, dtype=np.uint64)
    probs = np.ones(n, dtype=np.float64)
    one = np.uint64(1)
    for level in range(depth):
        digit = (codes >> np.uint64(2 * (depth - 1 - level))) & np.uint64(3)
        row = (row << one) | (digit >> one)
        col = (col << one) | (digit & one)
        probs *= quads[digit]
    dep = np.full(n, depth, dtype=np.uint64)
    return _assemble(row, col, dep, probs, "fixed", params.quadrants)


def build_variable_table(
    params: RmatParams,
    size_limit: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> FragmentTable:
    """Greedy variable-depth fragment set.

    Starts from the single empty path of probability 1 and repeatedly
    replaces the most probable path with its four one-level extensions, as
    long as the grown set still fits size_limit.  This maximizes the
    minimum entry probability for the final size.  Paths reaching depth_cap
    are frozen and never expanded, so fragments always fit machine words.

    Ties in probability are broken toward smaller depth, then smaller
    interleaved path value, making the table a deterministic function of
    (params, size_limit, depth_cap).  The final size never exceeds
    size_limit and is congruent to 1 mod 3 whenever the cap never binds.
    """
    if size_limit < 4:
        raise SizeLimitTooSmall(f"size_limit must be >= 4, got {size_limit}")
    if size_limit > MAX_TABLE_ENTRIES:
        raise TableTooLarge(f"size_limit must be <= {MAX_TABLE_ENTRIES}, got {size_limit}")
    if not 1 <= depth_cap <= DEFAULT_DEPTH_CAP:
        raise DepthOutOfRange(f"depth_cap must be in [1, {DEFAULT_DEPTH_CAP}], got {depth_cap}")

    quads = params.quadrants
    # Heap of expandable paths: (-prob, depth, interleaved code, row, col).
    # Python's tuple order gives exactly the tie rule documented above.
    heap: list[tuple[float, int, int, int, int]] = [(-1.0, 0, 0, 0, 0)]
    capped: list[tuple[float, int, int, int, int]] = []
    total = 1
    while heap and total + 3 <= size_limit:
        negp, depth, code, row, col = heapq.heappop(heap)
        p = -negp
        for digit in range(4):
            child = (
                -(p * quads[digit]),
                depth + 1,
                (code << 2) | digit,
                (row << 1) | (digit >> 1),
                (col << 1) | (digit & 1),
            )
            if depth + 1 >= depth_cap:
                capped.append(child)
            else:
                heapq.heappush(heap, child)
        total += 3

    final = heap + capped
    # Canonical presentation: by depth, then interleaved path order.
    final.sort(key=lambda e: (e[1], e[2]))
    n = len(final)
    row = np.fromiter((e[3] for e in final), dtype=np.uint64, count=n)
    col = np.fromiter((e[4] for e in final), dtype=np.uint64, count=n)
    dep = np.fromiter((e[1] for e in final), dtype=np.uint64, count=n)
    probs = np.fromiter((-e[0] for e in final), dtype=np.float64, count=n)
    return _assemble(row, col, dep, probs, "variable", params.quadrants)


@dataclass(frozen=True)
class TableStats:
    entry_count: int
    min_prob: float
    max_prob: float
    expected_depth: float  # sum(p * depth): average levels resolved per sample
    expected_info: float  # -sum(p * log2 p): entropy of the entry distribution
    mean_entry_info: float  # mean over entries of -log2 p, not sample-weighted


def table_stats(table: FragmentTable) -> TableStats:
    p = table.probs
    positive = p > 0.0
    log2p = np.log2(p[positive])
    info = float(-np.dot(p[positive], log2p))
    return TableStats(
        entry_count=len(table),
        min_prob=float(p.min()),
        max_prob=float(p.max()),
        expected_depth=table.mean_depth,
        expected_info=info,
        mean_entry_info=float(-log2p.mean()),
    )


def perturb_table(table: FragmentTable, noise_level: float, rng) -> FragmentTable:
    """Smooth the sampling distribution with multiplicative uniform noise.

    Each entry's probability is scaled by an independent factor uniform in
    [1 - noise_level, 1 + noise_level], then the vector is renormalized.
    Bit strings and depths are untouched; a fresh sampler is built.  rng is
    either a numpy Generator or an integer seed.
    """
    if not 0.0 <= noise_level < 1.0 or not math.isfinite(noise_level):
        raise NoiseOutOfRange(f"noise_level must be in [0, 1), got {noise_level!r}")
    if noise_level == 0.0:
        return table
    if not isinstance(rng, np.random.Generator):
        rng = keyed_stream(int(rng), DOMAIN_PERTURB, 0)
    factors = 1.0 - noise_level + 2.0 * noise_level * rng.random(len(table))
    probs = table.probs * factors
    probs /= probs.sum()
    return _assemble(
        table.row_bits, table.col_bits, table.depths, probs, table.kind, table.quadrants
    )


def dump_table(table: FragmentTable) -> Iterator[str]:
    """Text lines `row_bits col_bits depth prob`, bits most-significant-first."""
    for e in table:
        yield f"{e.row_bits:0{e.depth}b} {e.col_bits:0{e.depth}b} {e.depth} {e.prob!r}"
