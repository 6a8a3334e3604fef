"""Fragment tables: precomputed recursion-path prefixes with O(1) sampling.

A fragment is a partial run of the R-MAT recursion -- equal-length row and
column bit strings plus the probability of that run.  Generating an edge
then reduces to concatenating sampled fragments instead of walking the
recursion one level at a time.  Two constructions are provided: all 4**l
paths of a fixed length l, and the greedy variable-depth set that keeps
expanding the most probable path until a size budget is reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._rng import DOMAIN_PERTURB, keyed_stream
from .alias import AliasTable, build_alias
from .params import RmatParams

DEFAULT_DEPTH_CAP = 62

#: Both table kinds are bounded in entries before allocating.  Building a
#: table and compiling it for the kernels peaks at most _PEAK_BYTES_PER_ENTRY
#: bytes per entry above the interpreter's own RSS.  Measured at 4**11
#: entries: fixed 142 B; variable 124 B for Graph500's model and 186 B for
#: (0.9, 0.025, 0.025, 0.05), whose paths run deepest.  CI's "Table bound"
#: step holds the largest table of each kind to the bound.
MAX_TABLE_ENTRIES = 4**11
_PEAK_BYTES_PER_ENTRY = {"fixed": 160, "variable": 210}
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


def _depth_moment(probs: np.ndarray, depths: np.ndarray, power: int = 1) -> float:
    """sum(probs * depths**power), each run of equal depths summed pairwise first.

    A fixed table is one run, and a variable table, sorted by depth, one
    run per depth: slices, with no sort.  np.dot would go through threaded
    BLAS, which took 8 ms over 65,536 entries on a 2-core host and whose
    low bits changed with its thread count; summing per depth also keeps
    fixed tables' mean depth exact more often.
    """
    cuts = [0, *(np.flatnonzero(depths[1:] != depths[:-1]) + 1).tolist(), len(depths)]
    return sum(float(probs[lo:hi].sum()) * float(depths[lo]) ** power
               for lo, hi in zip(cuts, cuts[1:]))


def _assemble(row, col, dep, prob, kind: str, quadrants) -> FragmentTable:
    dep = dep.astype(np.uint64, copy=False)
    pad = (1 << (len(prob) - 1).bit_length()) - len(prob)
    table = FragmentTable(
        row_bits=row.astype(np.uint64, copy=False),
        col_bits=col.astype(np.uint64, copy=False),
        depths=dep,
        probs=prob,
        sampler=build_alias(np.concatenate([prob, np.zeros(pad)])),
        max_depth=int(dep.max()),
        kind=kind,
        mean_depth=_depth_moment(prob, dep),
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
    quads = np.array(params.quadrants, dtype=np.float64)
    probs = np.ones(1)
    row = col = np.zeros(1, dtype=np.uint64)
    for _ in range(depth):
        probs, row, col = _children(quads, probs, row, col)
    dep = np.full(len(probs), depth, dtype=np.uint64)
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

    The expansions are found without replaying them one by one: in the
    order (-p, depth, path value) a child always comes after its parent,
    so replacing the most probable path (size_limit - 1) // 3 times expands
    exactly the first that many paths of the whole tree below depth_cap in
    that order.  _greedy_levels walks the tree level by level and
    _greedy_set picks those paths; the table is every child of an
    expanded path that is not expanded itself.
    """
    if size_limit < 4:
        raise SizeLimitTooSmall(f"size_limit must be >= 4, got {size_limit}")
    if size_limit > MAX_TABLE_ENTRIES:
        raise TableTooLarge(f"size_limit must be <= {MAX_TABLE_ENTRIES}, got {size_limit}")
    if not 1 <= depth_cap <= DEFAULT_DEPTH_CAP:
        raise DepthOutOfRange(f"depth_cap must be in [1, {DEFAULT_DEPTH_CAP}], got {depth_cap}")
    quads = np.array(params.quadrants, dtype=np.float64)
    row, col, dep, probs = _greedy_set(quads, (size_limit - 1) // 3, depth_cap)
    return _assemble(row, col, dep, probs, "variable", params.quadrants)


def _greedy_set(quads, expand: int, depth_cap: int):
    """The children of the first `expand` paths that are not expanded themselves: (row, col, depth, p).

    Entries come by depth, then path value.
    """
    levels = _greedy_levels(quads, expand, depth_cap)
    sizes = [len(lv[0]) for lv in levels]
    # A level lists its nodes in path-value order, so a node's index in its
    # level breaks ties as its path value does.  Path values pass 64 bits
    # below depth 32, and the cap is 62; indices do not.
    depth = np.repeat(np.arange(len(levels)), sizes)
    rank = np.concatenate([np.arange(n) for n in sizes])
    prob = np.concatenate([lv[0] for lv in levels])
    expanded = np.zeros(len(prob), dtype=bool)
    expanded[np.lexsort((rank, depth, -prob))[:expand]] = True
    expanded = np.split(expanded, np.cumsum(sizes)[:-1])
    # The children of one level's expanded nodes, in the order of their
    # parents and then of the digit, are in path-value order.
    parts = []
    for d, (p, row, col, _) in enumerate(levels):
        parents = np.flatnonzero(expanded[d])
        if not len(parents):
            break
        grown = np.zeros((len(p), 4), dtype=bool)  # children expanded themselves
        if d + 1 < len(levels):
            grown.flat[levels[d + 1][3][expanded[d + 1]]] = True
        here = ~grown[parents].ravel()
        cp, crow, ccol = _children(quads, p[parents], row[parents], col[parents])
        dep = np.full(np.count_nonzero(here), d + 1, dtype=np.uint64)
        parts.append((crow[here], ccol[here], dep, cp[here]))
    return tuple(np.concatenate(field) for field in zip(*parts))


def _greedy_levels(quads, expand: int, depth_cap: int) -> list[tuple]:
    """The tree of paths above depth_cap, level by level, cut to the candidates for expansion.

    Each level lists (p, row, col, slot) for its nodes in path-value order;
    slot is 4 * the parent's index in the level above + the digit.  A
    child's p is its parent's times the digit's quadrant probability, the
    float product a path-by-path expansion makes.  A node whose p falls
    below the `expand`-th largest p met so far cannot be expanded, and no
    node below it can, so it is dropped: the levels stay a few times
    `expand` long, where the whole tree grows 4x per level.
    """
    p = np.ones(1)
    row = col = np.zeros(1, dtype=np.uint64)
    seen = p
    levels = [(p, row, col, np.zeros(1, dtype=np.int64))]
    while len(levels) < depth_cap:
        cp, crow, ccol = _children(quads, p, row, col)
        seen = np.concatenate([seen, cp])
        if len(seen) > expand:
            floor = np.partition(seen, len(seen) - expand)[len(seen) - expand]
            seen = seen[seen >= floor]
            slot = np.flatnonzero(cp >= floor)
        else:
            slot = np.arange(len(cp))
        if not len(slot):
            break
        p, row, col = cp[slot], crow[slot], ccol[slot]
        levels.append((p, row, col, slot))
    return levels


def _children(quads, p, row, col):
    """The four children of each node, in digit order: (p, row bits, column bits)."""
    digit = np.arange(4, dtype=np.uint64)
    one = np.uint64(1)
    return ((p[:, None] * quads).ravel(),
            ((row[:, None] << one) | (digit >> one)).ravel(),
            ((col[:, None] << one) | (digit & one)).ravel())


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
    info = float(-(p[positive] * log2p).sum())
    return TableStats(
        entry_count=len(table),
        min_prob=float(p.min()),
        max_prob=float(p.max()),
        expected_depth=table.mean_depth,
        expected_info=info,
        mean_entry_info=float(-log2p.mean()),
    )


def perturb_table(table: FragmentTable, noise_level: float, seed: int) -> FragmentTable:
    """Smooth the sampling distribution with multiplicative uniform noise.

    Each entry's probability is scaled by an independent factor uniform in
    [1 - noise_level, 1 + noise_level], drawn from the stream keyed by
    seed, then the vector is renormalized.  Bit strings and depths are
    untouched; a fresh sampler is built.
    """
    if not 0.0 <= noise_level < 1.0 or not math.isfinite(noise_level):
        raise NoiseOutOfRange(f"noise_level must be in [0, 1), got {noise_level!r}")
    if noise_level == 0.0:
        return table
    rng = keyed_stream(int(seed), DOMAIN_PERTURB, 0)
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
