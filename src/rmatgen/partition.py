"""Communication-free partitioned generation over a tile grid.

The adjacency matrix is cut into 2^t x 2^t square tiles.  Every part
re-derives the number of edges in each tile it owns by walking a 4-ary
recursion whose multinomial splits are keyed by (seed, recursion path):
identical inputs give identical counts everywhere, so no messages are
needed.  Tiles are then filled locally on the remaining k - t index
bits, each from its own stream keyed by (seed, tile coordinates).  One
call of the table's kernel joins the streams of many small tiles, at
least a block of edges, so its per-call cost is not paid per tile.
A tile is cut from its start into pieces of a block; piece p draws from
the tile's key with p in the Philox counter's second word (see
`_rng.Streams`), so no piece waits for another, and the pieces of a big
tile run side by side on threads.  Piece 0 draws the uncut tile's
stream: a tile of at most a block, and the first block of a bigger one,
have the bytes of one unsplit call.  A batch of whole pieces is one unit
of the generator's in-order unit stream, on any number of threads:
`generate_part_stream`, the one code that fills tiles, yields the units,
and `generate_part` gathers them into one array.  Tiles given to either
are checked first.

Neither a split node nor a tile builds a numpy Generator or any other
object of its own.  Each level of the walk is one loop over its nodes
that re-keys the thread's shared Generator (`_rng.rekeyed_each`) and
makes three binomial draws per node, into one flat list of counts.  A
batch of tiles is one `_rng.Streams`, its rows taken straight from the
tile array, and the kernel re-keys once per row and draw.

Parts own contiguous ranges of tile rows and prune recursion subtrees
whose rows they do not own, so planning work scales with owned rows, not
with the whole grid.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from ._rng import DOMAIN_NODE, DOMAIN_TILE, Streams, rekeyed_each
from .generator import DEFAULT_BLOCK_SIZE, _collect, _compile, _emit, _stream_units
from .params import RmatParams
from .table import FragmentTable, _check_model

#: Tile coordinates are packed into one 64-bit stream key as (row << t) | col.
MAX_TILE_BITS = 31

#: Most tiles one part's plan may list.  plan_tiles returns a Python
#: TileCount per tile; past t=6 at k=20, m=2^22 the work per tile already
#: outweighs the samples it saves.
MAX_PLAN_TILES = 1 << 20


class PlanTooLarge(ValueError):
    """A part's plan would list more than MAX_PLAN_TILES tiles."""


class TileCount(NamedTuple):
    tile_row: int
    tile_col: int
    count: int


#: TileCount's fields as one record: the tile arrays that _plan_cells
#: returns and _units, _batch and _check_tiles read have this dtype.
_CELL = np.dtype([("tile_row", np.int64), ("tile_col", np.int64), ("count", np.int64)])


def _cells(tiles) -> np.recarray:
    """tiles as a record array with TileCount's fields; an array is returned as it is."""
    if isinstance(tiles, np.ndarray):
        return tiles
    try:
        flat = np.fromiter(chain.from_iterable(tiles), np.int64, 3 * len(tiles))
    except OverflowError:
        raise ValueError("tile rows, columns and counts must fit in int64") from None
    return flat.view(_CELL).view(np.recarray)


@dataclass(frozen=True)
class PartitionPlan:
    """Grid geometry plus the deterministic inputs every part shares.

    The 2^t tile rows are dealt to `parts` in near-equal contiguous,
    half-open runs, longest first; runs are empty when parts > 2^t.
    """

    k: int
    t: int
    m: int
    seed: int
    parts: int

    def __post_init__(self) -> None:
        if not 0 <= self.t <= min(self.k, MAX_TILE_BITS):
            raise ValueError(f"t must be in [0, min(k, {MAX_TILE_BITS})], got {self.t}")
        if not 0 <= self.m < 1 << 63:
            raise ValueError(f"m must be in [0, 2**63), got {self.m}")
        if self.parts < 1:
            raise ValueError(f"parts must be >= 1, got {self.parts}")

    def _rows(self, part: int) -> tuple[int, int]:
        """The half-open run of tile rows that `part` owns."""
        if not 0 <= part < self.parts:
            raise ValueError(f"part must be in [0, {self.parts}), got {part}")
        base, extra = divmod(1 << self.t, self.parts)
        lo = part * base + min(part, extra)
        return lo, lo + base + (part < extra)

    @property
    def owner_rows(self) -> tuple[tuple[int, int], ...]:
        """Every part's run of tile rows, in part order; together they tile [0, 2^t)."""
        return tuple(map(self._rows, range(self.parts)))


def default_plan(k: int, t: int, m: int, seed: int, parts: int = 1) -> PartitionPlan:
    """The plan of a 2^t x 2^t grid whose tile rows `parts` parts share."""
    return PartitionPlan(k=k, t=t, m=m, seed=seed, parts=parts)


def split_quadrant_counts(
    count: int, params: RmatParams, node_key: tuple[int, int]
) -> tuple[int, int, int, int]:
    """Multinomial split of `count` edges over the four quadrants.

    Three sequential binomials: n_a ~ Bin(count, a), then n_b and n_c from
    the renormalized remainders, n_d as what is left.  The conditional
    probabilities are computed as b/(b+c+d) and c/(c+d) rather than the
    algebraically equal b/(1-a) and c/(1-a-b), which can land one ulp
    above 1 and be rejected by the sampler.  All randomness comes from the
    stream keyed by node_key = (seed, recursion path), so any two parts
    evaluating the same node get the same tuple.  The draws come from the
    thread's re-keyed Generator; the binomial setup it caches depends only
    on (n, p), so carrying it from node to node does not change them.
    """
    if count == 0:
        return (0, 0, 0, 0)
    seed, path = node_key
    return tuple(_splits(params, seed, [count], [path]))


def _splits(params: RmatParams, seed: int, counts: list[int], paths: list[int]) -> list[int]:
    """split_quadrant_counts of each (count, path) node, its four counts in turn in one list.

    One loop re-keys the thread's Generator for each node and makes its
    three draws.
    """
    a, b, c, d = params.quadrants
    pb, pc = b / (b + c + d), c / (c + d)
    flat: list[int] = []
    for count, gen in zip(counts, rekeyed_each(seed, DOMAIN_NODE, paths)):
        n_a = int(gen.binomial(count, a))
        rest = count - n_a
        n_b = int(gen.binomial(rest, pb))
        rest -= n_b
        n_c = int(gen.binomial(rest, pc))
        flat += (n_a, n_b, n_c, rest - n_c)
    return flat


def plan_tiles(plan: PartitionPlan, params: RmatParams, part: int = 0) -> list[TileCount]:
    """Edge counts for every tile owned by `part`, zero-count tiles included.

    Walks the recursion tree level by level from the whole matrix down to
    single tiles, splitting counts at each node and pruning subtrees whose
    tile rows lie outside the part's range.  The recursion path is encoded
    as the interleaved digit string with a leading 1 sentinel, so distinct
    nodes always key distinct streams.  A part owning more than
    MAX_PLAN_TILES tiles raises PlanTooLarge before the walk starts.
    """
    return _tile_list(_plan_cells(plan, params, part))


def _tile_list(cells: np.recarray) -> list[TileCount]:
    return list(map(TileCount, cells.tile_row.tolist(), cells.tile_col.tolist(),
                    cells.count.tolist()))


def _plan_cells(plan: PartitionPlan, params: RmatParams, part: int) -> np.recarray:
    """plan_tiles's tiles as one record array of dtype _CELL, in the same order."""
    lo, hi = plan._rows(part)
    if (hi - lo) << plan.t > MAX_PLAN_TILES:
        raise PlanTooLarge(
            f"plan lists {(hi - lo) << plan.t} tiles, more than {MAX_PLAN_TILES}; "
            "lower t or split the rows over more parts"
        )
    # One level of the tree at a time, its nodes' recursion paths, corners
    # and counts as arrays.  Children follow their parents in digit order, so
    # every level, the last too, lists its nodes as a depth-first walk meets them.
    # Only levels below the root are pruned, so a part that owns no rows
    # starts from an empty level: at t = 0 nothing below would drop the root.
    roots = int(lo < hi)
    code = np.ones(roots, dtype=np.int64)
    row = np.zeros(roots, dtype=np.int64)
    col = np.zeros(roots, dtype=np.int64)
    count = np.full(roots, plan.m, dtype=np.int64)
    digit = np.arange(4)
    for level in range(plan.t):
        half = 1 << (plan.t - level - 1)
        live = np.flatnonzero(count)
        splits = np.zeros((len(count), 4), dtype=np.int64)
        splits[live] = np.reshape(_splits(params, plan.seed, count[live].tolist(),
                                          code[live].tolist()), (-1, 4))
        rows = row[:, None] + (digit >> 1) * half
        owned = (rows + half > lo) & (rows < hi)
        code = ((code[:, None] << 2) | digit)[owned]
        row = rows[owned]
        col = (col[:, None] + (digit & 1) * half)[owned]
        count = splits[owned]
    return np.rec.fromarrays([row, col, count], dtype=_CELL)


def _units(comp, tiles, k: int, t: int, seed: int) -> tuple[int, list]:
    """The edge count of `tiles` and the batches that fill it, in order.

    Each tile is cut from its start into pieces of a block.  A batch is a
    run of whole pieces that closes once it holds a block, so one kernel
    call serves many small tiles and no batch holds two blocks.  Every
    piece but a tile's first follows a full block of its tile, which
    closed the batch before it, so only a batch's first entry can be a
    later piece: a batch is a record array of its pieces, cut from the
    tile array by one search, and the piece index of its first entry.
    """
    cells = _cells(tiles)
    cells = cells[cells.count > 0]
    ends = np.cumsum(cells.count)
    starts = ends - cells.count
    total = int(ends[-1]) if len(ends) else 0
    units: list = []
    lo = first = 0
    while lo < total:
        # The batch closes with the first tile that reaches a block, at the
        # end of that tile's piece which starts in the batch.
        last = int(np.searchsorted(ends, lo + DEFAULT_BLOCK_SIZE))
        if last == len(ends):
            last, close = last - 1, total
        else:
            close = min(int(ends[last]), max(int(starts[last]), lo) + DEFAULT_BLOCK_SIZE)
        batch = cells[first : last + 1].copy()
        batch["count"] = (np.minimum(ends[first : last + 1], close)
                          - np.maximum(starts[first : last + 1], lo))
        piece = (lo - int(starts[first])) // DEFAULT_BLOCK_SIZE
        units.append(partial(_batch, comp, batch, k, t, seed, piece))
        lo, first = close, last if close < ends[last] else last + 1
    return total, units


def _batch(comp, tiles: np.recarray, k: int, t: int, seed: int,
           piece: int) -> tuple[np.ndarray, int]:
    """Edges of a batch of tile pieces back to back, from one kernel call.

    The first entry is piece `piece` of its tile and every later one its
    tile's piece 0.  The kernel ORs each tile's prefix into its edges a
    chunk at a time: one repeat of the prefixes over the whole batch took
    pages the kernel's kept buffers no longer free, and tiled-part's peak
    RSS rose 0.9 MB (2-core Xeon, numpy 2.4).
    """
    streams = Streams(seed, DOMAIN_TILE, (tiles.tile_row << t) | tiles.tile_col)
    streams.piece[0] = piece
    inner = k - t
    prefix = np.column_stack([tiles.tile_row, tiles.tile_col]).astype(np.uint64)
    prefix <<= np.uint64(inner)
    if not inner:
        return np.repeat(prefix, tiles.count, axis=0), 0
    return _emit(comp, inner, tiles.count, streams, prefix)


def _check_tiles(plan: PartitionPlan, part: int, cells: np.recarray) -> None:
    """Reject given tiles that the part could not have planned, naming the first in list order."""
    lo, hi = plan._rows(part)  # owner rows lie in [0, 2^t), so rows need no grid check
    row, col = cells.tile_row, cells.tile_col
    outside = (row < lo) | (row >= hi) | (col < 0) | (col >= 1 << plan.t)
    # Keys are distinct inside the grid; a tile outside it may share a key
    # with another, but it is reported before any tile after it.
    key = (row << plan.t) | col
    order = np.argsort(key, kind="stable")
    again = np.zeros(len(key), dtype=bool)
    again[order[1:]] = key[order[1:]] == key[order[:-1]]
    bad = np.flatnonzero(outside | (cells.count < 0) | again)
    if not len(bad):
        return
    i = int(bad[0])
    row, col, count = int(row[i]), int(col[i]), int(cells.count[i])
    if outside[i]:
        raise ValueError(f"tile ({row}, {col}) outside part {part}'s rows [{lo}, {hi}) "
                         f"of the 2^{plan.t} grid")
    if count < 0:
        raise ValueError(f"tile ({row}, {col}) count must be >= 0, got {count}")
    raise ValueError(f"tile ({row}, {col}) listed twice")


def generate_part_stream(
    plan: PartitionPlan, params: RmatParams, table: FragmentTable,
    part: int = 0, threads: int = 1, tiles: list[TileCount] | np.ndarray | None = None,
) -> Iterator[tuple[np.ndarray, int]]:
    """generate_part's (edges, samples), one batch of tiles at a time; checks its inputs first.

    A batch holds about a block of edges, at most two blocks less one.
    tiles is as in generate_part, or a record array of dtype _CELL.
    """
    cells = _part_cells(plan, params, table, part, threads, tiles)
    _, units = _units(_compile(table), cells, plan.k, plan.t, plan.seed)
    return _stream_units(len(units), units, threads)


def generate_part(
    plan: PartitionPlan,
    params: RmatParams,
    table: FragmentTable,
    part: int = 0,
    threads: int = 1,
    tiles: list[TileCount] | None = None,
) -> tuple[np.ndarray, list[TileCount], int]:
    """All edges of one part, in tile order.

    Returns (edges, tile counts, alias samples consumed).  The table is
    compiled once and reused across tiles.  Tile batches run on up to
    `threads` threads without changing the bytes.  tiles, when given, is
    the part's `plan_tiles` result, which is then not planned again; a
    tile outside the 2^t grid or the part's rows, listed twice or with a
    negative count raises ValueError before any unit runs.
    """
    cells = _part_cells(plan, params, table, part, threads, tiles)
    total, units = _units(_compile(table), cells, plan.k, plan.t, plan.seed)
    edges, samples = _collect(total, _stream_units(len(units), units, threads))
    return edges, _tile_list(cells) if tiles is None else tiles, samples


def _part_cells(plan: PartitionPlan, params: RmatParams, table: FragmentTable, part: int,
                threads: int, tiles) -> np.recarray:
    """The part's tiles as a record array of dtype _CELL: given tiles checked, else planned.

    The table is checked against the model before any tile is planned.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_model(table, params)
    if tiles is None:
        return _plan_cells(plan, params, part)
    cells = _cells(tiles)
    _check_tiles(plan, part, cells)
    return cells
