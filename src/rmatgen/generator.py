"""Edge emission: turning sampled fragments into batches of R-MAT edges.

Edge j is the k-bit window at bit j*k of the sampled fragments' row bits
and of their column bits.  Two vectorized kernels cut those windows, and
the test suite holds both to a scalar loop, one fragment at a time:

- The word-stream kernel serves every variable-depth table.  It packs the
  sampled fragments into a bit stream per side (row and column) and cuts
  edge j as the k-bit window at bit j*k, a fixed number of vector
  operations per edge.  Up to k = 32, when no entry is deeper than 32
  bits (every default table: Graph500 at S = 8191 is at most 15 deep),
  both sides share one uint64 lane, row bits in the high half of each
  word and column bits in the low half; otherwise a row lane and a
  column lane of 64-bit words.  One body serves both layouts: the word
  width, the lane array and the factor that copies a shift count into
  every lane are its data.
- The fixed-depth kernel exploits the periodic alignment of equal-depth
  fragments with edges.  It serves every unit of a fixed-depth table,
  blocks and tile batches alike, at any k, with row and column bits in
  one 64-bit lane up to k = 32 and in two lanes above.  On a fixed
  depth-8 table at k = 20 it makes one block about 1.4x as fast as the
  word stream does (2.3x before the word stream's one lane).

One entry, `_emit`, takes a batch of segments, a count per row of a
stream array, and emits their edges back to back, which lets the
partition module fill many small tiles in one call; a block is one row.
It works through a call in chunks of at most _CHUNK_EDGES edges, each
written into its slice of the call's output, so the temporaries scale
with a chunk, not with the call.  The word stream writes its temporaries
into buffers each thread keeps (`_kept`) and slices its edge-cut arrays
from one set per k (`_cuts`).  A tile batch hands over its tiles'
coordinate prefixes, which the entry ORs into each chunk's edges.  Where
a chunk stops, the kernel writes
each stream's place in its fragments into the arrays (see
`_rng.Streams`), and the next chunk or call on those streams goes on
from there with the same bits.

Both kernels sample with one 64-bit word per fragment: its high half
picks an alias bucket and its low half keeps the bucket or jumps to the
bucket's alias, by two gathers and integer arithmetic (`_select`, no
`np.where`).  The word-stream kernel sizes each piece's first draw at
its mean sample count plus a few standard deviations (`_draw_sizes`) and
tops up the rare piece that falls short; the words drawn never depend on
the sizes.

`naive_edge` / `naive_edges` implement the textbook one-draw-per-level
generator that serves as the statistical oracle and the performance
baseline.

Every block of edges comes from its own random stream, keyed by
(seed, block_index), so any block can be produced by any thread in any
order with identical results.  One loop, `_stream_units`, yields the
edges of units (blocks here, tile batches in the partition module) in
order, run in turn or on threads (numpy releases the GIL) with at most
two units per thread in flight; the thread pool, and
`concurrent.futures` with it, is loaded only by a run that starts one.
`generate_stream` hands the units to a caller that writes each as it
comes; `generate_result` gathers them.  The kernels take a unit's
streams as one `_rng.Streams` array, which re-keys one Philox per thread
for each stream it draws, instead of building a Generator per block or
tile.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from typing import NamedTuple

import numpy as np

from ._rng import DOMAIN_BLOCK, DOMAIN_ORACLE, MASK64, Streams, keyed_stream
from .params import MAX_K, BadExponent, RmatParams
from .table import FragmentTable, _check_model, _depth_moment

DEFAULT_BLOCK_SIZE = 1 << 16

#: Most edges one pass of a kernel works on.  `rmat generate -k 20 -m
#: 8388608` peaked at 41.0, 42.0, 44.4 and 48.2 MB RSS with chunks of 2^12
#: to 2^15 edges (55.4 MB unchunked).  2^12 took about 20% more time than
#: the others, and 2^13 about 10% more CPU than 2^14 under `--tiles 6
#: --threads 2`, where the Python cost of each chunk holds the GIL (2-core
#: Xeon, numpy 2.4).
_CHUNK_EDGES = 1 << 14

# Each thread keeps its last unit's output until it has made the next, the
# word stream's chunk buffers (`_kept`) at the size of its largest chunk,
# and the fixed-depth kernel's largest temporary of its last chunk, so that
# glibc's malloc does not hand the top of the heap back to the OS after
# every unit or chunk, only to fault the same pages in again: `rmat
# generate -k 20 -m 8388608` took 455k page faults instead of 7.6k when
# units were not kept, and 1.65x the time, and 438k instead of 8.0k when
# chunks of 2^14 edges were not kept.  With the word stream's temporaries
# in kept buffers it takes 6.9k, and a chunk no longer depends on where
# its temporaries happen to land.
_held = threading.local()

_ONE = np.uint64(1)
_DOUBLE = np.uint64((1 << 32) | 1)  # times a 32-bit count: that count in both halves
_MASK32 = np.uint64(0xFFFFFFFF)


def _kept(name: str, size: int) -> np.ndarray:
    """The first `size` words of this thread's kept uint64 buffer `name`.

    A buffer grows to the most words asked of it and is kept, so the chunks
    a thread runs reuse the same pages (see _held).
    """
    buf = getattr(_held, name, None)
    if buf is None or len(buf) < size:
        buf = np.empty(size, dtype=np.uint64)
        setattr(_held, name, buf)
    return buf[:size]


class Edge(NamedTuple):
    u: int
    v: int


@dataclass(frozen=True)
class GenConfig:
    """Everything `generate` needs: distribution, table, size, seeding."""

    params: RmatParams
    table: FragmentTable
    edge_count: int
    seed: int
    block_size: int = DEFAULT_BLOCK_SIZE
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.edge_count < 1 << 63:
            raise ValueError(f"edge_count must be in [0, 2**63), got {self.edge_count}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        _check_model(self.table, self.params)


@dataclass(frozen=True)
class GenResult:
    """Edges plus the sampling-cost counter the benchmarks report."""

    edges: np.ndarray  # (m, 2) uint64
    samples_consumed: int


@dataclass(frozen=True)
class _Compiled:
    """Table arrays rearranged for the vectorized kernels.

    thr32 holds the alias thresholds rescaled to 32-bit integers: the
    acceptance test `frac < threshold` is decided as
    (word & 0xffffffff) < ceil(threshold * 2**32), which is exact because
    threshold * 2**32 is a power-of-two scaling and never rounds.  jump
    is alias minus the bucket, what a rejected bucket adds to its index.
    """

    thr32: np.ndarray
    jump: np.ndarray  # intp
    depths: np.ndarray
    # (row_bits << 32) | col_bits, when no entry is deeper than 32 bits: the
    # one-lane word of both kernels, and every fixed table's
    packed: np.ndarray | None
    bits: np.ndarray  # (2, len(table)) uint64: row bits over column bits
    index_mask: np.uint64  # sampler.size - 1; that size is a power of two
    fixed_depth: int | None  # set when every entry has the same depth
    mean_depth: float
    depth_sd: float  # standard deviation of one sample's depth


def _compile(table: FragmentTable) -> _Compiled:
    dmin = int(table.depths.min())
    fixed = dmin == int(table.depths.max())
    alias = table.sampler.alias.astype(np.intp)
    square = _depth_moment(table.probs, table.depths, 2)
    return _Compiled(
        thr32=np.ceil(table.sampler.threshold * 2.0**32).astype(np.uint64),
        jump=alias - np.arange(len(alias)),
        depths=table.depths,
        # Equal depths need 4**depth entries, so a fixed table always packs.
        packed=(table.row_bits << np.uint64(32)) | table.col_bits
        if table.max_depth <= 32 else None,
        bits=np.stack([table.row_bits, table.col_bits]).astype(np.uint64),
        index_mask=np.uint64(table.sampler.size - 1),
        fixed_depth=dmin if fixed else None,
        mean_depth=table.mean_depth,
        depth_sd=max(square - table.mean_depth**2, 0.0) ** 0.5,
    )


def _select(comp: _Compiled, raw: np.ndarray, out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    # One word per sample: its high half masked to a power-of-two bucket
    # count is the bucket (viewed as int64, no copy); its low half the
    # fraction, which keeps the bucket below thr32 and jumps to the alias
    # from there on.  Two gathers and integer arithmetic, no select.  The
    # entries go into out and the gathers into work, uint64 arrays of raw's
    # length, when those are given, and raw ends as the 0/1 jump flags.
    idx = np.right_shift(raw, np.uint64(32), out=out)
    idx &= comp.index_mask
    idx = idx.view(np.int64)
    raw &= _MASK32
    thr = comp.thr32.take(idx, mode="clip", out=work)
    np.greater_equal(raw, thr, out=raw)
    jump = comp.jump.take(idx, mode="clip", out=thr.view(np.intp))
    jump *= raw.view(np.int64)
    idx += jump
    return idx


@cache
def _fixed_plan(k: int, l: int) -> tuple[int, int, list[list[tuple[int, int, int]]]]:
    """Static piece layout for a fixed-depth table.

    The fragment/edge alignment repeats every lcm(k, l) bits, i.e. every
    ge = l/gcd edges and gf = k/gcd fragments.  Within one period, edge j
    takes a fixed field from each fragment column it overlaps, so each
    piece is (column, net shift, mask-after-shift) with scalar values.
    """
    g = k * l // np.gcd(k, l)
    ge, gf = g // k, g // l
    plan: list[list[tuple[int, int, int]]] = []
    for j in range(ge):
        es, ee = j * k, (j + 1) * k
        pieces = []
        for c in range(es // l, (ee - 1) // l + 1):
            fs = c * l
            hi = min(fs + l, ee)
            width = hi - max(fs, es)
            drop = fs + l - hi  # right shift aligning the field at bit 0
            place = ee - hi  # left shift into the edge's bit position
            pieces.append((c, place - drop, ((1 << width) - 1) << place))
        plan.append(pieces)
    return ge, gf, plan


def _fixed_chunk(comp: _Compiled, k: int, counts: np.ndarray, streams: Streams,
                 out: np.ndarray) -> int:
    """One chunk of the fixed-depth kernel, with _emit_words's arguments and result.

    Fragments and edges align every period of ge edges and gf fragments,
    so every piece of an edge is one scalar shift-and-mask over a
    contiguous fragment column.  A stream's edges start in the period that
    holds its next edge, found from its (pos, carry); that period's words
    are drawn again, and the edges outside the stream's count are dropped.
    Each stream is left with the (pos, carry) that _emit_words leaves.
    """
    l = comp.fixed_depth
    assert l is not None and comp.packed is not None
    ge, gf, plan = _fixed_plan(k, l)
    done = ((streams.pos + (streams.carry > 0)) * l - streams.carry) // k
    period, skip = np.divmod(done, ge)
    periods = -(-(skip + counts) // ge)
    streams.pos[:] = period * gf
    raw = streams.words(periods * gf)
    nsuper = int(periods.sum())
    firsts = (np.cumsum(periods) - periods) * ge + skip  # first edges among all periods' edges
    bits = (done + counts) * k
    # The pad words drawn are never observable.
    samples = int((-(-bits // l) + (-done * k // l)).sum())
    streams.pos[:] = bits // l
    streams.carry[:] = -bits % l
    sel = _select(comp, raw)

    # One gather, then a transpose so each of the gf fragment columns is
    # contiguous.  Up to k = 32 one lane carries both sides, row bits in
    # the high half of each word and column bits in the low half: drop and
    # place shifts are identical for the two sides of a piece, so one
    # shift-mask-or with a doubled mask serves both, and bits bleeding
    # across the halves are removed by the mask.  Wider edges split the
    # words into two lanes, row over column.
    words = comp.packed[sel].reshape(nsuper, gf).T
    if k <= 32:
        frag = words.copy()[:, None]
        double = (1 << 32) | 1
    else:
        frag = np.empty((gf, 2, nsuper), dtype=np.uint64)
        np.right_shift(words, np.uint64(32), out=frag[:, 0])
        np.bitwise_and(words, _MASK32, out=frag[:, 1])
        double = 1
    del words  # its pages then serve the piece loop: fewer page faults

    def piece(c: int, s: int, mask: int) -> np.ndarray:
        sh = np.uint64(abs(s))
        return ((frag[c] << sh) if s >= 0 else (frag[c] >> sh)) & np.uint64(mask * double)

    acc = np.empty((frag.shape[1], nsuper, ge), dtype=np.uint64)
    for j, (first, *rest) in enumerate(plan):
        lane = piece(*first)
        for p in rest:
            lane |= piece(*p)
        acc[:, :, j] = lane

    # Each stream's edges sit from its first one on among the periods' edges.
    at = np.repeat(firsts - (np.cumsum(counts) - counts), counts) + np.arange(len(out))
    lanes = np.take(acc.reshape(len(acc), -1), at, axis=1)
    if k <= 32:
        np.right_shift(lanes[0], np.uint64(32), out=out[:, 0])
        np.bitwise_and(lanes[0], _MASK32, out=out[:, 1])
    else:
        out.T[:] = lanes
    _held.scratch = frag
    return samples


def _emit(comp: _Compiled, k: int, counts: np.ndarray, streams: Streams,
          prefix: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """The one kernel entry, for blocks and tile batches of any table.

    counts[i] >= 1 edges come from each row of streams, back to back, each
    cut from its own stream's fragment bits.  The table picks the kernel,
    and the call walks the segments in chunks of at most _CHUNK_EDGES
    edges, each written into its slice of the output.  A chunk gets views
    of the rows it overlaps, so a segment that a chunk boundary cuts goes
    on in the next chunk from the (pos, carry) the first part left, and so
    can a later call that takes the same streams.  prefix, when given, is a
    (len(counts), 2) uint64 array ORed into each of row i's edges, a chunk
    at a time: a tile batch's coordinates above its inner bits.  Returns
    the edges and the number of samples they used.
    """
    chunk = _emit_words if comp.fixed_depth is None else _fixed_chunk
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    edges = np.empty((total, 2), dtype=np.uint64)
    if not total:
        return edges, 0
    # Chunks of near one size: a short last chunk would let go of the heap top
    # that the kept scratch of the others holds (see _held).
    chunks = -(-total // _CHUNK_EDGES)
    size = -(-total // chunks)
    los = np.arange(0, total, size)
    his = np.minimum(los + size, total)
    samples = 0
    for lo, hi, first, stop in zip(los.tolist(), his.tolist(),
                                   np.searchsorted(ends, los, side="right").tolist(),
                                   (np.searchsorted(ends, his) + 1).tolist()):
        # The chunk's part of each segment it overlaps.
        pieces = np.minimum(ends[first:stop], hi) - np.maximum(starts[first:stop], lo)
        samples += chunk(comp, k, pieces, streams[first:stop], edges[lo:hi])
        if prefix is not None:
            edges[lo:hi] |= np.repeat(prefix[first:stop], pieces, axis=0)
    return edges, samples


def _emit_words(comp: _Compiled, k: int, counts: np.ndarray, streams: Streams,
                out: np.ndarray) -> int:
    """One chunk of the word-stream kernel: counts[i] edges from each of the
    streams, back to back, into out; returns their samples.

    Each piece samples fragments from its stream until their depths cover
    count*k bits, and its last fragment is clamped to end exactly there.
    A stream with a carry starts inside the fragment at its position: that
    word is drawn again, only its low `carry` bits are used, and it is not
    a new sample.  The used fragments of all pieces thus form one bit
    stream per side, most significant bit first, and edge j is the k-bit
    window at bit j*k of each.  Draws past a piece's last fragment stay in
    place as entries of no bits.  Each stream is left at its clamped
    fragment with the cut bits as its carry, or past it when nothing was
    cut.

    The two streams are cut into words of one layout, picked per chunk:
    - one lane, when k <= 32 and the table packs (no entry deeper than 32):
      a uint64 word holds 32 bits of the row stream in its high half and
      the same 32 bits of the column stream in its low half, so each step
      runs once for both sides.  Shifts act on the word viewed as two
      uint32 halves, with each shift count doubled into both halves, so
      no bit crosses from one half into the other.
    - two lanes otherwise: a row word over a column word, 64 bits each.
    """
    one = k <= 32 and comp.packed is not None
    width, half, double = (32, np.uint32, _DOUBLE) if one else (64, np.uint64, _ONE)
    lanes = comp.packed[None] if one else comp.bits
    nl = len(lanes)
    starts = streams.pos.copy()
    carry = streams.carry.astype(np.uint64)
    resumed = carry.nonzero()[0]
    needs = counts.astype(np.uint64) * np.uint64(k)
    sel, dep, csum, lo, base = _cover(comp, needs, streams, carry, resumed)

    # A piece's last fragment is the first whose end reaches its base plus
    # its need; the bits past that point are its stream's new carry, and
    # later draws go unused.
    reach = base + needs
    last = csum.searchsorted(reach)
    nfs = last - lo + 1
    cut = csum[last] - reach
    streams.pos[:] = starts + nfs - (cut > 0)
    streams.carry[:] = cut
    # The unused draws after each piece's last fragment stay in place as
    # entries of no bits, and each last fragment is clamped, so the running
    # sum of the depths is where each entry's bits end in the joint stream.
    # It stands up to the first piece's last fragment and is summed again
    # from there, in place; no pass over the entries compacts them.
    if len(counts) == 1:
        idle = slice(int(last[0]) + 1, None)
    else:
        spare = np.diff(lo, append=len(sel)) - nfs
        idle = np.repeat(last + 1 - (spare.cumsum() - spare), spare) + np.arange(spare.sum())
    dep[idle] = 0
    dep[last] -= cut
    first = int(last[0])
    dep[first] = csum[first] - cut[0]
    end = csum
    dep[first:].cumsum(out=end[first:])
    n = len(sel)
    vals = lanes.take(sel, axis=1, mode="clip", out=_kept("vals", nl * n).reshape(nl, n))
    vals[:, idle] = 0
    if len(resumed):
        vals[:, lo[resumed]] &= ((_ONE << carry[resumed]) - _ONE) * double
    tail = vals[:, last].view(half)
    np.right_shift(tail, (cut * double).view(half), out=tail)
    vals[:, last] = tail.view(np.uint64)

    # Shift each fragment so its last bit lands at its place in the word
    # that holds it, and OR each run of fragments ending in one word into
    # that word.  Fragments are at most one word deep, so every word holds
    # at least one fragment end, and only the first fragment ending in a
    # word can start in the previous one: its spill is ORed in afterwards.
    # A shift is the same count in every lane of a word.
    shift = np.negative(end, out=_kept("sel", n))
    shift &= np.uint64(width - 1)
    shift *= double
    word = np.subtract(end, _ONE, out=_kept("dep", n))
    word >>= np.uint64(width.bit_length() - 1)
    bound = _kept("words", -(-n // 8)).view(bool)[:n]  # free until the words are made
    bound[0] = True
    np.not_equal(word[1:], word[:-1], out=bound[1:])
    heads = bound.nonzero()[0]
    spill = vals.take(heads[1:], axis=1).view(half)
    np.right_shift(spill, half(width) - shift.take(heads[1:]).view(half), out=spill)
    vals = vals.view(half)
    vals <<= shift.view(half)
    # A pad word after the last, never read into an edge, makes the words
    # after the edges' words a view.
    nw = len(heads)
    padded = _kept("words", nl * (nw + 1)).reshape(nl, nw + 1)
    words = np.bitwise_or.reduceat(vals.view(np.uint64), heads, axis=1, out=padded[:, :-1])
    words[:, :-1] |= spill.view(np.uint64)

    # Edge j is the top k bits of each lane of words w and w+1, joined, from
    # offset off; when it ends inside word w, word w+1 is shifted out.
    m = len(out)
    w, off, back = (a[:m] for a in _cuts(k, width, _CHUNK_EDGES))
    left = words.take(w, axis=1, mode="clip", out=_kept("sel", nl * m).reshape(nl, m))
    right = padded[:, 1:].take(w, axis=1, mode="clip", out=_kept("dep", nl * m).reshape(nl, m))
    lhalf, rhalf = left.view(half), right.view(half)
    lhalf <<= off.view(half)
    rhalf >>= back.view(half)
    left |= right
    top = np.uint64(64 - k)
    if one:  # the row half, then the column half moved up in its place
        np.right_shift(left[0], top, out=out[:, 0])
        left <<= np.uint64(32)
        np.right_shift(left[0], top, out=out[:, 1])
    else:
        np.right_shift(left, top, out=out.T)
    return int(nfs.sum()) - len(resumed)


@lru_cache(maxsize=4)
def _cuts(k: int, width: int, edges: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each of the first `edges` edges at k starts among `width`-bit words.

    Returns each edge's word, and its offset in that word and the width
    less that offset, the two shifts that join the word with the next, as
    uint64 words that hold them once per lane (twice for 32-bit words).
    The word-stream kernel slices them for each chunk.  Built per chunk,
    they took 170 us, about a sixth of a 2^14-edge chunk at k = 20 (2-core
    Xeon, numpy 2.4); keyed by chunk length, tile batches would keep one
    set per length.
    """
    pos = np.arange(edges, dtype=np.uint64) * np.uint64(k)
    off = pos & np.uint64(width - 1)
    double = _DOUBLE if width == 32 else _ONE
    cuts = ((pos >> np.uint64(width.bit_length() - 1)).astype(np.intp),
            off * double, (np.uint64(width) - off) * double)
    for a in cuts:
        a.flags.writeable = False  # every caller shares them
    return cuts


#: How many standard deviations of a piece's sample count its first draw
#: adds to the mean count.  On the 14,904 pieces of part 0 of
#: `rmat generate -k 20 -m 4194304 --tiles 8 --parts 4`, 3 left four of
#: them short and 4 none, at 1.039 words drawn per sample used.
_DRAW_SDS = 4.0


def _draw_sizes(comp: _Compiled, bits):
    """Words to draw for fragments covering `bits` bits: the mean sample count
    plus _DRAW_SDS standard deviations of it, and 2."""
    # Overshooting the estimate is harmless: the random stream is
    # counter-based, so unused tail words never influence anything.
    mean = bits / comp.mean_depth
    spread = _DRAW_SDS * comp.depth_sd / comp.mean_depth
    return (mean + spread * np.sqrt(mean)).astype(np.int64) + 2


def _cover(
    comp: _Compiled, needs: np.ndarray, streams: Streams, carry: np.ndarray, resumed: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fragments whose depths cover needs[i] bits from each of the streams.

    Returns the selected entries of all streams back to back, their depths
    and the running sum of those, and for each stream the index of its
    first entry and the depth sum before it.  A stream's first entry counts
    only its carry bits when it has a carry; resumed lists those streams.
    A stream is drawn in the sizes of its own estimate and top-ups; the
    words do not depend on those sizes.  The first draw's entries and
    depths go into kept buffers, and its words become the running sum.
    """
    sizes = _draw_sizes(comp, needs)
    raw = streams.words(sizes)
    n = len(raw)
    sel = _select(comp, raw, _kept("sel", n), _kept("dep", n))
    dep, csum, lo, base = _depth_sums(comp, sel, sizes, carry, resumed, _kept("dep", n), raw)
    got = csum[lo + sizes - 1] - base
    if (got >= needs).all():
        return sel, dep, csum, lo, base
    runs = np.split(sel, lo[1:])
    for i in np.flatnonzero(got < needs).tolist():
        short = int(needs[i] - got[i])
        while short > 0:
            more = _select(comp, streams[i : i + 1].words(_draw_sizes(comp, np.array([short]))))
            runs[i] = np.concatenate([runs[i], more])
            short -= int(np.take(comp.depths, more).sum())
    sel = np.concatenate(runs)
    return sel, *_depth_sums(comp, sel, np.array([len(x) for x in runs]), carry, resumed)


def _depth_sums(
    comp: _Compiled, sel: np.ndarray, sizes: np.ndarray, carry: np.ndarray, resumed: np.ndarray,
    dep: np.ndarray | None = None, csum: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Depths of runs of `sizes` entries whose first entries are `carry` bits
    deep in the `resumed` runs, their running sum, each run's first index
    and the sum before it.  The depths and the sum go into dep and csum
    when those are given, uint64 arrays of sel's length."""
    lo = sizes.cumsum() - sizes
    dep = comp.depths.take(sel, mode="clip", out=dep)
    if len(resumed):
        dep[lo[resumed]] = carry[resumed]
    csum = dep.cumsum(out=csum)
    base = csum[lo - 1]  # lo[0] - 1 is the last entry: the first run's base is 0
    base[0] = 0
    return dep, csum, lo, base


def _check_k(k: int) -> None:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or not 1 <= k <= MAX_K:
        raise BadExponent(f"k must be an integer in [1, {MAX_K}], got {k!r}")


def emit_block(
    table: FragmentTable, k: int, count: int, stream_key: tuple[int, int]
) -> np.ndarray:
    """One block of `count` edges from the stream named by stream_key.

    stream_key is (seed, block_index).  The accumulators start empty and
    bits left over after the last edge are discarded, so blocks are
    independent of each other and of who generates them.
    """
    _check_k(k)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    seed, block_index = stream_key
    stream = Streams(int(seed), DOMAIN_BLOCK, int(block_index) & MASK64)
    edges, _ = _emit(_compile(table), int(k), np.array([int(count)]), stream)
    return edges


def naive_edge(params: RmatParams, k: int, rng: np.random.Generator) -> Edge:
    """One edge by the plain recursive process: one uniform per level."""
    a, b, c, _ = params.quadrants
    t1, t2, t3 = a, a + b, a + b + c
    u = v = 0
    for _ in range(k):
        r = rng.random()
        digit = int(r >= t1) + int(r >= t2) + int(r >= t3)
        u = (u << 1) | (digit >> 1)
        v = (v << 1) | (digit & 1)
    return Edge(u, v)


#: Edges per vectorized pass of naive_edges; its k uniforms per edge are
#: drawn one pass at a time, in the order one draw would make them.
_NAIVE_CHUNK = 1 << 16


def naive_edges(params: RmatParams, k: int, count: int, seed: int) -> np.ndarray:
    """Bulk form of naive_edge, from the oracle stream keyed by seed."""
    _check_k(k)
    rng = keyed_stream(int(seed), DOMAIN_ORACLE, 0)
    a, b, c, _ = params.quadrants
    t1, t2, t3 = a, a + b, a + b + c
    w = _ONE << np.arange(k - 1, -1, -1, dtype=np.uint64)
    out = np.empty((count, 2), dtype=np.uint64)
    pos = 0
    while pos < count:
        n = min(_NAIVE_CHUNK, count - pos)
        r = rng.random((n, k))
        digit = (r >= t1).view(np.uint8) + (r >= t2).view(np.uint8) + (r >= t3).view(np.uint8)
        out[pos : pos + n, 0] = ((digit >> 1) * w).sum(axis=1)
        out[pos : pos + n, 1] = ((digit & 1) * w).sum(axis=1)
        pos += n
    return out


def _stream_units(count: int, units: Iterable, threads: int) -> Iterator[tuple[np.ndarray, int]]:
    """The (edges, alias samples) that each of `count` emit() units returns, in order.

    Units run on at most one thread per unit and one per core, two per
    thread in flight; threads change who runs a unit, not the bytes.
    """

    def run(emit) -> tuple[np.ndarray, int]:
        out, samples = emit()
        _held.out = out  # the kernel's own output array, not a copy of it
        return out, samples

    workers = max(1, min(threads, count, os.cpu_count() or 1))
    if workers == 1:
        yield from map(run, units)
        return
    from concurrent.futures import ThreadPoolExecutor  # only a run that starts a pool loads it

    with ThreadPoolExecutor(max_workers=workers) as pool:
        # Not pool.map, which submits every unit at once and keeps every result.
        pending: deque = deque()
        for emit in units:
            pending.append(pool.submit(run, emit))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _collect(total: int, units: Iterator[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """A unit stream gathered into one (total, 2) array allocated first, and its samples."""
    edges = np.empty((total, 2), dtype=np.uint64)
    lo = samples = 0
    for out, used in units:
        edges[lo : lo + len(out)] = out
        lo += len(out)
        samples += used
    return edges, samples


def generate_stream(config: GenConfig) -> Iterator[tuple[np.ndarray, int]]:
    """generate_result's (edges, samples), one block at a time; checks the config first."""
    m = config.edge_count
    B = config.block_size
    k = config.params.k
    _check_k(k)
    comp = _compile(config.table)
    units = (
        partial(_emit, comp, k, np.array([min(B, m - lo)]),
                Streams(config.seed, DOMAIN_BLOCK, lo // B))
        for lo in range(0, m, B)
    )
    return _stream_units(-(-m // B), units, config.threads)


def generate_result(config: GenConfig) -> GenResult:
    """Generate config.edge_count edges; returns them with sample counts.

    Output is `generate_stream`'s blocks in order, a pure function of
    (seed, table, k, edge_count, block_size) whatever the thread count.
    """
    return GenResult(*_collect(config.edge_count, generate_stream(config)))


def generate(config: GenConfig) -> np.ndarray:
    """Generate config.edge_count edges as a (m, 2) uint64 array."""
    return generate_result(config).edges
