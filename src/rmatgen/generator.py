"""Edge emission: turning sampled fragments into batches of R-MAT edges.

The emission loop appends each sampled fragment's row and column bits to
a pair of accumulators and extracts an edge whenever k bits have piled
up.  The module-private reference emitter spells out that loop one
fragment at a time around an explicit EdgeEmitState.  Two vectorized
kernels produce the same bytes, and the test suite keeps all three
bit-identical:

- The word-stream kernel serves every table.  It packs the sampled
  fragments into one uint64 bit stream per side (row and column) and cuts
  edge j as the k-bit window at bit j*k, a fixed number of vector
  operations per edge.  It takes a batch of (count, stream) segments and
  emits their edges back to back, which lets the partition module fill
  many small tiles in one call.
- The fixed-depth kernel exploits the periodic alignment of equal-depth
  fragments with edges.  It serves the blocks of fixed-depth tables, where
  it is about twice as fast as the word stream.

`naive_edge` / `naive_edges` implement the textbook one-draw-per-level
generator that serves as the statistical oracle and the performance
baseline.

Every block of edges comes from its own random stream, keyed by
(seed, block_index), so any block can be produced by any thread in any
order with identical results.  One loop, `_run_units`, fills one array
from units with known offsets, in turn or on threads (numpy releases the
GIL): blocks here, and tile batches or distinct tiles in the partition
module.  The kernels take `_rng.Stream` handles, which re-key one Philox
per thread instead of building a Generator per block or tile.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._rng import DOMAIN_BLOCK, DOMAIN_ORACLE, Stream, keyed_stream
from .alias import alias_sample
from .params import MAX_K, BadExponent, RmatParams
from .table import FragmentTable

DEFAULT_BLOCK_SIZE = 1 << 16

#: Widest per-edge fragment window the two-dimensional fixed-depth kernel
#: will materialize; wider windows fall through to the general kernel.
_MAX_WINDOW = 16

_ONE = np.uint64(1)
_SIX = np.uint64(6)
_LOW6 = np.uint64(63)
_MASK32 = np.uint64(0xFFFFFFFF)


class Edge(NamedTuple):
    u: int
    v: int


@dataclass
class EdgeEmitState:
    """Accumulator state of the scalar emission loop.

    row_acc and col_acc hold the not-yet-emitted bits with the oldest
    (first sampled) bits in the most significant positions; acc_len is
    how many bits each holds.  Plain Python ints: a deep fragment landing
    on a nearly full accumulator can push acc_len to k - 1 + max_depth,
    past one machine word.
    """

    row_acc: int = 0
    col_acc: int = 0
    acc_len: int = 0


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
    threshold * 2**32 is a power-of-two scaling and never rounds.
    Indices are intp and bit strings use the narrowest sufficient width,
    keeping the gather stage cache-friendly.
    """

    thr32: np.ndarray
    alias: np.ndarray  # intp
    depths: np.ndarray
    row_bits: np.ndarray
    col_bits: np.ndarray
    packed: np.ndarray | None  # (row_bits << 32) | col_bits when depths fit
    bits: np.ndarray  # (2, size) uint64: row bits over column bits
    size: int
    index_mask: np.uint64 | None  # set when size is a power of two
    fixed_depth: int | None  # set when every entry has the same depth
    mean_depth: float


def _compile(table: FragmentTable) -> _Compiled:
    n = len(table)
    dmin = int(table.depths.min())
    dmax = int(table.depths.max())
    narrow = np.uint16 if dmax <= 16 else np.uint32 if dmax <= 32 else np.uint64
    return _Compiled(
        thr32=np.ceil(table.sampler.threshold * 2.0**32).astype(np.uint64),
        alias=table.sampler.alias.astype(np.intp),
        depths=table.depths,
        row_bits=table.row_bits.astype(narrow),
        col_bits=table.col_bits.astype(narrow),
        packed=(table.row_bits << np.uint64(32)) | table.col_bits if dmax <= 32 else None,
        bits=np.stack([table.row_bits, table.col_bits]).astype(np.uint64),
        size=n,
        index_mask=np.uint64(n - 1) if n & (n - 1) == 0 else None,
        fixed_depth=dmin if dmin == dmax else None,
        mean_depth=table.mean_depth,
    )


def _select(comp: _Compiled, raw: np.ndarray) -> np.ndarray:
    # One 64-bit word per sample: high half picks the bucket, low half is
    # the acceptance fraction.
    idx = raw >> np.uint64(32)
    if comp.index_mask is not None:
        idx &= comp.index_mask
    else:
        idx %= np.uint64(comp.size)
    idx = idx.astype(np.intp)
    return np.where((raw & _MASK32) < comp.thr32[idx], idx, comp.alias[idx])


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


def _emit_fixed(comp: _Compiled, k: int, count: int, stream: Stream) -> tuple[np.ndarray, int]:
    """Kernel for tables where every fragment has the same depth.

    Geometry is periodic, so the block is reshaped into rows of ge edges
    fed by gf fragments, and every piece becomes one scalar shift-and-mask
    over a contiguous fragment column.  No per-element index arithmetic
    survives into the hot loop.
    """
    l = comp.fixed_depth
    assert l is not None
    ge, gf, plan = _fixed_plan(k, l)
    nsuper = (count + ge - 1) // ge
    nf = (count * k + l - 1) // l  # minimal cover; the pad words below
    sel = _select(comp, stream.words(nsuper * gf))  # are never observable

    if comp.packed is not None and k <= 32:
        # Row bits ride in the high 32-bit lane and column bits in the low
        # lane of one word.  Drop and place shifts are identical for the
        # two sides of a piece, so one shift-mask-or serves both; bits
        # bleeding across the lane boundary are removed by the mask.
        frag = comp.packed[sel].reshape(nsuper, gf).T.copy()
        out = np.empty((nsuper, ge), dtype=np.uint64)
        for j, pieces in enumerate(plan):
            c, s, mask = pieces[0]
            m = np.uint64((mask << 32) | mask)
            sh = np.uint64(abs(s))
            acc = ((frag[c] << sh) if s >= 0 else (frag[c] >> sh)) & m
            for c, s, mask in pieces[1:]:
                m = np.uint64((mask << 32) | mask)
                sh = np.uint64(abs(s))
                acc |= ((frag[c] << sh) if s >= 0 else (frag[c] >> sh)) & m
            out[:, j] = acc
        flat = out.reshape(-1)[:count]
        edges = np.empty((count, 2), dtype=np.uint64)
        edges[:, 0] = flat >> np.uint64(32)
        edges[:, 1] = flat & _MASK32
        return edges, nf

    # One gather per fragment, then transpose so each of the gf fragment
    # columns is contiguous; widening to uint64 rides along for free.
    rows = comp.row_bits[sel].reshape(nsuper, gf).T.astype(np.uint64)
    cols = comp.col_bits[sel].reshape(nsuper, gf).T.astype(np.uint64)

    u = np.empty((nsuper, ge), dtype=np.uint64)
    v = np.empty((nsuper, ge), dtype=np.uint64)
    for j, pieces in enumerate(plan):
        c, s, mask = pieces[0]
        m = np.uint64(mask)
        sh = np.uint64(abs(s))
        acc_u = ((rows[c] << sh) if s >= 0 else (rows[c] >> sh)) & m
        acc_v = ((cols[c] << sh) if s >= 0 else (cols[c] >> sh)) & m
        for c, s, mask in pieces[1:]:
            m = np.uint64(mask)
            sh = np.uint64(abs(s))
            acc_u |= ((rows[c] << sh) if s >= 0 else (rows[c] >> sh)) & m
            acc_v |= ((cols[c] << sh) if s >= 0 else (cols[c] >> sh)) & m
        u[:, j] = acc_u
        v[:, j] = acc_v

    edges = np.empty((count, 2), dtype=np.uint64)
    edges[:, 0] = u.reshape(-1)[:count]
    edges[:, 1] = v.reshape(-1)[:count]
    return edges, nf


def _emit_general(
    comp: _Compiled, k: int, segments: list[tuple[int, Stream]]
) -> tuple[np.ndarray, int]:
    """Word-stream kernel for arbitrary (variable-depth) tables.

    segments lists (count, stream) pairs whose edges come out back to
    back.  Each segment samples fragments from its own stream until their
    depths cover count*k bits, and its last fragment is clamped to end
    exactly there.  The used fragments of all segments thus form one bit
    stream, packed most significant bit first into uint64 words (a row
    word and a column word per 64 bits), and edge j is the k-bit window at
    bit j*k.  Returns the edges and the number of samples they used.
    """
    needs = np.array([count * k for count, _ in segments], dtype=np.uint64)
    sel, csum, lo, base = _cover(comp, needs, [stream for _, stream in segments])

    # A segment's last fragment is the first whose end reaches its base
    # plus its need; the bits past that point, and later draws, go unused.
    reach = base + needs
    last = np.searchsorted(csum, reach)
    nfs = last - lo + 1
    if len(segments) == 1:
        used = sel[: nfs[0]]
        end = csum[: nfs[0]].copy()
    else:
        marks = np.zeros(len(sel) + 1, dtype=np.int8)
        marks[lo] = 1
        marks[last + 1] -= 1
        keep = np.cumsum(marks[:-1]) > 0
        used = sel[keep]
        # Rebase each segment's depth sums to where its bits start in the
        # joint stream.
        end = csum[keep] - np.repeat(base - (np.cumsum(needs) - needs), nfs)
    tail = np.cumsum(nfs) - 1
    cut = csum[last] - reach
    end[tail] -= cut
    vals = np.take(comp.bits, used, axis=1)
    vals[:, tail] >>= cut

    # Shift each fragment so its last bit lands at its place in the word
    # that holds it, and OR each run of fragments ending in one word into
    # that word.  Fragments are at most 62 bits deep, so every word holds
    # at least one fragment end, and only the first fragment ending in a
    # word can start in the previous one: its spill is ORed in afterwards.
    shift = -end & _LOW6
    word = (end - _ONE) >> _SIX
    first = np.flatnonzero(word[1:] != word[:-1]) + 1
    spill = (np.take(vals, first, axis=1) >> _ONE) >> (_LOW6 - shift[first])
    vals <<= shift
    words = np.bitwise_or.reduceat(vals, np.concatenate(([0], first)), axis=1)
    words[:, :-1] |= spill

    # Edge j is the top k of the 128 bits of words w and w+1 from offset
    # off; when it ends inside word w, word w+1 is shifted out entirely.
    pos = np.arange(int(needs.sum()) // k, dtype=np.uint64) * np.uint64(k)
    w = (pos >> _SIX).astype(np.intp)
    off = pos & _LOW6
    left = np.take(words, w, axis=1)
    right = np.take(words, w + 1, axis=1, mode="clip")
    left <<= off
    right >>= _ONE
    right >>= _LOW6 - off
    left |= right
    edges = np.empty((len(pos), 2), dtype=np.uint64)
    np.right_shift(left, np.uint64(64 - k), out=edges.T)
    return edges, int(nfs.sum())


def _cover(
    comp: _Compiled, needs: np.ndarray, streams: list[Stream]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fragments whose depths cover needs[i] bits from each of the streams.

    Returns the selected entries of all streams back to back, the running
    sum of their depths, and for each stream the index of its first entry
    and the depth sum before it.  A stream is drawn in the sizes of its own
    estimate and top-ups, so one that is drawn from again later sees the
    same words however the streams were batched.
    """

    def want(short: int) -> int:
        # Overshooting the estimate is harmless: the random stream is
        # counter-based, so unused tail words never influence anything.
        return int(short / comp.mean_depth * 1.05) + 16

    draws = [stream.words(want(int(need))) for need, stream in zip(needs, streams)]
    sel = _select(comp, draws[0] if len(draws) == 1 else np.concatenate(draws))
    sizes = np.array([len(x) for x in draws])
    csum = np.cumsum(comp.depths[sel])
    lo, base = _run_starts(csum, sizes)
    short = [int(n) - int(c - b) for n, c, b in zip(needs, csum[lo + sizes - 1], base)]
    if max(short) <= 0:
        return sel, csum, lo, base
    runs = np.split(sel, lo[1:])
    for i, stream in enumerate(streams):
        while short[i] > 0:
            more = _select(comp, stream.words(want(short[i])))
            runs[i] = np.concatenate([runs[i], more])
            short[i] -= int(comp.depths[more].sum())
    sel = np.concatenate(runs)
    csum = np.cumsum(comp.depths[sel])
    return sel, csum, *_run_starts(csum, np.array([len(x) for x in runs]))


def _run_starts(csum: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index of each run of `sizes` entries, and csum just before it."""
    lo = np.cumsum(sizes) - sizes
    base = np.zeros(len(sizes), dtype=np.uint64)
    base[1:] = csum[lo[1:] - 1]
    return lo, base


def _emit(comp: _Compiled, k: int, count: int, stream: Stream) -> tuple[np.ndarray, int]:
    if count == 0:
        return np.empty((0, 2), dtype=np.uint64), 0
    if comp.fixed_depth is not None and (k - 1) // comp.fixed_depth + 2 <= _MAX_WINDOW:
        return _emit_fixed(comp, k, count, stream)
    return _emit_general(comp, k, [(count, stream)])


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
    stream = Stream(int(seed), DOMAIN_BLOCK, int(block_index))
    edges, _ = _emit(_compile(table), int(k), int(count), stream)
    return edges


def _emit_reference(
    table: FragmentTable, k: int, count: int, stream_key: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """Scalar mirror of emit_block, one fragment at a time.

    Consumes the identical word stream and must produce bit-identical
    edges; it exists so the vectorized kernels have something honest to
    be compared against.  It draws from numpy's own keyed Generator, so
    the comparison also checks the kernels' re-keyed Stream handles.
    """
    seed, block_index = stream_key
    gen = keyed_stream(int(seed), DOMAIN_BLOCK, int(block_index))
    n = len(table)
    out = np.empty((count, 2), dtype=np.uint64)
    st = EdgeEmitState()
    emitted = 0
    samples = 0
    while emitted < count:
        w = int(gen.bit_generator.random_raw())
        e = int(alias_sample(table.sampler, ((w >> 32) % n, (w & 0xFFFFFFFF) * 2.0**-32)))
        samples += 1
        d = int(table.depths[e])
        st.row_acc = (st.row_acc << d) | int(table.row_bits[e])
        st.col_acc = (st.col_acc << d) | int(table.col_bits[e])
        st.acc_len += d
        while st.acc_len >= k and emitted < count:
            over = st.acc_len - k
            out[emitted, 0] = (st.row_acc >> over) & ((1 << k) - 1)
            out[emitted, 1] = (st.col_acc >> over) & ((1 << k) - 1)
            st.row_acc &= (1 << over) - 1
            st.col_acc &= (1 << over) - 1
            st.acc_len = over
            emitted += 1
    return out, samples


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


def naive_edges(
    params: RmatParams,
    k: int,
    count: int,
    rng: np.random.Generator | int,
    chunk: int = 1 << 16,
) -> np.ndarray:
    """Bulk form of naive_edge, vectorized in chunks of `chunk` edges."""
    _check_k(k)
    if isinstance(rng, (int, np.integer)):
        rng = keyed_stream(int(rng), DOMAIN_ORACLE, 0)
    a, b, c, _ = params.quadrants
    t1, t2, t3 = a, a + b, a + b + c
    w = _ONE << np.arange(k - 1, -1, -1, dtype=np.uint64)
    out = np.empty((count, 2), dtype=np.uint64)
    pos = 0
    while pos < count:
        n = min(chunk, count - pos)
        r = rng.random((n, k))
        digit = (r >= t1).view(np.uint8) + (r >= t2).view(np.uint8) + (r >= t3).view(np.uint8)
        out[pos : pos + n, 0] = ((digit >> 1) * w).sum(axis=1)
        out[pos : pos + n, 1] = ((digit & 1) * w).sum(axis=1)
        pos += n
    return out


def _run_units(total: int, units: Iterable, threads: int) -> tuple[np.ndarray, int]:
    """One (total, 2) array filled from (offset, emit) units, and their samples.

    emit() returns a unit's edges, which land from row offset on, and the
    alias samples they used.  The units run on at most one thread per unit
    and one per core; threads change who runs a unit, not the bytes.  A
    lazy `units` is listed only once the array is allocated, so a total
    too large to hold fails before any unit is built.
    """
    edges = np.empty((total, 2), dtype=np.uint64)
    units = list(units)
    last = threading.local()

    def run(unit) -> int:
        lo, emit = unit
        out, samples = emit()
        edges[lo : lo + len(out)] = out
        # Each thread keeps its last unit until it has emitted the next, so
        # that glibc's malloc does not hand the top of the heap back to the
        # OS after every unit: `rmat generate -k 20 -m 8388608` then took
        # 455k page faults instead of 7.6k, and 1.65x the time.  So emit()
        # returns its kernel's own output array, not a copy of it.
        last.out = out
        return samples

    workers = max(1, min(threads, len(units), os.cpu_count() or 1))
    if workers == 1:
        return edges, sum(map(run, units))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return edges, sum(pool.map(run, units))


def generate_result(config: GenConfig) -> GenResult:
    """Generate config.edge_count edges; returns them with sample counts.

    Output is in block-major order and is a pure function of
    (seed, table, k, edge_count, block_size).  Each block is one unit of
    `_run_units`, so the thread count never changes the bytes.  The units
    are a generator, listed only after the output is allocated.
    """
    m = config.edge_count
    B = config.block_size
    k = config.params.k
    _check_k(k)
    comp = _compile(config.table)
    units = (
        (lo, partial(_emit, comp, k, min(B, m - lo), Stream(config.seed, DOMAIN_BLOCK, lo // B)))
        for lo in range(0, m, B)
    )
    return GenResult(*_run_units(m, units, config.threads))


def generate(config: GenConfig) -> np.ndarray:
    """Generate config.edge_count edges as a (m, 2) uint64 array."""
    return generate_result(config).edges
