"""Per-edge postprocessing: mirroring, ID scrambling, duplicate removal.

All three stages are pure functions, so they compose freely with
blockwise or tile-wise generation.  Mirroring, to_undirected and no
other code, canonicalizes an edge into the lower-left triangle; an
undirected stream is mirrored unit by unit ahead of dedup.  Scrambling
applies a seed-determined permutation to vertex IDs, so structural
position no longer correlates with ID value.  Both cost constant work
per edge, and scramble runs its rounds in place on one owned copy, in
uint32 lanes when k <= 32.

Duplicate removal is dedup_stream, the one routine behind dedup_local
and `rmat generate --dedup`: it fills one preallocated array as units
arrive and keeps each edge's first occurrence in stream order, sorting
O(log m) work per edge.  The ids' widths choose the sort.  While both
ids pack into one uint64 key, (u << vbits) | v, _first_keys reduces the
keys: two in-place sorts with the edge's index in the key's low and then
its high bits while both fit one word, an argsort where they do not.
Wider ids keep the rows themselves for _first_rows's stable lexsort.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from ._rng import MASK64, mix64
from .generator import DEFAULT_BLOCK_SIZE

_GOLDEN = 0x9E3779B97F4A7C15


def to_undirected(edges: np.ndarray) -> np.ndarray:
    """Canonicalize each edge into the lower-left triangle: (max, min).

    Idempotent; the diagonal is fixed.
    """
    out = np.empty_like(edges)
    out[:, 0] = np.maximum(edges[:, 0], edges[:, 1])
    out[:, 1] = np.minimum(edges[:, 0], edges[:, 1])
    return out


@dataclass(frozen=True)
class ScrambleKey:
    """Per-(seed, k) key material: four rounds of (multiplier, xor shift, rotation).

    Each round is invertible mod 2^k on its own -- the multiplier is odd,
    the xor-shift distance is in [1, k) (0 marks the round as skipped,
    which only happens at k=1), and rotation permutes bit positions -- so
    the composition is a permutation of [0, 2^k).
    """

    seed: int
    k: int
    round_keys: tuple[tuple[int, int, int], ...]


def make_scramble_key(seed: int, k: int) -> ScrambleKey:
    """Derive scramble rounds from (seed, k) via a 64-bit finalizer chain."""
    if not 1 <= k <= 62:
        raise ValueError(f"k must be in [1, 62], got {k}")
    mask = (1 << k) - 1
    x = mix64((seed & MASK64) ^ mix64(k))
    rounds = []
    for _ in range(4):
        x = mix64((x + _GOLDEN) & MASK64)
        mult = (x & mask) | 1
        x = mix64((x + _GOLDEN) & MASK64)
        xshift = 1 + x % (k - 1) if k > 1 else 0
        x = mix64((x + _GOLDEN) & MASK64)
        rot = x % k
        rounds.append((mult, xshift, rot))
    return ScrambleKey(seed=seed, k=k, round_keys=tuple(rounds))


def scramble(values, key: ScrambleKey):
    """Apply the key's permutation of [0, 2^k) to an int or uint64 array.

    Works on one owned copy, so the caller's array is never written.  For
    k <= 32 the rounds run on uint32 lanes: a product mod 2^32 keeps every
    bit the k-bit mask keeps, and no shift reaches 32.  The result is
    uint64 either way.
    """
    k = key.k
    scalar = not isinstance(values, np.ndarray)
    lane = np.uint32 if k <= 32 else np.uint64
    # owned: the rounds below write it in place
    x = np.asarray(values, dtype=np.uint64).astype(lane)
    tmp = np.empty_like(x)
    mask = lane((1 << k) - 1)
    kk = lane(k)
    for mult, xshift, rot in key.round_keys:
        np.multiply(x, lane(mult), out=x)  # odd multiplier: invertible mod 2^k
        np.bitwise_and(x, mask, out=x)
        if xshift:
            np.right_shift(x, lane(xshift), out=tmp)
            np.bitwise_xor(x, tmp, out=x)
        if rot:
            r = lane(rot)
            np.right_shift(x, kk - r, out=tmp)
            np.left_shift(x, r, out=x)
            np.bitwise_or(x, tmp, out=x)
            np.bitwise_and(x, mask, out=x)
    x = x.astype(np.uint64, copy=False)
    # x[()] turns a 0-d array into a numpy scalar and leaves others whole.
    return int(x) if scalar else x[()]


def scramble_edges(edges: np.ndarray, key: ScrambleKey) -> np.ndarray:
    """Scramble both endpoints of an (m, 2) edge array."""
    return scramble(edges, key)


#: Peak bytes `rmat generate --dedup` holds per generated edge, as the slope
#: of peak RSS from m=2^20 to 2^22 with --undirected --scramble (2-core
#: Xeon, numpy 2.4).  At k=20 one packed key per edge: 52.6 and 77.3 MB,
#: 8 B.  At k=30 the key no longer packs with its index, and the argsort
#: adds its order and a sorted copy: 78.5 and 177.1 MB, 32 B.  At k=40 the
#: rows (16 B) and the lexsort's order and two column buffers (24 B), or
#: later the kept rows and their indices: 95.4 and 224.3 MB, 42 B.  64
#: bounds every path.
DEDUP_BYTES_PER_EDGE = 64

#: Words per pass of _first_keys's index, head and rotation loops, so their
#: temporaries stay a few hundred KB whatever the batch.
_CHUNK = 1 << 15


def _first_keys(keys: np.ndarray, bits: int) -> np.ndarray:
    """The distinct values of a uint64 key array in order of first occurrence.

    Keys lie below 2^bits, and the array is overwritten.  When bits plus
    the bits of an index into it fit in 64, each key becomes one word,
    key << ib | index, and the array is sorted in place: the first word
    of each run of equal keys is then the first occurrence, since the
    index breaks the tie.  The kept words are rotated to index << bits |
    key and sorted again, which puts them back into stream order.  Memory
    is the array itself plus a chunk.  Wider keys take an unstable
    argsort, where np.minimum.reduceat takes the least index of each run.
    """
    n = len(keys)
    ib = max(n - 1, 0).bit_length()
    if bits + ib > 64:
        order = np.argsort(keys)
        run = keys[order]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(run[1:], run[:-1], out=head[1:])
        del run
        first = np.minimum.reduceat(order, np.flatnonzero(head))
        first.sort()
        return keys[first]
    low, wide = np.uint64(ib), np.uint64(bits)
    step = np.arange(_CHUNK, dtype=np.uint64)
    for lo in range(0, n, _CHUNK):
        w = keys[lo : lo + _CHUNK]
        w <<= low
        w |= step[: len(w)] + np.uint64(lo)
    keys.sort()
    kept = 0
    last = None  # the key of the word before this chunk
    for lo in range(0, n, _CHUNK):
        w = keys[lo : lo + _CHUNK]
        key = w >> low
        head = np.empty(len(w), dtype=bool)
        head[0] = lo == 0 or key[0] != last
        np.not_equal(key[1:], key[:-1], out=head[1:])
        last = key[-1]
        w = w[head]
        keys[kept : kept + len(w)] = w  # kept <= lo: never ahead of the read
        kept += len(w)
    keys = keys[:kept]
    idx = np.uint64((1 << ib) - 1)
    for lo in range(0, kept, _CHUNK):
        w = keys[lo : lo + _CHUNK]
        top = (w & idx) << wide
        w >>= low
        w |= top
    keys.sort()
    keys &= np.uint64((1 << bits) - 1)
    return keys


def _first_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, 2) uint64 array in order of first occurrence.

    A stable lexsort starts each run of equal rows at its first occurrence.
    """
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    for col in (0, 1):  # one sorted column at a time
        s = rows[order, col]
        new[1:] |= s[1:] != s[:-1]
        del s
    first = np.sort(order[new])
    del order
    return rows[first]


def dedup_stream(
    units: Iterable[tuple[np.ndarray, int]],
    total: int,
    ubits: int,
    vbits: int,
) -> Iterator[tuple[np.ndarray, int]]:
    """The first occurrence of each edge of a unit stream, in stream order.

    units yields (edges, samples), (n, 2) uint64 edges adding up to total
    rows, or ValueError, with u < 2^ubits and v < 2^vbits.  An undirected
    stream is mapped through to_undirected first.  Each unit goes as it
    arrives into its slice of one array allocated at the first unit: the
    keys (u << vbits) | v for _first_keys while they fit a uint64, else
    the rows for _first_rows, which takes a stream of one unit as it is.
    The kept edges come out in blocks of at most DEFAULT_BLOCK_SIZE, and
    the first block, yielded even when empty, carries every sample the
    input used.
    """
    packed = ubits + vbits <= 64
    shape = total if packed else (total, 2)
    held = None
    lo = samples = 0
    for edges, used in units:
        hi = lo + len(edges)
        if held is None:
            # Rows too wide to pack that come as one unit of all of them are
            # held as they are, so the lexsort's work is all that is added.
            held = edges if not packed and hi == total else np.empty(shape, dtype=np.uint64)
        if packed:
            np.left_shift(edges[:, 0], np.uint64(vbits), out=held[lo:hi])
            held[lo:hi] |= edges[:, 1]
        elif held is not edges:
            held[lo:hi] = edges
        lo = hi
        samples += used
        del edges  # not held while the next unit is made, nor through the sort
    if lo != total:  # the rest of held was never written
        raise ValueError(f"units held {lo} edges, not the {total} declared")
    if held is None:  # a stream of no units
        held = np.empty(shape, dtype=np.uint64)
    held = _first_keys(held, ubits + vbits) if packed else _first_rows(held)
    shift, low = np.uint64(vbits), np.uint64((1 << vbits) - 1)
    for lo in range(0, max(len(held), 1), DEFAULT_BLOCK_SIZE):
        block = held[lo : lo + DEFAULT_BLOCK_SIZE]
        if packed:
            block = np.column_stack((block >> shift, block & low))
        yield block, samples
        samples = 0


def dedup_local(edges: np.ndarray) -> np.ndarray:
    """Drop duplicate edges of one array, keeping first occurrences.

    Order is otherwise preserved, and so is the integer dtype.  The edges
    are dedup_stream's one unit, sized by their largest ids; signed ids
    are compared as their uint64 bit patterns, so negative ones take the
    lexsort.
    """
    ids = edges.view(np.uint64) if edges.dtype.itemsize == 8 else edges.astype(np.uint64)
    ubits, vbits = (int(ids[:, i].max(initial=0)).bit_length() for i in (0, 1))
    kept = [block for block, _ in dedup_stream([(ids, 0)], len(ids), ubits, vbits)]
    return np.concatenate(kept, dtype=edges.dtype, casting="unsafe")
