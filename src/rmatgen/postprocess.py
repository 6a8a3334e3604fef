"""Per-edge postprocessing: mirroring, ID scrambling, duplicate removal.

All three stages are pure functions, so they compose freely with
blockwise or tile-wise generation.  Mirroring canonicalizes an edge into
the lower-left triangle and scrambling applies a seed-determined
permutation to vertex IDs, so structural position no longer correlates
with ID value; both cost constant work per edge, and scramble runs its
rounds in place on one owned copy, in uint32 lanes when k <= 32.
Duplicate removal sorts, O(log m) work per edge over a batch of m edges.
Both ids pack into one uint64 key (_pack_keys), and _first_keys keeps the
first occurrence of each key in stream order.  While the key and an
index into the batch fit one word together, that is two in-place sorts
of the key array and no other array of the batch's size; wider keys
take an argsort.  dedup_local and `rmat generate --dedup` share it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import MASK64, mix64

_GOLDEN = 0x9E3779B97F4A7C15


class EdgeOutsideDeclaredTile(ValueError):
    """An edge endpoint falls outside the tile the batch was declared for."""


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


#: Words per pass of _first_keys's index, head and rotation loops, so their
#: temporaries stay a few hundred KB whatever the batch.
_CHUNK = 1 << 15


def _pack_keys(edges: np.ndarray, shift: int, mirror: bool, out: np.ndarray) -> None:
    """Write (u << shift) | v of each (u, v) row of a uint64 edge array into out.

    With mirror, (u, v) is the canonical (max, min), so the key is that of
    to_undirected's row.  Ids must be below 2^shift for the key to be unique.
    """
    u, v = edges[:, 0], edges[:, 1]
    if mirror:
        u, v = np.maximum(u, v), np.minimum(u, v)
    np.left_shift(u, np.uint64(shift), out=out)
    out |= v


def _unpack_keys(keys: np.ndarray, shift: int, dtype=np.uint64) -> np.ndarray:
    """The (n, 2) edge array whose _pack_keys(..., shift, ...) keys are keys."""
    edges = np.empty((len(keys), 2), dtype=dtype)
    edges[:, 0] = keys >> np.uint64(shift)
    edges[:, 1] = keys & np.uint64((1 << shift) - 1)
    return edges


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


def dedup_local(
    edges: np.ndarray,
    row_range: tuple[int, int] | None = None,
    col_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Drop duplicate edges within one block or tile, keeping first occurrences.

    Order is otherwise preserved.  When both ids of unsigned edges pack
    into one uint64 key, _first_keys finds the first occurrences, the
    same routine `rmat generate --dedup` runs, and the kept rows are
    rebuilt from their keys; wider ids go through a stable lexsort
    instead, where each group starts at its first.

    When row_range/col_range (half-open) are declared, every edge must
    fall inside them; the ranges exist so a caller deduplicating tile by
    tile notices edges that leaked into the wrong batch, which would make
    local dedup unsound globally.
    """
    if row_range is not None and len(edges):
        lo, hi = row_range
        if int(edges[:, 0].min()) < lo or int(edges[:, 0].max()) >= hi:
            raise EdgeOutsideDeclaredTile(f"row outside [{lo}, {hi})")
    if col_range is not None and len(edges):
        lo, hi = col_range
        if int(edges[:, 1].min()) < lo or int(edges[:, 1].max()) >= hi:
            raise EdgeOutsideDeclaredTile(f"col outside [{lo}, {hi})")
    if len(edges) == 0:
        return edges.copy()
    u, v = edges[:, 0], edges[:, 1]
    ubits, vbits = int(u.max()).bit_length(), int(v.max()).bit_length()
    if edges.dtype.kind == "u" and ubits + vbits <= 64:
        keys = np.empty(len(edges), dtype=np.uint64)
        _pack_keys(edges.astype(np.uint64, copy=False), vbits, False, keys)
        return _unpack_keys(_first_keys(keys, ubits + vbits), vbits, edges.dtype)
    order = np.lexsort((v, u))  # stable, so each run of equal pairs starts at its first
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    s = u[order]  # one sorted column at a time
    np.not_equal(s[1:], s[:-1], out=new[1:])
    s = v[order]
    new[1:] |= s[1:] != s[:-1]
    del s
    first = order[new]
    del order
    first.sort()
    return edges[first]
