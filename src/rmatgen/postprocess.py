"""Per-edge postprocessing: mirroring, ID scrambling, duplicate removal.

All three stages are pure functions, so they compose freely with
blockwise or tile-wise generation.  Mirroring canonicalizes an edge into
the lower-left triangle and scrambling applies a seed-determined
permutation to vertex IDs, so structural position no longer correlates
with ID value; both cost constant work per edge, and scramble runs its
rounds in place on one owned copy.  dedup_local removes repeats within
one block or tile by sorting, O(log m) work per edge over a batch of m
edges: when both ids pack into one uint64 key, an unstable argsort groups
equal keys and the least original index in each group is its first
occurrence, so the result does not depend on the sort being stable.
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

    Works on one owned copy, so the caller's array is never written.
    """
    k = key.k
    scalar = not isinstance(values, np.ndarray)
    x = np.array(values, dtype=np.uint64)  # owned: the rounds below write it in place
    tmp = np.empty_like(x)
    mask = np.uint64((1 << k) - 1)
    kk = np.uint64(k)
    for mult, xshift, rot in key.round_keys:
        np.multiply(x, np.uint64(mult), out=x)  # odd multiplier: invertible mod 2^k
        np.bitwise_and(x, mask, out=x)
        if xshift:
            np.right_shift(x, np.uint64(xshift), out=tmp)
            np.bitwise_xor(x, tmp, out=x)
        if rot:
            r = np.uint64(rot)
            np.right_shift(x, kk - r, out=tmp)
            np.left_shift(x, r, out=x)
            np.bitwise_or(x, tmp, out=x)
            np.bitwise_and(x, mask, out=x)
    # x[()] turns a 0-d array into a numpy scalar and leaves others whole.
    return int(x) if scalar else x[()]


def scramble_edges(edges: np.ndarray, key: ScrambleKey) -> np.ndarray:
    """Scramble both endpoints of an (m, 2) edge array."""
    return scramble(edges, key)


def dedup_local(
    edges: np.ndarray,
    row_range: tuple[int, int] | None = None,
    col_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Drop duplicate edges within one block or tile, keeping first occurrences.

    Order is otherwise preserved.  When both ids pack into one uint64 key,
    an unstable argsort groups equal keys and np.minimum.reduceat takes
    the least original index of each group, which is its first occurrence
    in whatever order the sort left the group; wider ids go through a
    stable lexsort instead, where each group starts at its first.

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
    vbits = int(v.max()).bit_length()
    if edges.dtype.kind == "u" and int(u.max()).bit_length() + vbits <= 64:
        # Both ids fit one uint64 key.  An unstable sort is several times
        # faster than a stable one, and reduceat does not need stability.
        key = (u.astype(np.uint64, copy=False) << np.uint64(vbits)) | v
        order = np.argsort(key)
        key = key[order]
        head = np.empty(len(key), dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        first = np.minimum.reduceat(order, np.flatnonzero(head))
    else:
        order = np.lexsort((v, u))  # stable, so each run of equal pairs starts at its first
        su, sv = u[order], v[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
        first = order[new]
    first.sort()
    return edges[first]
