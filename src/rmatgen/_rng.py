"""Keyed counter-based random streams.

Every random decision in this package comes from a Philox stream keyed by
two 64-bit words: (seed XOR domain constant, payload).  Philox is counter
based, so streams with distinct keys never overlap and any stream can be
constructed in isolation -- a worker can generate block 4093 without first
generating blocks 0..4092.  The domain constants keep the different stream
families (edge blocks, partition-tree nodes, tiles, table perturbation)
apart even when their integer payloads collide.

Building a numpy Generator per stream is slow: Philox first seeds itself
from fresh OS entropy and only then takes the key, about 27 us per
stream on a 2-core x86 host with numpy 2.4.  The hot paths (edge blocks,
tiles, partition-tree nodes) build none.  Each thread keeps one Philox,
its Generator and one state dict, and re-keys them per stream by writing
the key and counter into the dict and assigning it as the bit
generator's state, about 0.5 us on the same host.  One loop walks the
streams of a call, re-keying inline: one state write and one
`random_raw` per stream, and no object per stream.  That loop is the
floor a stream drawn alone pays over the same words drawn as part of
one stream, about 2 us (15,000 streams of 10 to 150 words: 40 ms,
against 8 ms for one draw of all their words):

- `Streams` holds the streams of one unit as arrays (a block is one
  row, a tile batch a row per tile piece): the key payloads, the piece
  indices and each stream's next word to draw.  Piece 0's draws give the
  same words as one draw of the same total from `keyed_stream`, however
  they are cut.  Piece p sits in the second of the counter's four 64-bit
  words, so the pieces of one key are streams that no other piece
  reaches before 2^66 words, and a big tile's pieces can be drawn side
  by side (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
  SC 2011).  The arrays also hold where the kernels stopped in each
  stream's fragments, so a stream's edges can be made in chunks; a slice
  of the rows shares the arrays, so a kernel writes its place through it.
- Resuming at word w sets the counter to (w // 4, piece, 0, 0) with an
  empty buffer and discards w % 4 words, because numpy's Philox steps
  the counter before it fills each 4-word buffer.
- `rekeyed_each` hands out the thread's Generator keyed at the start of
  each of a run of streams in turn, for callers that need its
  distributions (the planner's binomial splits).  Each is valid only
  until the next is asked for.
- The shared Generator and its state dict are thread-local, so the
  threads that fill edge blocks side by side never re-key each other's
  streams.

`keyed_stream` still builds numpy's own Generator for callers that hold a
stream across other work or need floats (the naive oracle, table
perturbation).
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator

import numpy as np

MASK64 = (1 << 64) - 1

DOMAIN_BLOCK = 0x9E3779B97F4A7C15
DOMAIN_NODE = 0xBF58476D1CE4E5B9
DOMAIN_TILE = 0x94D049BB133111EB
DOMAIN_PERTURB = 0xD6E8FEB86659FD93
DOMAIN_ORACLE = 0xFF51AFD7ED558CCD

_local = threading.local()


def _key(seed: int, domain: int, payload: int) -> tuple[int, int]:
    return ((seed ^ domain) & MASK64, payload & MASK64)


def keyed_stream(seed: int, domain: int, payload: int) -> np.random.Generator:
    """A Generator whose stream is a pure function of (seed, domain, payload)."""
    key = np.array(_key(seed, domain, payload), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _philox() -> tuple[np.random.Generator, dict, dict]:
    """This thread's Generator, its Philox state dict and the dict's inner state.

    A re-key writes the counter and key into the inner state and assigns
    the dict as the bit generator's state; its buffer fields never change,
    as the state is only written.
    """
    try:
        return _local.philox
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(0))
        inner = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _local.philox = (gen, state, inner)
        return _local.philox


def rekeyed_each(seed: int, domain: int, payloads: Iterable[int]) -> Iterator[np.random.Generator]:
    """This thread's Generator at the start of each (seed, domain, payload) stream in turn.

    Each one draws what keyed_stream's Generator would, until the next
    is asked for: they are one Generator, re-keyed in place.
    """
    gen, state, inner = _philox()
    bitgen = gen.bit_generator
    seed_word = (seed ^ domain) & MASK64
    for payload in payloads:
        inner["counter"] = (0, 0, 0, 0)
        inner["key"] = (seed_word, payload & MASK64)
        bitgen.state = state
        yield gen


class Streams:
    """The keyed streams of one unit, as arrays: payloads, pieces, pos and carry.

    Row i is the stream keyed (seed XOR domain, payload[i]).  piece is the
    counter's second word: piece p of a key draws the words numpy's Philox
    gives for that key from counter (0, p, 0, 0), and piece 0 is
    `keyed_stream`'s stream.  Between kernel calls, pos and carry say
    where each stream's edges stopped, the same for both kernels: with
    carry 0 the edges end on a fragment boundary and pos is the next
    fragment's word; otherwise the fragment drawn at pos still has its low
    `carry` bits to emit, and the next call on this stream starts with
    them.  A slice of the rows shares these arrays, so what a kernel
    writes through it stays with the unit.
    """

    __slots__ = ("seed_word", "payload", "piece", "pos", "carry")

    def __init__(self, seed: int, domain: int, payload) -> None:
        """Streams of the given payloads, all at piece 0 and word 0."""
        self.seed_word = (seed ^ domain) & MASK64
        self.payload = np.array(payload, dtype=np.uint64, ndmin=1)
        self.piece = np.zeros(len(self.payload), dtype=np.uint64)
        self.pos = np.zeros(len(self.payload), dtype=np.int64)
        self.carry = np.zeros(len(self.payload), dtype=np.int64)

    def __getitem__(self, rows: slice) -> Streams:
        view = object.__new__(Streams)
        view.seed_word = self.seed_word
        view.payload, view.piece, view.pos, view.carry = (
            self.payload[rows], self.piece[rows], self.pos[rows], self.carry[rows])
        return view

    def words(self, sizes: np.ndarray) -> np.ndarray:
        """The next sizes[i] raw 64-bit words of each stream, back to back.

        One loop re-keys this thread's Philox for each stream and draws its
        words with one call; each pos moves past the words drawn.
        """
        gen, state, inner = _philox()
        bitgen = gen.bit_generator
        draw = bitgen.random_raw
        seed_word = self.seed_word
        out = []
        for payload, piece, pos, n in zip(self.payload.tolist(), self.piece.tolist(),
                                          self.pos.tolist(), sizes.tolist()):
            skip = pos & 3
            inner["counter"] = (pos >> 2, piece, 0, 0)
            inner["key"] = (seed_word, payload)
            bitgen.state = state
            out.append(draw(skip + n)[skip:])
        self.pos += sizes
        return out[0] if len(out) == 1 else np.concatenate(out)


def mix64(x: int) -> int:
    """Scalar 64-bit finalizer (splitmix64 output function).

    Used to derive fixed key material, e.g. scramble round constants, from
    a seed. Bijective on 64-bit words.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)
