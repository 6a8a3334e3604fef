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
generator's state, about 1 us on the same host.  With the draw's own
call overhead, a stream drawn alone costs about 4-5 us more than the
same words drawn as part of one stream (14,760 streams of 10 to 400
words: 90 ms, against 16-26 ms for one draw of all their words):

- A `Stream` is the handle the kernels take: the stream's key, a piece
  index and the offset of the next word to draw.  Piece 0's draws give
  the same words as one draw of the same total from `keyed_stream`,
  however they are cut.  Piece p sits in the second of the counter's
  four 64-bit words, so the pieces of one key are streams that no other
  piece reaches before 2^66 words, and a big tile's pieces can be drawn
  side by side (Salmon et al., "Parallel random numbers: as easy as 1,
  2, 3", SC 2011).  A stream also holds where the kernels stopped in
  its fragments, so one stream's edges can be made in chunks.
- Resuming at word w sets the counter to (w // 4, piece, 0, 0) with an
  empty buffer and discards w % 4 words, because numpy's Philox steps
  the counter before it fills each 4-word buffer.
- `rekeyed` hands out the thread's Generator keyed at the start of a
  stream, for callers that need its distributions (binomial splits).  It
  is valid only until the thread's next re-key.
- The shared Generator and its state dict are thread-local, so the
  threads that fill edge blocks side by side never re-key each other's
  streams.

`keyed_stream` still builds numpy's own Generator for callers that hold a
stream across other work or need floats (the naive oracle, table
perturbation).
"""

from __future__ import annotations

import threading

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


def _shared(key: tuple[int, int], counter: int, piece: int = 0) -> np.random.Generator:
    """This thread's Generator, keyed to `key` with `counter` buffers of `piece` drawn.

    Each re-key writes the counter and key into the thread's one state
    dict; its buffer fields never change, as the state is only written.
    """
    try:
        gen, state, inner = _local.philox
    except AttributeError:
        gen = np.random.Generator(np.random.Philox(0))
        inner = {"counter": (0, 0, 0, 0), "key": (0, 0)}
        state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
                 "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _local.philox = (gen, state, inner)
    inner["counter"] = (counter, piece, 0, 0)
    inner["key"] = key
    gen.bit_generator.state = state
    return gen


def rekeyed(seed: int, domain: int, payload: int) -> np.random.Generator:
    """This thread's Generator at the start of the (seed, domain, payload) stream.

    It draws what keyed_stream's Generator would, but it is shared: the
    next re-key in this thread moves it to another stream.
    """
    return _shared(_key(seed, domain, payload), 0)


class Stream:
    """Handle on one keyed stream: its Philox key, piece and next word to draw.

    piece is the counter's second word: piece p of a key draws the words
    numpy's Philox gives for that key from counter (0, p, 0, 0), and piece
    0 is `keyed_stream`'s stream.  Between kernel calls, pos and carry
    say where the stream's edges stopped, the same for both kernels: with
    carry 0 the edges end on a fragment boundary and pos is the next
    fragment's word; otherwise the fragment drawn at pos still has its low
    `carry` bits to emit, and the next call on this stream starts with
    them.
    """

    __slots__ = ("key", "piece", "pos", "carry")

    def __init__(self, seed: int, domain: int, payload: int, piece: int = 0) -> None:
        self.key = _key(seed, domain, payload)
        self.piece = piece
        self.pos = 0
        self.carry = 0

    def words(self, n: int) -> np.ndarray:
        """The next n raw 64-bit words of the stream."""
        skip = self.pos & 3
        raw = _shared(self.key, self.pos >> 2, self.piece).bit_generator.random_raw(skip + n)
        self.pos += n
        return raw[skip:]


def mix64(x: int) -> int:
    """Scalar 64-bit finalizer (splitmix64 output function).

    Used to derive fixed key material, e.g. scramble round constants, from
    a seed. Bijective on 64-bit words.
    """
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)
