"""Re-keyed stream arrays against numpy's own keyed Generators."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from rmatgen import (
    GenConfig,
    default_plan,
    generate_part,
    generate_result,
    split_quadrant_counts,
)
from rmatgen._rng import (
    DOMAIN_BLOCK,
    DOMAIN_NODE,
    DOMAIN_ORACLE,
    DOMAIN_PERTURB,
    DOMAIN_TILE,
    Streams,
    keyed_stream,
)
from conftest import SKEWED, UNIFORM, params_for, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)
DOMAINS = (DOMAIN_BLOCK, DOMAIN_NODE, DOMAIN_TILE, DOMAIN_PERTURB, DOMAIN_ORACLE)


def test_stream_pieces_equal_one_keyed_draw():
    # Cuts at random points, repeated cuts giving zero-length pieces; the
    # rows of one array are drawn together, so the shared Philox is
    # re-keyed between every row's piece, and a slice of the rows draws
    # through to the array's pos.
    rng = np.random.default_rng(2024)
    unaligned = 0
    for trial in range(400):
        seed, domain = int(rng.integers(0, 2**64, dtype=np.uint64)), DOMAINS[trial % 5]
        payloads = rng.integers(0, 2**64, size=3, dtype=np.uint64)
        totals = rng.integers(0, 120, size=3)
        cuts = [np.sort(rng.integers(0, n + 1, size=int(rng.integers(0, 9)))) for n in totals]
        bounds = [list(zip([0, *c], [*c, n])) for c, n in zip(cuts, totals)]
        streams = Streams(seed, domain, payloads)
        pieces: list[list[np.ndarray]] = [[], [], []]
        for step in range(max(len(b) for b in bounds)):
            sizes = np.array([b[step][1] - b[step][0] if step < len(b) else 0 for b in bounds])
            unaligned += int((streams.pos % 4 != 0).sum())
            rows = slice(None) if step % 2 else slice(1, 3)
            if step % 2 == 0:
                pieces[0].append(streams[:1].words(sizes[:1]))
            words = streams[rows].words(sizes[rows])
            for i, n in zip(range(3)[rows], np.cumsum(sizes[rows]).tolist()):
                pieces[i].append(words[n - sizes[i] : n])
        assert streams.pos.tolist() == totals.tolist()
        for payload, n, got in zip(payloads.tolist(), totals.tolist(), pieces):
            want = keyed_stream(seed, domain, payload).bit_generator.random_raw(n)
            assert np.array_equal(np.concatenate(got), want)
    assert unaligned > 500


def test_stream_piece_draws_from_the_counter_second_word():
    # Piece p of a key is numpy's Philox under that key from counter
    # (0, p, 0, 0), however its draws are cut, with the pieces of one key
    # as the rows of one array, so the shared Philox is re-keyed between
    # every row.
    rng = np.random.default_rng(16)
    pieces = (0, 1, 2, 9, 2**32, 2**64 - 1)
    for trial in range(60):
        key = (int(rng.integers(0, 2**64, dtype=np.uint64)), DOMAINS[trial % 5],
               int(rng.integers(0, 2**64, dtype=np.uint64)))
        streams = Streams(key[0], key[1], [key[2]] * len(pieces))
        streams.piece[:] = pieces
        totals = rng.integers(0, 90, size=len(pieces))
        got: list[list[np.ndarray]] = [[] for _ in pieces]
        while (streams.pos < totals).any():
            sizes = np.minimum(rng.integers(0, 7, size=len(pieces)), totals - streams.pos)
            words = streams.words(sizes)
            for out, n, size in zip(got, np.cumsum(sizes).tolist(), sizes.tolist()):
                out.append(words[n - size : n])
        philox_key = keyed_stream(*key).bit_generator.state["state"]["key"]
        for p, n, out in zip(pieces, totals.tolist(), got):
            counter = np.array([0, p, 0, 0], dtype=np.uint64)
            want = np.random.Philox(key=philox_key, counter=counter).random_raw(n)
            assert np.array_equal(np.concatenate(out), want)
        assert np.array_equal(np.concatenate(got[0]),
                              keyed_stream(*key).bit_generator.random_raw(totals[0]))


def _split_oracle(count, params, node_key):
    # The split as it was written against a fresh Generator per node.
    if count == 0:
        return (0, 0, 0, 0)
    gen = keyed_stream(node_key[0], DOMAIN_NODE, node_key[1])
    a, b, c, d = params.quadrants
    n_a = int(gen.binomial(count, a))
    rest = count - n_a
    n_b = int(gen.binomial(rest, b / (b + c + d)))
    rest -= n_b
    n_c = int(gen.binomial(rest, c / (c + d)))
    return (n_a, n_b, n_c, rest - n_c)


def test_split_matches_fresh_generator_per_node():
    # Counts 0 and 1, small ones on numpy's inversion path (n * p <= 30)
    # and large ones on BTPE, each run of equal counts one node after
    # another so the Generator's cached binomial setup is reused.
    rng = np.random.default_rng(7)
    models = [params_for(q, 20) for q in (G500, UNIFORM, SKEWED)]
    counts = [0, 1, 2, 5, 17, 40, 100_001, 250_000, 4_000_000, 10**9]
    nodes = 0
    for step in range(300):
        count = counts[step % len(counts)]
        params = models[step % len(models)]
        for _ in range(int(rng.integers(1, 15))):
            key = (int(rng.integers(0, 2**63)), int(rng.integers(1, 2**63)))
            got = split_quadrant_counts(count, params, key)
            assert got == _split_oracle(count, params, key)
            assert sum(got) == count
            nodes += 1
        # A kernel-style draw in between moves the shared Philox elsewhere.
        Streams(step, DOMAIN_TILE, step).words(np.array([step % 7]))
    assert nodes >= 2000


def _part_bytes(seed):
    k = 14
    plan = default_plan(k=k, t=6, m=150_000, seed=seed, parts=2)
    edges, _, used = generate_part(plan, params_for(G500, k), variable_table(G500, k, 253))
    return edges.tobytes(), used


def _result_bytes(seed):
    k = 16
    config = GenConfig(params=params_for(G500, k), table=variable_table(G500, k, 253),
                       edge_count=600_000, seed=seed)
    res = generate_result(config)
    return res.edges.tobytes(), res.samples_consumed


def test_concurrent_threads_match_serial_runs():
    # Each thread re-keys its own Philox; a shared one would be re-keyed
    # by the other thread between a re-key and its draw.
    serial = (_part_bytes(41), _result_bytes(42))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(3):
                part = pool.submit(_part_bytes, 41)
                result = pool.submit(_result_bytes, 42)
                assert (part.result(timeout=120), result.result(timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_philox_constructions_do_not_grow_with_tiles(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(threading.get_ident())
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    keyed_stream(1, DOMAIN_BLOCK, 0)
    assert len(built) == 1  # the patch sees the package's constructions

    k = 14
    params = params_for(G500, k)
    table = variable_table(G500, k, 253)

    def run(m):
        # A fresh thread starts without a shared Philox of its own.
        built.clear()
        with ThreadPoolExecutor(max_workers=1) as pool:
            _, tiles, _ = pool.submit(
                generate_part, default_plan(k=k, t=6, m=m, seed=4), params, table
            ).result(timeout=120)
        return sum(1 for tc in tiles if tc.count), len(built)

    small = run(50_000)
    large = run(200_000)
    assert 2000 < small[0] < large[0]
    assert small[1] == large[1] <= 2
