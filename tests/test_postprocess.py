import hashlib
import tracemalloc

import numpy as np
import pytest

from rmatgen import (
    DEFAULT_BLOCK_SIZE,
    cell_histogram,
    chi_square,
    dedup_local,
    dedup_stream,
    degree_stats,
    emit_block,
    exact_cell_probs,
    make_scramble_key,
    naive_edges,
    scramble,
    scramble_edges,
    to_undirected,
)
from rmatgen.postprocess import _first_keys
from conftest import params_for, spy_dedup_sorts, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


def edges_of(*pairs):
    return np.array(pairs, dtype=np.uint64).reshape(-1, 2)


# ---------------------------------------------------------------- undirected


def test_to_undirected_swaps_into_lower_triangle():
    out = to_undirected(edges_of((3, 7)))
    assert out.tolist() == [[7, 3]]


def test_to_undirected_diagonal_fixed_point():
    out = to_undirected(edges_of((5, 5)))
    assert out.tolist() == [[5, 5]]


def test_to_undirected_idempotent():
    rng = np.random.default_rng(5)
    edges = rng.integers(0, 1 << 20, size=(5000, 2), dtype=np.uint64)
    once = to_undirected(edges)
    assert np.array_equal(to_undirected(once), once)
    assert np.all(once[:, 0] >= once[:, 1])


def test_to_undirected_preserves_shape_and_dtype():
    edges = edges_of((1, 2), (9, 4))
    out = to_undirected(edges)
    assert out.shape == edges.shape
    assert out.dtype == edges.dtype
    # input untouched
    assert edges.tolist() == [[1, 2], [9, 4]]


def test_canonicalized_fast_matches_oracle_when_symmetric():
    # with b = c the distribution over unordered pairs is well defined;
    # fold the exact cell probabilities into the lower triangle and test
    # both generators against the same folded vector
    k, m = 3, 10**6
    params = params_for(G500, k)
    probs = exact_cell_probs(params, k).reshape(1 << k, 1 << k)
    iu, iv = np.tril_indices(1 << k)
    folded = np.where(iu == iv, probs[iu, iv], probs[iu, iv] + probs[iv, iu])
    assert float(folded.sum()) == pytest.approx(1.0, abs=1e-12)

    table = variable_table(G500, k, 253)
    for edges in (
        emit_block(table, k, m, (77, 0)),
        naive_edges(params, k, m, 77),
    ):
        canon = to_undirected(edges)
        counts = cell_histogram(canon, k).counts.reshape(1 << k, 1 << k)
        result = chi_square(counts[iu, iv], folded)
        assert result.passed, f"stat={result.statistic:.1f} thr={result.threshold:.1f}"


# ------------------------------------------------------------------ scramble


@pytest.mark.parametrize("k", [1, 2, 5, 11, 16])
def test_scramble_is_permutation(k):
    key = make_scramble_key(123, k)
    image = scramble(np.arange(1 << k, dtype=np.uint64), key)
    assert len(np.unique(image)) == 1 << k
    assert int(image.max()) == (1 << k) - 1


def test_scramble_k1_maps_onto_bits():
    for seed in range(8):
        key = make_scramble_key(seed, 1)
        assert sorted(scramble(np.arange(2, dtype=np.uint64), key).tolist()) == [0, 1]


def test_scramble_scalar_matches_vector():
    key = make_scramble_key(9, 13)
    values = np.arange(0, 1 << 13, 11, dtype=np.uint64)
    vec = scramble(values, key)
    for v, s in zip(values.tolist(), vec.tolist()):
        assert scramble(int(v), key) == s
        assert isinstance(scramble(int(v), key), int)


def test_scramble_injective_at_full_width():
    # cannot enumerate 2^62; injectivity on a large random sample
    rng = np.random.default_rng(3)
    values = rng.integers(0, 1 << 62, size=10**7, dtype=np.uint64)
    values = np.unique(values)
    key = make_scramble_key(41, 62)
    assert len(np.unique(scramble(values, key))) == len(values)


def test_scramble_deterministic_in_seed_and_k():
    assert make_scramble_key(7, 20) == make_scramble_key(7, 20)
    a = scramble(np.arange(1 << 10, dtype=np.uint64), make_scramble_key(7, 10))
    b = scramble(np.arange(1 << 10, dtype=np.uint64), make_scramble_key(8, 10))
    assert np.any(a != b)


@pytest.mark.parametrize("k", [0, 63, -1])
def test_scramble_key_rejects_bad_width(k):
    with pytest.raises(ValueError):
        make_scramble_key(1, k)


def test_scramble_preserves_degree_multiset():
    # relabeling nodes permutes who has each degree, never the degrees
    k, m = 20, 10**6
    edges = emit_block(variable_table(G500, k, 1021), k, m, (6, 0))
    key = make_scramble_key(99, k)
    before = degree_stats(edges, k)
    after = degree_stats(scramble_edges(edges, key), k)
    assert np.array_equal(before.degrees, after.degrees)
    assert np.array_equal(before.node_counts, after.node_counts)
    assert before.max_degree == after.max_degree
    assert before.isolated == after.isolated


def test_scramble_edges_preserves_count():
    k = 8
    edges = emit_block(variable_table(G500, k, 253), k, 4096, (2, 0))
    out = scramble_edges(edges, make_scramble_key(5, k))
    assert out.shape == edges.shape
    assert int(out.max()) < 1 << k


# --------------------------------------------------------------------- dedup


def test_dedup_drops_later_duplicates():
    out = dedup_local(edges_of((1, 2), (1, 2), (3, 4)))
    assert out.tolist() == [[1, 2], [3, 4]]


def test_dedup_empty():
    out = dedup_local(np.empty((0, 2), dtype=np.uint64))
    assert out.shape == (0, 2)


def test_dedup_keeps_first_occurrence_order():
    out = dedup_local(edges_of((5, 1), (2, 2), (5, 1), (0, 9), (2, 2)))
    assert out.tolist() == [[5, 1], [2, 2], [0, 9]]


def test_dedup_matches_sort_and_scan_oracle():
    k, m = 8, 10**5
    edges = emit_block(variable_table(G500, k, 253), k, m, (13, 0))
    got = dedup_local(edges)

    seen = {}
    for i, (u, v) in enumerate(edges.tolist()):
        seen.setdefault((u, v), i)
    order = sorted(seen.values())
    expect = edges[order]

    assert np.array_equal(got, expect)
    # no pair appears twice afterwards
    cells = (got[:, 0] << np.uint64(k)) | got[:, 1]
    assert len(np.unique(cells)) == len(cells)


def test_dedup_within_declared_tile():
    # The edges of one tile (rows [4, 6), cols [8, 10)), deduplicated on their own.
    edges = edges_of((4, 9), (4, 9), (5, 8))
    out = dedup_local(edges)
    assert out.tolist() == [[4, 9], [5, 8]]


def test_dedup_empty_with_ranges_is_fine():
    # A row range that holds none of a batch's edges cuts an empty tile.
    edges = edges_of((4, 9), (5, 8))
    tile = edges[(edges[:, 0] >= 0) & (edges[:, 0] < 1)]
    out = dedup_local(tile)
    assert out.shape == (0, 2) and out.dtype == np.uint64


def structured_dedup(edges):
    """Oracle: the former dedup_local, np.unique over a structured (u, v) view."""
    if len(edges) == 0:
        return edges.copy()
    pairs = np.ascontiguousarray(edges).view([("u", edges.dtype), ("v", edges.dtype)]).ravel()
    _, first = np.unique(pairs, return_index=True)
    first.sort()
    return edges[first]


def edges_with_repeats(seed, n, ubits, vbits, dtype=np.uint64):
    rng = np.random.default_rng(seed)
    umax, vmax = (1 << ubits) - 1, (1 << vbits) - 1
    edges = np.empty((n, 2), dtype=dtype)
    edges[:, 0] = rng.integers(0, umax, size=n, dtype=dtype, endpoint=True)
    # Few distinct v per u in a narrow band, so pairs also collide by chance.
    edges[:, 1] = rng.integers(0, min(vmax, 7), size=n, dtype=dtype, endpoint=True)
    edges[n // 2 :, 1] = rng.integers(0, vmax, size=n - n // 2, dtype=dtype, endpoint=True)
    edges[0] = (umax, vmax)  # pin the bit widths
    src = rng.integers(0, n, size=n // 3)
    dst = rng.integers(0, n, size=n // 3)
    edges[dst] = edges[src]
    return edges


@pytest.mark.parametrize(
    "ubits,vbits,dtype,lexsort",
    [
        (1, 1, np.uint64, False),
        (8, 8, np.uint64, False),
        (20, 20, np.uint64, False),
        (32, 32, np.uint64, False),
        (33, 31, np.uint64, False),
        (62, 2, np.uint64, False),
        (33, 32, np.uint64, True),
        (40, 40, np.uint64, True),
        (62, 62, np.uint64, True),
        (64, 64, np.uint64, True),
        (20, 20, np.int64, False),  # non-negative signed ids pack as their bit patterns
    ],
)
def test_dedup_matches_structured_oracle(monkeypatch, ubits, vbits, dtype, lexsort):
    # Ids of 2^32 and more force the lexsort fallback; the spy checks which path ran.
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    edges = edges_with_repeats(ubits * 100 + vbits, 20000, ubits, vbits, dtype)
    got = dedup_local(edges)
    assert bool(calls) == lexsort
    assert got.dtype == edges.dtype
    assert np.array_equal(got, structured_dedup(edges))
    assert len(got) < len(edges)


@pytest.mark.parametrize("base", [0, 1 << 40])
def test_dedup_keeps_first_occurrences_in_order(base):
    rng = np.random.default_rng(base % 97 + 3)
    edges = rng.integers(base, base + 50, size=(3000, 2), dtype=np.uint64)
    first_seen = {}
    for i, pair in enumerate(map(tuple, edges.tolist())):
        first_seen.setdefault(pair, i)
    assert np.array_equal(dedup_local(edges), edges[sorted(first_seen.values())])


@pytest.mark.parametrize("base", [0, 1 << 40])
def test_dedup_range_checks_hold_on_both_paths(monkeypatch, base):
    # The ids' range picks the path: packed keys at base 0, the lexsort of
    # the rows at 2^40.  Either way the kept edges are first occurrences
    # and stay inside the tile the input came from.
    calls = spy_dedup_sorts(monkeypatch)
    edges = edges_of((base + 4, base + 9), (base + 4, base + 9), (base + 5, base + 8))
    out = dedup_local(edges)
    assert out.tolist() == edges[[0, 2]].tolist()
    assert calls == ([] if base == 0 else ["lexsort"])
    assert all(base + 4 <= u < base + 6 and base + 8 <= v < base + 10 for u, v in out.tolist())


def first_seen_oracle(edges):
    first = {}
    for i, pair in enumerate(map(tuple, edges.tolist())):
        first.setdefault(pair, i)
    return edges[sorted(first.values())]


def duplicate_heavy(seed, n=4000, span=40):
    rng = np.random.default_rng(seed)
    return rng.integers(0, span, size=(n, 2), dtype=np.uint64)


@pytest.mark.parametrize(
    "edges",
    [
        np.repeat(duplicate_heavy(1, n=500, span=1 << 20), 3, axis=0),  # every pair thrice in a row
        np.tile(duplicate_heavy(2, n=500, span=1 << 20), (4, 1)),  # every pair repeats, far apart
        np.full((1000, 2), 7, dtype=np.uint64),  # all rows equal
        np.full((1000, 2), (1 << 32) - 1, dtype=np.uint64),  # all equal at the widest key
        edges_of((3, 9)),  # one row
        duplicate_heavy(3)[::-1],  # reversed (non-contiguous) duplicate-heavy order
        np.sort(duplicate_heavy(4), axis=0)[::-1].copy(),  # runs of equal rows, descending
    ],
    ids=["repeat", "tile", "all-equal", "all-equal-wide", "one-row", "reversed", "descending"],
)
def test_dedup_matches_first_seen_oracle(edges):
    # The least index in each run of equal keys is the first occurrence,
    # whatever order an unstable sort leaves the run in.
    got = dedup_local(edges)
    assert got.dtype == edges.dtype
    assert np.array_equal(got, first_seen_oracle(edges))


def test_scramble_leaves_input_unchanged():
    key = make_scramble_key(4, 16)
    values = np.arange(0, 1 << 16, 3, dtype=np.uint64)
    before = values.copy()
    out = scramble(values, key)
    assert np.array_equal(values, before)
    assert not np.shares_memory(out, values)
    edges = duplicate_heavy(5, span=1 << 16)
    before = edges.copy()
    scramble_edges(edges, key)
    assert np.array_equal(edges, before)


def test_scramble_column_view_matches_contiguous_copy():
    key = make_scramble_key(6, 20)
    edges = duplicate_heavy(7, span=1 << 20)
    for view in (edges[:, 0], edges[:, 1], edges[::-1], edges[::3, ::-1]):
        assert not view.flags.c_contiguous
        assert np.array_equal(scramble(view, key), scramble(view.copy(), key))


@pytest.mark.parametrize("k", [1, 13])
def test_scramble_scalar_kinds(k):
    key = make_scramble_key(9, k)
    vec = scramble(np.arange(1 << k, dtype=np.uint64), key)
    for v in (0, (1 << k) - 1):
        as_int = scramble(v, key)
        assert isinstance(as_int, int) and as_int == int(vec[v])
        assert isinstance(scramble(np.uint64(v), key), int)
        zero_d = scramble(np.array(v, dtype=np.uint64), key)
        assert np.ndim(zero_d) == 0 and int(zero_d) == as_int


@pytest.mark.parametrize(
    "k,seed,digest",
    [
        (1, 5, "b2667d5eae04ed669d89331afa957949"),
        (16, 2, "89523f5fa4fdcea171ff31c3c82f1777"),
        (31, 3, "ee7f0e61e0148967484b926e3bea617a"),  # the widest k on uint32 lanes
        (32, 11, "a7b0d49dc5d16a3c2c05e729ced8633c"),
        (33, 13, "90d520b40d9b503c34a3b43f854ff0ab"),  # the narrowest on uint64 lanes
        (40, 7, "f304151a6a6ddd12b941a6029494ab0c"),
        (62, 41, "102c9e7cc104c878a70648d7878ac196"),
    ],
)
def test_scramble_bytes_pinned(k, seed, digest):
    values = np.random.default_rng(k).integers(0, 1 << k, size=4096, dtype=np.uint64)
    out = scramble(values, make_scramble_key(seed, k))
    assert hashlib.blake2b(out.tobytes(), digest_size=16).hexdigest() == digest


@pytest.mark.parametrize(
    "edges,sorts",
    [
        (np.empty((0, 2), dtype=np.uint64), []),
        (edges_of((3, 9)), []),
        (edges_with_repeats(16, 20000, 16, 16), []),  # 2k = 32 bits plus 15 index bits
        (np.full((1000, 2), 7, dtype=np.uint64), []),
        (edges_with_repeats(30, 20000, 30, 30), ["argsort"]),  # 60 + 15 > 64, 60 <= 64
        (np.full((20000, 2), (1 << 30) - 1, dtype=np.uint64), ["argsort"]),
        (edges_with_repeats(33, 20000, 33, 32), ["lexsort"]),  # 65 key bits
        (np.full((1000, 2), (1 << 33) - 1, dtype=np.uint64), ["lexsort"]),
        (edges_with_repeats(20, 20000, 20, 20, np.int64), []),  # signed, non-negative
        (np.empty((0, 2), dtype=np.int64), []),
    ],
    ids=["empty", "one-row", "packed-k16", "all-equal-packed", "argsort-band",
         "all-equal-band", "lexsort-wide", "all-equal-wide", "int64", "empty-int64"],
)
def test_dedup_branches_match_oracles(monkeypatch, edges, sorts):
    calls = spy_dedup_sorts(monkeypatch)
    got = dedup_local(edges)
    assert calls == sorts
    assert got.dtype == edges.dtype and got.shape[1:] == (2,)
    assert np.array_equal(got, first_seen_oracle(edges))
    assert np.array_equal(got, structured_dedup(edges))


@pytest.mark.parametrize("bits,sorts", [(52, []), (53, ["argsort"]), (64, ["argsort"])])
def test_first_keys_packs_the_index_while_it_fits(monkeypatch, bits, sorts):
    # 4096 keys take 12 index bits: 52 + 12 = 64 still packs, 53 does not.
    rng = np.random.default_rng(bits)
    keys = rng.integers(0, 1 << bits, size=4096, dtype=np.uint64, endpoint=False)
    keys[0] = (1 << bits) - 1  # the widest key
    keys[rng.integers(0, 4096, 1500)] = keys[rng.integers(0, 4096, 1500)]
    first = {}
    for key in keys.tolist():
        first.setdefault(key, len(first))
    calls = spy_dedup_sorts(monkeypatch)
    got = _first_keys(keys.copy(), bits)
    assert calls == sorts
    assert got.tolist() == list(first)


def test_first_keys_sorts_the_batch_in_place():
    # The packed branch holds the key array and a chunk, never a second batch.
    # Each of 4096 keys occurs about 256 times, so runs of equal keys cross
    # the boundaries of the chunks it works in.
    keys = np.random.default_rng(8).integers(0, 1 << 12, size=1 << 20, dtype=np.uint64)
    want = keys[np.sort(np.unique(keys, return_index=True)[1])]
    tracemalloc.start()
    try:
        got = _first_keys(keys, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(got, keys)
    assert peak < keys.nbytes // 4
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bits,bound", [(16, 17.5), (30, 25.5), (40, 25)],
                         ids=["packed", "band", "rows"])
def test_dedup_local_peak_beyond_its_input(bits, bound):
    # 2^20 edges, half of them repeats.  Rows too wide to pack are held as
    # they come, not copied before the lexsort: 24 B per edge beyond the
    # input, where the copy took 40.  The packed sort holds 17 and the
    # argsort band 25, as before.
    n = 1 << 20
    rng = np.random.default_rng(bits)
    base = rng.integers(0, 1 << bits, (n // 2, 2), dtype=np.uint64)
    edges = np.concatenate([base, base[rng.integers(0, n // 2, n // 2)]])
    tracemalloc.start()
    try:
        got = dedup_local(edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n
    assert len(got) == len(np.unique(edges, axis=0))


@pytest.mark.parametrize("mirror", [False, True], ids=["directed", "mirrored"])
@pytest.mark.parametrize("k,sorts", [(16, []), (30, ["argsort"]), (40, ["lexsort"])],
                         ids=["packed", "band", "rows"])
def test_dedup_stream_output_does_not_depend_on_unit_cuts(monkeypatch, k, sorts, mirror):
    # A mirrored stream is each unit through to_undirected, as `generate --undirected` makes it.
    n = 2 * DEFAULT_BLOCK_SIZE + 1000
    edges = edges_with_repeats(k, n, k, k)
    want = dedup_local(to_undirected(edges) if mirror else edges)
    assert DEFAULT_BLOCK_SIZE < len(want) < n  # several blocks out, duplicates dropped
    rng = np.random.default_rng(k)
    cuttings = [
        [0, n],
        [0, 0, 1, n],  # an empty unit, then a one-edge unit
        [0, *np.sort(rng.integers(0, n, 40)).tolist(), n],
        [0, n - 1, n, n],
    ]
    calls = spy_dedup_sorts(monkeypatch)
    for bounds in cuttings:
        units = [(to_undirected(edges[lo:hi]) if mirror else edges[lo:hi], hi - lo + 3)
                 for lo, hi in zip(bounds, bounds[1:])]
        calls.clear()
        blocks = list(dedup_stream(iter(units), n, k, k))
        assert calls == sorts
        assert blocks[0][1] == sum(used for _, used in units)  # all samples, once
        assert all(used == 0 for _, used in blocks[1:])
        assert all(0 < len(b) <= DEFAULT_BLOCK_SIZE and b.dtype == np.uint64 for b, _ in blocks)
        assert np.array_equal(np.concatenate([b for b, _ in blocks]), want)


@pytest.mark.parametrize("k", [16, 40])
@pytest.mark.parametrize("total", [5, 3])
def test_dedup_stream_rejects_a_stream_of_another_length(k, total):
    units = [(edges_of((1, 2), (3, 4)), 5), (edges_of((1, 2), (5, 6)), 5)]
    with pytest.raises(ValueError):
        next(dedup_stream(iter(units), total, k, k))


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
def test_dedup_compares_negative_ids_by_bit_pattern(monkeypatch, dtype):
    edges = edges_with_repeats(7, 20000, 20, 20, dtype) - dtype(1 << 19)  # both signs
    low = np.iinfo(dtype).min
    edges[[5, 9, 700]] = [(low, -1), (low, -1), (-1, low)]
    assert (edges < 0).any(axis=1).mean() > 0.4
    calls = spy_dedup_sorts(monkeypatch)
    got = dedup_local(edges)
    assert calls == ["lexsort"]  # a negative id's bit pattern fills 64 bits
    assert got.dtype == edges.dtype
    assert np.array_equal(got, first_seen_oracle(edges))
    assert np.array_equal(got, structured_dedup(edges))
