import concurrent.futures
import dataclasses
import hashlib
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from rmatgen import (
    DEFAULT_BLOCK_SIZE,
    BadExponent,
    GenConfig,
    build_fixed_table,
    build_variable_table,
    cell_histogram,
    chi_square,
    default_plan,
    emit_block,
    exact_cell_probs,
    generate,
    generate_part,
    generate_result,
    naive_edge,
    naive_edges,
    validate,
)
import rmatgen.generator as generator
import rmatgen.partition as partition_mod
from rmatgen._rng import DOMAIN_BLOCK, Streams, _key, keyed_stream
from rmatgen.generator import _compile, _emit
from conftest import SKEWED, UNIFORM, alias_sample, params_for, fixed_table, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


def block(count, seed, index, piece=0):
    """_emit's arguments for one block: its count and its one-row stream array."""
    streams = Streams(seed, DOMAIN_BLOCK, index)
    streams.piece[0] = piece
    return np.array([count]), streams


@dataclasses.dataclass
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


def _emit_reference(table, k, count, stream_key, piece=0):
    """Scalar mirror of emit_block, one fragment at a time.

    Consumes the identical word stream and must produce bit-identical
    edges; it exists so the vectorized kernels have something honest to
    be compared against.  It draws from numpy's own Philox, keyed as the
    block (seed, block_index) and started at piece `piece`, so the
    comparison also checks the kernels' re-keyed stream arrays.
    """
    seed, block_index = stream_key
    key = np.array(_key(int(seed), DOMAIN_BLOCK, int(block_index)), dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=np.array([0, piece, 0, 0], dtype=np.uint64))
    mask = table.sampler.size - 1
    out = np.empty((count, 2), dtype=np.uint64)
    st = EdgeEmitState()
    emitted = 0
    samples = 0
    while emitted < count:
        w = int(bitgen.random_raw())
        e = int(alias_sample(table.sampler, ((w >> 32) & mask, (w & 0xFFFFFFFF) * 2.0**-32)))
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


def table_for(tag):
    if tag.startswith("f"):
        return fixed_table(G500, 4, int(tag[1:]))
    if tag.startswith("s"):
        # skewed and large: fragments up to 62 deep straddle word boundaries
        return variable_table(SKEWED, 4, int(tag[1:]))
    return variable_table(G500, 4, int(tag[1:]))


# The scalar reference accumulates Python ints bit by bit; byte equality
# against it pins down every shift, mask, and sample-consumption decision
# of the vectorized kernels.
@pytest.mark.parametrize("k", [1, 3, 13, 31, 32, 33, 62])
@pytest.mark.parametrize("tag", ["f1", "f5", "f8", "v253", "s8191"])
@pytest.mark.parametrize("count", [1, 17, 1000])
def test_vectorized_matches_scalar_reference(k, tag, count):
    table = table_for(tag)
    edges, samples = _emit_reference(table, k, count, (9, 3))
    got = emit_block(table, k, count, (9, 3))
    assert got.dtype == np.uint64
    assert got.shape == (count, 2)
    assert (got == edges).all()
    if count:
        assert int(got.max()) >> k == 0


def test_general_kernel_agrees_with_fixed_kernel():
    # Force the variable-depth path onto fixed tables; both kernels must
    # consume the sample stream identically.
    for k, depth in ((4, 2), (13, 5), (32, 8), (62, 5)):
        table = fixed_table(G500, 4, depth)
        comp = _compile(table)
        assert comp.fixed_depth == depth
        ef, nf = _emit(comp, k, *block(3000, 1, 0))
        forced = dataclasses.replace(comp, fixed_depth=None)
        eg, ng = _emit(forced, k, *block(3000, 1, 0))
        assert nf == ng
        assert (ef == eg).all()


def test_every_fixed_table_takes_the_fixed_kernel(monkeypatch):
    # Depth 1 at k = 30 spans 31 fragments per edge, and depth 4 at k = 62
    # needs two 32-bit lanes; neither may fall back to the word stream,
    # for blocks or for tile batches.  The batches, of 64 tiles at t = 3,
    # run in chunks of 1000 edges that cut tiles, and their bytes and
    # samples are the word stream's.
    parts = {}
    with monkeypatch.context() as word_stream:
        compile_ = partition_mod._compile
        word_stream.setattr(partition_mod, "_compile",
                            lambda table: dataclasses.replace(compile_(table), fixed_depth=None))
        for k, depth in ((30, 1), (48, 2), (62, 4)):
            parts[k] = generate_part(default_plan(k, 3, 20_000, 4), params_for(G500, k),
                                     fixed_table(G500, 4, depth))
    calls = []

    def unreachable(*args):
        calls.append(args)
        raise AssertionError("word-stream kernel on a fixed table")

    monkeypatch.setattr(generator, "_emit_words", unreachable)
    monkeypatch.setattr(generator, "_CHUNK_EDGES", 1000)
    for k, depth in ((30, 1), (48, 2), (62, 4)):
        table = fixed_table(G500, 4, depth)
        res = generate_result(GenConfig(params=params_for(G500, k), table=table,
                                        edge_count=1100, seed=4, block_size=500))
        for lo in range(0, 1100, 500):
            ref, _ = _emit_reference(table, k, min(500, 1100 - lo), (4, lo // 500))
            assert (res.edges[lo : lo + 500] == ref).all()
        edges, tiles, used = generate_part(default_plan(k, 3, 20_000, 4), params_for(G500, k),
                                           table)
        assert used == parts[k][2]
        assert (edges == parts[k][0]).all()
    assert calls == []


@pytest.mark.parametrize("k", [13, 62])
@pytest.mark.parametrize("tag", ["f5", "v253"])
def test_top_up_draws_match_reference(k, tag):
    # An estimate four times too high leaves the first draw short for the
    # counts 17 and 1000, so those streams are topped up, alone and batched.
    table = table_for(tag)
    starved = dataclasses.replace(_compile(table), mean_depth=4 * table.mean_depth,
                                  fixed_depth=None)
    counts = [1, 17, 1000]
    refs = [_emit_reference(table, k, c, (9, i)) for i, c in enumerate(counts)]
    for i, c in enumerate(counts):
        got, used = _emit(starved, k, *block(c, 9, i))
        assert used == refs[i][1]
        assert (got == refs[i][0]).all()
    got, used = _emit(starved, k, np.array(counts), Streams(9, DOMAIN_BLOCK, range(3)))
    assert used == sum(r[1] for r in refs)
    assert (got == np.concatenate([r[0] for r in refs])).all()


# 1030 entries pad to 2048 buckets; fixed depth 5 has 4^5 and pads none.
@pytest.mark.parametrize("tag", ["v253", "v1021", "v8191", "s1021", "v1030", "f5"])
def test_bucket_mapping_is_exact(tag):
    # Enumerates every bucket rather than sampling: each 64-bit word picks
    # bucket (word >> 32) & (size - 1), and bucket b keeps entry b on the
    # low-half fractions below thr32[b] and yields alias[b] on the rest.
    table = table_for(tag)
    n, size = len(table), table.sampler.size
    assert size & (size - 1) == 0 and n <= size < 2 * n
    assert (table.sampler.threshold[n:] == 0).all()
    assert (table.sampler.alias[n:] < n).all()
    comp = _compile(table)
    alias = table.sampler.alias.astype(np.intp)
    high = np.array([0, n - 1, n, (1 << 32) - 1], dtype=np.uint64)
    bucket = (high & np.uint64(size - 1)).astype(np.intp)
    expect = np.where(comp.thr32[bucket] > 0, bucket, alias[bucket])
    assert (generator._select(comp, high << np.uint64(32)) == expect).all()
    # Shares in units of one fraction value (2^-32) of one bucket.
    shares = comp.thr32.astype(np.int64)
    np.add.at(shares, alias, (1 << 32) - shares)
    assert (shares[n:] == 0).all() and shares.sum() == size << 32
    buckets = 1 + np.bincount(alias, minlength=size)[:n]
    assert (np.abs(shares[:n] - table.probs * (size << 32)) <= buckets).all()


@pytest.mark.parametrize("quads", [G500, SKEWED], ids=["g500", "skewed"])
@pytest.mark.parametrize("kind,size", [("fixed", 8), ("fixed", 11), ("variable", 8191),
                                       ("variable", 4**11)])
def test_sampler_exactness(quads, kind, size):
    # Each entry's realized probability, computed exactly from the compiled
    # table rather than sampled: bucket b keeps its own entry on thr32[b]
    # of the 2^32 fractions and jumps to b + jump[b] on the rest.  Only the
    # rounding of each threshold up to a multiple of 2^-32 moves mass, so
    # the total variation stays below 2^-33 for every table.  On variable
    # tables every entry keeps a relative error below 3.2e-9.  Fixed depth
    # 11 holds entries far rarer than one fraction step of a bucket: under
    # the skewed model the rarest, p = 2.4e-18, is drawn with probability
    # 5.5e-17, a relative error of 22.3.  The tables are built here, not
    # cached: the large ones hold hundreds of MB.
    params = params_for(quads, 20)
    table = (build_fixed_table(params, size) if kind == "fixed"
             else build_variable_table(params, size))
    comp = _compile(table)
    n, buckets = len(table), len(comp.thr32)
    shares = comp.thr32.astype(np.int64)
    np.add.at(shares, np.arange(buckets) + comp.jump, (1 << 32) - shares)
    assert (shares[n:] == 0).all() and shares.sum() == buckets << 32
    realized = shares[:n] / float(buckets << 32)
    assert 0.5 * np.abs(realized - table.probs).sum() <= 2.0**-33
    worst = float(np.max(np.abs(realized / table.probs - 1)))
    if kind == "variable":
        assert worst < 3.2e-9
    elif size == 11 and quads == SKEWED:
        assert 22 < worst < 23
    else:
        assert worst < 2.5e-3


def test_generate_result_bytes_pinned():
    # The default CLI table, four blocks of which the last is partial.
    config = GenConfig(params=params_for(G500, 20), table=variable_table(G500, 20, 8191),
                       edge_count=200_000, seed=1)
    res = generate_result(config)
    got = hashlib.blake2b(res.edges.astype("<u8").tobytes(), digest_size=16).hexdigest()
    assert (res.samples_consumed, got) == (502014, "d65abd1599fc221bd863d0428ddd15a5")


def test_depth_equal_k_uses_one_sample_per_edge():
    table = fixed_table(G500, 4, 4)
    res = generate_result(GenConfig(params=params_for(G500, 4), table=table,
                                    edge_count=5000, seed=3))
    assert res.samples_consumed == 5000


def test_long_fragment_completes_multiple_edges():
    # depth 8 fragments at k=1: every sample finishes 8 edges
    table = fixed_table(G500, 1, 8)
    res = generate_result(GenConfig(params=params_for(G500, 1), table=table,
                                    edge_count=1000, seed=3))
    assert res.samples_consumed == 125
    assert len(res.edges) == 1000


def test_emit_block_index_names_its_stream_modulo_2_64():
    # The block index is the key's payload word, so -1 and 2^64 - 1 name one stream.
    table = variable_table(G500, 10, 253)
    assert (emit_block(table, 10, 50, (3, -1)) == emit_block(table, 10, 50, (3, 2**64 - 1))).all()


def test_emit_block_single_edge_single_sample():
    table = fixed_table(G500, 4, 4)
    comp = _compile(table)
    edges, nf = _emit(comp, 4, *block(1, 7, 0))
    assert nf == 1 and edges.shape == (1, 2)


def test_quadrant_frequencies_k1():
    table = fixed_table(G500, 1, 1)
    edges = emit_block(table, 1, 10**6, (11, 0))
    hist = cell_histogram(edges, 1)
    result = chi_square(hist, exact_cell_probs(params_for(G500, 1), 1))
    assert result.passed


def test_cell_frequencies_within_4_sigma():
    table = variable_table(G500, 4, 253)
    n = 10**6
    edges = emit_block(table, 4, n, (12, 0))
    counts = cell_histogram(edges, 4).counts
    probs = exact_cell_probs(params_for(G500, 4), 4)
    sigma = np.sqrt(n * probs * (1 - probs))
    assert (np.abs(counts - n * probs) <= 4 * sigma).all()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_fast_and_naive_pass_same_chi_square(k):
    # the naive run validates the harness; the fast run validates the
    # algorithm against the identical expected vector
    params = params_for(G500, k)
    probs = exact_cell_probs(params, k)
    n = 10**6 if k == 4 else 200_000
    fast = emit_block(variable_table(G500, k, 253), k, n, (21, 0))
    assert chi_square(cell_histogram(fast, k), probs).passed
    ref = naive_edges(params, k, n, 22)
    assert chi_square(cell_histogram(ref, k), probs).passed


def test_naive_near_degenerate_all_zero_cell():
    eps = 1e-12
    params = validate(1 - 3 * eps, eps, eps, eps, 8)
    edges = naive_edges(params, 8, 10**4, 5)
    assert (edges == 0).all()


def test_naive_uniform_cells_4_sigma():
    params = params_for(UNIFORM, 2)
    n = 10**6
    edges = naive_edges(params, 2, n, 17)
    counts = cell_histogram(edges, 2).counts
    p = 1 / 16
    sigma = (n * p * (1 - p)) ** 0.5
    assert (np.abs(counts - n * p) <= 4 * sigma).all()


def test_naive_scalar_matches_bulk():
    params = params_for(G500, 6)
    rng1 = keyed_stream(33, 0xFF51AFD7ED558CCD, 0)
    singles = [naive_edge(params, 6, rng1) for _ in range(50)]
    bulk = naive_edges(params, 6, 50, 33)
    for i, e in enumerate(singles):
        assert (e.u, e.v) == (int(bulk[i, 0]), int(bulk[i, 1]))


def test_naive_deterministic_by_seed():
    params = params_for(G500, 5)
    assert (naive_edges(params, 5, 100, 4) == naive_edges(params, 5, 100, 4)).all()
    assert not (naive_edges(params, 5, 100, 4) == naive_edges(params, 5, 100, 5)).all()


def test_generate_m0_empty():
    cfg = GenConfig(params=params_for(G500, 4), table=variable_table(G500, 4, 253),
                    edge_count=0, seed=1)
    edges = generate(cfg)
    assert edges.shape == (0, 2)


def test_generate_equals_manual_block_assembly():
    params = params_for(G500, 6)
    table = variable_table(G500, 6, 253)
    m, bs, seed = 2500, 512, 77
    got = generate(GenConfig(params=params, table=table, edge_count=m,
                             seed=seed, block_size=bs))
    blocks = []
    for i in range((m + bs - 1) // bs):
        count = min(bs, m - i * bs)
        blocks.append(emit_block(table, 6, count, (seed, i)))
    assert (got == np.concatenate(blocks)).all()


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_thread_count_invariance(threads, monkeypatch):
    # m=100000 makes 37 blocks, the last one of 1684 edges, so every thread
    # fills several blocks in whatever order they finish; the smaller m
    # make one block or none.  Reporting 8 cores lets hosts with fewer
    # still run `threads` threads, and a short switch interval interleaves
    # them often.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    params = params_for(G500, 12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for table in (variable_table(G500, 12, 1021), fixed_table(G500, 12, 5)):
            for m in (100_000, 2730, 1, 0):
                base = GenConfig(params=params, table=table, edge_count=m, seed=5,
                                 block_size=2731)
                ref = generate_result(base)
                got = generate_result(dataclasses.replace(base, threads=threads))
                assert got.edges.shape == (m, 2)
                assert got.samples_consumed == ref.samples_consumed
                assert (got.edges == ref.edges).all()
    finally:
        sys.setswitchinterval(interval)


def test_thread_pool_bounded_by_cores_and_blocks(monkeypatch):
    sizes = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    params = params_for(G500, 10)
    base = GenConfig(params=params, table=variable_table(G500, 10, 253),
                     edge_count=5000, seed=3, block_size=500, threads=64)
    ref = generate_result(dataclasses.replace(base, threads=1))
    # 64 threads asked for: 2 cores bound the pool, then 3 blocks do, and
    # an unknown core count means one core, so no pool at all.
    expected = []
    for cores, m, workers in ((2, 5000, [2]), (8, 1500, [3]), (None, 5000, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        got = generate_result(dataclasses.replace(base, edge_count=m))
        assert (got.edges == ref.edges[:m]).all()
        expected += workers
        assert sizes == expected


def test_block_error_propagates_from_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    emit = generator._emit

    def failing(comp, k, counts, streams):
        if streams.payload[0] == 3:
            raise MemoryError("block 3")
        return emit(comp, k, counts, streams)

    monkeypatch.setattr(generator, "_emit", failing)
    params = params_for(G500, 10)
    config = GenConfig(params=params, table=variable_table(G500, 10, 253),
                       edge_count=20 * 512, seed=3, block_size=512, threads=2)
    raised = []

    def run():
        try:
            generate_result(config)
        except MemoryError as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    assert [str(exc) for exc in raised] == ["block 3"]


def test_stream_keeps_at_most_two_units_per_worker_in_flight(monkeypatch):
    # Recorded at each yield: blocks submitted to the pool but not yet
    # consumed.  pool.map would have submitted all 12 before the first.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    submitted = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(None)
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    params = params_for(G500, 10)
    base = GenConfig(params=params, table=variable_table(G500, 10, 253),
                     edge_count=12 * 500 - 7, seed=3, block_size=500, threads=2)
    blocks, in_flight = [], []
    for edges, _ in generator.generate_stream(base):
        in_flight.append(len(submitted) - len(blocks))
        blocks.append(edges)
    assert len(blocks) == len(submitted) == 12
    assert max(in_flight) <= 4
    ref = generate_result(dataclasses.replace(base, threads=1))
    assert (np.concatenate(blocks) == ref.edges).all()


def test_work_bound():
    # samples consumed <= m*(k/l_min + 1)
    for tag, k in (("f1", 8), ("f5", 8), ("v253", 8), ("v1021", 20)):
        table = table_for(tag) if tag != "v1021" else variable_table(G500, 4, 1021)
        params = params_for(G500, k)
        m = 50_000
        res = generate_result(GenConfig(params=params, table=table,
                                        edge_count=m, seed=9))
        l_min = int(table.depths.min())
        assert res.samples_consumed <= m * (k / l_min + 1)


def test_samples_do_not_rise_with_variable_table_size():
    params = params_for(G500, 8)
    samples = [
        generate_result(GenConfig(params=params, table=variable_table(G500, 8, size),
                                  edge_count=2000, seed=1)).samples_consumed
        for size in (4, 253, 1021)
    ]
    assert samples == sorted(samples, reverse=True)


def test_fixed_tables_consume_k_over_depth_samples():
    # a uniform-depth table spends one sample per depth levels, so k levels
    # per edge cost k / depth samples; leftover levels carry to the next edge
    k, m = 8, 2000
    for depth in (1, 2, 3):
        res = generate_result(GenConfig(params=params_for(G500, k), table=fixed_table(G500, k, depth),
                                        edge_count=m, seed=1))
        assert res.samples_consumed == -(-m * k // depth)


def test_output_allocated_before_blocks_are_listed(monkeypatch):
    # 2^36 edges are 2^20 blocks.  An output too large to hold must fail
    # before their units are listed, not after a million stream arrays.
    empty = np.empty

    def refuse_huge(shape, *args, **kwargs):
        if np.prod(shape) >= 1 << 36:
            raise MemoryError("output")
        return empty(shape, *args, **kwargs)

    built = []

    def counted(*key):
        built.append(key)
        assert len(built) <= 8, "block units listed before the output was allocated"
        return Streams(*key)

    monkeypatch.setattr(np, "empty", refuse_huge)
    monkeypatch.setattr(generator, "Streams", counted)
    config = GenConfig(params=params_for(G500, 20), table=variable_table(G500, 20, 253),
                       edge_count=1 << 36, seed=1)
    with pytest.raises(MemoryError, match="output"):
        generate_result(config)
    assert built == []


def test_determinism_same_config():
    cfg = GenConfig(params=params_for(G500, 10), table=variable_table(G500, 10, 253),
                    edge_count=10_000, seed=123)
    assert (generate(cfg) == generate(cfg)).all()


def test_seed_changes_output():
    params = params_for(G500, 10)
    table = variable_table(G500, 10, 253)
    a = generate(GenConfig(params=params, table=table, edge_count=1000, seed=1))
    b = generate(GenConfig(params=params, table=table, edge_count=1000, seed=2))
    assert not (a == b).all()


@pytest.mark.parametrize("k", [0, -1, 63, True])
def test_emit_block_rejects_bad_k(k):
    table = variable_table(G500, 4, 253)
    with pytest.raises(BadExponent):
        emit_block(table, k, 10, (1, 0))


def test_genconfig_validation():
    params = params_for(G500, 4)
    table = variable_table(G500, 4, 253)
    with pytest.raises(ValueError):
        GenConfig(params=params, table=table, edge_count=-1, seed=1)
    with pytest.raises(ValueError):
        GenConfig(params=params, table=table, edge_count=1 << 63, seed=1)
    with pytest.raises(ValueError):
        GenConfig(params=params, table=table, edge_count=1, seed=1, block_size=0)
    with pytest.raises(ValueError):
        GenConfig(params=params, table=table, edge_count=1, seed=1, threads=0)


def test_edges_bounded_by_node_count():
    for k in (1, 7, 33):
        edges = emit_block(variable_table(G500, 4, 1021), k, 5000, (3, 1))
        assert int(edges.max()) < (1 << k)


# ------------------------------------------------------------------- chunks


@pytest.mark.parametrize("chunk", [1, 7, 13, 1000])
@pytest.mark.parametrize("k,tag", [(13, "v253"), (62, "s8191"), (13, "f5"), (40, "f8"),
                                   (1, "f5"), (12, "f8"), (32, "f5"), (33, "f8")])
def test_chunked_kernels_match_unchunked_and_reference(k, tag, chunk, monkeypatch):
    # Chunks cut the stream of a segment wherever they fill; each part
    # resumes from its (pos, carry).  On fixed tables both kernels run the
    # blocks and the batch: f8 at k = 33 and 40 takes the fixed kernel's
    # two lanes, and a period of f5 at k = 13 or 32 and of f8 at k = 12 or
    # 33 holds more edges than the segments of 1, 2 and 3 edges.  The
    # batch starts with a later piece of its stream, as a tile batch may.
    table = table_for(tag)
    comp = _compile(table)
    general = dataclasses.replace(comp, fixed_depth=None)
    counts = [300, 1, 45, 2, 3]
    refs = [_emit_reference(table, k, c, (9, i), piece=int(i == 0))
            for i, c in enumerate(counts)]

    def segments():
        streams = Streams(9, DOMAIN_BLOCK, range(len(counts)))
        streams.piece[0] = 1
        return np.array(counts), streams

    whole = _emit(general, k, *segments())
    monkeypatch.setattr(generator, "_CHUNK_EDGES", chunk)
    for i, c in enumerate(counts):
        got, used = _emit(comp, k, *block(c, 9, i, int(i == 0)))
        assert used == refs[i][1]
        assert (got == refs[i][0]).all()
    for kernel in (general, comp):
        got, used = _emit(kernel, k, *segments())
        assert used == whole[1] == sum(r[1] for r in refs)
        assert (got == whole[0]).all()
        assert (got == np.concatenate([r[0] for r in refs])).all()


def test_carry_left_on_the_stream():
    # Depth-5 fragments at k = 7: 3 edges are 21 bits, so the fifth
    # fragment is cut after 1 bit and its word is where the stream resumes
    # with 4 bits to go; 2 more edges end exactly on a fragment boundary.
    # Both kernels leave the same (pos, carry).
    table = fixed_table(G500, 4, 5)
    ref, ref_used = _emit_reference(table, 7, 5, (9, 0))
    fixed = _compile(table)
    for comp in (fixed, dataclasses.replace(fixed, fixed_depth=None)):
        stream = Streams(9, DOMAIN_BLOCK, 0)
        first, used = _emit(comp, 7, np.array([3]), stream)
        assert (used, *stream.pos, *stream.carry) == (5, 4, 4)
        second, more = _emit(comp, 7, np.array([2]), stream)
        assert (more, *stream.pos, *stream.carry) == (2, 7, 0)
        assert used + more == ref_used == 7
        assert (np.concatenate([first, second]) == ref).all()


def test_chunk_boundary_on_a_fragment_boundary(monkeypatch):
    # Chunks of 5 edges at k = 7 are 35 bits, seven depth-5 fragments, so
    # every chunk ends with nothing cut and the next starts on a fresh word.
    # Both kernels leave the same (pos, carry).
    table = fixed_table(G500, 4, 5)
    ref, ref_used = _emit_reference(table, 7, 23, (9, 1))
    monkeypatch.setattr(generator, "_CHUNK_EDGES", 5)
    fixed = _compile(table)
    for comp in (fixed, dataclasses.replace(fixed, fixed_depth=None)):
        stream = Streams(9, DOMAIN_BLOCK, 1)
        got, used = _emit(comp, 7, np.array([20]), stream)
        assert (*stream.pos, *stream.carry) == (28, 0)
        rest, more = _emit(comp, 7, np.array([3]), stream)
        assert (*stream.pos, *stream.carry) == (32, 4)
        assert used + more == ref_used
        assert (np.concatenate([got, rest]) == ref).all()


@pytest.mark.parametrize("tag", ["f5", "v253"])
def test_top_up_draws_in_later_chunks(tag, monkeypatch):
    # An estimate four times too high leaves every chunk's first draw
    # short, so each chunk, the later ones too, tops up its stream.
    table = table_for(tag)
    starved = dataclasses.replace(_compile(table), mean_depth=4 * table.mean_depth,
                                  fixed_depth=None)
    draws = []
    words = Streams.words

    def counted(self, sizes):
        draws.extend(sizes.tolist())
        return words(self, sizes)

    monkeypatch.setattr(Streams, "words", counted)
    monkeypatch.setattr(generator, "_CHUNK_EDGES", 97)
    ref, ref_used = _emit_reference(table, 13, 1000, (9, 2))
    got, used = _emit(starved, 13, *block(1000, 9, 2))
    assert used == ref_used
    assert (got == ref).all()
    assert len(draws) > 2 * -(-1000 // 97)


def test_draws_sized_to_the_depth_spread(monkeypatch):
    # A piece's first draw is its mean sample count plus a few standard
    # deviations of it.  Words drawn per sample used stay near 1 on many
    # small tiles (1.256 with a 5% + 16 words margin) and on a block
    # (1.051), and a draw falls short, to be topped up, only rarely.
    drawn, calls, pieces = [0], [0], [0]
    words, emit_words = Streams.words, generator._emit_words

    def counted(self, sizes):
        drawn[0] += int(sizes.sum())
        calls[0] += len(sizes)  # one draw per stream
        return words(self, sizes)

    def counted_pieces(comp, k, counts, streams, out):
        pieces[0] += len(streams.pos)
        return emit_words(comp, k, counts, streams, out)

    monkeypatch.setattr(Streams, "words", counted)
    monkeypatch.setattr(generator, "_emit_words", counted_pieces)
    table = variable_table(G500, 20, 8191)
    plan = default_plan(k=20, t=8, m=2**20, seed=7, parts=4)
    _, _, used = generate_part(plan, params_for(G500, 20), table, part=0)
    assert drawn[0] < 1.10 * used
    assert pieces[0] > 12_000 and calls[0] - pieces[0] <= pieces[0] // 1000
    drawn[0] = calls[0] = pieces[0] = 0
    _, used = _emit(_compile(table), 20, *block(DEFAULT_BLOCK_SIZE, 3, 0))
    assert drawn[0] < 1.01 * used
    assert calls[0] == pieces[0] == 4


def test_kernel_scratch_scales_with_the_chunk():
    # The kernel's temporaries beyond its output stay those of one chunk:
    # 16 blocks must not take more than twice the scratch of one.
    table = variable_table(G500, 20, 8191)
    comp = _compile(table)
    scratch = []
    for n in (1, 16):
        count = n * generator.DEFAULT_BLOCK_SIZE
        tracemalloc.start()
        try:
            _emit(comp, 20, *block(count, 3, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        scratch.append(peak - 16 * count)
    assert 0 < scratch[1] <= 2 * scratch[0], scratch


# -------------------------------------------------------------------- lanes


def capped_table(cap):
    # SKEWED paths run deepest; the cap is the table's deepest entry.
    return build_variable_table(params_for(SKEWED, 4), 8191, depth_cap=cap)


@pytest.mark.parametrize("chunk", [1, 7, 1000])
@pytest.mark.parametrize("cap,k,lanes", [(32, 20, 1), (32, 32, 1), (33, 20, 2), (33, 32, 2),
                                         (None, 33, 2)])
def test_word_stream_lanes_match_reference(cap, k, lanes, chunk, monkeypatch):
    # The word stream carries both sides in one 64-bit lane while k <= 32
    # and no entry is deeper than 32 bits, and in a row lane over a column
    # lane otherwise.  Entries exactly 32 and 33 deep sit on either side of
    # that bound; the shallow G500 table packs, but k = 33 takes two lanes.
    table = capped_table(cap) if cap else table_for("v253")
    comp = _compile(table)
    assert table.max_depth == (cap or table.max_depth)
    assert (comp.packed is not None) == (table.max_depth <= 32)
    # The kernel reads only the layout it picks: zeroing the other one's
    # entries changes no byte.
    if lanes == 1:
        comp = dataclasses.replace(comp, bits=np.zeros_like(comp.bits))
    elif comp.packed is not None:
        comp = dataclasses.replace(comp, packed=np.zeros_like(comp.packed))
    counts = [300, 1, 45, 2, 3]
    refs = [_emit_reference(table, k, c, (9, i)) for i, c in enumerate(counts)]
    monkeypatch.setattr(generator, "_CHUNK_EDGES", chunk)
    got, used = _emit(comp, k, np.array(counts), Streams(9, DOMAIN_BLOCK, range(len(counts))))
    assert used == sum(r[1] for r in refs)
    assert (got == np.concatenate([r[0] for r in refs])).all()


def test_kernel_keeps_one_chunk_of_scratch():
    # A thread keeps its chunk buffers at the size of the largest chunk it
    # has run, and the edge-cut arrays once per k.  Filling a tiled part,
    # whose batches cut chunks of many lengths, must leave about what one
    # full chunk at the same inner k leaves: a cache of cut arrays per chunk
    # length held 6 MB on `rmat generate -k 20 -m 4194304 --tiles 8
    # --parts 4 --part 0`.
    table = variable_table(G500, 20, 8191)
    plan = default_plan(k=20, t=8, m=2**21, seed=7, parts=4)

    def retained(work):
        """Bytes a fresh thread still holds after work(), less its last unit's edges."""
        kept = []

        def run():
            generator._cuts.cache_clear()
            tracemalloc.start()
            try:
                work()
                held = getattr(generator._held, "out", None)
                kept.append(tracemalloc.get_traced_memory()[0]
                            - (0 if held is None else held.nbytes))
            finally:
                tracemalloc.stop()

        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
        return kept[0]

    def one_chunk():
        _emit(_compile(table), 12, *block(generator._CHUNK_EDGES, 7, 0))

    lengths = set()
    emit_words = generator._emit_words

    def part():
        for _ in partition_mod.generate_part_stream(plan, params_for(G500, 20), table):
            pass

    def counted(comp, k, counts, streams, out):
        lengths.add(len(out))
        return emit_words(comp, k, counts, streams, out)

    chunk = retained(one_chunk)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "_emit_words", counted)
        filled = retained(part)
    assert len(lengths) >= 5
    assert 0 < filled <= 1.5 * chunk, (filled, chunk)
