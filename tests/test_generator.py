import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from rmatgen import (
    BadExponent,
    GenConfig,
    cell_histogram,
    chi_square,
    emit_block,
    exact_cell_probs,
    generate,
    generate_result,
    naive_edge,
    naive_edges,
    validate,
)
import rmatgen.generator as generator
from rmatgen._rng import DOMAIN_BLOCK, Stream, keyed_stream
from rmatgen.generator import _compile, _emit, _emit_fixed, _emit_general, _emit_reference
from conftest import SKEWED, UNIFORM, params_for, fixed_table, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


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
@pytest.mark.parametrize("tag", ["f1", "f5", "v253", "s8191"])
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
        ef, nf = _emit_fixed(comp, k, 3000, Stream(1, DOMAIN_BLOCK, 0))
        forced = dataclasses.replace(comp, fixed_depth=None)
        eg, ng = _emit_general(forced, k, [(3000, Stream(1, DOMAIN_BLOCK, 0))])
        assert nf == ng
        assert (ef == eg).all()


@pytest.mark.parametrize("k", [13, 62])
@pytest.mark.parametrize("tag", ["f5", "v253"])
def test_top_up_draws_match_reference(k, tag):
    # An estimate four times too high leaves the first draw short for the
    # counts 17 and 1000, so those streams are topped up, alone and batched.
    table = table_for(tag)
    starved = dataclasses.replace(_compile(table), mean_depth=4 * table.mean_depth)
    counts = [1, 17, 1000]
    refs = [_emit_reference(table, k, c, (9, i)) for i, c in enumerate(counts)]
    for i, c in enumerate(counts):
        got, used = _emit_general(starved, k, [(c, Stream(9, DOMAIN_BLOCK, i))])
        assert used == refs[i][1]
        assert (got == refs[i][0]).all()
    segments = [(c, Stream(9, DOMAIN_BLOCK, i)) for i, c in enumerate(counts)]
    got, used = _emit_general(starved, k, segments)
    assert used == sum(r[1] for r in refs)
    assert (got == np.concatenate([r[0] for r in refs])).all()


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


def test_emit_block_single_edge_single_sample():
    table = fixed_table(G500, 4, 4)
    comp = _compile(table)
    edges, nf = _emit(comp, 4, 1, Stream(7, DOMAIN_BLOCK, 0))
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

    class Recorder(generator.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(generator, "ThreadPoolExecutor", Recorder)
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

    def failing(comp, k, count, stream):
        if stream.key[1] == 3:
            raise MemoryError("block 3")
        return emit(comp, k, count, stream)

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
    # before their units are listed, not after a million Stream handles.
    empty = np.empty

    def refuse_huge(shape, *args, **kwargs):
        if np.prod(shape) >= 1 << 36:
            raise MemoryError("output")
        return empty(shape, *args, **kwargs)

    built = []

    def counted(*key):
        built.append(key)
        assert len(built) <= 8, "block units listed before the output was allocated"
        return Stream(*key)

    monkeypatch.setattr(np, "empty", refuse_huge)
    monkeypatch.setattr(generator, "Stream", counted)
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
