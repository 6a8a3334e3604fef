import concurrent.futures
import hashlib
import itertools
import math
import os
import sys
import threading

import numpy as np
import pytest

import rmatgen.generator as generator_mod
import rmatgen.partition as partition_mod
from rmatgen import (
    DEFAULT_BLOCK_SIZE,
    GenConfig,
    MAX_PLAN_TILES,
    PartitionPlan,
    PlanTooLarge,
    TableModelMismatch,
    TileCount,
    cell_histogram,
    chi_square,
    default_plan,
    exact_cell_probs,
    generate_part,
    generate_part_stream,
    plan_tiles,
    pool_small_cells,
    split_quadrant_counts,
)
from conftest import SKEWED, UNIFORM, fixed_table, params_for, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


def packed(edges, k):
    return np.sort((edges[:, 0] << np.uint64(k)) | edges[:, 1])


# ------------------------------------------------------------------- splits


def test_split_zero_count():
    assert split_quadrant_counts(0, params_for(G500, 4), (1, 1)) == (0, 0, 0, 0)


def test_split_conserves_count():
    params = params_for(G500, 8)
    for count in (1, 2, 17, 10**5):
        parts = split_quadrant_counts(count, params, (9, count))
        assert all(n >= 0 for n in parts)
        assert sum(parts) == count


def test_split_uniform_within_binomial_bound():
    n = 10**6
    sigma = math.sqrt(n * 0.25 * 0.75)
    parts = split_quadrant_counts(n, params_for(UNIFORM, 4), (3, 1))
    for got in parts:
        assert abs(got - n / 4) <= 4 * sigma


def test_split_deterministic_per_node_key():
    params = params_for(G500, 6)
    assert split_quadrant_counts(5000, params, (7, 21)) == split_quadrant_counts(
        5000, params, (7, 21)
    )


def test_split_differs_across_node_keys():
    params = params_for(G500, 6)
    a = split_quadrant_counts(10**5, params, (7, 21))
    b = split_quadrant_counts(10**5, params, (7, 22))
    c = split_quadrant_counts(10**5, params, (8, 21))
    assert a != b or a != c


# --------------------------------------------------------------------- plans


def test_plan_t0_is_single_tile():
    plan = default_plan(k=10, t=0, m=12345, seed=3)
    assert plan_tiles(plan, params_for(G500, 10)) == [
        TileCount(tile_row=0, tile_col=0, count=12345)
    ]


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("quads", [G500, UNIFORM])
def test_plan_conserves_total(t, quads):
    plan = default_plan(k=8, t=t, m=10**5, seed=11)
    tiles = plan_tiles(plan, params_for(quads, 8))
    assert len(tiles) == 1 << (2 * t)
    assert sum(tc.count for tc in tiles) == 10**5


def test_plan_one_part_vs_four_parts_identical():
    params = params_for(G500, 4)
    whole = plan_tiles(default_plan(k=4, t=2, m=10**5, seed=5), params)
    split = default_plan(k=4, t=2, m=10**5, seed=5, parts=4)
    merged = []
    for part in range(4):
        merged.extend(plan_tiles(split, params, part=part))
    key = lambda tc: (tc.tile_row, tc.tile_col)
    assert sorted(whole, key=key) == sorted(merged, key=key)


def test_plan_t1_uniform_aggregates_within_bound():
    m = 4 * 10**6
    sigma = math.sqrt(m * 0.25 * 0.75)
    tiles = plan_tiles(default_plan(k=20, t=1, m=m, seed=2), params_for(UNIFORM, 20))
    assert len(tiles) == 4
    for tc in tiles:
        assert abs(tc.count - m / 4) <= 4 * sigma


def test_plan_parts_cover_grid_disjointly():
    plan = default_plan(k=6, t=3, m=9999, seed=17, parts=3)
    seen = set()
    for part in range(3):
        for tc in plan_tiles(plan, params_for(G500, 6), part=part):
            coord = (tc.tile_row, tc.tile_col)
            assert coord not in seen
            seen.add(coord)
    assert len(seen) == 64


def test_plan_includes_zero_count_tiles():
    # a tiny m cannot fill a 16-tile grid, yet every tile is reported
    tiles = plan_tiles(default_plan(k=8, t=2, m=3, seed=1), params_for(G500, 8))
    assert len(tiles) == 16
    assert sum(tc.count for tc in tiles) == 3
    assert any(tc.count == 0 for tc in tiles)


@pytest.mark.parametrize("t,parts", [(2, 1), (3, 1), (3, 8), (4, 16), (4, 1)])
def test_plan_work_scales_with_owned_rows(t, parts, monkeypatch):
    # pruning keeps the nodes split within 4 * owned_rows * t at these scales
    calls = [0]
    original = partition_mod._splits

    def counting(params, seed, counts, paths):
        calls[0] += len(counts)
        return original(params, seed, counts, paths)

    monkeypatch.setattr(partition_mod, "_splits", counting)
    plan = default_plan(k=8, t=t, m=10**4, seed=4, parts=parts)
    params = params_for(G500, 8)
    for part in range(parts):
        calls[0] = 0
        plan_tiles(plan, params, part=part)
        lo, hi = plan.owner_rows[part]
        assert calls[0] <= 4 * (hi - lo) * t


def _plan_oracle(plan, params, part):
    # The recursive walk plan_tiles replaced: depth first, one node a call.
    lo, hi = plan.owner_rows[part]
    out = []

    def rec(level, row0, col0, code, count):
        if level == plan.t:
            out.append(TileCount(row0, col0, count))
            return
        half = 1 << (plan.t - level - 1)
        for digit, n in enumerate(split_quadrant_counts(count, params, (plan.seed, code))):
            r0 = row0 + (digit >> 1) * half
            if r0 + half > lo and r0 < hi:
                rec(level + 1, r0, col0 + (digit & 1) * half, (code << 2) | digit, n)

    if lo < hi:  # a part that owns no rows plans nothing, at t = 0 too
        rec(0, 0, 0, 1, plan.m)
    return out


@pytest.mark.parametrize("k,t,m,parts", [(8, 0, 77, 1), (8, 3, 5, 3), (12, 5, 10**5, 3),
                                         (20, 7, 2**20, 5), (40, 6, 300, 2)])
def test_plan_matches_recursive_walk(k, t, m, parts):
    # Small m leaves whole subtrees empty; odd part counts cut quadrants.
    plan = default_plan(k=k, t=t, m=m, seed=13, parts=parts)
    params = params_for(G500, k)
    for part in range(parts):
        assert plan_tiles(plan, params, part) == _plan_oracle(plan, params, part)


def test_plan_levels_equal_one_split_per_node():
    # _plan_cells splits each level in one loop; split_quadrant_counts, the
    # public split of one node, gives the same counts node by node, for
    # every part of every grid up to t = 4, parts that own no rows included.
    k = 10
    params = params_for(SKEWED, k)
    for t in range(5):
        for parts in range(1, (1 << t) + 3):
            plan = default_plan(k=k, t=t, m=50_000, seed=t + 7 * parts, parts=parts)
            for part in range(parts):
                assert plan_tiles(plan, params, part) == _plan_oracle(plan, params, part)


def test_default_plan_balances_rows():
    plan = default_plan(k=5, t=3, m=10, seed=0, parts=3)
    sizes = [hi - lo for lo, hi in plan.owner_rows]
    assert sizes == [3, 3, 2]
    assert plan.owner_rows[0][0] == 0
    assert plan.owner_rows[-1][1] == 8


def test_default_plan_rejects_zero_parts():
    with pytest.raises(ValueError):
        default_plan(k=4, t=2, m=1, seed=0, parts=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=4, t=5, m=1, seed=0, parts=1),
        dict(k=4, t=-1, m=1, seed=0, parts=1),
        dict(k=40, t=32, m=1, seed=0, parts=1),
        dict(k=4, t=2, m=-1, seed=0, parts=1),
        dict(k=4, t=2, m=1 << 63, seed=0, parts=1),
        dict(k=4, t=2, m=1, seed=0, parts=0),
        dict(k=4, t=2, m=1, seed=0, parts=-1),
        dict(k=4, t=0, m=1, seed=0, parts=0),
        dict(k=8, t=4, m=1, seed=0, parts=-(1 << 40)),
    ],
)
def test_partition_plan_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        PartitionPlan(**kwargs)


def test_partition_plan_deals_rows_from_parts():
    # The loop that dealt the rows when plans were built from a list of runs.
    for t in range(5):
        for parts in range(1, (1 << t) + 3):
            base, extra = divmod(1 << t, parts)
            bounds = [0]
            for i in range(parts):
                bounds.append(bounds[-1] + base + (i < extra))
            plan = PartitionPlan(k=6, t=t, m=10, seed=1, parts=parts)
            assert plan.owner_rows == tuple(zip(bounds, bounds[1:]))
            assert plan == default_plan(6, t, 10, 1, parts)
    for parts in (0, -1):
        with pytest.raises(ValueError):
            PartitionPlan(k=6, t=2, m=10, seed=1, parts=parts)


def test_parts_plans_hold_m_edges_inside_their_rows():
    # A part that owns no tile rows plans no tile.  At t = 0 no level
    # below the root prunes, so such a part once planned the whole matrix.
    params = params_for(G500, 8)
    for t in range(4):
        for parts in range(1, (1 << t) + 3):
            plan = default_plan(8, t, 1000, 1, parts)
            total = 0
            for part in range(parts):
                lo, hi = plan.owner_rows[part]
                tiles = plan_tiles(plan, params, part)
                assert len(tiles) == (hi - lo) << t
                assert all(lo <= tc.tile_row < hi for tc in tiles)
                total += sum(tc.count for tc in tiles)
            assert total == 1000
    table = variable_table(G500, 8, 253)
    for part in (1, 2):
        edges, tiles, used = generate_part(default_plan(8, 0, 1000, 1, 3), params, table, part)
        assert (edges.shape, tiles, used) == ((0, 2), [], 0)


# --------------------------------------------------------------------- tiles


def cell_array(tiles):
    # TileCounts as the planner's _CELL record array, the form the fill reads.
    return np.rec.array(np.array([tuple(tc) for tc in tiles], dtype=partition_mod._CELL))


def fill_tile(tc, table, k, t, seed):
    # One tile alone through the fill every part's tiles go through.
    plan = default_plan(k=k, t=t, m=tc.count, seed=seed)
    return generator_mod._collect(*partition_mod._fill(plan, table, cell_array([tc]), 1))[0]


def test_tile_fully_resolved_prefix_repeats_one_cell():
    table = variable_table(G500, 3, 253)
    edges = fill_tile(TileCount(5, 2, 7), table, k=3, t=3, seed=9)
    assert edges.tolist() == [[5, 2]] * 7


def test_tile_empty_prefix_matches_exact_distribution():
    k, m = 3, 2 * 10**5
    params = params_for(G500, k)
    table = variable_table(G500, k, 253)
    edges = fill_tile(TileCount(0, 0, m), table, k=k, t=0, seed=21)
    result = chi_square(cell_histogram(edges, k), exact_cell_probs(params, k))
    assert result.passed, f"stat={result.statistic:.1f} thr={result.threshold:.1f}"


def test_tile_edges_stay_inside_tile():
    k, t = 8, 3
    table = variable_table(G500, k, 253)
    inner = k - t
    for row, col in [(0, 0), (3, 7), (7, 1)]:
        edges = fill_tile(TileCount(row, col, 2000), table, k=k, t=t, seed=14)
        assert len(edges) == 2000
        assert np.all(edges[:, 0] >> inner == row)
        assert np.all(edges[:, 1] >> inner == col)


def test_tile_conditional_distribution_is_self_similar():
    # the in-tile process over the remaining bits is itself R-MAT
    k, t, count = 5, 2, 60000
    inner = k - t
    table = variable_table(G500, k, 253)
    edges = fill_tile(TileCount(2, 1, count), table, k=k, t=t, seed=8)
    mask = np.uint64((1 << inner) - 1)
    local = np.column_stack([edges[:, 0] & mask, edges[:, 1] & mask])
    inner_params = params_for(G500, inner)
    result = chi_square(cell_histogram(local, inner), exact_cell_probs(inner_params, inner))
    assert result.passed, f"stat={result.statistic:.1f} thr={result.threshold:.1f}"


def test_tile_deterministic_and_tile_keyed():
    k, t = 8, 2
    table = variable_table(G500, k, 253)
    a = fill_tile(TileCount(1, 2, 500), table, k=k, t=t, seed=3)
    b = fill_tile(TileCount(1, 2, 500), table, k=k, t=t, seed=3)
    c = fill_tile(TileCount(2, 1, 500), table, k=k, t=t, seed=3)
    mask = np.uint64((1 << (k - t)) - 1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a & mask, c & mask)


def _units_oracle(tiles):
    # Each tile cut from its start into pieces of a block, batched whole
    # until a batch holds a block: the (row, col, count, piece) of each
    # batch's pieces.
    batches, batch, held = [], [], 0
    for row, col, count in tiles:
        for piece, lo in enumerate(range(0, count, DEFAULT_BLOCK_SIZE)):
            take = min(DEFAULT_BLOCK_SIZE, count - lo)
            batch.append((row, col, take, piece))
            held += take
            if held >= DEFAULT_BLOCK_SIZE:
                batches.append(batch)
                batch, held = [], 0
    if batch:
        batches.append(batch)
    return sum(tc.count for tc in tiles), batches


@pytest.mark.parametrize("k,t,m", [(12, 3, 1_000_000), (20, 8, 2**20), (16, 1, 5 * DEFAULT_BLOCK_SIZE),
                                   (14, 4, 3 * DEFAULT_BLOCK_SIZE), (12, 2, 1_000_000),
                                   (10, 0, 2 * DEFAULT_BLOCK_SIZE), (10, 0, 3 * DEFAULT_BLOCK_SIZE + 5),
                                   (6, 2, 0)])
def test_units_match_the_batching_loop(k, t, m):
    tiles = plan_tiles(default_plan(k=k, t=t, m=m, seed=3), params_for(G500, k))
    total, units = partition_mod._units(None, cell_array(tiles), k, t, 3)
    want_total, want = _units_oracle(tiles)
    # A batch gives the piece index of its first entry; the others are piece 0.
    got = [[(int(row), int(col), int(count), unit.args[-1] if i == 0 else 0)
            for i, (row, col, count) in enumerate(unit.args[1])] for unit in units]
    assert (total, got) == (want_total, want)


# --------------------------------------------------------------------- parts


def test_generate_part_count_and_conservation():
    k, t, m = 8, 2, 10**4
    params = params_for(G500, k)
    table = variable_table(G500, k, 253)
    plan = default_plan(k=k, t=t, m=m, seed=31)
    edges, tiles, samples = generate_part(plan, params, table)
    assert len(edges) == m
    assert sum(tc.count for tc in tiles) == m
    assert samples > 0
    assert edges.dtype == np.uint64


def test_generate_part_plans_once_and_checks_nothing_it_planned(monkeypatch):
    # The tiles are planned as one array, filled from it and returned as the
    # plan_tiles list.
    k, t, m = 8, 2, 10**4
    params, table = params_for(G500, k), variable_table(G500, k, 253)
    plan = default_plan(k=k, t=t, m=m, seed=31, parts=2)
    expected = plan_tiles(plan, params, 1)
    planned = []
    real_plan = partition_mod._plan_cells
    monkeypatch.setattr(partition_mod, "_plan_cells",
                        lambda *a: planned.append(a) or real_plan(*a))
    edges, tiles, _ = generate_part(plan, params, table, part=1)
    assert len(planned) == 1
    assert tiles == expected and all(type(tc) is TileCount for tc in tiles)
    assert len(edges) == sum(tc.count for tc in tiles)


def test_generate_part_union_equals_single_part():
    k, t, m = 8, 2, 10**4
    params = params_for(G500, k)
    table = variable_table(G500, k, 253)
    whole, _, _ = generate_part(default_plan(k=k, t=t, m=m, seed=31), params, table)
    split_plan = default_plan(k=k, t=t, m=m, seed=31, parts=4)
    pieces = [generate_part(split_plan, params, table, part=i)[0] for i in range(4)]
    merged = np.concatenate(pieces)
    assert len(merged) == m
    assert np.array_equal(packed(whole, k), packed(merged, k))


def test_generate_part_empty_plan():
    params = params_for(G500, 6)
    table = variable_table(G500, 6, 253)
    edges, tiles, samples = generate_part(
        default_plan(k=6, t=1, m=0, seed=1), params, table
    )
    assert len(edges) == 0
    assert sum(tc.count for tc in tiles) == 0
    assert samples == 0


def test_oversized_plan_rejected_before_planning(monkeypatch):
    # 2^16 x 2^16 tiles would be 4^16 TileCounts; the bound trips before any split.
    def unreachable(*args):
        raise AssertionError("planned an over-limit plan")

    monkeypatch.setattr(partition_mod, "split_quadrant_counts", unreachable)
    plan = default_plan(k=30, t=16, m=10, seed=1)
    with pytest.raises(PlanTooLarge, match="tiles"):
        plan_tiles(plan, params_for(G500, 30))
    assert MAX_PLAN_TILES == 1 << 20
    assert issubclass(PlanTooLarge, ValueError)


@pytest.mark.parametrize("t,parts,ok", [(2, 1, True), (3, 1, False), (3, 2, False), (3, 4, True)])
def test_plan_bound_counts_owned_tiles(monkeypatch, t, parts, ok):
    # A part lists (owned rows) << t tiles; the bound applies to that count.
    monkeypatch.setattr(partition_mod, "MAX_PLAN_TILES", 16)
    plan = default_plan(k=8, t=t, m=100, seed=1, parts=parts)
    if ok:
        assert len(plan_tiles(plan, params_for(G500, 8))) == 16
    else:
        with pytest.raises(PlanTooLarge):
            plan_tiles(plan, params_for(G500, 8))


@pytest.mark.parametrize("part", [-1, 2])
def test_part_outside_plan_rejected(part):
    params = params_for(G500, 8)
    plan = default_plan(8, 2, 1000, 1, parts=2)
    with pytest.raises(ValueError, match=r"part must be in \[0, 2\), got"):
        plan_tiles(plan, params, part)
    with pytest.raises(ValueError, match=r"part must be in \[0, 2\), got"):
        generate_part(plan, params, variable_table(G500, 8, 253), part=part)


def test_table_for_another_model_rejected(monkeypatch):
    # A G500 table must not silently drive SKEWED counts: every entry point
    # rejects the pair before it plans a tile or emits an edge.
    def unreachable(*args):
        raise AssertionError("planned or emitted with a mismatched table")

    monkeypatch.setattr(partition_mod, "plan_tiles", unreachable)
    monkeypatch.setattr(partition_mod, "_plan_cells", unreachable)
    monkeypatch.setattr(generator_mod, "_emit", unreachable)
    monkeypatch.setattr(partition_mod, "_emit", unreachable)
    k = 8
    params, table = params_for(SKEWED, k), variable_table(G500, k, 253)
    plan = default_plan(k, 2, 1000, 1)
    with pytest.raises(TableModelMismatch, match="table built for"):
        GenConfig(params=params, table=table, edge_count=1000, seed=1)
    with pytest.raises(TableModelMismatch):
        generate_part(plan, params, table)
    with pytest.raises(TableModelMismatch):
        generate_part_stream(plan, params, table)
    assert issubclass(TableModelMismatch, ValueError)  # the CLI's exit 2


@pytest.mark.parametrize("threads", [0, -3])
def test_generate_part_rejects_bad_thread_count(threads):
    plan = default_plan(8, 2, 1000, 1)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        generate_part(plan, params_for(G500, 8), variable_table(G500, 8, 253), threads=threads)


def test_partitioned_pooled_output_matches_exact_probs():
    # distribution equivalence of partitioned generation, pooled over tiles
    k, t, m = 4, 2, 10**6
    params = params_for(G500, k)
    table = variable_table(G500, k, 1021)
    plan = default_plan(k=k, t=t, m=m, seed=77, parts=2)
    pieces = [generate_part(plan, params, table, part=i)[0] for i in range(2)]
    hist = cell_histogram(np.concatenate(pieces), k)
    probs = exact_cell_probs(params, k)
    pp, cc = pool_small_cells(probs, hist.counts)
    result = chi_square(cc, pp)
    assert result.passed, f"stat={result.statistic:.1f} thr={result.threshold:.1f}"


@pytest.mark.parametrize("kind", ["fixed", "variable"])
@pytest.mark.parametrize(
    "k,t,m,parts,part",
    [
        (4, 3, 30, 1, 0),  # k - t = 1: mostly empty and count-1 tiles
        (4, 2, 250_000, 2, 0),  # k - t = 2: a tile larger than one block
        (33, 2, 500, 2, 1),  # k - t = 31
        (35, 2, 500, 1, 0),  # k - t = 33
        (62, 0, 70_000, 1, 0),  # k - t = 62: one tile larger than one block
    ],
)
def test_generate_part_equals_per_tile_generation(kind, k, t, m, parts, part, monkeypatch):
    # A tile's bytes depend on neither the batches nor the threads that fill it.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    params = params_for(G500, k)
    table = fixed_table(G500, k, 5) if kind == "fixed" else variable_table(G500, k, 253)
    plan = default_plan(k=k, t=t, m=m, seed=5, parts=parts)
    tiles = plan_tiles(plan, params, part)
    each = np.concatenate([fill_tile(tc, table, k=k, t=t, seed=5) for tc in tiles])
    assert len(each) == sum(tc.count for tc in tiles)
    for threads in (1, 2):
        edges, _, _ = generate_part(plan, params, table, part=part, threads=threads)
        assert np.array_equal(edges, each)


@pytest.mark.parametrize(
    "kind,samples,digest",
    [
        ("variable", 943589, "2ce7e70edfd6c5c2e5d6bec75e1b5a03"),
        ("fixed", 1145856, "6aad7443167beaa6848af8ca28db8878"),
    ],
    ids=["variable", "fixed"],
)
def test_generate_part_bytes_pinned(kind, samples, digest):
    # Output bytes and sample counts are part of the contract.  Part 0 of
    # this plan holds a tile of 84,386 edges, cut into two pieces, and spans
    # several batches.
    k = 14
    table = fixed_table(G500, k, 5) if kind == "fixed" else variable_table(G500, k, 1021)
    plan = default_plan(k=k, t=4, m=800_000, seed=2024, parts=3)
    edges, _, used = generate_part(plan, params_for(G500, k), table, part=0)
    got = hashlib.blake2b(edges.astype("<u8").tobytes(), digest_size=16).hexdigest()
    assert (len(edges), used, got) == (572928, samples, digest)


@pytest.mark.parametrize(
    "samples,digest",
    [(3600000, "fe40791098d8d31f53e15d7f5245e61a")],
    ids=["fixed"],
)
def test_generate_part_depth1_bytes_pinned(samples, digest):
    # Depth 1 at k - t = 18 puts 18 fragments under every edge, and tile
    # batches fill from the word stream.
    k = 20
    plan = default_plan(k=k, t=2, m=200_000, seed=1)
    table = fixed_table(G500, k, 1)
    edges, _, used = generate_part(plan, params_for(G500, k), table)
    got = hashlib.blake2b(edges.astype("<u8").tobytes(), digest_size=16).hexdigest()
    assert (len(edges), used, got) == (200_000, samples, digest)


@pytest.mark.parametrize(
    "kind,samples,digest",
    [
        ("variable", 919097, "6ac0bd9e7415ad6486b914fb0163805a"),
        ("fixed", 1460166, "a159bda8a76e7bcc6b53b421558de4eb"),
    ],
    ids=["variable", "fixed"],
)
def test_generate_part_many_small_tiles_bytes_pinned(kind, samples, digest):
    # 12,563 non-empty tiles of about 48 edges: each batch joins over a
    # thousand streams, chunk cuts fall inside batches, and the pieces
    # they cut resume from carries.
    k = 20
    table = fixed_table(G500, k, 5) if kind == "fixed" else variable_table(G500, k, 8191)
    plan = default_plan(k=k, t=8, m=2**20, seed=7, parts=4)
    edges, _, used = generate_part(plan, params_for(G500, k), table, part=0)
    got = hashlib.blake2b(edges.astype("<u8").tobytes(), digest_size=16).hexdigest()
    assert (len(edges), used, got) == (606149, samples, digest)


def test_generate_part_batches_close_at_one_block(monkeypatch):
    calls = []
    original = partition_mod._emit

    def counting(comp, k, counts, streams, prefix):
        calls.append(counts.tolist())
        return original(comp, k, counts, streams, prefix)

    monkeypatch.setattr(partition_mod, "_emit", counting)
    k = 14
    plan = default_plan(k=k, t=5, m=400_000, seed=3, parts=2)
    edges, tiles, _ = generate_part(plan, params_for(G500, k), variable_table(G500, k, 253))
    filled = [tc.count for tc in tiles if tc.count]
    assert [c for batch in calls for c in batch] == filled
    assert len(calls) < len(filled)
    for batch in calls[:-1]:
        assert sum(batch[:-1]) < DEFAULT_BLOCK_SIZE <= sum(batch)


# ------------------------------------------------------------------- threads


def part_inputs(kind):
    # 5 tile batches of this plan are the units.
    k, m = 12, 300_000
    table = fixed_table(G500, k, 3) if kind == "fixed" else variable_table(G500, k, 253)
    return default_plan(k=k, t=3, m=m, seed=31), params_for(G500, k), table


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_generate_part_thread_count_invariance(threads, monkeypatch):
    # Reporting 8 cores lets hosts with fewer still run `threads` threads,
    # and a short switch interval interleaves them often.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("variable", "fixed"):
            plan, params, table = part_inputs(kind)
            ref, tiles, used = generate_part(plan, params, table)
            got, _, got_used = generate_part(plan, params, table, threads=threads)
            assert got.shape == (plan.m, 2)
            assert got_used == used
            assert (got == ref).all()
    finally:
        sys.setswitchinterval(interval)


def test_generate_part_pool_bounded_by_units(monkeypatch):
    sizes = []

    class Recorder(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    plan, params, table = part_inputs("variable")
    tiles = plan_tiles(plan, params)
    _, units = partition_mod._units(None, cell_array(tiles), plan.k, plan.t, plan.seed)
    # 64 threads asked for: 5 batches bound the pool; with more than 8
    # batches the 8 cores do; a plan that fits one batch starts no pool at all.
    generate_part(plan, params, table, threads=64)
    assert sizes == [len(units)] == [5]
    large = default_plan(k=12, t=3, m=1_000_000, seed=31)
    generate_part(large, params, table, threads=64)
    assert sizes == [5, 8]
    small = default_plan(k=12, t=3, m=DEFAULT_BLOCK_SIZE - 1, seed=31)
    generate_part(small, params, table, threads=64)
    assert sizes == [5, 8]


def test_generate_part_error_propagates_from_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    plan, params, table = part_inputs("variable")
    calls = itertools.count()
    emit = partition_mod._emit

    def failing(comp, k, counts, streams, prefix):
        if next(calls) == 2:
            raise MemoryError("batch 2")
        return emit(comp, k, counts, streams, prefix)

    monkeypatch.setattr(partition_mod, "_emit", failing)
    raised = []

    def run():
        try:
            generate_part(plan, params, table, threads=2)
        except MemoryError as exc:
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(60)
    assert not runner.is_alive()
    assert [str(exc) for exc in raised] == ["batch 2"]


# ------------------------------------------------------------- split tiles


def big_tile_inputs(kind):
    # Tile (0, 0) of this plan holds about 2.8 blocks next to tiles of
    # about one block and smaller ones.
    k, m = 12, 1_000_000
    table = fixed_table(G500, k, 3) if kind == "fixed" else variable_table(G500, k, 253)
    return default_plan(k=k, t=3, m=m, seed=31), params_for(G500, k), table


@pytest.mark.parametrize("kind,count", [("variable", 3 * DEFAULT_BLOCK_SIZE + 123),
                                        ("fixed", 4 * DEFAULT_BLOCK_SIZE)])
def test_split_tile_equals_one_unsplit_call(kind, count, monkeypatch):
    # A tile of several blocks is cut into block-sized units, piece p drawn
    # from the tile's key with p in the counter's second word.  Piece 0 is
    # the uncut tile's stream, so the first block is that of one unsplit
    # call.  Fixed depth 4 under 16 inner bits ends every piece on a
    # fragment boundary.
    k, t, seed = 18, 2, 7
    table = fixed_table(G500, k, 4) if kind == "fixed" else variable_table(G500, k, 1021)
    comp = generator_mod._compile(table)
    tc = TileCount(tile_row=2, tile_col=1, count=count)
    total, units = partition_mod._units(comp, cell_array([tc]), k, t, seed)
    assert total == count and len(units) == -(-count // DEFAULT_BLOCK_SIZE)
    pieces = [unit() for unit in units]
    monkeypatch.setattr(generator_mod, "_CHUNK_EDGES", count)
    prefix = np.array([2, 1], dtype=np.uint64) << np.uint64(k - t)
    key = (2 << t) | 1
    for p, (edges, used) in enumerate(pieces):
        stream = partition_mod.Streams(seed, partition_mod.DOMAIN_TILE, key)
        stream.piece[0] = p
        size = min(DEFAULT_BLOCK_SIZE, count - p * DEFAULT_BLOCK_SIZE)
        bits, want = partition_mod._emit(comp, k - t, np.array([size]), stream)
        assert used == want
        assert np.array_equal(edges, bits | prefix)
    stream = partition_mod.Streams(seed, partition_mod.DOMAIN_TILE, key)
    uncut, _ = partition_mod._emit(comp, k - t, np.array([count]), stream)
    uncut |= prefix
    assert np.array_equal(pieces[0][0], uncut[:DEFAULT_BLOCK_SIZE])
    assert not np.array_equal(pieces[1][0], uncut[DEFAULT_BLOCK_SIZE : 2 * DEFAULT_BLOCK_SIZE])


def test_split_tile_units_close_at_one_block():
    plan, params, _ = big_tile_inputs("variable")
    tiles = plan_tiles(plan, params)
    assert max(tc.count for tc in tiles) > 2 * DEFAULT_BLOCK_SIZE
    total, units = partition_mod._units(None, cell_array(tiles), plan.k, plan.t, plan.seed)
    sizes = [sum(tc.count for tc in unit.args[1]) for unit in units]
    assert sum(sizes) == total == plan.m
    assert max(sizes) < 2 * DEFAULT_BLOCK_SIZE


@pytest.mark.parametrize("threads", [2, 3, 8])
def test_split_tile_thread_count_invariance(threads, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for kind in ("variable", "fixed"):
            plan, params, table = big_tile_inputs(kind)
            ref, _, used = generate_part(plan, params, table)
            got, _, got_used = generate_part(plan, params, table, threads=threads)
            assert got_used == used
            assert np.array_equal(got, ref)
    finally:
        sys.setswitchinterval(interval)
