import heapq
import math

import numpy as np
import pytest

from rmatgen import (
    DEFAULT_DEPTH_CAP,
    MAX_FIXED_DEPTH,
    MAX_TABLE_ENTRIES,
    DepthOutOfRange,
    NoiseOutOfRange,
    SizeLimitTooSmall,
    TableTooLarge,
    build_fixed_table,
    build_variable_table,
    dump_table,
    emit_block,
    perturb_table,
    table_stats,
    validate,
)
from conftest import SKEWED, UNIFORM, params_for, fixed_table, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


def interleaved_code(entry) -> int:
    """Path digits (row bit, col bit per level) packed MSB-first, 1 sentinel."""
    code = 1
    for lvl in range(entry.depth - 1, -1, -1):
        digit = (((entry.row_bits >> lvl) & 1) << 1) | ((entry.col_bits >> lvl) & 1)
        code = (code << 2) | digit
    return code


def assert_prefix_free_complete(table):
    """The entries are exactly the leaves of a finite 4-ary tree.

    Integer-exact check: a depth-d leaf covers 4^(D-d) depth-D slots; a
    prefix-free complete set covers all 4^D exactly once.  Collisions or
    prefixes would double-cover, holes would under-cover.
    """
    D = int(table.depths.max())
    covered = 0
    seen = set()
    for e in table:
        code = interleaved_code(e)
        assert code not in seen
        seen.add(code)
        covered += 4 ** (D - e.depth)
    assert covered == 4**D
    # no entry is a prefix of another: strip the sentinel, compare paths
    codes = sorted((interleaved_code(e), e.depth) for e in table)
    for (c1, d1), (c2, d2) in zip(codes, codes[1:]):
        if d2 > d1:
            assert (c2 >> (2 * (d2 - d1))) != c1


def path_prob(params, entry) -> float:
    quads = params.quadrants
    p = 1.0
    for lvl in range(entry.depth - 1, -1, -1):
        digit = (((entry.row_bits >> lvl) & 1) << 1) | ((entry.col_bits >> lvl) & 1)
        p *= quads[digit]
    return p


def test_fixed_depth1_is_the_quadrant_distribution():
    t = fixed_table(G500, 4, 1)
    assert t.kind == "fixed"
    assert len(t) == 4
    got = {(e.row_bits, e.col_bits): e.prob for e in t}
    assert got[(0, 0)] == pytest.approx(0.57)
    assert got[(0, 1)] == pytest.approx(0.19)
    assert got[(1, 0)] == pytest.approx(0.19)
    assert got[(1, 1)] == pytest.approx(0.05, abs=1e-12)


def test_fixed_depth2_cell_product():
    t = fixed_table(G500, 4, 2)
    assert len(t) == 16
    got = {(e.row_bits, e.col_bits): e.prob for e in t}
    assert got[(0, 0)] == pytest.approx(0.57**2)
    assert got[(0b11, 0b11)] == pytest.approx(0.05**2, rel=1e-9)


def test_fixed_entries_in_interleaved_order():
    t = fixed_table(G500, 4, 3)
    codes = [interleaved_code(e) for e in t]
    assert codes == sorted(codes)
    assert len(codes) == 64


@pytest.mark.parametrize("depth", [0, -1, MAX_FIXED_DEPTH + 1, 17])  # 17: 4**17 entries
def test_fixed_depth_bounds(depth):
    with pytest.raises(DepthOutOfRange):
        build_fixed_table(params_for(G500, 4), depth)


@pytest.mark.parametrize("depth", range(1, 9))
def test_fixed_probs_sum_to_one(depth):
    t = fixed_table(G500, 4, depth)
    assert abs(float(t.probs.sum()) - 1.0) < 1e-9
    assert (t.depths == depth).all()


def test_variable_s4_is_one_expansion():
    t = variable_table(G500, 4, 4)
    assert t.kind == "variable"
    assert len(t) == 4
    assert (t.depths == 1).all()
    assert sorted(t.probs) == pytest.approx(sorted(G500), abs=1e-12)


def test_variable_uniform_s16_all_depth2():
    t = variable_table(UNIFORM, 4, 16)
    assert len(t) == 16
    assert (t.depths == 2).all()
    np.testing.assert_allclose(t.probs, 1 / 16)


def test_variable_uniform_matches_fixed_as_sets():
    tv = variable_table(UNIFORM, 4, 64)
    tf = fixed_table(UNIFORM, 4, 3)
    sv = {(e.row_bits, e.col_bits, e.depth) for e in tv}
    sf = {(e.row_bits, e.col_bits, e.depth) for e in tf}
    assert sv == sf


@pytest.mark.parametrize("size", [4, 253, 1021, 8191])
def test_variable_exact_sizes(size):
    assert len(variable_table(G500, 4, size)) == size


def test_variable_size_one_mod_three():
    for size in (7, 100, 500):
        n = len(variable_table(G500, 4, size))
        assert n % 3 == 1
        assert n <= size


def test_size_limit_too_small():
    with pytest.raises(SizeLimitTooSmall):
        build_variable_table(params_for(G500, 4), 3)


def test_size_limit_capped_before_building():
    # One entry bound serves both kinds: the largest fixed table is the cap.
    assert 4**MAX_FIXED_DEPTH == MAX_TABLE_ENTRIES
    with pytest.raises(TableTooLarge, match=f"<= {MAX_TABLE_ENTRIES}"):
        build_variable_table(params_for(G500, 4), MAX_TABLE_ENTRIES + 1)


@pytest.mark.parametrize("quads,size", [
    (G500, 4), (G500, 253), (G500, 1021), (G500, 8191),
    (UNIFORM, 16), (SKEWED, 253), (SKEWED, 8191),
])
def test_prefix_free_and_complete(quads, size):
    assert_prefix_free_complete(variable_table(quads, 4, size))


@pytest.mark.parametrize("depth", [1, 2, 5])
def test_prefix_free_and_complete_fixed(depth):
    assert_prefix_free_complete(fixed_table(G500, 4, depth))


@pytest.mark.parametrize("quads,size", [(G500, 253), (G500, 1021), (SKEWED, 1021)])
def test_greedy_dominance(quads, size):
    # Rebuild the expansion implicitly: internal nodes are the proper
    # prefixes of the leaves; each was expanded, so its probability must
    # be at least every leaf's.
    params = params_for(quads, 4)
    t = variable_table(quads, 4, size)
    internal = {}
    for e in t:
        q = params.quadrants
        p = 1.0
        for lvl in range(e.depth - 1, -1, -1):
            prefix_depth = e.depth - 1 - lvl
            key = (e.row_bits >> (lvl + 1), e.col_bits >> (lvl + 1), prefix_depth)
            internal.setdefault(key, p)
            digit = (((e.row_bits >> lvl) & 1) << 1) | ((e.col_bits >> lvl) & 1)
            p *= q[digit]
    assert min(internal.values()) >= float(t.probs.max()) - 1e-15


@pytest.mark.parametrize("quads,size", [(G500, 253), (SKEWED, 8191), (UNIFORM, 64)])
def test_probability_product_correctness(quads, size):
    params = params_for(quads, 4)
    t = variable_table(quads, 4, size)
    for e in t:
        assert e.prob == pytest.approx(path_prob(params, e), rel=1e-9)


def test_depth_cap_limits_depth():
    p = params_for(SKEWED, 4)
    t = build_variable_table(p, 1021, depth_cap=5)
    assert int(t.depths.max()) <= 5
    assert abs(float(t.probs.sum()) - 1.0) < 1e-9


def test_depth_cap_binds_for_skewed_large_table():
    t = variable_table(SKEWED, 4, 8191)
    assert int(t.depths.max()) == DEFAULT_DEPTH_CAP
    assert len(t) == 8191


def test_determinism_byte_identical():
    p = params_for(G500, 4)
    t1 = build_variable_table(p, 1021)
    t2 = build_variable_table(p, 1021)
    assert (t1.row_bits == t2.row_bits).all()
    assert (t1.col_bits == t2.col_bits).all()
    assert (t1.depths == t2.depths).all()
    assert (t1.probs == t2.probs).all()


def _heap_reference(quads, size_limit, depth_cap=DEFAULT_DEPTH_CAP):
    """The greedy set by a heap of (-p, depth, code, row, col): (row, col, depth, p) arrays.

    Pops the most probable path, ties to smaller depth, then smaller
    interleaved code, and replaces it with its four children while the set
    fits; entries come out by depth, then code.
    """
    heap = [(-1.0, 0, 0, 0, 0)]
    capped = []
    total = 1
    while heap and total + 3 <= size_limit:
        negp, depth, code, row, col = heapq.heappop(heap)
        for digit in range(4):
            child = (-(-negp * quads[digit]), depth + 1, (code << 2) | digit,
                     (row << 1) | (digit >> 1), (col << 1) | (digit & 1))
            if depth + 1 >= depth_cap:
                capped.append(child)
            else:
                heapq.heappush(heap, child)
        total += 3
    final = sorted(heap + capped, key=lambda e: (e[1], e[2]))
    return (np.array([e[3] for e in final], dtype=np.uint64),
            np.array([e[4] for e in final], dtype=np.uint64),
            np.array([e[1] for e in final], dtype=np.uint64),
            np.array([-e[0] for e in final], dtype=np.float64))


def _assert_matches_heap(quads, size, depth_cap=DEFAULT_DEPTH_CAP):
    t = build_variable_table(params_for(quads, 4), size, depth_cap)
    row, col, dep, probs = _heap_reference(params_for(quads, 4).quadrants, size, depth_cap)
    assert np.array_equal(t.row_bits, row)
    assert np.array_equal(t.col_bits, col)
    assert np.array_equal(t.depths, dep)
    assert np.array_equal(t.probs, probs)


# Dyadic quadrants tie exactly across depths (0.5 * 0.5 == 0.25), where
# depth breaks the tie.
DYADIC = (0.5, 0.25, 0.125, 0.125)


@pytest.mark.parametrize("quads", [G500, SKEWED, UNIFORM, DYADIC],
                         ids=["g500", "skewed", "uniform", "dyadic"])
@pytest.mark.parametrize("size", [4, 5, 7, 100, 1021, 8191, 65535])
def test_variable_matches_heap(quads, size):
    _assert_matches_heap(quads, size)


@pytest.mark.parametrize("quads", [G500, SKEWED, UNIFORM], ids=["g500", "skewed", "uniform"])
@pytest.mark.parametrize("depth_cap", [1, 2, 3, 5])
@pytest.mark.parametrize("size", [4, 100, 1021])
def test_variable_matches_heap_under_depth_cap(quads, depth_cap, size):
    _assert_matches_heap(quads, size, depth_cap)


def test_stats_fixed_depth_exact():
    for depth in (1, 2, 3, 5):
        t = fixed_table(G500, 4, depth)
        s = table_stats(t)
        assert t.mean_depth == s.expected_depth == depth
        assert s.entry_count == 4**depth
        assert s.min_prob == pytest.approx(0.05**depth, rel=1e-9)
        assert s.max_prob == pytest.approx(0.57**depth, rel=1e-9)


def test_stats_graph500_s1021():
    # frozen from an independent entropy/expectation computation over the
    # built entry list
    s = table_stats(variable_table(G500, 4, 1021))
    assert s.expected_depth == pytest.approx(6.073327, abs=1e-5)
    ratio = s.expected_depth / math.log(1021, 4)
    assert ratio == pytest.approx(1.26, rel=0.10)


def test_stats_skewed_s8191():
    s = table_stats(variable_table(SKEWED, 4, 8191))
    assert s.expected_depth == pytest.approx(19.641176, abs=1e-5)
    assert s.expected_info == pytest.approx(12.157801, abs=1e-5)
    assert s.mean_entry_info == pytest.approx(13.830778, abs=1e-5)


def test_stats_expected_info_consistency():
    # entropy identity: expected_info equals the quadrant entropy times the
    # expected depth, because path probabilities are products along the path
    from rmatgen import entropy

    for quads, size in ((G500, 1021), (SKEWED, 8191)):
        p = params_for(quads, 4)
        s = table_stats(variable_table(quads, 4, size))
        assert s.expected_info == pytest.approx(entropy(p) * s.expected_depth, rel=1e-9)


def test_perturb_zero_noise_identity():
    t = variable_table(G500, 4, 253)
    t2 = perturb_table(t, 0.0, 7)
    assert (t2.probs == t.probs).all()


def test_perturb_bounded_and_normalized():
    t = variable_table(G500, 4, 253)
    t2 = perturb_table(t, 0.1, 7)
    assert abs(float(t2.probs.sum()) - 1.0) < 1e-6
    # the normalizer cancels out of ratios, so the observable bound is the
    # spread of multiplicative factors: at most 1.1/0.9
    ratio = t2.probs / t.probs
    assert float(ratio.max() / ratio.min()) <= 1.1 / 0.9 + 1e-9
    assert (t2.row_bits == t.row_bits).all()
    assert (t2.col_bits == t.col_bits).all()
    assert (t2.depths == t.depths).all()


def test_tables_record_their_model():
    for table in (fixed_table(SKEWED, 4, 2), variable_table(SKEWED, 4, 253)):
        assert table.quadrants == params_for(SKEWED, 4).quadrants
        assert perturb_table(table, 0.3, 7).quadrants == table.quadrants


def test_perturb_deterministic_by_seed():
    t = variable_table(G500, 4, 253)
    a = perturb_table(t, 0.5, 42)
    b = perturb_table(t, 0.5, 42)
    c = perturb_table(t, 0.5, 43)
    assert (a.probs == b.probs).all()
    assert not (a.probs == c.probs).all()


def test_perturb_noise_out_of_range():
    t = variable_table(G500, 4, 4)
    for bad in (-0.1, 1.0, 1.5, float("nan")):
        with pytest.raises(NoiseOutOfRange):
            perturb_table(t, bad, 1)


def test_perturbed_table_drives_perturbed_frequencies():
    # k=1: cells are exactly the four quadrants, so frequencies must track
    # the perturbed vector and visibly miss the original one
    t = perturb_table(fixed_table(G500, 1, 1), 0.5, 99)
    edges = emit_block(t, 1, 10**6, (5, 0))
    cell = (edges[:, 0].astype(np.int64) << 1) | edges[:, 1].astype(np.int64)
    counts = np.bincount(cell, minlength=4)
    order = [(e.row_bits << 1) | e.col_bits for e in t]
    probs = np.empty(4)
    probs[order] = t.probs
    n = 10**6
    for i in range(4):
        sigma = math.sqrt(n * probs[i] * (1 - probs[i]))
        assert abs(counts[i] - n * probs[i]) <= 4 * sigma
    # and the original (unperturbed) quadrants are clearly rejected
    miss = [abs(counts[i] - n * p) for i, p in
            enumerate((0.57, 0.19, 0.19, 0.05))]
    assert max(m / math.sqrt(n * p * (1 - p)) for m, p in
               zip(miss, (0.57, 0.19, 0.19, 0.05))) > 8


def test_dump_table_format():
    t = fixed_table(G500, 4, 2)
    lines = list(dump_table(t))
    assert len(lines) == 16
    first = lines[0].split()
    assert len(first) == 4
    assert first[0] == "00" and first[1] == "00"
    assert first[2] == "2"
    assert float(first[3]) == pytest.approx(0.57**2)
