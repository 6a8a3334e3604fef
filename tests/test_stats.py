import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from rmatgen import (
    CellHistogram,
    KTooLargeForEnumeration,
    MAX_ENUM_K,
    SampleTooSmall,
    cell_histogram,
    chi_square,
    chi_square_quantile,
    degree_stats,
    emit_block,
    exact_cell_probs,
    naive_edges,
    pool_small_cells,
)
import rmatgen.stats as stats_mod
from rmatgen.stats import MIN_EXPECTED, InvalidExpectedVector
from conftest import SKEWED, UNIFORM, params_for, variable_table

G500 = (0.57, 0.19, 0.19, 0.05)


def test_exact_cell_probs_k1_is_quadrants():
    probs = exact_cell_probs(params_for(G500, 1), 1)
    np.testing.assert_allclose(probs, [0.57, 0.19, 0.19, 0.05], atol=1e-12)


def test_exact_cell_probs_uniform_k3():
    probs = exact_cell_probs(params_for(UNIFORM, 3), 3)
    assert probs.shape == (64,)
    np.testing.assert_allclose(probs, 1 / 64)
    assert float(probs.sum()) == 1.0


def test_exact_cell_probs_k2_corner():
    probs = exact_cell_probs(params_for(G500, 2), 2)
    # cell u=0, v=0 sits at flat index 0 under (u << k) | v
    assert probs[0] == pytest.approx(0.3249, abs=1e-9)


@pytest.mark.parametrize("k", [1, 4, 8, MAX_ENUM_K])
def test_exact_cell_probs_sum_to_one(k):
    probs = exact_cell_probs(params_for(G500, k), k)
    assert abs(float(probs.sum()) - 1.0) < 1e-9


def test_exact_cell_probs_k_too_large():
    with pytest.raises(KTooLargeForEnumeration):
        exact_cell_probs(params_for(G500, 13), 13)


@pytest.mark.parametrize("k", [2, 5])
def test_row_marginal_consistency(k):
    params = params_for(G500, k)
    probs = exact_cell_probs(params, k).reshape(1 << k, 1 << k)
    rows = probs.sum(axis=1)
    top, bottom = 0.57 + 0.19, 0.19 + 0.05
    for u in range(1 << k):
        expect = 1.0
        for lvl in range(k - 1, -1, -1):
            expect *= bottom if (u >> lvl) & 1 else top
        assert rows[u] == pytest.approx(expect, rel=1e-9)


def test_chi_square_exact_proportional_is_zero():
    probs = np.full(64, 1 / 64)
    counts = np.full(64, 1000, dtype=np.int64)
    r = chi_square(counts, probs)
    assert r.statistic == 0.0
    assert r.passed
    assert r.dof == 63


def test_chi_square_accepts_histogram_object():
    params = params_for(G500, 3)
    edges = naive_edges(params, 3, 200_000, 3)
    hist = cell_histogram(edges, 3)
    assert isinstance(hist, CellHistogram)
    assert chi_square(hist, exact_cell_probs(params, 3)).passed


def test_chi_square_mismatched_model_fails():
    params = params_for((0.4, 0.2, 0.2, 0.2), 4)
    edges = naive_edges(params, 4, 10**6, 8)
    hist = cell_histogram(edges, 4)
    wrong = exact_cell_probs(params_for(G500, 4), 4)
    assert not chi_square(hist, wrong).passed


def test_chi_square_sample_too_small():
    probs = exact_cell_probs(params_for(SKEWED, 4), 4)
    counts = np.zeros(256, dtype=np.int64)
    counts[0] = 10**6  # min expected prob 0.025^4 needs ~1.3e7 samples
    with pytest.raises(SampleTooSmall):
        chi_square(counts, probs)


def test_chi_square_invalid_expected():
    counts = np.array([10, 10])
    with pytest.raises(InvalidExpectedVector):
        chi_square(counts, np.array([0.7, 0.7]))  # sums to 1.4
    with pytest.raises(InvalidExpectedVector):
        chi_square(counts, np.array([1.5, -0.5]))
    with pytest.raises(InvalidExpectedVector):
        chi_square(counts, np.array([0.5, 0.25, 0.25]))  # shape mismatch
    with pytest.raises(InvalidExpectedVector):
        chi_square(np.array([10]), np.array([1.0]))  # one cell, dof 0


def test_chi_square_relabel_invariance():
    rng = np.random.default_rng(5)
    probs = exact_cell_probs(params_for(G500, 3), 3)
    counts = rng.multinomial(500_000, probs)
    perm = rng.permutation(64)
    base = chi_square(counts, probs)
    shuffled = chi_square(counts[perm], probs[perm])
    assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-12)
    assert shuffled.passed == base.passed


# Wilson-Hilferty is a cube-root normal approximation; its relative error
# shrinks roughly like 1/dof, so the tolerance schedule tightens with dof.
@pytest.mark.parametrize("dof,tol", [(3, 0.02), (5, 0.015), (10, 0.008),
                                     (20, 0.004), (63, 0.001), (176, 3e-4),
                                     (255, 2e-4), (1000, 5e-5)])
@pytest.mark.parametrize("alpha", [1e-3, 0.05])
def test_quantile_against_scipy(dof, tol, alpha):
    ours = chi_square_quantile(dof, alpha)
    ref = scipy.stats.chi2.ppf(1 - alpha, dof)
    assert ours == pytest.approx(ref, rel=tol)


@pytest.mark.parametrize("p", [1e-9, 1e-4, 0.02425, 0.3, 0.5, 0.7, 0.97575, 1 - 1e-4])
def test_inverse_normal_against_scipy(p):
    # Undo Wilson-Hilferty's map dof * (1 - t + z * sqrt(t))**3: the normal
    # deviate z behind the quantile must be exact far into both tails.
    dof = 10
    t = 2.0 / (9.0 * dof)
    z = ((chi_square_quantile(dof, 1.0 - p) / dof) ** (1 / 3) - 1.0 + t) / math.sqrt(t)
    assert z == pytest.approx(scipy.stats.norm.ppf(p), abs=1e-6)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, math.nan])
def test_quantile_rejects_tail_outside_unit_interval(alpha):
    with pytest.raises(ValueError):
        chi_square_quantile(10, alpha)


def test_pool_small_cells_conserves_mass():
    probs = exact_cell_probs(params_for(SKEWED, 4), 4)
    rng = np.random.default_rng(2)
    counts = rng.multinomial(10**6, probs)
    pp, cc = pool_small_cells(probs, counts)
    assert float(pp.sum()) == pytest.approx(float(probs.sum()), abs=1e-12)
    assert int(cc.sum()) == int(counts.sum())
    assert len(pp) == 177
    # every pooled-output cell now meets the validity rule
    assert (counts.sum() * pp >= 5.0 - 1e-9).all()
    r = chi_square(cc, pp)
    assert r.dof == 176
    assert r.passed


def test_pool_small_cells_noop_when_all_large():
    probs = np.full(4, 0.25)
    counts = np.array([100, 90, 110, 100])
    pp, cc = pool_small_cells(probs, counts)
    assert len(pp) == 4
    assert int(cc.sum()) == 400


def test_pool_small_cells_infeasible():
    probs = np.full(256, 1 / 256)
    counts = np.zeros(256, dtype=np.int64)
    counts[0] = 3  # total 3 < 5 expected in any pooling
    with pytest.raises(SampleTooSmall):
        pool_small_cells(probs, counts)


def pooled_by_arrays(probs, counts):
    """pool_small_cells as whole-array steps: the running sum and expected
    count of every cell in probability order, then the kept cells sorted."""
    total = int(counts.sum())
    order = np.argsort(probs, kind="stable")
    csum = np.cumsum(probs[order]) * total
    n_pool = int(((probs * total)[order] < MIN_EXPECTED).sum())
    while 0 < n_pool < len(probs) and csum[n_pool - 1] < MIN_EXPECTED:
        n_pool += 1
    if n_pool == 0:
        return probs, counts
    if n_pool >= len(probs):
        raise SampleTooSmall("pooling every cell")
    pooled, kept = order[:n_pool], np.sort(order[n_pool:])
    return (np.append(probs[kept], probs[pooled].sum()),
            np.append(counts[kept], counts[pooled].sum()))


@pytest.mark.parametrize("quads", [G500, SKEWED, UNIFORM, (0.45, 0.15, 0.15, 0.25),
                                   (0.97, 0.01, 0.01, 0.01)])
@pytest.mark.parametrize("k,m", [(4, 5000), (7, 10**4), (7, 10**6), (9, 3 * 10**5)])
def test_pool_small_cells_matches_whole_array_pooling(quads, k, m):
    # The pool is found by a binary search and a sliced running sum, and
    # the kept cells by a mask; the cells, the pooled sums and so the
    # statistic and dof are those of the whole-array steps, bit for bit.
    # Uniform cells at k >= 7 are too short to pool at all, either way.
    probs = exact_cell_probs(params_for(quads, k), k)
    counts = np.random.default_rng(k * m).multinomial(m, probs)
    try:
        ref = pooled_by_arrays(probs, counts)
    except SampleTooSmall:
        with pytest.raises(SampleTooSmall):
            pool_small_cells(probs, counts)
        return
    got = pool_small_cells(probs, counts)
    assert got[0].dtype == ref[0].dtype and got[1].dtype == ref[1].dtype
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
    assert chi_square(*got[::-1]) == chi_square(*ref[::-1])


def test_pool_small_cells_running_sum_spans_slices(monkeypatch):
    # 21 cells expecting 0.3 each are short alone and enough together: no
    # cell more joins, though the last slice of 7 alone expects only 2.1.
    # At (0.97, 0.01, 0.01, 0.01), k = 3 and 1000 edges the 54 short cells
    # expect less than 5 between them, so one cell more joins the pool.
    monkeypatch.setattr(stats_mod, "_POOL_SLICE", 7)
    even = np.concatenate([np.full(21, 0.0003), np.full(10, (1 - 21 * 0.0003) / 10)])
    skewed = exact_cell_probs(params_for((0.97, 0.01, 0.01, 0.01), 3), 3)
    for probs, joins in ((even, 0), (skewed, 1)):
        counts = np.random.default_rng(5).multinomial(1000, probs)
        got, ref = pool_small_cells(probs, counts), pooled_by_arrays(probs, counts)
        short = int((probs * 1000 < MIN_EXPECTED).sum())
        assert len(probs) - len(got[0]) + 1 == short + joins
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


def test_pool_small_cells_scratch():
    # Beyond its inputs, pooling 4^10 cells holds the sort order and one
    # gather or sort buffer at a time: under 2.5x the probabilities' bytes
    # (whole-array steps held 4.3x).
    probs = exact_cell_probs(params_for(G500, 10), 10)
    counts = np.random.default_rng(3).multinomial(1 << 22, probs)
    tracemalloc.start()
    try:
        pp, cc = pool_small_cells(probs, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pp) < len(probs) // 2
    assert peak < 2.5 * probs.nbytes, peak / probs.nbytes


def test_degree_stats_empty():
    edges = np.empty((0, 2), dtype=np.uint64)
    d = degree_stats(edges, 5)
    assert d.isolated == 32
    assert d.max_degree == 0


def test_degree_stats_all_self_loops_at_zero():
    m = 1000
    edges = np.zeros((m, 2), dtype=np.uint64)
    d = degree_stats(edges, 6)
    assert d.max_degree == m
    idx = list(d.degrees).index(m)
    assert d.node_counts[idx] == 1
    assert d.isolated == 63


def test_degree_stats_simple_path():
    edges = np.array([[0, 1], [1, 2], [2, 3]], dtype=np.uint64)
    d = degree_stats(edges, 2)
    # nodes 0,1,2 each have out-degree 1; node 3 has 0 but is not isolated
    assert d.max_degree == 1
    assert d.isolated == 0
    zero_idx = list(d.degrees).index(0)
    assert d.node_counts[zero_idx] == 1


@pytest.mark.parametrize("seed", [31, 0, 100])
def test_degree_histogram_decays_beyond_mode(seed):
    # structural power-law proxy: on log-log axes the plotted quantity is
    # the per-degree density (bucket count / bucket width), and empty
    # buckets have no point on a log axis.  Raw bucket counts carry a
    # bit-pattern beat that this rendering smooths out.
    k, m = 16, 1 << 20
    table = variable_table(G500, k, 1021)
    edges = emit_block(table, k, m, (seed, 0))
    d = degree_stats(edges, k)
    nbuckets = int(math.log2(d.max_degree)) + 1
    buckets = np.zeros(nbuckets, dtype=np.int64)
    for deg, cnt in zip(d.degrees, d.node_counts):
        if deg >= 1:
            buckets[int(math.log2(deg))] += cnt
    density = buckets / (2.0 ** np.arange(nbuckets))
    plotted = density[density > 0]
    mode = int(plotted.argmax())
    tail = plotted[mode:]
    pairs = len(tail) - 1
    good = sum(1 for i in range(pairs) if tail[i + 1] <= tail[i])
    assert pairs >= 5
    assert good / pairs >= 0.9


def test_cell_histogram_counts_and_total():
    edges = np.array([[0, 0], [0, 1], [0, 1], [3, 3]], dtype=np.uint64)
    h = cell_histogram(edges, 2)
    assert h.total == 4
    assert h.counts[0] == 1
    assert h.counts[1] == 2
    assert h.counts[(3 << 2) | 3] == 1


def test_cell_histogram_rejects_out_of_range():
    edges = np.array([[4, 0]], dtype=np.uint64)
    with pytest.raises(ValueError):
        cell_histogram(edges, 2)
