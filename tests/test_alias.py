import hashlib
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmatgen import AliasTable, build_alias
from rmatgen import alias as alias_mod
from rmatgen.alias import AllZeroWeights, EmptyInput, NegativeWeight
from conftest import SKEWED, UNIFORM, alias_sample, fixed_table, variable_table


def test_single_entry_always_selected():
    t = build_alias([3.0])
    assert t.size == 1
    assert alias_sample(t, (0, 0.0)) == 0
    assert alias_sample(t, (0, 0.999999)) == 0


def test_reconstruction_matches_input_distribution():
    w = [0.57, 0.19, 0.19, 0.05]
    t = build_alias(w)
    rec = t.reconstructed_probs()
    np.testing.assert_allclose(rec, w, atol=1e-15)
    assert t.total_weight == pytest.approx(1.0)


def test_reconstruction_unnormalized_weights():
    w = [3.0, 1.0, 6.0]
    t = build_alias(w)
    np.testing.assert_allclose(t.reconstructed_probs(), [0.3, 0.1, 0.6], atol=1e-15)
    assert t.total_weight == pytest.approx(10.0)


def test_grid_enumeration_matches_probs_exactly():
    # Integrating the acceptance rule over a fine fraction grid reproduces
    # each entry's probability to grid resolution.
    w = np.array([0.5, 0.3, 0.15, 0.05])
    t = build_alias(w)
    n = t.size
    g = 200_000
    frac = (np.arange(g) + 0.5) / g
    counts = np.zeros(n)
    for bucket in range(n):
        sel = alias_sample(t, (np.full(g, bucket), frac))
        counts += np.bincount(sel, minlength=n)
    np.testing.assert_allclose(counts / (n * g), w, atol=1e-5)


def test_determinism():
    w = [5.0, 1.0, 2.0, 2.0, 7.0]
    t1, t2 = build_alias(w), build_alias(w)
    assert (t1.threshold == t2.threshold).all()
    assert (t1.alias == t2.alias).all()


def test_large_draw_frequencies_within_4_sigma():
    w = np.array([0.57, 0.19, 0.19, 0.05])
    t = build_alias(w)
    rng = np.random.default_rng(12345)
    n = 10**7
    raw = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
    idx = (raw >> np.uint64(32)).astype(np.int64) % t.size
    frac = (raw & np.uint64(0xFFFFFFFF)).astype(np.float64) * 2.0**-32
    sel = alias_sample(t, (idx, frac))
    counts = np.bincount(sel, minlength=4)
    for i, p in enumerate(w):
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(counts[i] - n * p) <= 4 * sigma, (i, counts[i])


def test_extreme_skew_keeps_tiny_entry_reachable():
    # Ratio 1e12 between weights; the tiny entry must still own threshold mass.
    w = [1e12, 1.0]
    t = build_alias(w)
    rec = t.reconstructed_probs()
    np.testing.assert_allclose(rec, [1e12 / (1e12 + 1), 1 / (1e12 + 1)], rtol=1e-9)


def test_zero_weight_entry_never_selected():
    t = build_alias([0.5, 0.0, 0.5])
    g = 10_000
    frac = (np.arange(g) + 0.5) / g
    for bucket in range(3):
        sel = alias_sample(t, (np.full(g, bucket), frac))
        assert not (sel == 1).any()


@pytest.mark.parametrize("bad,exc", [
    ([], EmptyInput),
    ([0.0, 0.0], AllZeroWeights),
    ([1.0, -0.5], NegativeWeight),
    ([1.0, float("nan")], NegativeWeight),
    ([1.0, float("inf")], NegativeWeight),
])
def test_bad_inputs_rejected(bad, exc):
    with pytest.raises(exc):
        build_alias(bad)


def test_scalar_and_array_sampling_agree():
    t = build_alias([2.0, 1.0, 1.0])
    idx = np.array([0, 1, 2, 0, 2])
    frac = np.array([0.1, 0.9, 0.5, 0.8, 0.01])
    vec = alias_sample(t, (idx, frac))
    for i in range(len(idx)):
        assert alias_sample(t, (int(idx[i]), float(frac[i]))) == vec[i]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=64).filter(lambda w: sum(w) > 0))
def test_reconstruction_property(w):
    t = build_alias(w)
    expect = np.asarray(w) / sum(w)
    np.testing.assert_allclose(t.reconstructed_probs(), expect, atol=1e-12)


G500 = (0.57, 0.19, 0.19, 0.05)
TIES = [0.0, 1.0, 1.0, 2.0, 0.0, 1.0, 3.0, 0.0, 0.5, 0.5, 1.0, 2.0, 0.0, 1.0, 1.5, 0.5]


@pytest.mark.parametrize(
    "sampler_of,size,threshold_digest,alias_digest",
    [
        (lambda: fixed_table(G500, 20, 8).sampler, 65536,
         "dc36f070470f74df45057d6e34f26ff6", "94d6d49b0df8e73dc173f3a89900e693"),
        (lambda: variable_table(G500, 20, 8191).sampler, 8192,
         "7c8d118e6fe7d31dbcbfba69c33a007d", "5c28e403c92bb3b8142268fb8f10d9da"),
        (lambda: build_alias(TIES), 16,
         "c7445d1550cafb2509435e2d1930e652", "4cd642149347d580704fffa797de1eb2"),
    ],
    ids=["fixed8", "var8191", "ties"],
)
def test_alias_bytes_pinned(sampler_of, size, threshold_digest, alias_digest):
    # Vose's LIFO order and float64 rounding fix every bucket; zeros and
    # weights scaled to exactly 1.0 exercise both worklists' tie rule.
    sampler = sampler_of()
    digest = lambda a: hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
    assert sampler.size == size
    assert sampler.threshold.dtype == np.float64 and sampler.alias.dtype == np.int64
    assert not sampler.threshold.flags.writeable and not sampler.alias.flags.writeable
    assert (digest(sampler.threshold), digest(sampler.alias)) == (threshold_digest, alias_digest)


def _vose_reference(weights):
    """Vose's pairing as a scalar loop over two LIFO worklists: (threshold, alias)."""
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    scaled = (w * (n / float(w.sum()))).tolist()
    keep = [1.0] * n
    other = list(range(n))
    small = [i for i, x in enumerate(scaled) if x < 1.0]
    large = [i for i, x in enumerate(scaled) if x >= 1.0]
    while small and large:
        s = small.pop()
        g = large.pop()
        keep[s] = scaled[s]
        other[s] = g
        scaled[g] = (scaled[g] + scaled[s]) - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return np.array(keep), np.array(other, dtype=np.int64)


def _same_as_reference(weights):
    t = build_alias(weights)
    keep, other = _vose_reference(weights)
    return np.array_equal(t.threshold, keep) and np.array_equal(t.alias, other)


_WEIGHT = st.one_of(
    st.sampled_from([0.0, 1.0, 0.25, 0.5, 1.5, 2.0, 2 / 3, 4 / 3]),
    st.floats(0.0, 100.0),
    st.floats(0.0, 0.999).map(lambda u: (1.0 - u) ** -1.5),  # Pareto tail, index 2/3
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WEIGHT, min_size=1, max_size=300).filter(lambda w: sum(w) > 0))
@example([7.5])
@example([1.0] * 8)
@example([0.0, 0.0, 3.0])
@example([0.5, 1.5, 1.0, 1.0, 0.25, 1.75])
@example([2 / 3, 4 / 3] * 12 + [1.0, 2 / 3, 4 / 3])
def test_build_matches_vose_loop(w):
    assert _same_as_reference(w)


@pytest.mark.parametrize("quads", [G500, SKEWED, UNIFORM, (0.45, 0.15, 0.15, 0.25)],
                         ids=["g500", "skewed", "uniform", "045"])
@pytest.mark.parametrize("depth", range(1, 9))
def test_fixed_table_sampler_matches_vose_loop(quads, depth):
    table = fixed_table(quads, 20, depth)
    keep, other = _vose_reference(table.probs)
    assert np.array_equal(table.sampler.threshold, keep)
    assert np.array_equal(table.sampler.alias, other)


def test_re_merges_stay_exact_and_fast(monkeypatch):
    # Thirds put the loop's residual within rounding of 1, where the merge's
    # prefix-sum estimate can pick the other list: find a small vector that
    # forces a re-merge, tile it to 2^16 buckets so that it recurs in every
    # copy, and check both the bytes and the time.
    merges = []
    real = alias_mod._merge
    monkeypatch.setattr(alias_mod, "_merge", lambda *a: merges.append(1) or real(*a))
    pool = [2 / 3, 4 / 3, 1.0, 0.0, 1 / 3, 5 / 3, 0.1, 0.9, 1.1]
    for seed in range(5000):
        w = np.random.default_rng(seed).choice(pool, 16)
        if w.sum() == 0:
            continue
        merges.clear()
        build_alias(w)
        if len(merges) > 1:
            break
    else:
        pytest.fail("no vector of 16 forced a re-merge")
    tiled = np.tile(w, 1 << 12)
    merges.clear()
    start = time.perf_counter()
    build_alias(tiled)
    seconds = time.perf_counter() - start
    assert len(merges) > 100
    assert _same_as_reference(tiled)
    assert seconds < 1.0, (seed, len(merges), seconds)
