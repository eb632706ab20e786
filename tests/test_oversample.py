"""Latent sampler examples, graph-level baselines, and sampling invariants."""
import warnings

import numpy as np
import pytest

import oracles
from imbnode import kernels, tape
from imbnode.graph import ClassStats, generate_sbm_graph, imbalance_ratio, make_proportional_split
from imbnode.oversample import (
    SamplingPlan,
    SyntheticBatch,
    baseline_duplicate,
    baseline_raw_smote,
    class_pools,
    nearest_same_class,
    plan_from_scale,
    reweight_vector,
    smote_interpolate,
)


def stats(*sizes):
    return ClassStats(sizes=np.array(sizes))


# -- nearest neighbor ---------------------------------------------------------


def test_nearest_picks_closest_same_class():
    h = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    labels = np.array([0, 0, 0])
    # exhaustive-scan oracle over candidates != v
    dists = {u: ((h[0] - h[u]) ** 2).sum() for u in (1, 2)}
    expected = min(dists, key=dists.get)
    assert nearest_same_class(h, 0, np.array([0, 1, 2]), labels) == expected == 1


def test_nearest_tie_prefers_smaller_id():
    h = np.array([[0.0], [2.0], [-2.0]])
    labels = np.zeros(3, dtype=int)
    assert nearest_same_class(h, 0, np.array([0, 1, 2]), labels) == 1


def test_nearest_ignores_closer_other_class():
    h = np.array([[0.0], [0.1], [5.0]])
    labels = np.array([0, 1, 0])
    assert nearest_same_class(h, 0, np.array([0, 1, 2]), labels) == 2


def test_nearest_singleton_degenerates_to_self():
    h = np.zeros((2, 2))
    labels = np.array([0, 1])
    with pytest.warns(UserWarning):
        assert nearest_same_class(h, 0, np.array([0, 1]), labels) == 0


def test_nearest_takes_an_array_of_ids_with_one_scan_per_class(monkeypatch):
    h = np.array([[0.0], [1.0], [3.0], [0.5], [2.5], [9.0]])
    labels = np.array([0, 0, 0, 1, 1, 2])
    candidates = np.arange(6)
    ids = np.array([[0, 3], [5, 2], [4, 5]])
    with pytest.warns(UserWarning, match="node 5"):
        expected = [[nearest_same_class(h, int(v), candidates, labels) for v in row] for row in ids]
    scans = []
    scan = kernels.nearest_same_class_ids
    monkeypatch.setattr(kernels, "nearest_same_class_ids", lambda *args: scans.append(args) or scan(*args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = nearest_same_class(h, ids, candidates, labels)
    np.testing.assert_array_equal(got, expected)
    assert got.shape == ids.shape
    assert len(scans) == 3  # one per class
    assert [str(w.message) for w in caught] == ["node 5: no same-class neighbor, duplicating it"]


# -- interpolation ------------------------------------------------------------


def test_delta_zero_and_one_hit_endpoints():
    rng = np.random.default_rng(0)
    h = tape.const(rng.normal(size=(4, 3)))
    def embed(delta):
        batch = SyntheticBatch(labels=np.array([0]), parents=np.array([[1, 3]]), deltas=np.array([delta]))
        return batch.embed(h)

    out0 = embed(0.0)
    np.testing.assert_array_equal(out0.value[0], h.value[1])
    out1 = embed(1.0)
    np.testing.assert_array_equal(out1.value[0], h.value[3])


class FixedRng:
    """Stub generator yielding preset seeds and deltas."""

    def __init__(self, picks, deltas):
        self.picks = list(picks)
        self.deltas = list(deltas)

    def choice(self, pool, size, replace):
        out = np.array(self.picks[:size], dtype=np.int64)
        del self.picks[:size]
        return out

    def random(self, size):
        out = np.array(self.deltas[:size])
        del self.deltas[:size]
        return out


def test_smote_interpolate_segment_recompute_exact():
    rng = np.random.default_rng(1)
    h = tape.const(rng.normal(size=(10, 4)))
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1])
    pools = class_pools(labels, np.arange(10), 2)
    plan = SamplingPlan(counts=np.array([3, 0]))
    batch = smote_interpolate(h, plan, pools, np.random.default_rng(7))
    assert batch.labels.tolist() == [0, 0, 0]
    rows = batch.embed(h).value
    for i, (v, nn) in enumerate(batch.parents):
        d = batch.deltas[i]
        recomputed = (1.0 - d) * h.value[v] + d * h.value[nn]
        np.testing.assert_array_equal(rows[i], recomputed)


def test_smote_rng_stream_order_is_fixed():
    h = tape.const(np.arange(12.0).reshape(6, 2))
    labels = np.array([0, 0, 0, 1, 1, 1])
    pools = class_pools(labels, np.arange(6), 2)
    plan = SamplingPlan(counts=np.array([2, 0]))
    batch = smote_interpolate(h, plan, pools, FixedRng(picks=[0, 2], deltas=[0.0, 1.0]))
    np.testing.assert_array_equal(batch.parents[:, 0], [0, 2])
    rows = batch.embed(h).value
    np.testing.assert_array_equal(rows[0], h.value[0])  # delta 0
    np.testing.assert_array_equal(rows[1], h.value[batch.parents[1, 1]])


def test_smote_reproducible_under_seed():
    rng_h = np.random.default_rng(2)
    h = tape.const(rng_h.normal(size=(12, 3)))
    labels = np.array([0] * 6 + [1] * 6)
    pools = class_pools(labels, np.arange(12), 2)
    plan = SamplingPlan(counts=np.array([5, 4]))
    a = smote_interpolate(h, plan, pools, np.random.default_rng(99))
    b = smote_interpolate(h, plan, pools, np.random.default_rng(99))
    np.testing.assert_array_equal(a.parents, b.parents)
    np.testing.assert_array_equal(a.deltas, b.deltas)
    np.testing.assert_array_equal(a.embed(h).value, b.embed(h).value)


def test_smote_invariants_bulk():
    # label preservation, delta range, bounding box, over many random runs
    rng = np.random.default_rng(3)
    total = 0
    for run in range(20):
        h = tape.const(rng.normal(size=(30, 5)))
        labels = rng.integers(0, 3, size=30)
        while np.bincount(labels, minlength=3).min() < 2:
            labels = rng.integers(0, 3, size=30)
        pools = class_pools(labels, np.arange(30), 3)
        plan = SamplingPlan(counts=rng.integers(0, 30, size=3))
        batch = smote_interpolate(h, plan, pools, rng)
        rows = batch.embed(h).value
        total += batch.labels.size
        assert np.all(batch.deltas >= 0.0) and np.all(batch.deltas <= 1.0)
        for i, (v, nn) in enumerate(batch.parents):
            assert labels[v] == batch.labels[i] == labels[nn]
            lo = np.minimum(h.value[v], h.value[nn])
            hi = np.maximum(h.value[v], h.value[nn])
            emb = rows[i]
            assert np.all(emb >= lo - 1e-12) and np.all(emb <= hi + 1e-12)
    assert total > 400


# -- plans and weights ---------------------------------------------------------


def test_plan_fixed_scale_on_minority():
    plan = plan_from_scale(stats(20, 20, 10), 2.0)
    np.testing.assert_array_equal(plan.counts, [0, 0, 20])


def test_plan_balance():
    plan = plan_from_scale(stats(20, 20, 10), "balance")
    np.testing.assert_array_equal(plan.counts, [0, 0, 10])


def test_plan_scale_zero_empty():
    plan = plan_from_scale(stats(20, 20, 10), 0.0)
    assert plan.total == 0


def test_plan_balance_equalizes_counts():
    s = stats(17, 9, 4, 17)
    plan = plan_from_scale(s, "balance")
    np.testing.assert_array_equal(s.sizes + plan.counts, [17, 17, 17, 17])


def test_reweight_balanced_is_unit():
    np.testing.assert_allclose(reweight_vector(stats(10, 10, 10)), [1.0, 1.0, 1.0])


def test_reweight_formula():
    np.testing.assert_allclose(reweight_vector(stats(20, 10)), [0.75, 1.5])


# -- graph-level baselines ------------------------------------------------------


@pytest.fixture()
def small_graph():
    g = generate_sbm_graph([12, 12, 6], 0.5, 0.1, 4, seed=4)
    masks = make_proportional_split(g, 0.5, 0.25, seed=4)
    return g, masks


def test_duplicate_copies_degree_and_features(small_graph):
    g, masks = small_graph
    plan = plan_from_scale(imbalance_ratio(g, masks), "balance")
    g2, masks2 = baseline_duplicate(g, masks, plan, np.random.default_rng(12))
    assert g2.n == g.n + plan.total
    deg = oracles.degrees(g)
    deg2 = oracles.degrees(g2)
    new_ids = np.arange(g.n, g2.n)
    assert (g2.adjacency != g2.adjacency.T).nnz == 0
    # replay the seed draws
    pools = class_pools(g.labels, masks.train, g.m)
    rng_replay = np.random.default_rng(12)
    expected_seeds = []
    for c in np.nonzero(plan.counts)[0]:
        expected_seeds.extend(rng_replay.choice(np.sort(pools[c]), size=int(plan.counts[c]), replace=True))
    for new, seed in zip(new_ids, expected_seeds):
        assert deg2[new] == deg[seed]
        np.testing.assert_array_equal(g2.features[new], g.features[seed])
        assert g2.labels[new] == g.labels[seed]
    # train mask extended by the new ids only
    np.testing.assert_array_equal(np.setdiff1d(masks2.train, masks.train), new_ids)


def test_raw_smote_segment_and_degree(small_graph):
    g, masks = small_graph
    plan = plan_from_scale(imbalance_ratio(g, masks), "balance")
    rng = np.random.default_rng(11)
    g2, masks2 = baseline_raw_smote(g, masks, plan, rng)
    assert g2.n == g.n + plan.total
    deg = oracles.degrees(g)
    deg2 = oracles.degrees(g2)
    pools = class_pools(g.labels, masks.train, g.m)
    rng_replay = np.random.default_rng(11)
    seeds = []
    for c in np.nonzero(plan.counts)[0]:
        seeds.extend(rng_replay.choice(np.sort(pools[c]), size=int(plan.counts[c]), replace=True))
    deltas = rng_replay.random(len(seeds))
    for i, (new, seed) in enumerate(zip(range(g.n, g2.n), seeds)):
        assert deg2[new] == deg[seed]
        nn = nearest_same_class(g.features, int(seed), masks.train, g.labels)
        expected = (1.0 - deltas[i]) * g.features[seed] + deltas[i] * g.features[nn]
        np.testing.assert_array_equal(g2.features[new], expected)


def test_raw_smote_delta_zero_is_duplicate(small_graph):
    g, masks = small_graph
    plan = plan_from_scale(imbalance_ratio(g, masks), "balance")

    class ZeroDeltaRng(FixedRng):
        def __init__(self):
            pass

        def choice(self, pool, size, replace):
            return pool[:size] if size <= pool.size else np.resize(pool, size)

        def random(self, size):
            return np.zeros(size)

    g_dup, _ = baseline_duplicate(g, masks, plan, ZeroDeltaRng())
    g_sm, _ = baseline_raw_smote(g, masks, plan, ZeroDeltaRng())
    np.testing.assert_array_equal(g_sm.features[g.n :], g_dup.features[g.n :])


def test_balance_plan_balances_train_counts(small_graph):
    g, masks = small_graph
    stats_before = imbalance_ratio(g, masks)
    plan = plan_from_scale(stats_before, "balance")
    g2, masks2 = baseline_duplicate(g, masks, plan, np.random.default_rng(13))
    stats_after = imbalance_ratio(g2, masks2)
    assert stats_after.imbalance_ratio == 1.0
    assert np.all(stats_after.sizes == stats_before.sizes.max())
