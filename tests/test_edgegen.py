"""Edge scorer, reconstruction loss, and augmentation invariants."""
import importlib
import re

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from imbnode import encoder, kernels, tape
from imbnode.edgegen import (
    AugmentedGraph,
    augment_soft,
    augment_thresholded,
    edge_loss,
    score_matrix,
    symmetric_interaction,
)
from imbnode.errors import DenseCapError
from imbnode.graph import Graph, SplitMasks, generate_sbm_graph, make_proportional_split
from imbnode.optim import ParamStore, glorot
from imbnode.oversample import SamplingPlan, class_pools, smote_interpolate
from imbnode.train import TrainConfig, _Trainer

train_mod = importlib.import_module("imbnode.train")  # the package's `train` is the function


def make_setup(seed=0, sizes=(6, 6, 4), k=5, syn_counts=(0, 0, 3)):
    g = generate_sbm_graph(sizes, 0.7, 0.2, 3, seed=seed)
    rng = np.random.default_rng(seed)
    params = ParamStore()
    params.add("S", glorot(k, k, rng))
    h1 = tape.param(rng.normal(size=(g.n, k)))
    pools = class_pools(g.labels, np.arange(g.n), g.m)
    batch = smote_interpolate(h1, SamplingPlan(counts=np.array(syn_counts)), pools, rng)
    return g, params, h1, batch


# -- scoring -------------------------------------------------------------------


def test_zero_embedding_scores_half():
    params = ParamStore()
    params.add("S", np.eye(3))
    h = np.zeros((2, 3))
    assert oracles.edge_score(h, params, 0, 1) == 0.5


def test_identity_interaction_unit_vectors():
    params = ParamStore()
    params.add("S", np.eye(3))
    h = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    expected = 1.0 / (1.0 + np.exp(-1.0))  # scalar logistic evaluation
    assert oracles.edge_score(h, params, 0, 1) == pytest.approx(expected, rel=1e-12)
    assert oracles.edge_score(h, params, 0, 1) == pytest.approx(0.7311, abs=5e-5)


def test_score_symmetric_in_arguments():
    rng = np.random.default_rng(1)
    params = ParamStore()
    params.add("S", rng.normal(size=(4, 4)))  # deliberately asymmetric
    h = rng.normal(size=(5, 4))
    for u, v in [(0, 1), (2, 4), (3, 0)]:
        forward, backward = oracles.edge_score(h, params, u, v), oracles.edge_score(h, params, v, u)
        assert forward == pytest.approx(backward, rel=1e-12)


def test_score_matrix_matches_pointwise_probe():
    g, params, h1, batch = make_setup()
    m = score_matrix(h1, h1, symmetric_interaction(params["S"]))
    for v in (0, 3):
        for u in (1, 5):
            assert m.value[v, u] == pytest.approx(oracles.edge_score(h1, params, v, u), rel=1e-12)


# -- reconstruction loss ---------------------------------------------------------


def test_edge_loss_zero_when_scores_equal_adjacency():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    e = tape.const(a)
    assert oracles.frobenius_sq_diff(e, a).item() == 0.0


def _target(g):
    """The edge loss's target for `g`, as the trainer builds it."""
    return kernels._packed_ones(g.dense_adjacency())


def test_edge_loss_two_node_hand_arithmetic():
    g = generate_sbm_graph([2], 0.9999, 0.0, 1, seed=0)  # the single pair connects
    assert g.adjacency.nnz == 2
    params = ParamStore()
    params.add("S", np.array([[2.0]]))
    h1 = tape.const(np.array([[1.0], [0.5]]))
    loss = edge_loss(h1, symmetric_interaction(params["S"]), _target(g), np.empty((g.n, g.n)))
    sig = lambda x: 1.0 / (1.0 + np.exp(-x))
    e00 = sig(1.0 * 2.0 * 1.0)
    e01 = sig(1.0 * 2.0 * 0.5)
    e11 = sig(0.5 * 2.0 * 0.5)
    expected = (e00 - 0) ** 2 + (e01 - 1) ** 2 + (e01 - 1) ** 2 + (e11 - 0) ** 2
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_edge_loss_nonnegative_random():
    for seed in range(3):
        g, params, h1, _ = make_setup(seed=seed)
        assert edge_loss(h1, symmetric_interaction(params["S"]), _target(g), np.empty((g.n, g.n))).item() >= 0.0


def test_edge_loss_across_row_blocks_matches_composed_ops():
    # 300 nodes: the fused loss runs over several row blocks of the score matrix
    g = generate_sbm_graph([100, 100, 100], 0.1, 0.01, 4, seed=5)
    enc_in = encoder.build_input(g)
    rng = np.random.default_rng(5)
    w1, s = glorot(enc_in.cols, 6, rng), rng.normal(size=(6, 6))

    def loss_and_grads(fused):
        params = ParamStore()
        params.add("W1", w1.copy())
        params.add("S", s.copy())
        h1 = encoder.encode_from_input(enc_in, params)
        s_sym = symmetric_interaction(params["S"])
        if fused:
            loss = edge_loss(h1, s_sym, _target(g), np.empty((g.n, g.n)))
        else:
            raw = oracles.matmul(oracles.matmul(h1, s_sym), tape.transpose(h1))
            loss = oracles.frobenius_sq_diff(oracles.sigmoid(raw), g.dense_adjacency())
        tape.backward(loss)
        return loss.item(), params["W1"].grad, params["S"].grad

    fused, composed = loss_and_grads(True), loss_and_grads(False)
    assert fused[0] == pytest.approx(composed[0], rel=1e-12)
    for got, want in zip(fused[1:], composed[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_edge_loss_backward_twice_gives_the_same_leaf_gradients():
    # a second pass refills the sigmoid buffer from the scores, which must survive a pass
    g, params, h1, _ = make_setup(seed=2, sizes=(100, 100, 100))
    leaves = {"h1": h1, "S": params["S"]}
    loss = edge_loss(h1, symmetric_interaction(params["S"]), _target(g), np.empty((g.n, g.n)))
    tape.backward(loss)
    once = {name: leaf.grad.copy() for name, leaf in leaves.items()}
    tape.backward(loss)
    for name, leaf in leaves.items():
        # each leaf sums two contributions per pass, so twice is 2x up to rounding
        np.testing.assert_allclose(leaf.grad, 2.0 * once[name], rtol=1e-14, atol=1e-14 * abs(once[name]).max())
        leaf.zero_grad()
    tape.backward(loss)
    for name, leaf in leaves.items():
        np.testing.assert_array_equal(leaf.grad, once[name], err_msg=name)


def test_edge_loss_respects_dense_cap(monkeypatch):
    # the trainer checks the loss's one float64 buffer, 8 n^2 bytes, against
    # physical memory once, before any epoch, for a run that takes the edge loss
    g, _, _, _ = make_setup()
    masks = make_proportional_split(g, seed=0)
    monkeypatch.setattr(train_mod, "_physical_memory", lambda: 8 * g.n**2 - 1)
    with pytest.raises(DenseCapError, match=f"^{g.n} nodes need an n x n float64 edge-loss buffer of "):
        _Trainer(g, masks, TrainConfig(variant="gs_t"))
    # a buffer of exactly physical memory fits, and where the platform reports none nothing is checked
    for memory in (8 * g.n**2, None):
        monkeypatch.setattr(train_mod, "_physical_memory", lambda: memory)
        assert _Trainer(g, masks, TrainConfig(variant="gs_t")).scores.shape == (g.n, g.n)
    big = Graph(sp.csr_matrix((3100, 3100)), np.zeros((3100, 1)), np.zeros(3100, dtype=np.int64), 1)
    ids = np.arange(3100)
    masks = SplitMasks(train=ids[:1000], val=ids[1000:2000], test=ids[2000:])
    monkeypatch.setattr(train_mod, "_physical_memory", lambda: 76_000_000)
    want = "3100 nodes need an n x n float64 edge-loss buffer of 77 MB, more than the 76 MB of physical memory"
    with pytest.raises(DenseCapError, match=f"^{re.escape(want)}$"):
        _Trainer(big, masks, TrainConfig(variant="gs_pre_o", lambda_=0.0))


def test_an_edgeless_graph_past_five_thousand_nodes_builds_an_edge_trainer(monkeypatch):
    """No node-count cap: 5,001 nodes fit where their 8 n^2-byte buffer fits."""
    n = 5001
    monkeypatch.setattr(train_mod, "_physical_memory", lambda: 8 * n**2)
    big = Graph(sp.csr_matrix((n, n)), np.zeros((n, 1)), np.zeros(n, dtype=np.int64), 1)
    ids = np.arange(n)
    masks = SplitMasks(train=ids[:2000], val=ids[2000:3500], test=ids[3500:])
    t = _Trainer(big, masks, TrainConfig(variant="gs_pre_o", lambda_=0.0))
    assert t.pretrains and t.target.size == 0 and t.scores.shape == (n, n)


def test_physical_memory_is_none_where_the_platform_does_not_report_it(monkeypatch):
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    for sysconf, want in ((unknown, None), (lambda name: -1, None), (lambda name: 4096, 4096 * 4096)):
        monkeypatch.setattr(train_mod.os, "sysconf", sysconf)
        assert train_mod._physical_memory() == want
    monkeypatch.delattr(train_mod.os, "sysconf")
    assert train_mod._physical_memory() is None


# -- augmentation ----------------------------------------------------------------


def test_threshold_one_isolates_synthetics():
    g, params, h1, batch = make_setup()
    draw = augment_thresholded(h1, params["S"], batch, eta=1.0)
    assert draw.syn_real.value.sum() == 0.0


def test_threshold_zero_connects_everywhere():
    g, params, h1, batch = make_setup()
    draw = augment_thresholded(h1, params["S"], batch, eta=0.0)
    assert np.all(draw.syn_real.value == 1.0)


def test_threshold_definition_on_known_scores():
    g, params, h1, batch = make_setup()
    s_sym = symmetric_interaction(params["S"])
    scores = score_matrix(tape.const(batch.embed(h1).value), tape.const(h1.value), s_sym)
    draw = augment_thresholded(h1, params["S"], batch, eta=0.5)
    np.testing.assert_array_equal(draw.syn_real.value, (scores.value > 0.5).astype(float))
    # the rest of the batch is the draw's, and its edges are constant to the tape
    for name in ("labels", "parents", "deltas"):
        assert getattr(draw, name) is getattr(batch, name)
    assert not draw.syn_real.requires_grad and draw.syn_real._parents == ()


def test_threshold_eta_validated():
    g, params, h1, batch = make_setup()
    with pytest.raises(ValueError):
        augment_thresholded(h1, params["S"], batch, eta=1.5)


def test_eta_monotonicity_over_grid():
    g, params, h1, batch = make_setup(seed=3)
    previous = None
    for eta in np.linspace(1.0, 0.0, 10):
        edges = augment_thresholded(h1, params["S"], batch, eta=float(eta)).syn_real.value
        if previous is not None:
            assert np.all(edges >= previous)  # lowering eta never removes an edge
        previous = edges


def test_soft_entries_in_unit_interval():
    g, params, h1, batch = make_setup(seed=5)
    aug = augment_soft(h1, symmetric_interaction(params["S"]), batch, g)
    assert np.all(aug.syn_real.value > 0.0) and np.all(aug.syn_real.value < 1.0)


def test_real_block_bit_equal_in_both_modes():
    g, params, h1, batch = make_setup(seed=6)
    a = g.dense_adjacency()
    for aug in (
        AugmentedGraph(g, h1, augment_thresholded(h1, params["S"], batch, eta=0.5)),
        augment_soft(h1, symmetric_interaction(params["S"]), batch, g),
        AugmentedGraph(g, h1),
    ):
        dense = oracles.adjacency_dense(aug)
        n = g.n
        assert np.array_equal(dense[:n, :n], a)
        assert np.array_equal(dense, dense.T)
        s = aug.labels.size - n
        assert np.array_equal(dense[n:, n:], np.zeros((s, s)))


def test_soft_gradient_reaches_interaction_matrix():
    from imbnode import classifier

    g, params, h1, batch = make_setup(seed=7)
    rng = np.random.default_rng(7)
    params.add("W2", glorot(10, 4, rng))
    params.add("Wc", glorot(8, 3, rng))

    def loss_fn():
        aug = augment_soft(h1, symmetric_interaction(params["S"]), batch, g)
        p = classifier.classify(aug, params)
        mask = aug.train_ids(np.arange(g.n))
        return classifier.node_loss(p, aug.labels, mask)

    params.zero_grads()
    tape.backward(loss_fn())
    s_grad = params["S"].grad.copy()
    assert np.abs(s_grad).max() > 0.0
    numeric = tape.fd_gradient(lambda: loss_fn().item(), params["S"])
    assert tape.grad_max_violation(s_grad, numeric) <= 0.0
