"""Classifier block, loss masking, and the prediction dump."""
from dataclasses import replace

import numpy as np
import pytest

import oracles
from imbnode import classifier, tape
from imbnode.edgegen import AugmentedGraph, augment_soft, symmetric_interaction
from imbnode.errors import ShapeError
from imbnode.graph import Graph, SplitMasks, edges_to_adjacency, generate_sbm_graph
from imbnode.optim import ParamStore, glorot
from imbnode.oversample import (
    SamplingPlan,
    SyntheticBatch,
    class_pools,
    smote_interpolate,
)
from imbnode.train import TrainConfig, _Trainer


def make_params(k, k2, m, seed=0, with_s=False):
    rng = np.random.default_rng(seed)
    params = ParamStore()
    params.add("W1", glorot(2, k, rng))  # unused by classify; placeholder width
    params.add("W2", glorot(2 * k, k2, rng))
    params.add("Wc", glorot(2 * k2, m, rng))
    if with_s:
        params.add("S", glorot(k, k, rng))
    return params


def make_graph(seed=0, sizes=(5, 5, 4)):
    return generate_sbm_graph(sizes, 0.6, 0.2, 3, seed=seed)


def test_rows_sum_to_one():
    g = make_graph()
    rng = np.random.default_rng(1)
    params = make_params(4, 3, g.m, seed=1)
    h1 = tape.const(rng.normal(size=(g.n, 4)))
    p = classifier.softmax(classifier.classify(AugmentedGraph(g, h1), params).value)
    np.testing.assert_allclose(p.sum(axis=1), np.ones(g.n), atol=1e-9)


def test_permutation_equivariance_of_probabilities():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(6, 3))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    labels = np.array([0, 1, 0, 1, 0, 1])

    def graph_for(order):
        inv = np.argsort(order)
        e = [(order[u], order[v]) for u, v in edges]
        src = np.array([x for x, _ in e])
        dst = np.array([y for _, y in e])
        return Graph(
            adjacency=edges_to_adjacency(src, dst, 6),
            features=feats[inv],
            labels=labels[inv],
            m=2,
        )

    params = make_params(4, 3, 2, seed=2)
    w1 = glorot(6, 4, rng)

    def probs(g):
        h1 = tape.graph_layer(tape.const(np.hstack([g.features, g.features])), tape.param(w1))
        return classifier.softmax(classifier.classify(AugmentedGraph(g, h1), params).value)

    ident = np.arange(6)
    perm = rng.permutation(6)
    p0 = probs(graph_for(ident))
    p1 = probs(graph_for(perm))
    np.testing.assert_allclose(p1, p0[np.argsort(perm)], atol=1e-12)


def test_zero_adjacency_zero_features_uniform():
    import scipy.sparse as sp

    g = Graph(
        adjacency=sp.csr_matrix((4, 4)),
        features=np.zeros((4, 2)),
        labels=np.zeros(4, dtype=np.int64),
        m=3,
    )
    params = make_params(4, 3, 3, seed=3)
    h1 = tape.const(np.zeros((4, 4)))
    logits = classifier.classify(AugmentedGraph(g, h1), params)
    np.testing.assert_array_equal(logits.value, np.zeros((4, 3)))
    np.testing.assert_allclose(classifier.softmax(logits.value), np.full((4, 3), 1.0 / 3.0), atol=1e-12)


def test_node_loss_perfect_predictions_zero():
    # a logit gap of 800 puts all the mass on the label: the loss is exactly 0
    logits = tape.const(800.0 * np.eye(3))
    labels = np.array([0, 1, 2])
    assert classifier.node_loss(logits, labels, np.arange(3)).item() == 0.0


def test_node_loss_uniform_is_log_m():
    m = 7
    logits = tape.const(np.full((4, m), -2.5))
    labels = np.zeros(4, dtype=np.int64)
    loss = classifier.node_loss(logits, labels, np.arange(4))
    assert loss.item() == pytest.approx(np.log(m), rel=1e-12)
    assert loss.item() == pytest.approx(1.9459, abs=1e-4)


def test_node_loss_two_node_hand_case():
    # logits whose softmax rows are [0.8, 0.2] and [0.3, 0.7]
    logits = tape.const(np.log(np.array([[0.8, 0.2], [0.3, 0.7]])) + 1.5)
    labels = np.array([0, 1])
    expected = -(np.log(0.8) + np.log(0.7)) / 2.0
    assert classifier.node_loss(logits, labels, np.arange(2)).item() == pytest.approx(expected, rel=1e-12)


def test_test_mask_labels_never_touch_loss():
    g = make_graph(seed=4)
    rng = np.random.default_rng(4)
    params = make_params(4, 3, g.m, seed=4)
    h1 = tape.const(rng.normal(size=(g.n, 4)))
    p = classifier.classify(AugmentedGraph(g, h1), params)
    train_mask = np.arange(6)
    base = classifier.node_loss(p, g.labels, train_mask).item()

    flipped = g.labels.copy()
    flipped[g.n - 1] = (flipped[g.n - 1] + 1) % g.m  # a node outside the mask
    assert classifier.node_loss(p, flipped, train_mask).item() == base


def test_gradients_of_full_classifier_stack():
    g = make_graph(seed=5)
    rng = np.random.default_rng(5)
    params = make_params(4, 3, g.m, seed=5, with_s=True)
    w1 = tape.param(glorot(2 * g.d, 4, rng))
    pools = class_pools(g.labels, np.arange(g.n), g.m)
    enc_in = tape.const(np.hstack([g.features, g.features]))

    plan = SamplingPlan(counts=np.array([0, 0, 2]))
    fixed = smote_interpolate(tape.graph_layer(enc_in, w1), plan, pools, np.random.default_rng(8))

    def loss_fn():
        h1 = tape.graph_layer(enc_in, w1)
        aug = augment_soft(h1, symmetric_interaction(params["S"]), fixed, g)
        p = classifier.classify(aug, params)
        return classifier.node_loss(p, aug.labels, aug.train_ids(np.arange(g.n)))

    params.zero_grads()
    tape.backward(loss_fn())
    for mat in (w1, params["W2"], params["Wc"], params["S"]):
        assert mat.grad is not None
        numeric = tape.fd_gradient(lambda: loss_fn().item(), mat)
        assert tape.grad_max_violation(mat.grad, numeric) <= 0.0


def test_prediction_dump_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(3), size=5)
    labels = rng.integers(0, 3, size=5)
    path = tmp_path / "pred.csv"
    classifier.write_predictions(path, probs, labels)
    labels2, preds2, probs2 = classifier.read_predictions(path)
    np.testing.assert_array_equal(labels2, labels)
    np.testing.assert_array_equal(preds2, np.argmax(probs, axis=1))
    np.testing.assert_array_equal(probs2, probs)


# -- the head projects, then aggregates ------------------------------------------


def _assert_rel(got, ref, what):
    """Within 1e-12 of the reference, relative to its largest entry."""
    assert got is not None and ref is not None, what
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=what)


def _head_on_tape(head, mode):
    """Logits of `head` on a 9-node graph whose node 8 has degree zero, and the
    gradients of a squared error on them. Builds fresh leaves on every call."""
    rng = np.random.default_rng(21)
    src = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0])
    dst = np.array([1, 2, 3, 4, 5, 6, 7, 0, 4])
    g = Graph(
        adjacency=edges_to_adjacency(src, dst, 9),
        features=rng.normal(size=(9, 3)),
        labels=np.array([0, 0, 0, 1, 1, 1, 2, 2, 2]),
        m=3,
    )
    k, k2 = 4, 5
    params = make_params(k, k2, g.m, seed=21, with_s=True)
    h1 = tape.param(rng.normal(size=(g.n, k)))
    seeds, nns = np.array([6, 7, 8]), np.array([7, 8, 6])
    deltas = rng.random(3)
    batch = SyntheticBatch(labels=np.array([2, 2, 2]), parents=np.stack([seeds, nns], axis=1), deltas=deltas)
    if mode == "real_only":
        aug = AugmentedGraph(g, h1)
    elif mode == "thresholded":
        b_mask = (rng.random((3, g.n)) < 0.5).astype(np.float64)
        b_mask[0] = 0.0  # a synthetic node without edges
        b_mask[:, 8] = 0.0  # node 8 stays isolated
        aug = AugmentedGraph(g, h1, replace(batch, syn_real=tape.const(b_mask)))
    else:
        aug = augment_soft(h1, symmetric_interaction(params["S"]), batch, g)
    h2 = tape.param(rng.normal(size=(aug.labels.size, k2)))
    target = rng.normal(size=(h2.rows, g.m))
    logits = head(aug, h2, params)
    tape.backward(oracles.frobenius_sq_diff(logits, target))
    leaves = {"Wc": params["Wc"], "h2": h2, "S": params["S"], "h1": h1}
    return logits.value, {name: leaf.grad for name, leaf in leaves.items()}


@pytest.mark.parametrize("mode", ["real_only", "thresholded", "soft"], ids=lambda mode: f"mean-{mode}")
def test_class_logits_matches_concat_composition(mode):
    got, got_grads = _head_on_tape(classifier.class_logits, mode)
    ref, ref_grads = _head_on_tape(oracles.concat_logits, mode)
    _assert_rel(got, ref, "logits")
    names = ("Wc", "h2", "S", "h1") if mode == "soft" else ("Wc", "h2")
    for name in names:
        _assert_rel(got_grads[name], ref_grads[name], name)


def test_embed_smote_synthetic_rows_match_zero_aggregate():
    g = generate_sbm_graph([8, 8, 3], 0.5, 0.1, 3, seed=22)
    masks = SplitMasks(
        train=np.arange(g.n), val=np.array([], dtype=np.int64), test=np.array([], dtype=np.int64)
    )
    cfg = TrainConfig(variant="embed_smote", scale=1.0, embed_dim=5, hidden_dim=4, seed=22)
    t = _Trainer(g, masks, cfg)
    draw = t.draw_epoch(t.embed()[1])
    assert draw.labels.size > 0

    def reference(h1, h2, draw):
        # the synthetic rows carry a zero aggregate through the whole of Wc
        logits_real = oracles.concat_logits(AugmentedGraph(t.g, h1), h2, t.params)
        s = draw.labels.size
        syn_in = oracles.concat_cols(draw.embed(h2), tape.const(np.zeros((s, cfg.hidden_dim))))
        logits = tape.concat_rows(logits_real, oracles.matmul(syn_in, t.params["Wc"]))
        labels = np.concatenate([t.g.labels, draw.labels])
        mask = np.concatenate([t.masks.train, np.arange(t.g.n, t.g.n + s)])
        return classifier.node_loss(logits, labels, mask), logits

    def objective(h1, h2, draw):
        loss, _, _, logits = t.objective(h1, h2, draw)
        return loss, logits

    results = []
    for loss_fn in (objective, reference):
        t.params.zero_grads()
        loss, logits = loss_fn(*t.embed(), draw)
        tape.backward(loss)
        grads = {name: t.params[name].grad.copy() for name in t.params.names()}
        results.append((loss.value, logits.value, grads))
    (got_loss, got, got_grads), (ref_loss, ref, ref_grads) = results
    _assert_rel(got_loss, ref_loss, "loss")
    _assert_rel(got, ref, "logits")
    for name in ("W1", "W2", "Wc"):
        _assert_rel(got_grads[name], ref_grads[name], name)


def test_class_logits_rejects_mismatched_head_width():
    g = make_graph(seed=23)
    params = make_params(4, 3, g.m, seed=23)  # Wc expects 2 * 3 input columns
    h2 = tape.const(np.ones((g.n, 4)))
    with pytest.raises(ShapeError, match=r"class_logits: input width 8 vs Wc \(6, 3\)"):
        classifier.class_logits(AugmentedGraph(g, tape.const(np.ones((g.n, 4)))), h2, params)
