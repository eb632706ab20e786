"""Encoder block: hand-computed outputs, equivariance, locality."""
import numpy as np
import scipy.sparse as sp
import pytest

import oracles
from imbnode import tape
from imbnode.encoder import build_input
from imbnode.graph import Graph, edges_to_adjacency
from imbnode.optim import ParamStore, glorot


def graph_from(edges, features, labels=None, m=1):
    features = np.asarray(features, dtype=float)
    n = features.shape[0]
    if labels is None:
        labels = np.zeros(n, dtype=np.int64)
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return Graph(
        adjacency=edges_to_adjacency(src, dst, n),
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        m=m,
    )


def store_with_w1(w1):
    store = ParamStore()
    store.add("W1", w1)
    return store


def test_zero_features_embed_to_zero():
    g = graph_from([(0, 1), (1, 2)], np.zeros((3, 2)))
    params = store_with_w1(glorot(4, 5, np.random.default_rng(0)))
    h = oracles.encode(g, params)
    np.testing.assert_array_equal(h.value, np.zeros((3, 5)))


def test_isolated_node_matches_hand_arithmetic():
    # single node, no edges: h = relu(concat(f, 0) @ W1), checked by hand
    f = np.array([[2.0, -1.0]])
    g = graph_from([], f)
    w1 = np.array(
        [
            [0.5, -1.0],
            [1.0, 0.25],
            [9.0, 9.0],  # aggregate half: multiplied by zeros
            [9.0, 9.0],
        ]
    )
    params = store_with_w1(w1)
    h = oracles.encode(g, params)
    # concat(f, 0) = [2, -1, 0, 0]; pre = [2*0.5 - 1*1, 2*(-1) - 1*0.25] = [0, -2.25]
    np.testing.assert_allclose(h.value, [[0.0, 0.0]])
    w1[0, 0] = 1.0  # pre = [1, ...]: relu keeps positive entry
    h2 = oracles.encode(g, store_with_w1(w1))
    np.testing.assert_allclose(h2.value, [[2.0 * 1.0 - 1.0 * 1.0, 0.0]])


def test_mean_aggregation_idempotent_on_identical_neighbors():
    # node 0 with two identical neighbors == node 0 with one such neighbor
    feats3 = np.array([[1.0, 2.0], [3.0, -1.0], [3.0, -1.0]])
    g_two = graph_from([(0, 1), (0, 2)], feats3)
    g_one = graph_from([(0, 1)], feats3[:2])
    params = store_with_w1(glorot(4, 3, np.random.default_rng(1)))
    h_two = oracles.encode(g_two, params)
    h_one = oracles.encode(g_one, params)
    np.testing.assert_allclose(h_two.value[0], h_one.value[0], atol=1e-12)


def test_mean_aggregation_literal_neighbor_mean():
    feats = np.array([[1.0], [2.0], [4.0]])
    g = graph_from([(0, 1), (0, 2)], feats)
    inp = build_input(g)
    np.testing.assert_allclose(inp.value[:, 1], [3.0, 1.0, 1.0])


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(6, 3))
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)]
    g = graph_from(edges, feats)
    params = store_with_w1(glorot(6, 4, rng))
    h = oracles.encode(g, params)

    perm = rng.permutation(6)
    inv = np.argsort(perm)
    # relabel: node v becomes perm[v]
    edges_p = [(perm[u], perm[v]) for u, v in edges]
    g_p = graph_from(edges_p, feats[inv])
    h_p = oracles.encode(g_p, params)
    np.testing.assert_allclose(h_p.value, h.value[inv], atol=1e-12)


def test_locality_outside_neighborhood():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(5, 3))
    edges = [(0, 1), (1, 2), (3, 4)]
    g = graph_from(edges, feats)
    params = store_with_w1(glorot(6, 4, rng))
    h = oracles.encode(g, params)

    feats2 = feats.copy()
    feats2[3] += 10.0  # node 3 is outside N(0) and N(1)
    g2 = graph_from(edges, feats2)
    h2 = oracles.encode(g2, params)
    np.testing.assert_array_equal(h2.value[0], h.value[0])
    np.testing.assert_array_equal(h2.value[1], h.value[1])
    assert not np.array_equal(h2.value[4], h.value[4])


def test_encode_gradient_matches_fd():
    rng = np.random.default_rng(6)
    g = graph_from([(0, 1), (1, 2), (2, 0)], rng.normal(size=(3, 2)))
    store = store_with_w1(glorot(4, 3, rng))

    def loss():
        return oracles.total_sum(oracles.sigmoid(oracles.encode(g, store))).item()

    out = oracles.total_sum(oracles.sigmoid(oracles.encode(g, store)))
    tape.backward(out)
    numeric = tape.fd_gradient(loss, store["W1"])
    assert tape.grad_max_violation(store["W1"].grad, numeric) <= 0.0


def test_shape_mismatch_raises():
    g = graph_from([(0, 1)], np.zeros((2, 3)))
    params = store_with_w1(np.zeros((4, 2)))  # needs 6 rows
    with pytest.raises(Exception, match="encode"):
        oracles.encode(g, params)


def test_spmm_input_matches_scipy_reference():
    rng = np.random.default_rng(7)
    dense = (rng.random((8, 8)) < 0.4).astype(float)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    feats = rng.normal(size=(8, 3))
    g = Graph(
        adjacency=sp.csr_matrix(dense),
        features=feats,
        labels=np.zeros(8, dtype=np.int64),
        m=1,
    )
    inp = build_input(g)
    deg = dense.sum(axis=1)
    np.testing.assert_allclose(inp.value[:, 3:], (dense @ feats) / np.maximum(deg, 1.0)[:, None], atol=1e-12)
