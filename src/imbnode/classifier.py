"""Second message-passing block, linear head, and node-classification loss.

The block mirrors the encoder but aggregates over the augmented adjacency,
so synthetic nodes both receive messages from their generated neighbors
and inject messages into real nodes. In soft mode the aggregation is a
weighted mean whose denominator is the sum of the soft edge weights, and
the whole expression stays on the tape.

The head projects, then aggregates: the logits [h2 | agg(h2)] @ Wc are
computed as h2 @ Wc[:k] + agg(h2 @ Wc[k:]), which is the same map because
aggregation is linear, so each aggregation carries m columns rather than
the hidden width k (the order GCN uses when the output is the narrower
side). Wc stays one parameter, sliced on the tape.

The head emits logits, unactivated (a ReLU there would zero negative
logits and stall training). The node loss is a softmax cross-entropy taken
on the logits; class probabilities for evaluation and the prediction dump
are computed off the tape by `softmax`.
"""
from __future__ import annotations

import csv
import weakref

import numpy as np

from . import tape
from .edgegen import MODE_SOFT, AugmentedGraph
from .errors import ShapeError
from .graph import Graph
from .optim import ParamStore

_sparse_cache: "weakref.WeakKeyDictionary[Graph, tape.SparseConst]" = weakref.WeakKeyDictionary()


def _adjacency_const(g: Graph) -> tape.SparseConst:
    cached = _sparse_cache.get(g)
    if cached is None:
        cached = tape.SparseConst(g.adjacency)
        _sparse_cache[g] = cached
    return cached


def neighbor_aggregate(aug: AugmentedGraph, x_real: tape.Mat, x_syn: tape.Mat | None, agg: str) -> tape.Mat:
    """Aggregate each node's neighbors over the augmented adjacency.

    Returns an (n+s) x width Mat (n x width when there are no synthetic
    nodes). Zero-degree rows aggregate to zero.
    """
    a = _adjacency_const(aug.graph)
    num_real = tape.spmm(a, x_real)
    s = aug.n_syn
    if s == 0:
        if agg == "sum":
            return num_real
        inv_deg = 1.0 / np.maximum(aug.graph.degrees(), 1.0)
        return tape.row_mul(num_real, inv_deg)

    b = aug.syn_real
    num_real = tape.add(num_real, tape.matmul(tape.transpose(b), x_syn))
    num_syn = tape.matmul(b, x_real)
    if agg == "sum":
        return tape.concat_rows(num_real, num_syn)

    deg_real_const = aug.graph.degrees()
    if aug.mode == MODE_SOFT:
        deg_real = tape.add(tape.const(deg_real_const[:, None]), tape.rowsum(tape.transpose(b)))
        deg_syn = tape.rowsum(b)
        return tape.concat_rows(tape.div_cols(num_real, deg_real), tape.div_cols(num_syn, deg_syn))
    deg_real = deg_real_const + b.value.sum(axis=0)
    deg_syn = b.value.sum(axis=1)
    return tape.concat_rows(
        tape.row_mul(num_real, 1.0 / np.maximum(deg_real, 1.0)),
        tape.row_mul(num_syn, 1.0 / np.maximum(deg_syn, 1.0)),
    )


def _split_rows(x: tape.Mat, n_real: int, n_syn: int):
    if n_syn == 0:
        return x, None
    return tape.slice_rows(x, 0, n_real), tape.slice_rows(x, n_real, n_real + n_syn)


def hidden_embed(aug: AugmentedGraph, params: ParamStore, agg: str = "mean") -> tape.Mat:
    """Second-block embedding over the augmented graph."""
    w2 = params["W2"]
    x_syn = aug.batch.embeddings if aug.n_syn else None
    agg1 = neighbor_aggregate(aug, aug.h1, x_syn, agg)
    inp = tape.concat_cols(aug.h1_aug, agg1)
    if inp.cols != w2.rows:
        raise ShapeError(f"hidden_embed: input width {inp.cols} vs W2 {w2.shape}")
    return tape.relu(tape.matmul(inp, w2))


def class_logits(aug: AugmentedGraph, h2: tape.Mat, params: ParamStore, agg: str = "mean") -> tape.Mat:
    """Logits [h2 | agg(h2)] @ Wc, computed as h2 @ Wc[:k] + agg(h2 @ Wc[k:])."""
    wc = params["Wc"]
    k = h2.cols
    if 2 * k != wc.rows:
        raise ShapeError(f"class_logits: input width {2 * k} vs Wc {wc.shape}")
    proj = tape.matmul(h2, tape.slice_rows(wc, k, 2 * k))
    agg2 = neighbor_aggregate(aug, *_split_rows(proj, aug.n_real, aug.n_syn), agg)
    return tape.add(tape.matmul(h2, tape.slice_rows(wc, 0, k)), agg2)


def classify(aug: AugmentedGraph, params: ParamStore, agg: str = "mean") -> tape.Mat:
    """Class logits for every real and synthetic node."""
    h2 = hidden_embed(aug, params, agg)
    return class_logits(aug, h2, params, agg)


def node_loss(logits: tape.Mat, labels, mask, weights=None) -> tape.Mat:
    """Mean softmax cross-entropy of the logits on the labeled mask, optionally class-weighted."""
    return tape.softmax_cross_entropy(logits, labels, mask, weights)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-stochastic class probabilities from a logit matrix, off the tape."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def write_predictions(path, probs: np.ndarray, labels: np.ndarray) -> None:
    """CSV dump: node_id, true_label, predicted_label (the argmax), p_0..p_{m-1}."""
    probs = np.asarray(probs)
    preds = np.argmax(probs, axis=1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["node_id", "true_label", "predicted_label"] + [f"p_{c}" for c in range(probs.shape[1])]
        )
        for v in range(probs.shape[0]):
            writer.writerow([v, int(labels[v]), int(preds[v])] + [repr(float(x)) for x in probs[v]])


def read_predictions(path):
    """Inverse of write_predictions: (labels, preds, probs)."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    m = len(header) - 3
    labels = np.array([int(r[1]) for r in body], dtype=np.int64)
    preds = np.array([int(r[2]) for r in body], dtype=np.int64)
    probs = np.array([[float(x) for x in r[3 : 3 + m]] for r in body])
    return labels, preds, probs
