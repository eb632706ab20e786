"""Second message-passing block, linear head, and node-classification loss.

The block aggregates over the augmented adjacency, so synthetic nodes both
receive messages from their generated neighbors and inject messages into
real nodes. In soft mode the aggregation is a weighted mean whose
denominator is the sum of the soft edge weights, and the gradient reaches
the edge weights through it.

Both the block and the head are [x | mean(x)] @ W computed as
x @ W[:k] + mean(x @ W[k:]): the same map, because the mean is linear,
and each is one `tape.graph_layer` op. It projects, then aggregates, so
the head's aggregation carries m columns rather than the hidden width k
(the order GCN uses when the output is the narrower side). The adjacency
and its degrees are prepared once per graph, as the graph's own `adj`.

The head emits logits, unactivated (a ReLU there would zero negative
logits and stall training). The node loss is a softmax cross-entropy taken
on the logits; class probabilities for evaluation and the prediction dump
are computed off the tape by `softmax`.
"""
from __future__ import annotations

import csv

import numpy as np

from . import tape
from .edgegen import AugmentedGraph
from .errors import ShapeError
from .optim import ParamStore


def hidden_embed(aug: AugmentedGraph, params: ParamStore) -> tape.Mat:
    """Second-block embedding relu([x | mean(x)] @ W2) over the augmented
    graph, x = `aug.x`: h1 then the synthetic embeddings."""
    w2 = params["W2"]
    x = aug.x
    if 2 * x.cols != w2.rows:
        raise ShapeError(f"hidden_embed: input width {2 * x.cols} vs W2 {w2.shape}")
    return tape.graph_layer(x, w2, aug.graph.adj, aug.syn_real, aug.soft, relu=True)


def class_logits(aug: AugmentedGraph, h2: tape.Mat, params: ParamStore) -> tape.Mat:
    """Logits [h2 | mean(h2)] @ Wc, computed as h2 @ Wc[:k] + mean(h2 @ Wc[k:])."""
    wc = params["Wc"]
    if 2 * h2.cols != wc.rows:
        raise ShapeError(f"class_logits: input width {2 * h2.cols} vs Wc {wc.shape}")
    return tape.graph_layer(h2, wc, aug.graph.adj, aug.syn_real, aug.soft, relu=False)


def classify(aug: AugmentedGraph, params: ParamStore) -> tape.Mat:
    """Class logits for every real and synthetic node."""
    h2 = hidden_embed(aug, params)
    return class_logits(aug, h2, params)


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
    """Inverse of write_predictions: (labels, preds, probs). An empty file, a
    row whose width differs from the header's, a non-numeric value, a
    non-finite probability, a true label outside [-1, m) or a predicted label
    outside [0, m) (m probability columns) raises ValueError naming `<path>:<line>`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 4:
            raise ValueError(f"{path}:1: expected a header node_id,true_label,predicted_label,p_0,...")
        m = len(header) - 3
        labels, preds, probs = [], [], []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} columns, got {len(row)}")
            try:
                label, pred, p = int(row[1]), int(row[2]), [float(x) for x in row[3:]]
            except ValueError as exc:
                raise ValueError(f"{where}: non-numeric value") from exc
            if not -1 <= label < m:
                raise ValueError(f"{where}: true_label {label} outside [-1, {m})")
            if not 0 <= pred < m:
                raise ValueError(f"{where}: predicted_label {pred} outside [0, {m})")
            if not np.all(np.isfinite(p)):
                raise ValueError(f"{where}: non-finite probability")
            labels.append(label)
            preds.append(pred)
            probs.append(p)
    return np.array(labels, dtype=np.int64), np.array(preds, dtype=np.int64), np.array(probs).reshape(-1, m)
