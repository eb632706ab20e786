"""Bilinear edge scorer, its reconstruction loss, and graph augmentation.

Scores are logistic(h_v . S_sym . h_u) with S symmetrized as (S + S^T)/2
so scoring commutes in its arguments; an epoch builds that node once and
hands it to the soft score block and the edge loss. A block of scores,
such as the synthetic-real scores, is one tape op, `tape.edge_scores`,
which keeps the sigmoid and not the raw scores. The reconstruction loss is
the squared Frobenius distance between the scored pair matrix and the real
adjacency, summed (not averaged) over all real pairs; the objective weight
compensates for the scale. `tape.symmetric_sqdiff` computes it in the
block-packed upper storage of one n x n buffer that the caller passes in (the
trainer's, one per run): S_sym and the adjacency are symmetric, and so are
the scores and their gradient, so each pass covers about half the pairs,
and the backward takes one n x n x k product, not two. The adjacency enters
as the positions of its ones in that storage, 8 bytes per stored one.

`AugmentedGraph` is the one place that says how synthetic rows join the
real graph, for every variant: it interpolates their embeddings from the
batch once (one tape op, `tape.interpolate`), and they follow the real
rows, their labels follow the real labels, and their ids join the train
ids. They attach to real nodes by thresholding the scores (binary edges,
scored on constants once per epoch by `augment_thresholded` and carried by
the batch), by keeping the scores as soft weights (gradient flows from the
classifier into S and the encoder, `augment_soft`), or not at all
(embed_smote). Synthetic-synthetic edges are omitted: the generator is
trained on real pairs only and has no evidence about them.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import tape
from .errors import ConfigError
from .graph import Graph
from .oversample import SyntheticBatch


def symmetric_interaction(s: tape.Mat) -> tape.Mat:
    return tape.mul_scalar(tape.add(s, tape.transpose(s)), 0.5)


def score_matrix(rows: tape.Mat, cols: tape.Mat, s_sym: tape.Mat) -> tape.Mat:
    """Pairwise edge probabilities between two embedding sets, one tape op."""
    return tape.edge_scores(rows, cols, s_sym)


def edge_loss(h1: tape.Mat, s_sym: tape.Mat, target: np.ndarray, out: np.ndarray) -> tape.Mat:
    """Squared reconstruction error of the real adjacency from the pair
    scores of `h1`, taken on the float64 n x n buffer `out`. `target` is the
    sorted flat positions of the adjacency's ones in the buffer's
    block-packed upper storage, `kernels._packed_ones(g.dense_adjacency())`
    (see `tape.symmetric_sqdiff`)."""
    return tape.symmetric_sqdiff(h1, s_sym, target, out)


class AugmentedGraph:
    """Real graph plus synthetic nodes and their generated edges.

    `syn` is the batch's rows interpolated from `h`, made once here, and
    `x`, the layer input, is `h` followed by `syn`. `labels` and
    `train_ids` extend the real labels and train ids the same way. The
    real-real block of the adjacency is always the original A; the
    synthetic-real block `syn_real` holds the batch's binary thresholded
    edges (constant), soft scores (a tape node set by `augment_soft`,
    `soft` True), or nothing (None: the synthetic nodes have no edges).
    Synthetic-synthetic entries are zero. A batch that is None or has no
    rows leaves the real graph alone, with `syn` and `syn_real` None.
    """

    def __init__(self, graph: Graph, h: tape.Mat, batch: SyntheticBatch | None = None, soft: bool = False):
        if batch is not None and batch.labels.size == 0:
            batch = None
        self.graph = graph
        self.soft = soft
        self._h = h
        self.syn = None if batch is None else batch.embed(h)
        self.syn_real = None if batch is None else batch.syn_real
        self.labels = graph.labels if batch is None else np.concatenate([graph.labels, batch.labels])

    @property
    def x(self) -> tape.Mat:
        """The real rows, then the synthetic ones; the tape op is made where
        a layer reads it."""
        return self._h if self.syn is None else tape.concat_rows(self._h, self.syn)

    def train_ids(self, train: np.ndarray) -> np.ndarray:
        """The train ids, then every synthetic row's id."""
        syn = np.arange(self.graph.n, self.labels.size, dtype=np.int64)
        return np.concatenate([np.asarray(train, dtype=np.int64), syn])


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("eta", "eta must lie in [0, 1]")


def augment_thresholded(h: tape.Mat, s: tape.Mat, batch: SyntheticBatch, eta: float) -> SyntheticBatch:
    """`batch` with its binary synthetic-real edges, where the score exceeds
    eta, as `syn_real`. The scores are taken on constant copies of `h` and
    `S`, so nothing here is on the tape. A batch without rows is returned
    as it is."""
    _check_eta(eta)
    if batch.labels.size == 0:
        return batch
    h_const = tape.const(h.value)
    scores = score_matrix(batch.embed(h_const), h_const, symmetric_interaction(tape.const(s.value)))
    return replace(batch, syn_real=tape.const((scores.value > eta).astype(np.float64)))


def augment_soft(h1: tape.Mat, s_sym: tape.Mat, batch: SyntheticBatch, graph: Graph) -> AugmentedGraph:
    """Soft synthetic-real edges carrying gradient from the classifier. The
    scores and `x` share the graph's one interpolation of the batch."""
    aug = AugmentedGraph(graph, h1, batch, soft=True)
    if aug.syn is not None:
        aug.syn_real = score_matrix(aug.syn, h1, s_sym)
    return aug
