"""Bilinear edge scorer, its reconstruction loss, and graph augmentation.

Scores are logistic(h_v . S_sym . h_u) with S symmetrized as (S + S^T)/2
so scoring commutes in its arguments. The reconstruction loss is the
squared Frobenius distance between the scored pair matrix and the real
adjacency, summed (not averaged) over all real pairs; the objective weight
compensates for the scale. Its scores H.S_sym.H^T are one tape op,
`tape.symmetric_scores`, whose backward takes one n x n x k product, not
two: exact since S_sym, the adjacency and so the scores' gradient are symmetric.

Augmentation attaches synthetic nodes to real ones either by thresholding
the scores (binary edges, constant to the tape) or by keeping the scores
as soft weights (gradient flows from the classifier into S and the
encoder). Synthetic-synthetic edges are omitted: the generator is trained
on real pairs only and has no evidence about them.
"""
from __future__ import annotations

import numpy as np

from . import tape
from .errors import ConfigError, DenseCapError
from .graph import Graph
from .optim import ParamStore
from .oversample import SyntheticBatch

MODE_THRESHOLDED = "thresholded"
MODE_SOFT = "soft"


def symmetric_interaction(params: ParamStore) -> tape.Mat:
    s = params["S"]
    return tape.mul_scalar(tape.add(s, tape.transpose(s)), 0.5)


def score_matrix(rows: tape.Mat, cols: tape.Mat, params: ParamStore) -> tape.Mat:
    """Pairwise edge probabilities between two embedding sets (tape-aware)."""
    raw = tape.matmul(tape.matmul(rows, symmetric_interaction(params)), tape.transpose(cols))
    return tape.sigmoid(raw)


def edge_loss(
    h1: tape.Mat,
    params: ParamStore,
    g: Graph,
    dense_cap: int = 5000,
    adj_dense: np.ndarray | None = None,
) -> tape.Mat:
    """Squared reconstruction error of the real adjacency from pair scores."""
    if g.n > dense_cap:
        raise DenseCapError(
            f"{g.n} nodes exceeds the dense reconstruction cap {dense_cap}; "
            "raise edge_dense_cap to densify anyway (the dense loss holds about "
            f"17 n^2 bytes, {17 * g.n**2 / 1e6:.0f} MB at {g.n} nodes)"
        )
    if adj_dense is None:
        adj_dense = g.dense_adjacency()
    return tape.sigmoid_sqdiff(tape.symmetric_scores(h1, symmetric_interaction(params)), adj_dense)


class AugmentedGraph:
    """Real graph plus synthetic nodes and their generated edges.

    The real-real block of the adjacency is always the original A; the
    synthetic-real block holds either binary thresholded edges (constant),
    soft scores (a tape node), or nothing (`syn_real` None: the synthetic
    nodes have no edges). Synthetic-synthetic entries are zero.
    """

    def __init__(
        self,
        graph: Graph,
        h1: tape.Mat,
        batch: SyntheticBatch | None = None,
        syn_real: tape.Mat | None = None,
        mode: str = MODE_THRESHOLDED,
    ):
        self.graph = graph
        self.h1 = h1
        self.batch = batch
        self.syn_real = syn_real
        self.mode = mode
        syn_labels = batch.labels if batch is not None else np.array([], dtype=np.int64)
        self.labels_aug = np.concatenate([graph.labels, syn_labels])

    @property
    def n_real(self) -> int:
        return self.graph.n

    @property
    def n_syn(self) -> int:
        return 0 if self.batch is None else self.batch.labels.size

    @property
    def h1_aug(self) -> tape.Mat:
        if self.batch is None:
            return self.h1
        return tape.concat_rows(self.h1, self.batch.embeddings)

    def train_ids_aug(self, train_ids: np.ndarray) -> np.ndarray:
        """Augmented labeled set: train nodes plus all synthetic nodes."""
        extra = np.arange(self.n_real, self.n_real + self.n_syn, dtype=np.int64)
        return np.concatenate([np.asarray(train_ids, dtype=np.int64), extra])

    def adjacency_dense(self) -> np.ndarray:
        """Materialized (n+s)x(n+s) adjacency for checks and small graphs."""
        n, s = self.n_real, self.n_syn
        out = np.zeros((n + s, n + s))
        out[:n, :n] = self.graph.dense_adjacency()
        if self.syn_real is not None:
            b = self.syn_real.value
            out[n:, :n] = b
            out[:n, n:] = b.T
        return out


def real_only(graph: Graph, h1: tape.Mat) -> AugmentedGraph:
    return AugmentedGraph(graph, h1, batch=None, syn_real=None)


def _check_eta(eta: float) -> None:
    if not 0.0 <= eta <= 1.0:
        raise ConfigError("eta", "eta must lie in [0, 1]")


def augment_thresholded(
    h1: tape.Mat,
    params: ParamStore,
    batch: SyntheticBatch,
    graph: Graph,
    eta: float,
) -> AugmentedGraph:
    """Binary synthetic-real edges where the score exceeds eta; the result
    is constant with respect to the tape."""
    _check_eta(eta)
    if batch.labels.size == 0:
        return real_only(graph, h1)
    scores = score_matrix(tape.const(batch.embeddings.value), tape.const(h1.value), params)
    b = tape.const((scores.value > eta).astype(np.float64))
    return AugmentedGraph(graph, h1, batch=batch, syn_real=b, mode=MODE_THRESHOLDED)


def augment_soft(h1: tape.Mat, params: ParamStore, batch: SyntheticBatch, graph: Graph) -> AugmentedGraph:
    """Soft synthetic-real edges carrying gradient from the classifier."""
    if batch.labels.size == 0:
        return real_only(graph, h1)
    b = score_matrix(batch.embeddings, h1, params)
    return AugmentedGraph(graph, h1, batch=batch, syn_real=b, mode=MODE_SOFT)
