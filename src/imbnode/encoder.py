"""Single message-passing block producing the shared embedding space.

Each node's embedding is relu(W1 @ concat(own features, aggregated
neighbor features)). Aggregation defaults to the degree-normalized mean;
the raw neighbor sum sits behind ``agg="sum"`` (it scales with degree and
destabilizes training at a fixed learning rate, but is kept for study).
Isolated nodes aggregate to the zero vector.
"""
from __future__ import annotations

import numpy as np

from . import kernels, tape
from .errors import ShapeError
from .graph import Graph
from .optim import ParamStore

AGG_MODES = ("mean", "sum")


def build_input(g: Graph, agg: str = "mean") -> tape.Mat:
    """Constant encoder input [features | aggregated neighbor features].

    Precompute once per graph; the tape only sees the matmul with W1.
    """
    if agg not in AGG_MODES:
        raise ValueError(f"agg must be one of {AGG_MODES}")
    a = g.adjacency
    agg_feat = kernels.csr_dense_matmul(
        a.indptr, a.indices, a.data, np.ascontiguousarray(g.features, dtype=np.float64)
    )
    if agg == "mean":
        deg = g.degrees()
        agg_feat = agg_feat / np.maximum(deg, 1.0)[:, None]
    return tape.const(np.hstack([g.features, agg_feat]))


def encode_from_input(enc_in: tape.Mat, params: ParamStore) -> tape.Mat:
    w1 = params["W1"]
    if enc_in.cols != w1.rows:
        raise ShapeError(f"encode: input width {enc_in.cols} vs W1 {w1.shape}")
    return tape.relu(tape.matmul(enc_in, w1))


def encode(g: Graph, params: ParamStore, agg: str = "mean") -> tape.Mat:
    """Embedding matrix for every node; rows follow node order."""
    return encode_from_input(build_input(g, agg), params)
