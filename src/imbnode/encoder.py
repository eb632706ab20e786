"""Single message-passing block producing the shared embedding space.

Each node's embedding is relu(concat(own features, aggregated neighbor
features) @ W1); the aggregation is computed once per graph, so each
epoch's tape holds one graph-less `tape.graph_layer` op. The aggregation
is the degree-normalized mean; isolated nodes aggregate to the zero vector.
"""
from __future__ import annotations

import numpy as np

from . import tape
from .errors import ShapeError
from .graph import Graph
from .optim import ParamStore


def build_input(g: Graph) -> tape.Mat:
    """Constant encoder input [features | mean of the neighbor features].

    Precompute once per graph; the tape only sees the matmul with W1.
    """
    agg_feat = g.adj.matmul_dense(np.ascontiguousarray(g.features, dtype=np.float64))
    agg_feat = agg_feat / np.maximum(g.adj.deg, 1.0)[:, None]
    return tape.const(np.hstack([g.features, agg_feat]))


def encode_from_input(enc_in: tape.Mat, params: ParamStore) -> tape.Mat:
    """relu(enc_in @ W1) for the input `build_input` prepared."""
    w1 = params["W1"]
    if enc_in.cols != w1.rows:
        raise ShapeError(f"encode: input width {enc_in.cols} vs W1 {w1.shape}")
    return tape.graph_layer(enc_in, w1)
