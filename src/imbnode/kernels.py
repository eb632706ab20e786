"""Hot numeric kernels.

Three inner pieces dominate training time: sparse-adjacency aggregation
(run several times per epoch in forward and backward), the sigmoid +
squared-reconstruction-error pass over all node pairs, and the per-class
nearest-neighbor scan used by the latent oversampler.

Aggregation is SciPy's compiled CSR product; the other two are plain NumPy.
All are deterministic, so reruns are bit-reproducible.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def csr_dense_matmul(indptr, indices, data, x):
    """Row-compressed sparse matrix times dense matrix.

    The index arrays may be int32 (SciPy's native width) or int64.
    """
    a = sp.csr_array((data, indices, indptr), shape=(len(indptr) - 1, x.shape[0]))
    return a @ x


def sigmoid_sqdiff(m, a):
    """Return (sigmoid(m), sum((sigmoid(m) - a)**2)) in one pass."""
    with np.errstate(over="ignore"):
        e = 1.0 / (1.0 + np.exp(-m))
    r = e - a
    return e, float((r * r).sum())


def sigmoid_sqdiff_grad(e, a, gout):
    """Gradient of the fused loss w.r.t. the pre-sigmoid scores."""
    return (2.0 * float(gout)) * (e - a) * e * (1.0 - e)


def nearest_same_class_ids(h, candidates, queries):
    """For each query node id, the closest other candidate id.

    Distances are squared Euclidean. ``candidates`` must be sorted ascending
    so that distance ties resolve to the smallest node id. A query that is
    the only candidate maps to itself.
    """
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.int64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    out = np.empty(queries.shape[0], dtype=np.int64)
    hq = h[queries]
    hc = h[candidates]
    diff = hq[:, None, :] - hc[None, :, :]
    dist = (diff * diff).sum(axis=-1)
    for qi in range(queries.shape[0]):
        row = dist[qi]
        self_pos = np.nonzero(candidates == queries[qi])[0]
        if self_pos.size:
            row = row.copy()
            row[self_pos[0]] = np.inf
        best = int(np.argmin(row))
        if not np.isfinite(row[best]):
            out[qi] = queries[qi]  # singleton class: degenerate to self
        else:
            out[qi] = candidates[best]
    return out
