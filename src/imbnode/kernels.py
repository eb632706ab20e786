"""Hot numeric kernels.

Three inner pieces dominate training time: sparse-adjacency aggregation
(run several times per epoch in forward and backward), the sigmoid +
squared-reconstruction-error pass over all node pairs, and the per-class
nearest-neighbor scan used by the latent oversampler.

Aggregation is SciPy's compiled CSR product; the other two are plain NumPy.

The sigmoid pass and its gradient run their elementwise steps on blocks of
rows of about ``_BLOCK`` elements, in place, so each step reads and writes
memory that is still in L2 rather than a fresh n x n temporary. Neither
stores the n x n sigmoid: the forward returns only the loss and allocates
no n x n array, and the gradient takes the pre-sigmoid scores and
recomputes each block's sigmoid into scratch, so it allocates only its
n x n result and two blocks of scratch. Every element goes through the
same operations, in the same order, as the one-shot expression, so the
sigmoid values and the gradient are bit-identical to it; only the loss is
summed per block (it agrees to a few ulp). The target may have any dtype
that holds its 0/1 values exactly, such as the `bool` adjacency the
trainer passes: each block of it is widened into float64 scratch before
the subtraction, so the results equal those for a float64 target.

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


_BLOCK = 1 << 15  # elements per block: 256 KB of float64 per operand


def _block_rows(cols: int) -> int:
    """Rows per block of about ``_BLOCK`` elements; a wider row is one block."""
    return max(1, _BLOCK // max(cols, 1))


def _sigmoid_block(mb, out):
    """sigmoid(mb) into ``out``: negate, exp, add 1, reciprocal. Both edge-loss
    kernels call this, so they see bit-identical sigmoid values."""
    np.negative(mb, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    return out


def sigmoid_sqdiff(m, a):
    """Return sum((sigmoid(m) - a)**2), one row block at a time."""
    rows, cols = m.shape
    step = _block_rows(cols)
    e = np.empty((min(step, rows), cols))
    t = np.empty_like(e)
    sums = np.empty(-(-rows // step))
    with np.errstate(over="ignore"):
        for b, i in enumerate(range(0, rows, step)):
            mb = m[i : i + step]
            eb = _sigmoid_block(mb, e[: mb.shape[0]])
            tb = t[: mb.shape[0]]
            np.copyto(tb, a[i : i + step])
            np.subtract(eb, tb, out=tb)
            np.multiply(tb, tb, out=tb)
            sums[b] = tb.sum()
    return float(sums.sum())


def sigmoid_sqdiff_grad(m, a, gout):
    """Gradient of the fused loss w.r.t. the pre-sigmoid scores ``m``,
    ((2 gout (e - a)) e)(1 - e) with e = sigmoid(m), one row block at a
    time; e is recomputed per block, never stored whole."""
    c = 2.0 * float(gout)
    rows, cols = m.shape
    step = _block_rows(cols)
    g = np.empty((rows, cols))
    e = np.empty((min(step, rows), cols))
    t = np.empty_like(e)
    with np.errstate(over="ignore"):
        for i in range(0, rows, step):
            gb = g[i : i + step]
            eb = _sigmoid_block(m[i : i + step], e[: gb.shape[0]])
            tb = t[: gb.shape[0]]
            np.copyto(tb, a[i : i + step])
            np.subtract(eb, tb, out=gb)
            np.multiply(c, gb, out=gb)
            np.multiply(gb, eb, out=gb)
            np.subtract(1.0, eb, out=tb)
            np.multiply(gb, tb, out=gb)
    return g


def nearest_same_class_ids(h, candidates, queries):
    """For each query node id, the closest other candidate id.

    Distances are squared Euclidean. ``candidates`` must be sorted ascending
    so that distance ties resolve to the smallest node id. A query with no
    other candidate at a finite distance (say, the only candidate) maps to
    itself.
    """
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.int64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    hq = h[queries]
    hc = h[candidates]
    diff = hq[:, None, :] - hc[None, :, :]
    dist = (diff * diff).sum(axis=-1)
    # exclude each query's own entry (its first, if it is a candidate)
    pos = np.searchsorted(candidates, queries)
    own = np.flatnonzero(pos < candidates.shape[0])
    own = own[candidates[pos[own]] == queries[own]]
    dist[own, pos[own]] = np.inf
    best = np.argmin(dist, axis=1)  # first minimum: ties go to the smallest id
    found = np.isfinite(dist[np.arange(queries.shape[0]), best])
    return np.where(found, candidates[best], queries)
