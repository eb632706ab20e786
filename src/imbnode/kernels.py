"""Hot numeric kernels.

Three inner pieces dominate training time: sparse-adjacency aggregation
(run several times per epoch in forward and backward), the sigmoid +
squared-reconstruction-error pass over all node pairs, and the per-class
nearest-neighbor scan used by the latent oversampler.

Aggregation is SciPy's compiled CSR product; the other two are plain NumPy.

The sigmoid pass and its gradient run their elementwise steps on blocks of
rows of about ``_BLOCK`` elements, in place, so each step reads and writes
memory that is still in L2 rather than a fresh n x n temporary. The sigmoid
is computed once: the forward returns the loss and, given an ``out``
buffer, writes the sigmoid into it; the gradient then turns that buffer
into the gradient in place, with no exp and no n x n allocation, so the
two kernels together hold one n x n array beside the scores. Every element
goes through the same operations, in the same order, as the one-shot
expression, so the sigmoid values and the gradient are bit-identical to
it; only the loss is summed per block (it agrees to a few ulp). The target
may have any dtype that holds its 0/1 values exactly, such as the `bool`
adjacency the trainer passes: the subtraction widens it to float64, so the
results equal those for a float64 target.

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


def sigmoid_sqdiff(m, a, out=None):
    """Return sum((sigmoid(m) - a)**2), one row block at a time; sigmoid(m)
    is written into ``out`` if given, else into a block of scratch."""
    rows, cols = m.shape
    step = _block_rows(cols)
    e = np.empty((min(step, rows), cols)) if out is None else None
    t = np.empty((min(step, rows), cols))
    sums = np.empty(-(-rows // step))
    with np.errstate(over="ignore"):
        for b, i in enumerate(range(0, rows, step)):
            mb = m[i : i + step]
            eb = out[i : i + step] if out is not None else e[: mb.shape[0]]
            np.negative(mb, out=eb)  # sigmoid: negate, exp, add 1, reciprocal
            np.exp(eb, out=eb)
            np.add(1.0, eb, out=eb)
            np.divide(1.0, eb, out=eb)
            tb = t[: mb.shape[0]]
            np.subtract(eb, a[i : i + step], out=tb)
            np.multiply(tb, tb, out=tb)
            sums[b] = tb.sum()
    return float(sums.sum())


def sigmoid_sqdiff_grad(e, a, gout):
    """Gradient of the fused loss w.r.t. the pre-sigmoid scores, computed in
    place in ``e``, the sigmoid values `sigmoid_sqdiff` wrote, and returned:
    per row block t = e - a; t *= 2 gout; t *= e; e = 1 - e; e *= t, which
    equals ((2 gout (e - a)) e)(1 - e) bit for bit."""
    c = 2.0 * float(gout)
    rows, cols = e.shape
    step = _block_rows(cols)
    t = np.empty((min(step, rows), cols))
    for i in range(0, rows, step):
        eb = e[i : i + step]
        tb = t[: eb.shape[0]]
        np.subtract(eb, a[i : i + step], out=tb)
        np.multiply(tb, c, out=tb)
        np.multiply(tb, eb, out=tb)
        np.subtract(1.0, eb, out=eb)
        np.multiply(eb, tb, out=eb)
    return e


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
