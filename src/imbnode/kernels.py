"""Hot numeric kernels.

Three inner pieces dominate training time: sparse-adjacency aggregation
(run several times per epoch in forward and backward), the sigmoid +
squared-reconstruction-error pass over all node pairs, and the per-class
nearest-neighbor scan used by the latent oversampler.

Aggregation is SciPy's compiled CSR product; the other two are plain NumPy.

The sigmoid pass and its gradient run their elementwise steps in place,
so each step reads and writes memory that is still in L2 rather than a
fresh n x n temporary. Two widths are kept apart. The loss is summed per
sum block of rows of about ``_BLOCK`` elements (`_block_rows`); each NumPy
call covers ``_CALL_BLOCKS`` = 2 such blocks, so a thread takes the
interpreter lock back half as often, and one
``reshape(blocks, -1).sum(axis=1)`` per call width still gives each
block's sum bit for bit. The sigmoid is computed once: the forward returns the loss
and writes the sigmoid over the scores it was given; the gradient then
turns that buffer into the gradient in place, with no exp and no n x n
allocation, so the two kernels together need no n x n array beyond the one
the scores are filled into. Every element goes through the same
operations, in the same order, as the one-shot expression, so the sigmoid
values and the gradient are bit-identical to it; only the loss is summed
per block (it agrees to a few ulp). The target may have any dtype that
holds its 0/1 values exactly, such as the `bool` adjacency the trainer
passes: the subtraction widens it to float64, so the results equal those
for a float64 target.

A pass over at least ``_SPLIT_FLOOR`` elements (about 2^20: the n x n
arrays of a 3.1k-node graph, not those of a 620-node one) is split by
`_split` into one range per CPU the process may use; the calling thread runs
the last range and threads started for that pass the others, all joined
before the pass returns. The two kernels split at multiples of the call
width and write each sum block's loss into its own slot, so a split pass
computes every value, and sums the loss, exactly as the serial one does.
Worker threads run only private closures that make NumPy calls, never a
public function of the package, under the caller's NumPy error state (which
is per thread). `_single_thread` makes a process run the same ranges one after
another on its calling thread, so its results equal those of a threaded
process.

All are deterministic, so reruns are bit-reproducible.
"""
from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

_SPLIT_FLOOR = 1 << 20  # elements: a smaller pass runs as one range
try:
    _threads = len(os.sched_getaffinity(0))  # CPUs the process may use
except AttributeError:  # no affinity API on this platform
    _threads = os.cpu_count() or 1
_inline = False  # run the ranges on the calling thread, one after another


def _single_thread() -> None:
    """Run every range on the calling thread: the initializer of a grid's
    worker processes, which already keep one CPU each busy."""
    global _inline
    _inline = True


def _split(total: int, unit: int, run, size: int) -> list:
    """Call ``run(lo, hi)`` on ranges that tile [0, total), each inner bound
    a multiple of ``unit``, and return the results in range order.

    A pass over fewer than ``_SPLIT_FLOOR`` elements (``size``), or in a
    process on one CPU, is one range. A larger one is one range per CPU,
    the same ranges whether they run on threads or, after `_single_thread`,
    in turn: the calling thread runs the last, and threads made for this
    pass run the others under its NumPy error state. Every thread is joined
    before the pass returns or raises; a range's error reaches the caller."""
    units = -(-total // unit)
    parts = min(_threads, units) if size >= _SPLIT_FLOOR else 1
    if parts <= 1:
        return [run(0, total)]
    bounds = [min(total, units * p // parts * unit) for p in range(parts + 1)]
    if _inline:
        return [run(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a process that splits

    err = np.geterr()

    def in_caller_state(lo, hi):
        with np.errstate(**err):
            return run(lo, hi)

    with ThreadPoolExecutor(parts - 1, thread_name_prefix="imbnode-split") as pool:
        futures = [pool.submit(in_caller_state, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
        last = run(bounds[-2], total)
    return [f.result() for f in futures] + [last]


def csr_dense_matmul(indptr, indices, data, x):
    """Row-compressed sparse matrix times dense matrix.

    The index arrays may be int32 (SciPy's native width) or int64.
    """
    a = sp.csr_array((data, indices, indptr), shape=(len(indptr) - 1, x.shape[0]))
    return a @ x


_BLOCK = 1 << 15  # elements per sum block: 256 KB of float64 per operand
_CALL_BLOCKS = 2  # sum blocks per NumPy call of the sigmoid kernels


def _block_rows(cols: int) -> int:
    """Rows per block of about ``_BLOCK`` elements; a wider row is one block."""
    return max(1, _BLOCK // max(cols, 1))


def sigmoid_sqdiff(m, a):
    """Return sum((sigmoid(m) - a)**2), summed per `_block_rows` block, and
    write sigmoid(m) over ``m`` two blocks per call: each two are read
    before their sigmoid is written."""
    rows, cols = m.shape
    step = _block_rows(cols)
    width = _CALL_BLOCKS * step
    sums = np.empty(-(-rows // step))

    def run(lo, hi):
        t = np.empty((min(width, hi - lo), cols))
        with np.errstate(over="ignore"):
            for i in range(lo, hi, width):
                mb = m[i : i + width]
                np.negative(mb, out=mb)  # sigmoid: negate, exp, add 1, reciprocal
                np.exp(mb, out=mb)
                np.add(1.0, mb, out=mb)
                np.divide(1.0, mb, out=mb)
                tb = t[: mb.shape[0]]
                np.subtract(mb, a[i : i + width], out=tb)
                np.multiply(tb, tb, out=tb)
                full, ragged = divmod(tb.shape[0], step)  # a ragged block only ends the matrix
                j = i // step
                sums[j : j + full] = tb[: full * step].reshape(full, step * cols).sum(axis=1)
                if ragged:
                    sums[j + full] = tb[full * step :].sum()

    _split(rows, width, run, m.size)
    return float(sums.sum())


def sigmoid_sqdiff_grad(e, a, gout):
    """Gradient of the fused loss w.r.t. the pre-sigmoid scores, computed in
    place in ``e``, the sigmoid values `sigmoid_sqdiff` wrote, and returned:
    per two row blocks t = e - a; t *= 2 gout; t *= e; e = 1 - e;
    e *= t, which equals ((2 gout (e - a)) e)(1 - e) bit for bit."""
    c = 2.0 * float(gout)
    rows, cols = e.shape
    width = _CALL_BLOCKS * _block_rows(cols)

    def run(lo, hi):
        t = np.empty((min(width, hi - lo), cols))
        for i in range(lo, hi, width):
            eb = e[i : i + width]
            tb = t[: eb.shape[0]]
            np.subtract(eb, a[i : i + width], out=tb)
            np.multiply(tb, c, out=tb)
            np.multiply(tb, eb, out=tb)
            np.subtract(1.0, eb, out=eb)
            np.multiply(eb, tb, out=eb)

    _split(rows, width, run, e.size)
    return e


def nearest_same_class_ids(h, candidates, queries):
    """For each query node id, the closest other candidate id.

    Distances are squared Euclidean. ``candidates`` must be sorted ascending
    so that distance ties resolve to the smallest node id. A query with no
    other candidate at a finite distance (say, the only candidate) maps to
    itself. Queries are scanned in blocks of about ``_BLOCK`` difference
    elements (one query at least); blocking changes no distance.
    """
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    queries = np.ascontiguousarray(queries, dtype=np.int64)
    h = np.ascontiguousarray(h, dtype=np.float64)
    hc = h[candidates]
    dist = np.empty((queries.shape[0], candidates.shape[0]))
    step = max(1, _BLOCK // max(hc.size, 1))
    for lo in range(0, queries.shape[0], step):
        diff = h[queries[lo : lo + step], None, :] - hc[None, :, :]
        dist[lo : lo + step] = (diff * diff).sum(axis=-1)
    # exclude each query's own entry (its first, if it is a candidate)
    pos = np.searchsorted(candidates, queries)
    own = np.flatnonzero(pos < candidates.shape[0])
    own = own[candidates[pos[own]] == queries[own]]
    dist[own, pos[own]] = np.inf
    best = np.argmin(dist, axis=1)  # first minimum: ties go to the smallest id
    found = np.isfinite(dist[np.arange(queries.shape[0]), best])
    return np.where(found, candidates[best], queries)
