"""Hot numeric kernels.

Three inner pieces dominate training time: sparse-adjacency aggregation
(run several times per epoch in forward and backward), the sigmoid +
squared-reconstruction-error pass over all node pairs, and the per-class
nearest-neighbor scan used by the latent oversampler.

Aggregation is SciPy's compiled CSR product; the other two are plain NumPy.

The all-pairs passes work on a symmetric n x n matrix in block-packed
upper storage, in the spirit of LAPACK's packed ``uplo='U'`` storage: the
rows are cut into stripes of ``_STRIPE`` rows (`_stripes`), and stripe
[i0, i1) holds its rows from column i0 on, its diagonal square in full, as
one C-contiguous (i1 - i0) x (n - i0) block; the stripes follow each other
from the start of the n x n buffer's memory (`_stripe`). The rest of the
buffer is never read or written, so a pass covers about n^2/2 + 128 n
entries, and each call of an elementwise step runs over contiguous memory:
on rows strided by n, the sigmoid kernel took about 45% longer at 3,100
nodes. The sigmoid kernel and its gradient run their elementwise steps in
place, one call of a few rows of a stripe at a time, so each step reads
and writes memory that is still in L2. The forward returns the loss over
all n^2 pairs, twice the stored sum less the sum over the diagonal
squares, and writes the sigmoid over the stored scores; the gradient then
turns that sigmoid into the gradient in place, with no exp and no n x n
allocation. Every stored element goes through the same operations, in the
same order, as the one-shot expression, so the sigmoid values and the
gradient are bit-identical to it; only the loss is summed per call (it
agrees to a few ulp). The 0/1 target is not an n x n array but the
sorted flat positions of its stored ones in the same storage
(`_packed_ones`): a call squares its sigmoid values, or scales them for the
gradient, and redoes only the entries at its ones with sigma - 1. Since
sigma - 0 == sigma exactly, every stored entry goes through the float
operations of the one-shot expression with a float64 target. Only the
stored pairs are read, so the target must be symmetric.

Each pass over the storage, here and in `tape.symmetric_sqdiff`, deals its
stripes to parts with `_deal`: one part below ``_TWO_PARTS`` pairs (1024
nodes), two fixed parts from there on. A call covers about ``_BLOCK``
elements in a one-part pass and twice that in a two-part one, whose
threads then take the interpreter lock back half as often. The parts and
the calls depend on n alone; each part writes its own stripes, and the
loss's call sums are added exactly. So every bit of the results depends on
n, not on the CPU count.

A training run holds one helper thread (`_helping`, entered by
`train.train` for the whole run; its outermost exit joins the thread). The
calling thread runs a two-part pass's first part and the helper its second.
The same rule, 1024 nodes, lets the tape's ops hand the helper one product
of each pair of independent products (`_aside`): BLAS on two threads inside
one product was slower and changed bits, but two whole products side by
side, each on one thread from the same operands, give the bits of the two
run in turn. A pass outside a run opens a helper of its own and joins it
before it returns. A process on one CPU, or a grid worker after
`_single_thread`, starts no helper and runs everything in turn on its
calling thread, with the same bits. The helper runs only private closures
that make NumPy calls, never a public function of the package, under the
caller's NumPy error state (which is per thread), into outputs the caller
allocated.

All are deterministic, so reruns are bit-reproducible.
"""
from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

_STRIPE = 256  # rows per stripe of the block-packed storage
_TWO_PARTS = 1 << 20  # pairs: a smaller pass runs as one part
try:
    _threads = len(os.sched_getaffinity(0))  # CPUs the process may use
except AttributeError:  # no affinity API on this platform
    _threads = os.cpu_count() or 1
_inline = False  # start no helper thread: run everything on the calling thread


def _single_thread() -> None:
    """Start no helper thread: the initializer of a grid's worker processes,
    which already keep one CPU each busy."""
    global _inline
    _inline = True


class _Helper(threading.local):
    """Per calling thread: how many `_helping` contexts are open, and the
    executor of their helper thread, made at its first use."""

    depth = 0
    pool = None


_helper = _Helper()


@contextmanager
def _helping():
    """Hold one helper thread for the work inside: re-entrant, so a pass
    inside a run uses the run's helper. The thread starts at the first
    product or part handed to it, and the outermost exit joins it, also on
    error."""
    _helper.depth += 1
    try:
        yield
    finally:
        _helper.depth -= 1
        if _helper.depth == 0 and _helper.pool is not None:
            pool, _helper.pool = _helper.pool, None
            pool.shutdown()


def _pool(n: int):
    """The open helper's executor for work on an n-node graph, or None: below
    the two-part rule, outside `_helping`, on one CPU or in a grid worker."""
    if _helper.depth == 0 or _parts(n) == 1 or _inline or _threads < 2:
        return None
    if _helper.pool is None:
        from concurrent.futures import ThreadPoolExecutor  # loaded only by a process that hands work off

        _helper.pool = ThreadPoolExecutor(1, thread_name_prefix="imbnode-helper")
    return _helper.pool


@contextmanager
def _aside(n: int):
    """Yield ``aside(fn, *args)``, which hands fn(*args) to the open helper
    for work on an n-node graph (`_pool`), or else runs it at once, and
    returns a function that waits for it and returns its result. The body
    computes the other products meanwhile. fn runs under the caller's NumPy
    error state, on operands the body does not write, into outputs the
    caller allocated. On exit the context waits for every call handed off;
    a call's error reaches the caller, unless the body raised first."""
    pool = _pool(n)
    if pool is None:

        def at_once(fn, *args):
            value = fn(*args)
            return lambda: value

        yield at_once
        return
    err = np.geterr()
    futures = []

    def aside(fn, *args):
        def in_caller_state():
            with np.errstate(**err):
                return fn(*args)

        futures.append(pool.submit(in_caller_state))
        return futures[-1].result

    try:
        yield aside
    except BaseException:
        from concurrent.futures import wait

        wait(futures)
        raise
    for future in futures:
        future.result()


def _stripes(n: int) -> list[tuple[int, int, int]]:
    """(i0, i1, lo) for each stripe of an n x n block-packed upper storage:
    rows [i0, i1) from column i0 on, held as a C-contiguous
    (i1 - i0) x (n - i0) block from flat offset lo of the buffer."""
    stripes, lo = [], 0
    for i0 in range(0, n, _STRIPE):
        i1 = min(i0 + _STRIPE, n)
        stripes.append((i0, i1, lo))
        lo += (i1 - i0) * (n - i0)
    return stripes


def _packed_ones(a: np.ndarray) -> np.ndarray:
    """The sorted int64 flat positions, in block-packed upper storage, of
    the nonzero entries of the n x n array `a`: the target the sigmoid
    kernels take for the symmetric 0/1 adjacency `a`."""
    parts = [lo + np.flatnonzero(a[i0:i1, i0:]) for i0, i1, lo in _stripes(a.shape[0])]
    return np.concatenate([np.empty(0, np.int64), *parts])


def _stripe(buf: np.ndarray, i0: int, i1: int, lo: int) -> np.ndarray:
    """Stripe [i0, i1) of the block-packed storage in the C-contiguous n x n
    float64 `buf`, as a view."""
    n = buf.shape[0]
    return buf.reshape(-1)[lo : lo + (i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)


def _parts(n: int) -> int:
    return 2 if n * n >= _TWO_PARTS else 1


def _deal(n: int, run) -> list:
    """Call ``run(stripes)`` once per part of a pass over an n x n upper
    block storage and return the results in part order.

    One part takes every stripe. Two parts take them in the order
    0, 1, 1, 0, 0, 1, 1, ..., which evens out their stored widths. The
    calling thread runs the first and the helper thread the second: the
    run's (`_helping`), or else one held for this pass alone. A process on
    one CPU, or after `_single_thread`, runs the first and then the second.
    The pass waits for both parts before it returns or raises; a part's
    error reaches the caller, the first part's if both raise."""
    stripes = _stripes(n)
    if _parts(n) == 1:
        return [run(stripes)]
    first = [s for j, s in enumerate(stripes) if (j + 1) // 2 % 2 == 0]
    second = [s for j, s in enumerate(stripes) if (j + 1) // 2 % 2 == 1]
    if _inline or _threads < 2:
        return [run(first), run(second)]
    with _helping(), _aside(n) as aside:
        theirs = aside(run, second)
        return [run(first), theirs()]


def csr_dense_matmul(indptr, indices, data, x):
    """Row-compressed sparse matrix times dense matrix.

    The index arrays may be int32 (SciPy's native width) or int64.
    """
    a = sp.csr_array((data, indices, indptr), shape=(len(indptr) - 1, x.shape[0]))
    return a @ x


_BLOCK = 1 << 15  # elements per call and part of the sigmoid kernels: 256 KB of float64 per operand


def _calls(m, ones, stripes):
    """(mb, pos, d) for each call of a sigmoid kernel over ``stripes`` of the
    block-packed storage in ``m``: rows of a stripe, contiguous in ``m``, of
    about ``_parts(n) * _BLOCK`` elements (one row at least), the flat
    positions among them of the target's ones (``ones`` less the call's
    first flat position; one `searchsorted` cuts ``ones`` for every call),
    and the number of leading columns that lie in the stripe's diagonal
    square."""
    n = m.shape[0]
    per_call = _parts(n) * _BLOCK
    calls = []  # (first flat position, rows, row width, diagonal columns)
    for i0, i1, lo in stripes:
        w = n - i0
        step = max(1, per_call // w)
        calls += [(lo + r * w, min(step, i1 - i0 - r), w, i1 - i0) for r in range(0, i1 - i0, step)]
    cuts = np.searchsorted(ones, np.array([x for lo, rows, w, _ in calls for x in (lo, lo + rows * w)], np.int64))
    flat = m.reshape(-1)
    for (lo, rows, w, d), c0, c1 in zip(calls, cuts[::2], cuts[1::2]):
        yield flat[lo : lo + rows * w].reshape(rows, w), ones[c0:c1] - lo, d


def _scratch(n: int) -> np.ndarray:
    """Float64 scratch for one call of a sigmoid kernel."""
    return np.empty(max(_parts(n) * _BLOCK, n))


def _sigmoid(x: np.ndarray) -> None:
    """Overwrite ``x`` with its sigmoid: negate, exp, add 1, reciprocal."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(1.0, x, out=x)
    np.divide(1.0, x, out=x)


def sigmoid_sqdiff(m, ones):
    """Return sum((sigmoid(s) - a)**2) over all n^2 pairs of the symmetric
    scores s that the C-contiguous ``m`` holds in block-packed upper
    storage, against the symmetric 0/1 target a whose stored ones sit at the
    sorted flat positions ``ones`` of that storage (`_packed_ones`), and
    write sigmoid(s) over the stored scores, a call's rows read before their
    sigmoid is written. A call's squared error is sigma * sigma, then
    (sigma - 1)**2 at its ones. The stored sum and the diagonal squares'
    sum are taken per call and added exactly (`math.fsum`)."""
    n = m.shape[0]

    def run(stripes):
        t = _scratch(n)
        sums = []
        with np.errstate(over="ignore"):
            for mb, pos, d in _calls(m, ones, stripes):
                _sigmoid(mb)
                tb = t[: mb.size].reshape(mb.shape)
                np.multiply(mb, mb, out=tb)
                u = mb.reshape(-1)[pos]
                u -= 1.0
                u *= u
                t[pos] = u
                sums.append((float(tb.sum()), float(tb[:, :d].sum())))
        return sums

    sums = [s for part in _deal(n, run) for s in part]
    return 2.0 * math.fsum(s for s, _ in sums) - math.fsum(d for _, d in sums)


def sigmoid_sqdiff_grad(e, ones, gout):
    """Gradient of the fused loss w.r.t. the pre-sigmoid scores, computed in
    place over the stored entries of ``e``, the sigmoid values
    `sigmoid_sqdiff` wrote, for the target at the positions ``ones``, and
    returned: per call t = e * c with c = 2 gout, then t = (e - 1) * c at
    the ones; t *= e; e = 1 - e; e *= t, which equals
    ((2 gout (e - a)) e)(1 - e) bit for bit. The stored entries then hold
    the block-packed upper storage of the symmetric gradient G of the
    full-matrix loss."""
    c = 2.0 * float(gout)
    n = e.shape[0]

    def run(stripes):
        t = _scratch(n)
        for eb, pos, _ in _calls(e, ones, stripes):
            tb = t[: eb.size].reshape(eb.shape)
            np.multiply(eb, c, out=tb)
            u = eb.reshape(-1)[pos]
            u -= 1.0
            u *= c
            t[pos] = u
            np.multiply(tb, eb, out=tb)
            np.subtract(1.0, eb, out=eb)
            np.multiply(eb, tb, out=eb)

    _deal(n, run)
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
