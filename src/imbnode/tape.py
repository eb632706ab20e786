"""Reverse-mode differentiation over dense float64 matrices.

Every op returns a `Mat` carrying its value and, when any input is
trainable, a closure that scatters the output gradient back to the inputs.
`backward` walks the recorded graph once in reverse topological order.
Leaf gradients accumulate until cleared (the optimizer zeroes them after
each step), so calling `backward` twice doubles the leaf gradients (up to
rounding, for a leaf that sums gradients from several ops). An
intermediate node's gradient is released as soon as its vjp has consumed
it: a pass holds only the gradients still to be scattered, and after it
every intermediate node holds `grad is None`.

Scalars are 1x1 matrices. All values are checked finite after every
forward op; NaN or Inf raises `NonFiniteError` naming the op.

A message-passing block, act(x @ W[:k] + mean(x @ W[k:])), is one op with a
hand-derived vjp, `graph_layer`: one finite check, one set of temporaries
and one vjp per block, not a chain of small ops. So are SMOTE's synthetic
rows, `interpolate`, and the synthetic-real edge scores, `edge_scores`,
which keeps their sigmoid and not the raw scores beside it.
`tests/oracles.py` keeps each chain as the op's reference.

The edge loss, `symmetric_sqdiff`, builds its all-pairs scores and its
loss as two nodes on one n x n buffer that its caller owns and reuses
(the trainer keeps one per run). The scores are symmetric, and the op
holds them, their sigmoid and their gradient in the buffer's block-packed
upper storage (see `kernels`): the rest of the buffer is never read or
written. The sigmoid overwrites the scores, and the backward overwrites the
sigmoid with the scores' gradient G, whose vjp takes one n x n x k product
over the stored stripes (exact only for symmetric `m` and target). The
target is the sorted flat positions of the adjacency's ones in that
storage, not an n x n array. Each
pass deals its stripes to one part, or to two fixed parts from 1024 nodes
on, so the bits depend on n alone.
"""
from __future__ import annotations

import numpy as np

from . import kernels
from .errors import NonFiniteError, ShapeError


class Mat:
    """Dense float64 matrix node. Leaves with requires_grad=True are parameters."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, value, requires_grad=False, _parents=(), _vjp=None):
        v = np.asarray(value, dtype=np.float64)
        if v.ndim == 0:
            v = v.reshape(1, 1)
        elif v.ndim == 1:
            v = v.reshape(1, -1)
        elif v.ndim != 2:
            raise ShapeError(f"Mat: expected at most 2 dimensions, got {v.ndim}")
        self.value = v
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def rows(self) -> int:
        return self.value.shape[0]

    @property
    def cols(self) -> int:
        return self.value.shape[1]

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        if self.value.size != 1:
            raise ShapeError("item: Mat is not scalar")
        return float(self.value[0, 0])

    def _acc(self, g, fresh: bool = False) -> None:
        """Add `g` to the gradient. A first gradient is `g` itself when `fresh`
        says the caller built it and keeps no reference, else a copy."""
        if self.grad is None:
            self.grad = g if fresh else g.copy()
        else:
            self.grad += g

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, requires_grad={self.requires_grad})"


def param(value) -> Mat:
    return Mat(value, requires_grad=True)


def const(value) -> Mat:
    return Mat(value)


class SparseConst:
    """Symmetric sparse 0/1 matrix held as the arrays of the CSR matrix its
    caller passes, which `Graph` has checked to be symmetric, with its row
    sums `deg` and mean weights `inv_deg = 1 / max(deg, 1)`; constant on the tape."""

    __slots__ = ("indptr", "indices", "data", "shape", "deg", "inv_deg")

    def __init__(self, csr):
        self.indptr, self.indices, self.data = csr.indptr, csr.indices, csr.data
        self.shape = csr.shape
        self.deg = np.asarray(csr.sum(axis=1), dtype=np.float64).ravel()
        self.inv_deg = 1.0 / np.maximum(self.deg, 1.0)

    def matmul_dense(self, x: np.ndarray) -> np.ndarray:
        return kernels.csr_dense_matmul(self.indptr, self.indices, self.data, x)


_FINITE_CHUNK = 1 << 18  # entries per isfinite call: a 256 KB bool temporary


def _all_finite(value: np.ndarray) -> bool:
    """Whether every entry is finite, checked in row chunks of about
    `_FINITE_CHUNK` entries."""
    rows, cols = value.shape
    step = max(1, _FINITE_CHUNK // max(cols, 1))
    return all(np.isfinite(value[i : i + step]).all() for i in range(0, rows, step))


def _out(value, parents, vjp, op: str) -> Mat:
    value = np.asarray(value, dtype=np.float64)
    if not _all_finite(value):
        raise NonFiniteError(f"{op}: non-finite values in result")
    return _node(value, parents, vjp)


def _node(value: np.ndarray, parents, vjp) -> Mat:
    """The op's result node for a float64 `value` already checked finite."""
    if any(p.requires_grad for p in parents):
        return Mat(value, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Mat(value)


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def transpose(x: Mat) -> Mat:
    def vjp(g):
        x._acc(g.T)

    return _out(x.value.T, (x,), vjp, "transpose")


def add(a: Mat, b: Mat) -> Mat:
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")

    def vjp(g):
        if a.requires_grad:
            a._acc(g)
        if b.requires_grad:
            b._acc(g)

    return _out(a.value + b.value, (a, b), vjp, "add")


def mul_scalar(x: Mat, c: float) -> Mat:
    c = float(c)

    def vjp(g):
        x._acc(c * g, fresh=True)

    return _out(c * x.value, (x,), vjp, "mul_scalar")


_kink_tracker: list | None = None


class track_kinks:
    """Context manager recording how close relu inputs (the pre-activations
    of `graph_layer`) come to zero.

    Central finite differences are invalid within a step of the relu kink;
    gradient checks use this to redraw ill-conditioned random instances.
    """

    def __enter__(self):
        global _kink_tracker
        self._prev = _kink_tracker
        _kink_tracker = [np.inf]
        return _kink_tracker

    def __exit__(self, *exc):
        global _kink_tracker
        _kink_tracker = self._prev
        return False


def concat_rows(a: Mat, b: Mat) -> Mat:
    if a.cols != b.cols:
        raise ShapeError(f"concat_rows: {a.shape} vs {b.shape}")
    split = a.rows

    def vjp(g):
        if a.requires_grad:
            a._acc(g[:split])
        if b.requires_grad:
            b._acc(g[split:])

    return _out(np.vstack([a.value, b.value]), (a, b), vjp, "concat_rows")


def interpolate(h: Mat, seeds, nns, deltas) -> Mat:
    """SMOTE's synthetic rows (1 - delta) * h[seed] + delta * h[nn], one per
    (seed, nn, delta), as one op. The vjp scatters each row's gradient,
    scaled by its weight, to both parent rows (repeated ids and seed == nn
    sum), the seeds' share reaching `h` before the neighbours'."""
    seeds = np.asarray(seeds, dtype=np.int64)
    nns = np.asarray(nns, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.float64)
    if not seeds.shape == nns.shape == deltas.shape == (seeds.size,):
        raise ShapeError(f"interpolate: {seeds.shape} seeds, {nns.shape} neighbours, {deltas.shape} deltas")
    w_seed, w_nn = (1.0 - deltas).reshape(-1, 1), deltas.reshape(-1, 1)
    hv = h.value
    val = hv[seeds] * w_seed + hv[nns] * w_nn

    def vjp(g):
        for idx, w in ((seeds, w_seed), (nns, w_nn)):
            buf = np.zeros_like(hv)
            np.add.at(buf, idx, g * w)
            h._acc(buf, fresh=True)

    return _out(val, (h,), vjp, "interpolate")


def graph_layer(
    x: Mat,
    w: Mat,
    adj: SparseConst | None = None,
    b: Mat | None = None,
    soft: bool = False,
    relu: bool = True,
) -> Mat:
    """One message-passing block, act(x @ W[:k] + mean(x @ W[k:])), where act
    is relu or (`relu` False) the identity; without a graph it is act(x @ W).

    The first n rows of `x` are the nodes of the n x n adjacency `adj`, the
    rest are synthetic nodes whose s x n edge weights to them `b` holds
    (None: no edges). The mean divides by the degree in the augmented
    graph: by max(deg, 1) for 0/1 weights, so a zero-degree row aggregates
    to zero, and by deg + 1e-12 for `soft` scores, whose gradient then also
    flows through the degrees. The pre-activation is checked finite before
    relu can hide an -inf, and its smallest magnitude is reported to
    `track_kinks`.
    """
    k = x.cols
    if w.rows != (k if adj is None else 2 * k):
        raise ShapeError(f"graph_layer: input width {k} vs W {w.shape}")
    xv, wv = x.value, w.value
    n = x.rows if adj is None else adj.shape[0]
    if x.rows < n or (b is not None and b.shape != (x.rows - n, n)):
        raise ShapeError(f"graph_layer: x {x.shape} and b {b and b.shape} on a {n}-node graph")

    if adj is None:
        pre = xv @ wv
    else:
        # aggregate the projected rows p: numerators, then the mean's row weights
        pre = xv @ wv[:k]
        p = xv @ wv[k:]
        agg_r, agg_s = adj.matmul_dense(p[:n]), None
        scale_r = adj.inv_deg
        if b is not None:
            bv = b.value
            agg_r += bv.T @ p[n:]
            agg_s = bv @ p[:n]
            deg_r, deg_s = adj.deg + bv.sum(axis=0), bv.sum(axis=1)
            if soft:
                scale_r, scale_s = 1.0 / (deg_r + 1e-12), 1.0 / (deg_s + 1e-12)
            else:
                scale_r, scale_s = 1.0 / np.maximum(deg_r, 1.0), 1.0 / np.maximum(deg_s, 1.0)
        agg_r *= scale_r[:, None]
        pre[:n] += agg_r
        if b is not None:
            agg_s *= scale_s[:, None]
            pre[n:] += agg_s
    if not np.all(np.isfinite(pre)):
        raise NonFiniteError("graph_layer: non-finite values in the pre-activation")
    if relu:
        if _kink_tracker is not None and pre.size:
            _kink_tracker[0] = min(_kink_tracker[0], float(np.abs(pre).min()))
        val = np.maximum(pre, 0.0, out=pre)
    else:
        val = pre
    # what the vjp of the weights b reads of the forward pass
    b_forward = (p, agg_r, agg_s) if b is not None and b.requires_grad else None

    def vjp(g):
        gp = g * (val > 0.0) if relu else g
        if adj is None:
            if w.requires_grad:
                w._acc(xv.T @ gp, fresh=True)
            if x.requires_grad:
                x._acc(gp @ wv.T, fresh=True)
            return
        # q: the gradient of the aggregation numerators
        g_r, g_s = gp[:n], gp[n:]
        q_r = g_r * scale_r[:, None]
        # dp: the gradient of the projected rows, through the symmetric adjacency
        dp = adj.matmul_dense(q_r)
        if b is not None:
            q_s = g_s * scale_s[:, None]
            bv = b.value
            dp += bv.T @ q_s
            dp = np.vstack([dp, bv @ q_r])
        if b_forward is not None:
            p, agg_r, agg_s = b_forward
            db = p[n:] @ q_r.T
            db += q_s @ p[:n].T
            if soft:  # the weights also sit in the degrees
                db -= ((g_r * agg_r).sum(axis=1) * scale_r)[None, :]
                db -= ((g_s * agg_s).sum(axis=1) * scale_s)[:, None]
            b._acc(db, fresh=True)
        # without edges, the synthetic rows past dp have no aggregate gradient
        x_p = xv[: dp.shape[0]]
        if w.requires_grad:
            dw = np.empty_like(wv)
            np.matmul(xv.T, gp, out=dw[:k])
            np.matmul(x_p.T, dp, out=dw[k:])
            w._acc(dw, fresh=True)
        if x.requires_grad:
            dx = gp @ wv[:k].T
            dx[: dp.shape[0]] += dp @ wv[k:].T
            x._acc(dx, fresh=True)

    # relu or identity of the finite pre-activation: no second finite check
    return _node(val, (x, w) if b is None else (x, w, b), vjp)


def edge_scores(rows: Mat, cols: Mat, m: Mat) -> Mat:
    """The edge probabilities sigmoid(rows @ m @ cols.T) of every (row, col)
    pair for a k x k `m`, as one op. The raw scores are checked finite
    before the sigmoid can hide an overflow, then overwritten by it: the
    node keeps only the sigmoid, and the vjp forms g * sigmoid * (1 - sigmoid)
    once. Products and gradients follow the
    matmul chain (rows @ m) @ cols.T: the rows' and m's gradients come from
    the gradient of rows @ m, then the columns' from that of the scores'
    transpose."""
    k = rows.cols
    mv = m.value
    if cols.cols != k or m.shape != (k, k):
        raise ShapeError(f"edge_scores: rows {rows.shape}, cols {cols.shape}, m {m.shape} (not {k}x{k})")
    rv, cv = rows.value, cols.value
    rm = rv @ mv
    val = rm @ cv.T
    if not _all_finite(val):
        raise NonFiniteError("edge_scores: non-finite values in the raw scores")
    with np.errstate(over="ignore"):  # sigmoid in place: negate, exp, add 1, reciprocal
        np.negative(val, out=val)
        np.exp(val, out=val)
        np.add(1.0, val, out=val)
        np.divide(1.0, val, out=val)

    def vjp(g):
        g_raw = g * val
        g_raw *= 1.0 - val
        if rows.requires_grad or m.requires_grad:
            g_rm = g_raw @ cv
            if rows.requires_grad:
                rows._acc(g_rm @ mv.T, fresh=True)
            if m.requires_grad:
                m._acc(rv.T @ g_rm, fresh=True)
        if cols.requires_grad:
            cols._acc((rm.T @ g_raw).T)

    # (rows, m, cols): the backward reaches the rows' and m's producers
    # before the columns', as the chain's separate transpose node made it
    return _node(val, (rows, m, cols), vjp)


def symmetric_sqdiff(h: Mat, m: Mat, ones: np.ndarray, out: np.ndarray) -> Mat:
    """The edge loss sum((sigmoid(h @ m @ h.T) - a)**2) over all n^2 pairs,
    for an exactly symmetric k x k `m` and a symmetric 0/1 target a: a
    scores node (`symmetric_scores`) and a loss node (`sigmoid_sqdiff`) on
    the caller's C-contiguous float64 n x n buffer `out`, in its
    block-packed upper storage (see `kernels`). The target is `ones`, the
    strictly increasing flat positions of a's ones in that storage
    (`kernels._packed_ones(a)`): 8 bytes per stored one, not n^2 bytes. The
    forward fills each stripe [i0, i1) of the scores with
    (h @ m)[i0:i1] @ h[i0:].T, checks it finite and later overwrites the
    stored scores with their sigmoid; the backward overwrites that with the
    scores' gradient G, so the op allocates no n x n array, forward or
    backward (a repeated backward refills `out`). The rest of `out` is
    never read or written. `out` is the op's until its backward has run:
    the next forward may reuse it, as the trainer does each epoch.

    The scores' vjp takes GH = G @ h one row block per stripe I = [i0, i1),
    from the stripe and the column blocks of the stripes above it,
    GH[I] = G[I, i0:] @ h[i0:] + G[:i0, I].T @ h[:i0], for dh = 2 GH @ m and
    dm = h.T @ GH: exact for the symmetric G that a symmetric target gives.
    Every pass, the scores product, the sigmoid kernels and the GH product,
    deals its stripes with `kernels._deal`, each part writing its own
    stripes or rows, so the bits depend on n alone."""
    hv, mv = h.value, m.value
    if m.shape != (h.cols, h.cols) or not np.array_equal(mv, mv.T):
        raise ShapeError(f"symmetric_scores: m {m.shape} is not a symmetric {h.cols}x{h.cols} matrix")
    n, k = hv.shape
    if not isinstance(out, np.ndarray) or out.shape != (n, n) or out.dtype != np.float64:
        got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
        raise ShapeError(f"symmetric_scores: out must be a float64 {(n, n)} array, got {got}")
    if not out.flags.c_contiguous:
        raise ShapeError("symmetric_scores: out must be C-contiguous")
    stripes = kernels._stripes(n)
    ones = np.asarray(ones)
    if ones.ndim != 1 or not np.issubdtype(ones.dtype, np.integer):
        got = f"{ones.dtype} {ones.shape}"
        raise ShapeError(f"sigmoid_sqdiff: target positions must be a 1-D integer array, got {got}")
    if not (ones[1:] > ones[:-1]).all():
        raise ShapeError("sigmoid_sqdiff: target positions must be strictly increasing")
    size = sum((i1 - i0) * (n - i0) for i0, i1, _ in stripes)
    if ones.size and (ones[0] < 0 or ones[-1] >= size):
        raise ShapeError(f"sigmoid_sqdiff: target positions must lie in [0, {size}), the storage of {n} nodes")

    def fill_scores() -> bool:
        """The scores' stripes into `out`; whether every one is finite."""
        hm = hv @ mv

        def fill(part):
            finite = True
            for i0, i1, lo in part:
                stripe = kernels._stripe(out, i0, i1, lo)
                np.matmul(hm[i0:i1], hv[i0:].T, out=stripe)
                finite = finite and _all_finite(stripe)
            return finite

        return all(kernels._deal(n, fill))

    def scores_vjp(g):
        gh = np.empty((n, k))

        def gh_rows(part):
            for i0, i1, lo in part:  # row block I of G: its stripe, and the column blocks of those above
                np.matmul(kernels._stripe(g, i0, i1, lo), hv[i0:], out=gh[i0:i1])
                for j0, j1, lo_j in stripes:
                    if j0 == i0:
                        break
                    gh[i0:i1] += kernels._stripe(g, j0, j1, lo_j)[:, i0 - j0 : i1 - j0].T @ hv[j0:j1]

        kernels._deal(n, gh_rows)
        if h.requires_grad:
            h._acc(gh @ (2.0 * mv), fresh=True)
        if m.requires_grad:
            m._acc(hv.T @ gh, fresh=True)

    if not fill_scores():
        raise NonFiniteError("symmetric_scores: non-finite values in result")
    # every stored stripe is checked: the unread rest of `out` skips `_out`'s check
    scores = _node(out, (h, m), scores_vjp)
    loss = kernels.sigmoid_sqdiff(out, ones)
    sigmoid_held = True

    def loss_vjp(g):
        nonlocal sigmoid_held
        if sigmoid_held:  # the gradient takes the sigmoid's place
            sigmoid_held = False
        else:
            fill_scores()
            kernels.sigmoid_sqdiff(out, ones)
        scores._acc(kernels.sigmoid_sqdiff_grad(out, ones, float(g[0, 0])), fresh=True)

    return _out(np.array([[loss]]), (scores,), loss_vjp, "sigmoid_sqdiff")


def softmax_cross_entropy(z: Mat, labels, mask, weights=None) -> Mat:
    """Mean softmax cross-entropy over the masked rows of a logit matrix,
    optionally weighted per class: mean_i w_yi * (logsumexp(z_i) - z_i,yi).

    Taken on the logits, never on a probability, so the value is finite for
    any finite logits; the vjp w * (softmax(z_i) - onehot(y_i)) / |mask|
    lands in the masked rows."""
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=np.int64)
    if mask.size == 0:
        raise ShapeError("softmax_cross_entropy: empty mask")
    y = labels[mask]
    if y.min() < 0 or y.max() >= z.cols:
        raise ShapeError("softmax_cross_entropy: label outside [0, classes) on mask")
    w = np.ones(mask.size) if weights is None else np.asarray(weights, dtype=np.float64)[y]
    rows = np.arange(mask.size)
    shifted = z.value[mask]
    shifted -= shifted.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    sums = ex.sum(axis=1)
    val = float((w * (np.log(sums) - shifted[rows, y])).sum() / mask.size)

    def vjp(g):
        d = ex / sums[:, None]
        d[rows, y] -= 1.0
        buf = np.zeros_like(z.value)
        np.add.at(buf, mask, d * (w * (float(g[0, 0]) / mask.size))[:, None])
        z._acc(buf, fresh=True)

    return _out(np.array([[val]]), (z,), vjp, "softmax_cross_entropy")


# ---------------------------------------------------------------------------
# reverse pass and gradient checking
# ---------------------------------------------------------------------------


def backward(loss: Mat) -> None:
    """Populate grads of all trainable leaves reachable from a scalar loss.

    Leaves accumulate into their `grad`. Every intermediate node's gradient
    is set to None right after its vjp has consumed it, so no n x n
    gradient outlives the step that needs it."""
    if loss.shape != (1, 1):
        raise ShapeError("backward: loss must be a 1x1 Mat")
    if not loss.requires_grad:
        return
    topo: list[Mat] = []
    seen: set[int] = set()
    stack: list[tuple[Mat, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    loss._acc(np.ones((1, 1)), fresh=True)
    for node in reversed(topo):
        if node._vjp is not None:
            node._vjp(node.grad)
            node.grad = None


def fd_gradient(f, mat: Mat, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the scalar-valued callable `f` with
    respect to `mat`, perturbing entries in place."""
    flat = mat.value.ravel()
    out = np.zeros_like(mat.value)
    of = out.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = float(f())
        flat[i] = orig - step
        fm = float(f())
        flat[i] = orig
        of[i] = (fp - fm) / (2.0 * step)
    return out


def grad_max_violation(analytic, numeric, rtol=1e-4, atol=1e-6) -> float:
    """Largest of |analytic - numeric| - (rtol*max(|a|,|n|) + atol); <= 0 passes."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(a - n) - (rtol * np.maximum(np.abs(a), np.abs(n)) + atol)).max())
