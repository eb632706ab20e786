"""Reverse-mode differentiation over dense float64 matrices.

Every op returns a `Mat` carrying its value and, when any input is
trainable, a closure that scatters the output gradient back to the inputs.
`backward` walks the recorded graph once in reverse topological order.
Leaf gradients accumulate until cleared (the optimizer zeroes them after
each step), so calling `backward` twice doubles the leaf gradients. An
intermediate node's gradient is released as soon as its vjp has consumed
it: a pass holds only the gradients still to be scattered, and after it
every intermediate node holds `grad is None`.

Scalars are 1x1 matrices. All values are checked finite after every
forward op; NaN or Inf raises `NonFiniteError` naming the op.
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

    def _acc(self, g) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
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
    """Symmetric sparse 0/1 matrix held as CSR arrays; constant on the tape."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, csr):
        csr = csr.tocsr()
        if csr.shape[0] != csr.shape[1] or (csr != csr.T).nnz != 0:
            raise ShapeError("SparseConst: matrix must be square and symmetric")
        self.indptr, self.indices, self.data = csr.indptr, csr.indices, csr.data
        self.shape = csr.shape

    def matmul_dense(self, x: np.ndarray) -> np.ndarray:
        return kernels.csr_dense_matmul(self.indptr, self.indices, self.data, x)


def _out(value, parents, vjp, op: str) -> Mat:
    value = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"{op}: non-finite values in result")
    if any(p.requires_grad for p in parents):
        return Mat(value, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Mat(value)


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def matmul(a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    val = a.value @ b.value

    def vjp(g):
        if a.requires_grad:
            a._acc(g @ b.value.T)
        if b.requires_grad:
            b._acc(a.value.T @ g)

    return _out(val, (a, b), vjp, "matmul")


def spmm(s: SparseConst, x: Mat) -> Mat:
    """Sparse-constant @ dense. Gradient flows to the dense side only."""
    if s.shape[1] != x.rows:
        raise ShapeError(f"spmm: {s.shape} @ {x.shape}")
    val = s.matmul_dense(x.value)

    def vjp(g):
        if x.requires_grad:
            x._acc(s.matmul_dense(g))  # symmetric, so A^T = A

    return _out(val, (x,), vjp, "spmm")


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
        x._acc(c * g)

    return _out(c * x.value, (x,), vjp, "mul_scalar")


_kink_tracker: list | None = None


class track_kinks:
    """Context manager recording how close relu inputs come to zero.

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


def relu(x: Mat) -> Mat:
    if _kink_tracker is not None and x.value.size:
        _kink_tracker[0] = min(_kink_tracker[0], float(np.abs(x.value).min()))
    mask = x.value > 0.0

    def vjp(g):
        x._acc(g * mask)

    return _out(x.value * mask, (x,), vjp, "relu")


def sigmoid(x: Mat) -> Mat:
    with np.errstate(over="ignore"):
        val = 1.0 / (1.0 + np.exp(-x.value))

    def vjp(g):
        x._acc(g * val * (1.0 - val))

    return _out(val, (x,), vjp, "sigmoid")


def concat_cols(a: Mat, b: Mat) -> Mat:
    if a.rows != b.rows:
        raise ShapeError(f"concat_cols: {a.shape} vs {b.shape}")
    split = a.cols

    def vjp(g):
        if a.requires_grad:
            a._acc(g[:, :split])
        if b.requires_grad:
            b._acc(g[:, split:])

    return _out(np.hstack([a.value, b.value]), (a, b), vjp, "concat_cols")


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


def slice_rows(x: Mat, start: int, stop: int) -> Mat:
    if not (0 <= start <= stop <= x.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] outside {x.shape}")

    def vjp(g):
        buf = np.zeros_like(x.value)
        buf[start:stop] = g
        x._acc(buf)

    return _out(x.value[start:stop].copy(), (x,), vjp, "slice_rows")


def gather_rows(x: Mat, idx) -> Mat:
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        buf = np.zeros_like(x.value)
        np.add.at(buf, idx, g)
        x._acc(buf)

    return _out(x.value[idx], (x,), vjp, "gather_rows")


def row_mul(x: Mat, w) -> Mat:
    """Scale each row by a constant weight: out[i, :] = w[i] * x[i, :]."""
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != x.rows:
        raise ShapeError(f"row_mul: {w.shape[0]} weights for {x.rows} rows")

    def vjp(g):
        x._acc(g * w)

    return _out(x.value * w, (x,), vjp, "row_mul")


def rowsum(x: Mat) -> Mat:
    def vjp(g):
        x._acc(np.broadcast_to(g, x.shape).copy())

    return _out(x.value.sum(axis=1, keepdims=True), (x,), vjp, "rowsum")


def div_cols(x: Mat, d: Mat, eps: float = 1e-12) -> Mat:
    """Divide each row of x by the column-vector d (plus eps, kept in the
    derivative so finite differences agree exactly)."""
    if d.cols != 1 or d.rows != x.rows:
        raise ShapeError(f"div_cols: denominator {d.shape} for {x.shape}")
    den = d.value + eps
    val = x.value / den

    def vjp(g):
        if x.requires_grad:
            x._acc(g / den)
        if d.requires_grad:
            d._acc(-(g * val).sum(axis=1, keepdims=True) / den)

    return _out(val, (x, d), vjp, "div_cols")


def total_sum(x: Mat) -> Mat:
    def vjp(g):
        x._acc(np.full_like(x.value, float(g[0, 0])))

    return _out(np.array([[x.value.sum()]]), (x,), vjp, "total_sum")


def frobenius_sq_diff(e: Mat, a) -> Mat:
    """Squared Frobenius norm of (e - a); `a` may be a Mat or a constant array."""
    a_mat = a if isinstance(a, Mat) else None
    a_val = a.value if a_mat is not None else np.asarray(a, dtype=np.float64)
    if e.shape != a_val.shape:
        raise ShapeError(f"frobenius_sq_diff: {e.shape} vs {a_val.shape}")
    r = e.value - a_val
    parents = (e, a_mat) if a_mat is not None else (e,)

    def vjp(g):
        s = 2.0 * float(g[0, 0])
        if e.requires_grad:
            e._acc(s * r)
        if a_mat is not None and a_mat.requires_grad:
            a_mat._acc(-s * r)

    return _out(np.array([[(r * r).sum()]]), parents, vjp, "frobenius_sq_diff")


def sigmoid_sqdiff(m: Mat, a: np.ndarray) -> Mat:
    """Fused sigmoid + squared-error against a constant target matrix.

    Equivalent to frobenius_sq_diff(sigmoid(m), a), computed one row block
    at a time by `kernels.sigmoid_sqdiff`. The target keeps its dtype: a
    `bool` 0/1 matrix takes an eighth of the memory of a float64 one and
    gives bit-identical results. The vjp's gradient is a fresh array, so
    when `m` holds no gradient yet it becomes `m.grad` as is, without a
    zero-filled copy; otherwise it is added like any other.
    """
    a = np.asarray(a)
    if m.shape != a.shape:
        raise ShapeError(f"sigmoid_sqdiff: {m.shape} vs {a.shape}")
    e, loss = kernels.sigmoid_sqdiff(m.value, a)

    def vjp(g):
        grad = kernels.sigmoid_sqdiff_grad(e, a, float(g[0, 0]))
        if m.grad is None:
            m.grad = grad
        else:
            m.grad += grad

    return _out(np.array([[loss]]), (m,), vjp, "sigmoid_sqdiff")


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
        z._acc(buf)

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
    loss._acc(np.ones((1, 1)))
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
