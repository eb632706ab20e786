"""Independent brute-force oracles and reference ops used by the tests.

These intentionally avoid the library's code paths: the AUC oracle counts
pairs directly, the F/accuracy oracle works from an explicit confusion
matrix, and the block-model oracle draws the whole n x n matrix at once.
The small tape ops below are the ones the message-passing blocks were
composed from before `tape.graph_layer` fused them; composed again
(`neighbor_aggregate`, `concat_logits`), they are the reference the fused
op is checked against. `chain_scores` is the matmul chain the edge loss's
scores were taken by before they became one node of `tape.symmetric_sqdiff`,
and its reference; `chain_interpolate` and `chain_edge_scores` are the
chains `tape.interpolate` and `tape.edge_scores` replaced, and theirs.
`adjacency_dense` materializes an augmented graph for checks, and
`degrees` takes a graph's row sums straight from its adjacency.
`stored`, `pack`, `packed`, `unused` and `unpack` move a symmetric matrix
into and out of the block-packed upper storage the edge loss keeps its scores in,
and `ones` gives the positions of a 0/1 target's ones there, the form the
kernels take the target in; `dense_target` draws such a target. `sigmoid_sqdiff` sums the loss of a full matrix
against a dense target the way the kernel sums it from that storage, and
`sigmoid_sqdiff_grad` is the one-shot gradient, recomputing the sigmoid
from the scores and subtracting the dense target: they are the bit-exact
reference for `kernels.sigmoid_sqdiff` and, on the stored entries,
`kernels.sigmoid_sqdiff_grad`. `encode`,
`edge_score` and `frobenius_sq_diff` are probes training never calls: the
whole-graph encoder, one pair's edge probability, and a squared-error op.
"""
import math

import numpy as np
import scipy.sparse as sp

from imbnode import encoder, kernels, tape
from imbnode.errors import ShapeError


def pair_count_auc(scores, positives):
    """P(score_pos > score_neg) + 0.5 P(tie), counted over all pairs."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def pair_count_auc_macro(probs, labels):
    """Unweighted mean of per-class pair-count AUCs (skipping one-sided classes)."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    values = []
    for c in range(probs.shape[1]):
        auc = pair_count_auc(probs[:, c], labels == c)
        if not np.isnan(auc):
            values.append(auc)
    return float(np.mean(values))


def confusion_matrix(preds, labels, m):
    cm = np.zeros((m, m), dtype=int)
    for p, y in zip(preds, labels):
        cm[y, p] += 1
    return cm


def confusion_f_macro(preds, labels, m):
    """Macro F1 from the confusion matrix, 0/0 -> 0 per class."""
    cm = confusion_matrix(preds, labels, m)
    f1s = []
    for c in range(m):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def confusion_accuracy(preds, labels, m):
    cm = confusion_matrix(preds, labels, m)
    return float(np.trace(cm) / cm.sum())


def dense_sbm_arrays(class_sizes, p_in, p_out, d, seed, mean_scale=1.0, feature_noise=1.0):
    """The block-model graph built densely, as the generator first did: one
    n x n matrix of pair probabilities, one of uniforms and one float
    adjacency. Returns (csr adjacency, features, labels)."""
    sizes = np.asarray(class_sizes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes).astype(np.int64)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adj = sp.csr_matrix(np.logical_or(upper, upper.T).astype(np.float64))
    means = rng.normal(size=(sizes.size, d)) * mean_scale
    features = means[labels] + rng.normal(size=(n, d)) * feature_noise
    return adj, features, labels


# -- small tape ops --------------------------------------------------------------


def matmul(a, b):
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} @ {b.shape}")
    val = a.value @ b.value

    def vjp(g):
        if a.requires_grad:
            a._acc(g @ b.value.T, fresh=True)
        if b.requires_grad:
            b._acc(a.value.T @ g, fresh=True)

    return tape._out(val, (a, b), vjp, "matmul")


def sigmoid(x):
    with np.errstate(over="ignore"):
        val = 1.0 / (1.0 + np.exp(-x.value))

    def vjp(g):
        x._acc(g * val * (1.0 - val), fresh=True)

    return tape._out(val, (x,), vjp, "sigmoid")


def gather_rows(x, idx):
    idx = np.asarray(idx, dtype=np.int64)

    def vjp(g):
        buf = np.zeros_like(x.value)
        np.add.at(buf, idx, g)
        x._acc(buf, fresh=True)

    return tape._out(x.value[idx], (x,), vjp, "gather_rows")


def row_mul(x, w):
    """Scale each row by a constant weight: out[i, :] = w[i] * x[i, :]."""
    w = np.asarray(w, dtype=np.float64).reshape(-1, 1)
    if w.shape[0] != x.rows:
        raise ShapeError(f"row_mul: {w.shape[0]} weights for {x.rows} rows")

    def vjp(g):
        x._acc(g * w, fresh=True)

    return tape._out(x.value * w, (x,), vjp, "row_mul")



def spmm(s, x):
    """Sparse-constant @ dense. Gradient flows to the dense side only."""
    if s.shape[1] != x.rows:
        raise ShapeError(f"spmm: {s.shape} @ {x.shape}")
    val = s.matmul_dense(x.value)

    def vjp(g):
        if x.requires_grad:
            x._acc(s.matmul_dense(g))  # symmetric, so A^T = A

    return tape._out(val, (x,), vjp, "spmm")


def relu(x):
    if tape._kink_tracker is not None and x.value.size:
        tape._kink_tracker[0] = min(tape._kink_tracker[0], float(np.abs(x.value).min()))
    mask = x.value > 0.0

    def vjp(g):
        x._acc(g * mask)

    return tape._out(x.value * mask, (x,), vjp, "relu")


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ShapeError(f"concat_cols: {a.shape} vs {b.shape}")
    split = a.cols

    def vjp(g):
        if a.requires_grad:
            a._acc(g[:, :split])
        if b.requires_grad:
            b._acc(g[:, split:])

    return tape._out(np.hstack([a.value, b.value]), (a, b), vjp, "concat_cols")


def slice_rows(x, start, stop):
    if not (0 <= start <= stop <= x.rows):
        raise ShapeError(f"slice_rows: [{start}:{stop}] outside {x.shape}")

    def vjp(g):
        buf = np.zeros_like(x.value)
        buf[start:stop] = g
        x._acc(buf)

    return tape._out(x.value[start:stop].copy(), (x,), vjp, "slice_rows")


def rowsum(x):
    def vjp(g):
        x._acc(np.broadcast_to(g, x.shape).copy())

    return tape._out(x.value.sum(axis=1, keepdims=True), (x,), vjp, "rowsum")


def div_cols(x, d, eps=1e-12):
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

    return tape._out(val, (x, d), vjp, "div_cols")


def total_sum(x):
    def vjp(g):
        x._acc(np.full_like(x.value, float(g[0, 0])))

    return tape._out(np.array([[x.value.sum()]]), (x,), vjp, "total_sum")


def frobenius_sq_diff(e, a):
    """Squared Frobenius norm of (e - a); `a` may be a Mat or a constant array."""
    a_mat = a if isinstance(a, tape.Mat) else None
    a_val = a.value if a_mat is not None else np.asarray(a, dtype=np.float64)
    if e.shape != a_val.shape:
        raise ShapeError(f"frobenius_sq_diff: {e.shape} vs {a_val.shape}")
    r = e.value - a_val
    parents = (e, a_mat) if a_mat is not None else (e,)

    def vjp(g):
        s = 2.0 * float(g[0, 0])
        if e.requires_grad:
            e._acc(s * r, fresh=True)
        if a_mat is not None and a_mat.requires_grad:
            a_mat._acc(-s * r, fresh=True)

    return tape._out(np.array([[(r * r).sum()]]), parents, vjp, "frobenius_sq_diff")


def encode(g, params):
    """Embedding matrix for every node; rows follow node order."""
    return encoder.encode_from_input(encoder.build_input(g), params)


def edge_score(h1, params, v, u):
    """One pair's edge probability from current values."""
    h = h1.value if isinstance(h1, tape.Mat) else np.asarray(h1, dtype=np.float64)
    s = params["S"].value
    s_sym = 0.5 * (s + s.T)
    return float(1.0 / (1.0 + np.exp(-(h[v] @ s_sym @ h[u]))))


def chain_scores(h, m):
    """The all-pairs scores (h @ m) @ h.T as three generic ops, whose
    backward takes two n x n x k products."""
    return matmul(matmul(h, m), tape.transpose(h))


def chain_interpolate(h, seeds, nns, deltas):
    """SMOTE's rows (1 - delta) * h[seed] + delta * h[nn] as five generic ops."""
    deltas = np.asarray(deltas, dtype=np.float64)
    a = row_mul(gather_rows(h, seeds), 1.0 - deltas)
    b = row_mul(gather_rows(h, nns), deltas)
    return tape.add(a, b)


def chain_edge_scores(rows, cols, m):
    """The edge probabilities sigmoid((rows @ m) @ cols.T) as four generic
    ops, which keep the raw scores beside their sigmoid."""
    return sigmoid(matmul(matmul(rows, m), tape.transpose(cols)))


def adjacency_dense(aug):
    """An `AugmentedGraph`'s (n+s) x (n+s) adjacency as one float64 array:
    the real graph, the synthetic-real block and its transpose."""
    n, size = aug.graph.n, aug.labels.size
    out = np.zeros((size, size))
    out[:n, :n] = aug.graph.dense_adjacency()
    if aug.syn_real is not None:
        b = aug.syn_real.value
        out[n:, :n] = b
        out[:n, n:] = b.T
    return out


# -- the edge loss's kernels, recomputing the sigmoid in the backward ---------------


def stored(full):
    """The entries of the symmetric n x n `full` that block-packed upper
    storage holds (see `kernels`), flat: each stripe of ``kernels._STRIPE``
    rows from its first row's column on, one after another."""
    n = full.shape[0]
    stripes = [full[i0 : i0 + kernels._STRIPE, i0:].ravel() for i0 in range(0, n, kernels._STRIPE)]
    return np.concatenate(stripes) if stripes else np.empty(0)


def pack(full):
    """A C-contiguous n x n buffer holding `stored(full)`, NaN past it."""
    buf = np.full(full.shape, np.nan)
    packed(buf)[...] = stored(full)
    return buf


def packed(buf):
    """The stored entries of the n x n buffer `buf`, a flat view."""
    return buf.reshape(-1)[: _packed_size(buf.shape[0])]


def _packed_size(n):
    t = kernels._STRIPE
    return sum(min(t, n - i0) * (n - i0) for i0 in range(0, n, t))


def dense_target(rng, n, kind):
    """A symmetric 0/1 n x n `bool` target: a random graph ("random"), one
    without edges ("edgeless"), or every pair a one, the diagonal too, so
    that every stored pair is a one ("complete")."""
    if kind == "complete":
        return np.ones((n, n), dtype=bool)
    upper = np.triu(rng.random((n, n)) < (0.1 if kind == "random" else 0.0), k=1)
    return upper | upper.T


def ones(a):
    """The flat positions, ascending, of the ones of the symmetric 0/1
    n x n `a` among its stored entries: the target the edge loss's kernels
    take for `a`."""
    return np.flatnonzero(stored(a))


def unused(buf):
    """The entries of the n x n buffer `buf` past its packed storage, a flat view."""
    return buf.reshape(-1)[_packed_size(buf.shape[0]) :]


def unpack(buf):
    """The symmetric n x n matrix whose block-packed upper storage `buf` holds."""
    n, t = buf.shape[0], kernels._STRIPE
    full = np.empty((n, n))
    lo = 0
    for i0 in range(0, n, t):
        i1 = min(i0 + t, n)
        stripe = buf.reshape(-1)[lo : lo + (i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
        full[i0:i1, i0:] = stripe
        full[i1:, i0:i1] = stripe[:, i1 - i0 :].T
        lo += stripe.size
    return full


def _sigmoid_block(mb, out):
    """sigmoid(mb) into ``out``: negate, exp, add 1, reciprocal."""
    np.negative(mb, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    return out


def sigmoid_sqdiff(m, a, parts=1):
    """sum((sigmoid(m) - a)**2) over the symmetric n x n `m`, summed as the
    kernel sums it from block-packed storage in a pass of `parts` parts: per
    stripe, per call of ``parts * kernels._BLOCK`` elements (one row at
    least), the sum of the call's stored entries and of those in the
    stripe's diagonal square; the loss is twice the exact sum of the first
    less that of the second."""
    n = m.shape[0]
    calls, squares = [], []
    with np.errstate(over="ignore"):
        for i0 in range(0, n, kernels._STRIPE):
            i1 = min(i0 + kernels._STRIPE, n)
            step = max(1, parts * kernels._BLOCK // (n - i0))
            for r in range(i0, i1, step):
                mb = m[r : min(r + step, i1), i0:]
                t = _sigmoid_block(mb, np.empty(mb.shape))
                t -= a[r : min(r + step, i1), i0:]
                t *= t
                calls.append(t.sum())
                squares.append(t[:, : i1 - i0].sum())
    return 2.0 * math.fsum(calls) - math.fsum(squares)


def sigmoid_sqdiff_grad(m, a, gout):
    """((2 gout (e - a)) e)(1 - e) with e = sigmoid(m) recomputed from the
    scores ``m``, into a newly allocated result."""
    c = 2.0 * float(gout)
    with np.errstate(over="ignore"):
        e = _sigmoid_block(m, np.empty(m.shape))
    g = e - a
    g *= c
    g *= e
    g *= 1.0 - e
    return g


# -- the message-passing blocks, composed from the small ops ------------------------


def degrees(g):
    """Each node's degree, the row sums of `g.adjacency`, as float64."""
    return np.asarray(g.adjacency.sum(axis=1), dtype=np.float64).ravel()


def neighbor_aggregate(aug, x_real, x_syn):
    """Mean of each node's neighbors over the augmented adjacency: an
    (n+s) x width Mat (n x width without synthetic nodes). Zero-degree rows
    aggregate to zero; soft weights divide by their sum plus 1e-12."""
    a = tape.SparseConst(aug.graph.adjacency)
    num_real = spmm(a, x_real)
    if aug.x.rows == aug.graph.n:
        return row_mul(num_real, 1.0 / np.maximum(degrees(aug.graph), 1.0))

    b = aug.syn_real
    num_real = tape.add(num_real, matmul(tape.transpose(b), x_syn))
    num_syn = matmul(b, x_real)
    deg_real_const = degrees(aug.graph)
    if aug.soft:
        deg_real = tape.add(tape.const(deg_real_const[:, None]), rowsum(tape.transpose(b)))
        return tape.concat_rows(div_cols(num_real, deg_real), div_cols(num_syn, rowsum(b)))
    deg_real = deg_real_const + b.value.sum(axis=0)
    deg_syn = b.value.sum(axis=1)
    return tape.concat_rows(
        row_mul(num_real, 1.0 / np.maximum(deg_real, 1.0)),
        row_mul(num_syn, 1.0 / np.maximum(deg_syn, 1.0)),
    )


def concat_logits(aug, h2, params):
    """The head as [h2 | mean(h2)] @ Wc."""
    n = aug.graph.n
    s = aug.x.rows - n
    h2_real = slice_rows(h2, 0, n) if s else h2
    h2_syn = slice_rows(h2, n, n + s) if s else None
    agg2 = neighbor_aggregate(aug, h2_real, h2_syn)
    return matmul(concat_cols(h2, agg2), params["Wc"])

