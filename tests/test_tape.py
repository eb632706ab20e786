"""Forward-op examples and finite-difference oracles for the tape.

The small ops the message-passing blocks were once composed from (relu,
spmm, concat_cols, slice_rows, rowsum, div_cols, total_sum) live on in
`oracles` as the reference for `tape.graph_layer`; they are checked here.
`oracles.chain_scores`, the matmul chain the edge loss's scores were once
taken by, is the reference for the scores of `tape.symmetric_sqdiff`, and
`oracles.chain_interpolate` and `oracles.chain_edge_scores` are the
references for `tape.interpolate` and `tape.edge_scores`. The generic ops
these chains are built from (matmul, sigmoid, gather_rows, row_mul) live
in `oracles` too.
"""
import re
import sys

import numpy as np
import pytest

import oracles
from imbnode import classifier, kernels, tape
from imbnode.errors import NonFiniteError, ShapeError


def test_relu_definition():
    out = oracles.relu(tape.const([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out.value, [[0.0, 2.0]])


def test_row_softmax_zero_row_is_uniform():
    # probabilities are computed off the tape, from the logits
    k = 5
    np.testing.assert_allclose(classifier.softmax(np.zeros((1, k))), np.full((1, k), 1.0 / k))


def test_frobenius_identity_is_zero():
    e = tape.const(np.arange(6.0).reshape(2, 3))
    assert oracles.frobenius_sq_diff(e, e.value).item() == 0.0


def test_sigmoid_of_zero():
    out = oracles.sigmoid(tape.const([[0.0]]))
    assert out.item() == 0.5


def test_linear_loss_gradient_matches_hand_formula():
    # loss = sum(x @ W) => dW = column-sums of x broadcast across W columns
    rng = np.random.default_rng(0)
    x = tape.const(rng.normal(size=(3, 4)))
    w = tape.param(rng.normal(size=(4, 2)))
    loss = oracles.total_sum(oracles.matmul(x, w))
    tape.backward(loss)
    expected = np.repeat(x.value.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(w.grad, expected, atol=1e-12)


def test_backward_twice_doubles_gradients():
    rng = np.random.default_rng(1)
    w = tape.param(rng.normal(size=(3, 3)))
    loss = oracles.total_sum(oracles.sigmoid(oracles.matmul(w, w)))
    tape.backward(loss)
    once = w.grad.copy()
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, 2.0 * once, rtol=1e-14)


def test_backward_releases_intermediate_gradients():
    rng = np.random.default_rng(2)
    w = tape.param(rng.normal(size=(4, 3)))
    s = tape.param(rng.normal(size=(3, 3)))
    s_sym = tape.mul_scalar(tape.add(s, tape.transpose(s)), 0.5)
    raw = oracles.matmul(oracles.matmul(w, s_sym), tape.transpose(w))
    # `s_sym` feeds two ops, so its gradient is summed from both before use
    fused = tape.symmetric_sqdiff(w, s_sym, oracles.ones(_symmetric_target(rng, 4, 0.5)), np.empty((4, 4)))
    loss = tape.add(fused, oracles.total_sum(oracles.sigmoid(raw)))
    tape.backward(loss)
    once = {"w": w.grad.copy(), "s": s.grad.copy()}

    stack, seen = [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
        if node._parents:
            assert node.grad is None, node
    assert len(seen) == 13  # the two leaves and eleven intermediates

    tape.backward(loss)  # leaves still accumulate over a second pass
    np.testing.assert_allclose(w.grad, 2.0 * once["w"], rtol=1e-14)
    np.testing.assert_allclose(s.grad, 2.0 * once["s"], rtol=1e-14)


def test_backward_requires_scalar():
    w = tape.param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tape.backward(oracles.matmul(w, w))


def test_nonfinite_forward_raises():
    big = tape.const(np.full((1, 1), 1e308))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        oracles.matmul(big, tape.const([[10.0]]))


def test_shape_mismatch_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        oracles.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="concat_cols"):
        oracles.concat_cols(tape.const(np.ones((2, 3))), tape.const(np.ones((3, 3))))
    with pytest.raises(ShapeError, match=r"graph_layer: input width 3 vs W \(4, 2\)"):
        tape.graph_layer(tape.const(np.ones((2, 3))), tape.const(np.ones((4, 2))))


def _composite_loss(w1, w2, adj, feat, labels, mask):
    h = tape.graph_layer(feat, w1)
    scores = oracles.sigmoid(oracles.matmul(oracles.matmul(h, w2), tape.transpose(h)))
    rec = oracles.frobenius_sq_diff(scores, adj)
    ce = tape.softmax_cross_entropy(oracles.matmul(h, tape.transpose(h)), labels, mask)
    return tape.add(ce, tape.mul_scalar(rec, 0.05))


def test_composite_loss_matches_finite_differences():
    rng = np.random.default_rng(7)
    n, d, k = 6, 4, 6
    feat = tape.const(rng.normal(size=(n, d)))
    adj = (rng.random((n, n)) < 0.4).astype(float)
    adj = np.triu(adj, 1)
    adj = adj + adj.T
    labels = rng.integers(0, 3, size=n)
    mask = np.arange(n)
    w1 = tape.param(rng.normal(size=(d, k)) * 0.7)
    w2 = tape.param(rng.normal(size=(k, k)) * 0.7)

    loss = _composite_loss(w1, w2, adj, feat, labels, mask)
    tape.backward(loss)
    for w in (w1, w2):
        numeric = tape.fd_gradient(
            lambda: _composite_loss(w1, w2, adj, feat, labels, mask).item(), w
        )
        assert tape.grad_max_violation(w.grad, numeric) <= 0.0


@pytest.mark.parametrize(
    "build",
    [
        lambda x: oracles.relu(x),
        lambda x: oracles.sigmoid(x),
        lambda x: tape.softmax_cross_entropy(x, np.array([2, 0, 1, 2]), np.array([3, 0, 1])),
        lambda x: tape.softmax_cross_entropy(
            x, np.array([2, 0, 1, 2]), np.array([0, 1, 2, 3]), weights=np.array([0.5, 2.0, 1.0])
        ),
        lambda x: tape.transpose(x),
        lambda x: oracles.rowsum(x),
        lambda x: oracles.slice_rows(x, 1, 3),
        lambda x: oracles.gather_rows(x, np.array([0, 2, 2, 3])),
        lambda x: oracles.row_mul(x, np.array([0.5, -1.0, 2.0, 0.25])),
        lambda x: oracles.concat_cols(x, tape.mul_scalar(x, 2.0)),
        lambda x: tape.concat_rows(x, tape.mul_scalar(x, -1.0)),
    ],
)
def test_single_op_gradients(build):
    rng = np.random.default_rng(11)
    x = tape.param(rng.normal(size=(4, 3)) + 0.3)

    def f():
        return oracles.total_sum(oracles.sigmoid(build(x))).item()

    tape.backward(oracles.total_sum(oracles.sigmoid(build(x))))
    numeric = tape.fd_gradient(f, x)
    assert tape.grad_max_violation(x.grad, numeric) <= 0.0


def test_div_cols_gradients_both_sides():
    rng = np.random.default_rng(3)
    x = tape.param(rng.normal(size=(4, 3)))
    d = tape.param(rng.random((4, 1)) + 0.5)

    def f():
        return oracles.total_sum(oracles.sigmoid(oracles.div_cols(x, d))).item()

    tape.backward(oracles.total_sum(oracles.sigmoid(oracles.div_cols(x, d))))
    for w in (x, d):
        numeric = tape.fd_gradient(f, w)
        assert tape.grad_max_violation(w.grad, numeric) <= 0.0


def test_spmm_matches_dense_and_gradient():
    import scipy.sparse as sp

    rng = np.random.default_rng(5)
    dense = (rng.random((5, 5)) < 0.5).astype(float)
    dense = np.triu(dense, 1)
    dense = dense + dense.T
    s = tape.SparseConst(sp.csr_matrix(dense))
    x = tape.param(rng.normal(size=(5, 3)))

    out = oracles.spmm(s, x)
    np.testing.assert_allclose(out.value, dense @ x.value, atol=1e-12)

    def f():
        return oracles.total_sum(oracles.sigmoid(oracles.spmm(s, x))).item()

    tape.backward(oracles.total_sum(oracles.sigmoid(oracles.spmm(s, x))))
    numeric = tape.fd_gradient(f, x)
    assert tape.grad_max_violation(x.grad, numeric) <= 0.0


def test_sigmoid_sqdiff_equals_composition():
    # the loss node on its own: the fused sigmoid and squared error against
    # the composed ops on the same scores; the scores node receives their
    # gradient in block-packed storage
    rng = np.random.default_rng(9)
    h_val, s_val = rng.normal(size=(6, 3)), rng.normal(size=(3, 3))
    s_val += s_val.T
    a = _symmetric_target(rng, 6, 0.4)

    fused = tape.symmetric_sqdiff(tape.param(h_val), tape.param(s_val), oracles.ones(a), np.full((6, 6), np.nan))
    fused._vjp(np.ones((1, 1)))  # hands the scores node its gradient
    m2 = tape.param(oracles.chain_scores(tape.const(h_val), tape.const(s_val)).value)
    composed = oracles.frobenius_sq_diff(oracles.sigmoid(m2), a)
    assert fused.item() == pytest.approx(composed.item(), rel=1e-12)
    tape.backward(composed)
    want = oracles.stored(m2.grad)
    np.testing.assert_allclose(oracles.packed(fused._parents[0].grad), want, rtol=1e-12, atol=1e-14)


def _sym_params(rng, n, k, scale=1.0):
    s = rng.normal(size=(k, k))
    return tape.param(rng.normal(size=(n, k)) * scale), tape.param(s + s.T)


def test_sigmoid_sqdiff_leaf_gradient_accumulates():
    rng = np.random.default_rng(10)
    h, s = _sym_params(rng, 5, 4)
    a = _symmetric_target(rng, 5, 0.5)
    ones, others = oracles.ones(a), oracles.ones(~a)
    loss = tape.symmetric_sqdiff(h, s, ones, np.empty((5, 5)))
    tape.backward(loss)
    once = h.grad.copy(), s.grad.copy()
    tape.backward(loss)  # a second pass over the same graph doubles it
    np.testing.assert_array_equal(h.grad, 2.0 * once[0])
    np.testing.assert_array_equal(s.grad, 2.0 * once[1])

    s_const = tape.const(s.value)
    fresh = tape.param(h.value.copy())
    tape.backward(tape.symmetric_sqdiff(fresh, s_const, ones, np.empty((5, 5))))  # becomes fresh.grad
    tape.backward(tape.symmetric_sqdiff(fresh, s_const, others, np.empty((5, 5))))  # a second loss adds to it
    other = tape.param(h.value.copy())
    tape.backward(tape.symmetric_sqdiff(other, s_const, others, np.empty((5, 5))))
    np.testing.assert_array_equal(fresh.grad, once[0] + other.grad)


def test_sigmoid_sqdiff_repeated_backward_gives_bit_identical_gradients():
    # the first backward turns the forward's sigmoid in `out` into the
    # gradient; a second one refills that same buffer from `h` and `m`
    rng = np.random.default_rng(12)
    h, s = _sym_params(rng, 300, 2, scale=4.0)  # two stripes
    h.value[:2], s.value[...] = [[20.0, 0.0], [-20.0, 0.0]], 2.0 * np.eye(2)
    assert len(kernels._stripes(300)) == 2
    a = _symmetric_target(rng, 300, 0.3)
    out = np.full((300, 300), np.nan)
    loss, scores = _loss_and_scores(h, s, oracles.ones(a), out)
    assert oracles.packed(scores).max() == 800.0 and oracles.packed(scores).min() == -800.0
    assert loss._parents[0].value is out

    # the gradients the scores' vjp makes of the recompute oracle's G
    ref_h, ref_s = tape.param(h.value), tape.param(s.value)
    ref = tape.symmetric_sqdiff(ref_h, ref_s, oracles.ones(a), np.empty((300, 300)))
    grad = oracles.pack(oracles.sigmoid_sqdiff_grad(oracles.unpack(scores), a, 1.0))
    ref._parents[0]._vjp(grad)
    for _ in range(3):
        tape.backward(loss)
        np.testing.assert_array_equal(out, grad)  # each pass leaves G in the one buffer, NaN past it
        np.testing.assert_array_equal(h.grad, ref_h.grad)
        np.testing.assert_array_equal(s.grad, ref_s.grad)
        h.zero_grad()
        s.zero_grad()


def test_sigmoid_sqdiff_forward_on_a_constant_keeps_no_buffer():
    import tracemalloc

    rng = np.random.default_rng(13)
    h, s = _sym_params(rng, 300, 4)
    a = oracles.ones(_symmetric_target(rng, 300, 0.2))
    n_by_n = 300 * 300 * 8
    out = np.empty((300, 300))
    tracemalloc.start()
    try:
        loss = tape.symmetric_sqdiff(tape.const(h.value), tape.const(s.value), a, out)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not loss.requires_grad and loss._parents == ()  # nothing holds the scores node
    assert kept < n_by_n / 4, f"{kept} B kept against {n_by_n} B of scores"
    assert loss.item() == tape.symmetric_sqdiff(h, s, a, np.empty((300, 300))).item()


def test_sigmoid_sqdiff_holds_one_score_sized_buffer_from_forward_to_backward():
    """The kernel allocates no array the size of the scores it overwrites.
    On parameters the edge loss's forward fills the caller's n x n buffer
    with the scores, overwritten by their sigmoid, and allocates under a
    quarter of it, peak included; the backward turns the buffer into the
    scores' gradient and allocates under a quarter of it. A fresh buffer for
    the scores or for the sigmoid exceeds both bounds."""
    import tracemalloc

    rng = np.random.default_rng(11)
    h, s = _sym_params(rng, 1000, 8)
    a = oracles.ones(_symmetric_target(rng, 1000, 0.1))
    scores, quarter = 1000 * 1000 * 8, 1000 * 1000 * 8 / 4
    m_val = h.value @ s.value @ h.value.T
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kernels.sigmoid_sqdiff(m_val, a)
        kernel_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        loss = tape.symmetric_sqdiff(h, s, a, m_val)
        held, forward_peak = (b - start for b in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        tape.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert kernel_peak < quarter, f"kernel: peak {kernel_peak} B against {scores} B of scores"
    assert held < quarter and forward_peak < quarter, f"forward: {held} B held, {forward_peak} B peak"
    assert backward_peak - held < quarter, f"backward allocated {backward_peak - held} B"


# -- the all-pairs scores ------------------------------------------------------------


def _loss_and_scores(h, m, ones, out):
    """The fused op's loss node for the target at the packed positions
    `ones`, and a copy of the stored scores as its sigmoid kernel receives
    them."""
    sigmoid_sqdiff, seen = kernels.sigmoid_sqdiff, []
    kernels.sigmoid_sqdiff = lambda scores, ones: seen.append(scores.copy()) or sigmoid_sqdiff(scores, ones)
    try:
        loss = tape.symmetric_sqdiff(h, m, ones, out)
    finally:
        kernels.sigmoid_sqdiff = sigmoid_sqdiff
    return loss, seen[0]


def _scores_loss(fused, h_val, s_val, a):
    """The scores, the loss of their sigmoid against the target `a` and the
    gradients of `h` and `S`: the fused op's, with its stored scores as the
    sigmoid kernel receives them, NaN past them, or the matmul chain's
    composed ones."""
    h, s = tape.param(h_val.copy()), tape.param(s_val.copy())
    s_sym = tape.mul_scalar(tape.add(s, tape.transpose(s)), 0.5)
    if fused:
        loss, scores = _loss_and_scores(h, s_sym, oracles.ones(a), np.full((h.rows, h.rows), np.nan))
    else:
        chain = oracles.chain_scores(h, s_sym)
        scores, loss = chain.value, oracles.frobenius_sq_diff(oracles.sigmoid(chain), a)
    tape.backward(loss)
    return scores, loss.item(), h.grad, s.grad


def _symmetric_target(rng, n, p):
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return upper | upper.T


def _saturated_case():
    # S_sym = 2 I: rows 0 and 1 score +800 against themselves and -800 against each other,
    # row 2 scores +800 against itself, and row 3 scores moderately against every row
    h = np.array([[20.0, 0.0], [-20.0, 0.0], [0.0, 20.0], [0.1, 0.2]])
    a = np.array([[0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]], dtype=bool)
    return h, 2.0 * np.eye(2), a


def _random_case(n, k=3, p=0.3, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, k)), rng.normal(size=(k, k)), _symmetric_target(rng, n, p)


@pytest.mark.parametrize(
    "case",
    [
        _random_case(1),
        _random_case(2, p=1.0),
        _random_case(300, k=5, p=0.05),  # 300 rows: a ragged last stripe
        _saturated_case(),
        _random_case(40, p=0.0),  # a graph with no edges
    ],
    ids=["n1", "n2", "ragged_row_blocks", "saturated", "no_edges"],
)
def test_symmetric_scores_matches_the_matmul_chain(case):
    h, s, a = case
    n = h.shape[0]
    if n == 300:
        assert n % kernels._STRIPE != 0
    got = _scores_loss(True, h, s, a)
    ref = _scores_loss(False, h, s, a)
    scale = np.abs(ref[0]).max()
    want = oracles.stored(ref[0])
    np.testing.assert_allclose(oracles.packed(got[0]), want, rtol=1e-15, atol=1e-15 * scale)
    assert np.isnan(oracles.unused(got[0])).all()
    assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    _assert_rel(got[2], ref[2], "dh")
    _assert_rel(got[3], ref[3], "dS")
    if n == 4:  # the saturated case
        assert oracles.packed(got[0]).max() == 800.0 and oracles.packed(got[0]).min() == -800.0


def test_symmetric_scores_rejects_an_asymmetric_or_misshapen_m():
    h, a = tape.param(np.ones((4, 3))), np.empty(0, np.int64)
    asym = np.eye(3)
    asym[0, 1] = 1e-300
    for m in (asym, np.eye(2), np.ones((3, 4))):  # asymmetric, too narrow, not square
        want = f"symmetric_scores: m {m.shape} is not a symmetric 3x3 matrix"
        with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
            tape.symmetric_sqdiff(h, tape.param(m), a, np.empty((4, 4)))
    # the ones of a 5-node target reach past the 16 stored pairs of 4 nodes
    with pytest.raises(ShapeError, match=re.escape("sigmoid_sqdiff: target positions must lie in [0, 16)")):
        tape.symmetric_sqdiff(h, tape.param(np.eye(3)), oracles.ones(np.ones((5, 5))), np.empty((4, 4)))


@pytest.mark.parametrize(
    "out, got",
    [
        (np.empty((4, 3)), "float64 (4, 3)"),
        (np.empty((5, 5)), "float64 (5, 5)"),
        (np.empty((4, 4), dtype=np.float32), "float32 (4, 4)"),
        (np.empty((4, 4), dtype=bool), "bool (4, 4)"),
        (np.empty((4, 4)).tolist(), "list"),
    ],
    ids=["narrow", "too-large", "float32", "bool", "list"],
)
def test_symmetric_sqdiff_rejects_an_out_of_the_wrong_shape_or_dtype(out, got):
    h, a = tape.param(np.ones((4, 3))), np.empty(0, np.int64)
    want = f"symmetric_scores: out must be a float64 (4, 4) array, got {got}"
    with pytest.raises(ShapeError, match=f"^{re.escape(want)}$"):
        tape.symmetric_sqdiff(h, tape.param(np.eye(3)), a, out)


def test_symmetric_sqdiff_rejects_an_out_that_is_not_c_contiguous():
    h, a = tape.param(np.ones((4, 3))), np.empty(0, np.int64)
    with pytest.raises(ShapeError, match="^symmetric_scores: out must be C-contiguous$"):
        tape.symmetric_sqdiff(h, tape.param(np.eye(3)), a, np.empty((4, 4), order="F"))


def test_edge_loss_builds_its_loss_node_through_out_on_an_n_by_n_parent(monkeypatch):
    """The loss node has the n x n scores node for its parent and is built
    by `tape._out` with a vjp: what a wrapper of `_out` that times the
    backward steps of n x n ops looks for. The scores node, whose stripes
    are checked finite as they are filled, is not: `_out` would check the
    unread rest of the buffer."""
    built, out = [], tape._out

    def recording_out(value, parents, vjp, op):
        built.append((op, np.shape(value), [p.shape for p in parents], vjp is not None))
        return out(value, parents, vjp, op)

    monkeypatch.setattr(tape, "_out", recording_out)
    rng = np.random.default_rng(14)
    h, s = _sym_params(rng, 7, 3)
    loss = tape.symmetric_sqdiff(h, s, oracles.ones(_symmetric_target(rng, 7, 0.3)), np.full((7, 7), np.nan))
    assert built == [("sigmoid_sqdiff", (1, 1), [(7, 7)], True)]
    assert [p.shape for p in loss._parents[0]._parents] == [(7, 3), (3, 3)]


@pytest.mark.parametrize("parts", [1, 2], ids=["one-part", "two-parts"])
@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 620, 1030])
def test_edge_loss_on_block_packed_storage_matches_the_full_matrix_composition(n, parts, part_count):
    """With NaN in `out`, scores of +-800 among the stored ones and one
    part or two, the loss, dh and dS agree within 1e-12 relative with the
    composition over the full matrix, and the part of `out` past the
    block-packed stripes is neither read nor written, forward or
    backward."""
    part_count(parts)
    rng = np.random.default_rng(n)
    h_val = rng.normal(size=(n, 3))
    h_val[0], h_val[-1] = [20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]  # S_sym near 2 I: about +-800 at (0, 0), (0, n-1)
    s_val = 2.0 * np.eye(3) + 0.01 * rng.normal(size=(3, 3))
    a = _symmetric_target(rng, n, 0.1)
    h, s = tape.param(h_val), tape.param(s_val)
    s_sym = tape.mul_scalar(tape.add(s, tape.transpose(s)), 0.5)
    out = np.full((n, n), np.nan)
    loss = tape.symmetric_sqdiff(h, s_sym, oracles.ones(a), out)
    tape.backward(loss)
    assert np.isnan(oracles.unused(out)).all()
    assert np.abs(h_val @ s_sym.value @ h_val.T).max() > 790.0
    _, ref_loss, ref_dh, ref_ds = _scores_loss(False, h_val, s_val, a)
    assert loss.item() == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
    _assert_rel(h.grad, ref_dh, "dh")
    _assert_rel(s.grad, ref_ds, "dS")


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("parts", [1, 2], ids=["one-part", "two-parts"])
@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 620, 1030])
def test_edge_loss_on_positions_is_bit_identical_to_the_dense_target_composition(n, parts, kind, part_count):
    """Fed the positions of a target's ones, the op's loss and the gradient
    its loss node hands the scores node equal, bit for bit, the oracle's
    composition on the dense target over the same scores, +-800 among them."""
    part_count(parts)
    rng = np.random.default_rng(n)
    h_val = rng.normal(size=(n, 3))
    h_val[0], h_val[-1] = [20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]  # S_sym near 2 I: about +-800 at (0, 0), (0, n-1)
    noise = 0.005 * rng.normal(size=(3, 3))
    s_val = 2.0 * np.eye(3) + noise + noise.T
    a = oracles.dense_target(rng, n, kind)
    loss, scores = _loss_and_scores(tape.param(h_val), tape.param(s_val), oracles.ones(a), np.full((n, n), np.nan))
    full = oracles.unpack(scores)
    assert np.abs(full).max() > 780.0  # exp of it overflows, and its sigmoid is exactly 0 or 1
    assert loss.item() == oracles.sigmoid_sqdiff(full, a, parts)
    loss._vjp(np.array([[0.8]]))
    got = oracles.packed(loss._parents[0].grad)
    np.testing.assert_array_equal(got, oracles.stored(oracles.sigmoid_sqdiff_grad(full, a, 0.8)))


@pytest.mark.parametrize(
    "ones, message",
    [
        (np.array([[0, 1]]), "target positions must be a 1-D integer array, got int64 (1, 2)"),
        (np.zeros((4, 4), dtype=bool), "target positions must be a 1-D integer array, got bool (4, 4)"),
        (np.array([0.0, 1.0]), "target positions must be a 1-D integer array, got float64 (2,)"),
        (np.array([1, 3, 3]), "target positions must be strictly increasing"),
        (np.array([3, 1]), "target positions must be strictly increasing"),
        (np.array([-1, 2]), "target positions must lie in [0, 16), the storage of 4 nodes"),
        (np.array([2, 16]), "target positions must lie in [0, 16), the storage of 4 nodes"),
    ],
    ids=["2-d", "dense-bool", "float", "repeated", "descending", "negative", "past-the-storage"],
)
def test_symmetric_sqdiff_rejects_target_positions_that_are_not_sorted_stored_pairs(ones, message):
    h = tape.param(np.ones((4, 3)))
    with pytest.raises(ShapeError, match=f"^{re.escape('sigmoid_sqdiff: ' + message)}$"):
        tape.symmetric_sqdiff(h, tape.param(np.eye(3)), ones, np.empty((4, 4)))


def test_masked_cross_entropy_weighted_vs_uniform():
    rng = np.random.default_rng(13)
    z = tape.const(rng.normal(size=(5, 3)))
    labels = rng.integers(0, 3, size=5)
    mask = np.arange(5)
    plain = tape.softmax_cross_entropy(z, labels, mask).item()
    weighted = tape.softmax_cross_entropy(z, labels, mask, weights=np.ones(3)).item()
    assert plain == pytest.approx(weighted, rel=1e-15)


def test_softmax_cross_entropy_finite_at_logit_gap_800():
    # -log(softmax) would take the log of an underflowed 0 here
    z = tape.param([[0.0, 800.0]])
    loss = tape.softmax_cross_entropy(z, [0], [0])
    assert loss.item() == 800.0
    tape.backward(loss)
    np.testing.assert_array_equal(z.grad, [[-1.0, 1.0]])

    # class weights scale each row's value and gradient
    z = tape.param([[0.0, 800.0], [800.0, 0.0]])
    loss = tape.softmax_cross_entropy(z, [0, 1], [0, 1], weights=[0.5, 2.0])
    assert loss.item() == (0.5 * 800.0 + 2.0 * 800.0) / 2
    tape.backward(loss)
    np.testing.assert_array_equal(z.grad, [[-0.25, 0.25], [1.0, -1.0]])

    # rows of +-800: right, wrong, and a row outside the mask
    z = tape.param([[800.0, -800.0], [800.0, -800.0], [-800.0, 800.0]])
    loss = tape.softmax_cross_entropy(z, [0, 1, 0], [0, 1])
    assert loss.item() == (0.0 + 1600.0) / 2
    tape.backward(loss)
    np.testing.assert_array_equal(z.grad, [[0.0, 0.0], [0.5, -0.5], [0.0, 0.0]])


def test_softmax_cross_entropy_rejects_bad_masks():
    z = tape.const(np.zeros((3, 2)))
    with pytest.raises(ShapeError, match="softmax_cross_entropy: empty mask"):
        tape.softmax_cross_entropy(z, [0, 1, 0], [])
    with pytest.raises(ShapeError, match=r"softmax_cross_entropy: label outside \[0, classes\)"):
        tape.softmax_cross_entropy(z, [0, 2, 0], [0, 1])


# -- the synthetic rows and their edge scores ---------------------------------------

# a repeated seed, a repeated (seed, nn) pair, seed == nn, and ids that are
# seeds and neighbours both
_SEEDS, _NNS = np.array([0, 2, 2, 5, 4, 6]), np.array([1, 3, 3, 5, 0, 2])


def _interpolation_on_tape(fused, h_val, deltas, target):
    """The synthetic rows, and the gradient of `h` under a squared error on
    them over two backward passes, by `tape.interpolate` or the gather
    chain. Fresh leaves on every call."""
    h = tape.param(h_val.copy())
    rows = (tape.interpolate if fused else oracles.chain_interpolate)(h, _SEEDS, _NNS, deltas)
    loss = oracles.frobenius_sq_diff(rows, target)
    grads = []
    for _ in range(2):
        tape.backward(loss)
        grads.append(h.grad.copy())
        h.zero_grad()
    return rows.value, grads


def test_interpolate_matches_the_gather_chain():
    rng = np.random.default_rng(21)
    h_val, target = rng.normal(size=(7, 3)), rng.normal(size=(6, 3))
    deltas = np.append(rng.random(5), 0.0)
    got = _interpolation_on_tape(True, h_val, deltas, target)
    ref = _interpolation_on_tape(False, h_val, deltas, target)
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[0][5], h_val[6])  # delta 0: the seed's row
    for i in range(2):
        _assert_rel(got[1][i], ref[1][i], f"dh, pass {i + 1}")
    np.testing.assert_array_equal(got[1][1], got[1][0])  # a repeated backward scatters the same
    with pytest.raises(ShapeError, match="^interpolate: "):
        tape.interpolate(tape.param(h_val), _SEEDS, _NNS[:-1], deltas)


def _edge_scores_on_tape(fused, rows_val, cols_val, m_val, target, deltas=None):
    """The edge scores of `rows` against `cols`, their squared error against
    `target`, and the gradients of `rows` (a leaf), `cols` and `m` over two
    backward passes, by `tape.edge_scores` or the matmul chain. With
    `deltas` the rows are interpolated from `cols` instead, as
    `augment_soft` scores the synthetic rows against `h1`. Fresh leaves on
    every call."""
    cols, m = tape.param(cols_val.copy()), tape.param(m_val.copy())
    if deltas is None:
        rows = tape.param(rows_val.copy())
        leaves = (rows, cols, m)
    else:
        rows = (tape.interpolate if fused else oracles.chain_interpolate)(cols, _SEEDS, _NNS, deltas)
        leaves = (cols, m)
    scores = (tape.edge_scores if fused else oracles.chain_edge_scores)(rows, cols, m)
    loss = oracles.frobenius_sq_diff(scores, target)
    grads = []
    for _ in range(2):
        tape.backward(loss)
        grads.append([leaf.grad.copy() for leaf in leaves])
        for leaf in leaves:
            leaf.zero_grad()
    return scores.value, loss.item(), grads


def _edge_scores_case(kind):
    rng = np.random.default_rng(22)
    m = rng.normal(size=(3, 3))
    m += m.T
    cols = rng.normal(size=(7, 3))
    rows = rng.normal(size=(6, 3))
    if kind == "saturated":
        # m = 2 I: rows 0 and 1 score +800 and -800 against column 0
        m = 2.0 * np.eye(3)
        rows[:2], cols[0] = [[20.0, 0.0, 0.0], [-20.0, 0.0, 0.0]], [20.0, 0.0, 0.0]
    deltas = rng.random(6) if kind == "rows_from_cols" else None
    return rows, cols, m, rng.random((6, 7)), deltas


@pytest.mark.parametrize("kind", ["random", "saturated", "rows_from_cols"])
def test_edge_scores_match_the_matmul_chain(kind):
    rows, cols, m, target, deltas = _edge_scores_case(kind)
    got = _edge_scores_on_tape(True, rows, cols, m, target, deltas)
    ref = _edge_scores_on_tape(False, rows, cols, m, target, deltas)
    np.testing.assert_array_equal(got[0], ref[0])
    assert got[1] == pytest.approx(ref[1], rel=1e-12, abs=0.0)
    for i in range(2):
        for name, g, r in zip(("drows", "dcols", "dm")[-len(got[2][i]) :], got[2][i], ref[2][i]):
            _assert_rel(g, r, f"{name}, pass {i + 1}")
    for g, g_again in zip(*got[2]):  # a repeated backward gives the same gradients
        np.testing.assert_array_equal(g_again, g)
    if kind == "saturated":
        assert got[0][0, 0] == 1.0 and got[0][1, 0] == 0.0


def test_edge_scores_keep_their_sigmoid_and_not_the_raw_scores():
    """The forward allocates one s x n array and holds it, the sigmoid
    written over the raw scores; the matmul chain held both."""
    import tracemalloc

    rng = np.random.default_rng(23)
    m = rng.normal(size=(8, 8))
    rows, cols, m = tape.param(rng.normal(size=(200, 8))), tape.param(rng.normal(size=(1000, 8))), tape.param(m + m.T)
    block = 200 * 1000 * 8
    held, peak = {}, {}
    for name, op in (("fused", tape.edge_scores), ("chain", oracles.chain_edge_scores)):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scores = op(rows, cols, m)
            held[name], peak[name] = (b - start for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        del scores
    assert block <= held["fused"] < 1.25 * block and peak["fused"] < 1.25 * block, (held, peak)
    assert held["chain"] >= 2 * block, held


def test_edge_scores_reject_misshapen_operands_and_non_finite_raw_scores():
    rows, cols = tape.param(np.ones((2, 3))), tape.param(np.ones((4, 3)))
    for m, c in ((np.eye(2), cols), (np.eye(3), tape.param(np.ones((4, 2))))):
        with pytest.raises(ShapeError, match="^edge_scores: "):
            tape.edge_scores(rows, c, tape.param(m))
    # the sigmoid would map the overflow to 1 and hide it
    huge = tape.param(np.full((4, 3), 1e200))
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteError, match="^edge_scores: non-finite values in the raw scores$"
    ):
        tape.edge_scores(huge, huge, tape.param(np.eye(3)))


# -- the fused message-passing block ------------------------------------------------


def _assert_rel(got, ref, what):
    """Within 1e-12 of the reference, relative to its largest entry."""
    assert got is not None and ref is not None, what
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max(), err_msg=what)


def _layer_on_tape(fused, mode, relu):
    """One block on a 9-node graph whose node 8 has no edges, three synthetic
    nodes (none for real_only and empty) of which the first has no edges,
    and the gradients of a squared error on its output. `fused` picks
    `tape.graph_layer` or the composition in `oracles`. Fresh leaves on
    every call."""
    import scipy.sparse as sp

    from imbnode.edgegen import AugmentedGraph
    from imbnode.graph import Graph
    from imbnode.oversample import SyntheticBatch

    rng = np.random.default_rng(31)
    src = np.array([0, 1, 2, 3, 4, 5, 6, 7, 0])
    dst = np.array([1, 2, 3, 4, 5, 6, 7, 0, 4])
    n, k, out = 9, 4, 3
    adj = sp.csr_matrix((np.ones(18), (np.r_[src, dst], np.r_[dst, src])), shape=(n, n))
    g = Graph(adjacency=adj, features=np.zeros((n, 1)), labels=np.zeros(n, dtype=np.int64), m=1)
    s = 0 if mode in ("real_only", "empty") else 3
    x_real = tape.param(rng.normal(size=(n, k)))
    x_syn = tape.param(rng.normal(size=(s, k)))
    w = tape.param(rng.normal(size=(2 * k, out)))
    weights = rng.random((s, n)) * 0.9 + 0.05
    if mode == "thresholded":
        weights = (weights < 0.5).astype(np.float64)
    weights[:1] = 0.0  # a synthetic node without edges
    weights[:, 8] = 0.0  # node 8 keeps degree zero
    b = {
        "real_only": None,
        "empty": tape.const(np.zeros((0, n))),
        "no_edges": None,
        "thresholded": tape.const(weights),
        "soft": tape.param(weights),
    }[mode]
    x = tape.concat_rows(x_real, x_syn) if s else x_real
    if fused:
        layer = tape.graph_layer(x, w, tape.SparseConst(adj), b, soft=mode == "soft", relu=relu)
    else:
        # the composition sees the edgeless synthetic nodes as all-zero weights;
        # it reads only the graph, the edges and the row count from `aug` and
        # takes the synthetic rows from x_syn, not from the batch's interpolation
        syn_real = tape.const(np.zeros((s, n))) if mode == "no_edges" else b
        batch = SyntheticBatch(
            labels=np.zeros(s, dtype=np.int64),
            parents=np.zeros((s, 2), dtype=np.int64),
            deltas=np.zeros(s),
            syn_real=syn_real,
        )
        aug = AugmentedGraph(g, x_real, batch, soft=mode == "soft")
        pre = oracles.matmul(
            oracles.concat_cols(x, oracles.neighbor_aggregate(aug, x_real, x_syn if s else None)), w
        )
        layer = oracles.relu(pre) if relu else pre
    tape.backward(oracles.frobenius_sq_diff(layer, rng.normal(size=layer.shape)))
    leaves = {"x_real": x_real, "W": w, "x_syn": x_syn if s else None, "b": b}
    return layer.value, {name: leaf.grad for name, leaf in leaves.items() if leaf is not None and leaf.requires_grad}


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
@pytest.mark.parametrize(
    "mode", ["real_only", "empty", "no_edges", "thresholded", "soft"], ids=lambda mode: f"mean-{mode}"
)
def test_graph_layer_matches_composition(mode, relu):
    got, got_grads = _layer_on_tape(True, mode, relu)
    ref, ref_grads = _layer_on_tape(False, mode, relu)
    _assert_rel(got, ref, "value")
    assert set(got_grads) == set(ref_grads) >= {"x_real", "W"}
    for name in got_grads:
        _assert_rel(got_grads[name], ref_grads[name], name)


@pytest.mark.parametrize("relu", [True, False], ids=["relu", "identity"])
def test_graph_layer_without_graph_matches_composition(relu):
    rng = np.random.default_rng(32)
    x0, w0 = rng.normal(size=(6, 5)), rng.normal(size=(5, 3))
    results = []
    for fused in (True, False):
        x, w = tape.param(x0.copy()), tape.param(w0.copy())
        if fused:
            layer = tape.graph_layer(x, w, relu=relu)
        else:
            layer = oracles.relu(oracles.matmul(x, w)) if relu else oracles.matmul(x, w)
        tape.backward(oracles.frobenius_sq_diff(layer, np.ones(layer.shape)))
        results.append((layer.value, x.grad, w.grad))
    for got, ref, what in zip(*results, ("value", "x", "W")):
        _assert_rel(got, ref, what)


def test_graph_layer_checks_the_pre_activation():
    import scipy.sparse as sp

    # relu would map -inf to 0, so only the pre-activation shows it
    with pytest.raises(NonFiniteError, match="graph_layer: non-finite values in the pre-activation"):
        tape.graph_layer(tape.const([[-np.inf, 0.0]]), tape.const([[1.0], [0.0]]))
    adj = tape.SparseConst(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    x = tape.const([[1.0], [-np.inf]])
    with pytest.raises(NonFiniteError, match="graph_layer"):
        tape.graph_layer(x, tape.const([[1.0], [1.0]]), adj)


def test_graph_layer_checks_its_values_once(monkeypatch):
    """The pre-activation's chunked check is the only one: relu or the
    identity of finite values is finite, so the result skips `_out`'s check."""
    import scipy.sparse as sp

    calls = []
    all_finite = tape._all_finite
    monkeypatch.setattr(tape, "_all_finite", lambda value: calls.append(value.shape) or all_finite(value))
    adj = tape.SparseConst(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
    w = tape.param(np.ones((2, 3)))
    for relu in (True, False):
        tape.graph_layer(tape.const([[1.0], [-2.0]]), w, adj, relu=relu)
        tape.graph_layer(tape.const([[1.0], [-2.0]]), tape.param(np.ones((1, 3))), relu=relu)
    assert calls == [(2, 3)] * 4  # one per layer, on its 2 x 3 pre-activation
    calls.clear()
    with pytest.raises(NonFiniteError, match="graph_layer: non-finite values in the pre-activation"):
        tape.graph_layer(tape.const([[1.0], [np.inf]]), w, adj)
    assert calls == [(2, 3)]


def test_graph_layer_reports_its_pre_activation_to_track_kinks():
    import scipy.sparse as sp

    rng = np.random.default_rng(33)
    adj = tape.SparseConst(sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)))
    x = tape.const(rng.normal(size=(3, 2)))
    w = tape.param(rng.normal(size=(4, 5)))
    pre = tape.graph_layer(x, w, adj, relu=False).value
    with tape.track_kinks() as tracker:
        tape.graph_layer(x, w, adj, relu=False)
        assert tracker[0] == np.inf  # the identity has no kink
        tape.graph_layer(x, w, adj)
    assert tracker[0] == np.abs(pre).min()
    with tape.track_kinks() as tracker:
        tape.graph_layer(x, tape.param(w.value[:2]))
    assert tracker[0] == np.abs(x.value @ w.value[:2]).min()


# -- the all-pairs passes split across threads ---------------------------------------


@pytest.mark.parametrize("n", [30, 300, 600], ids=["one-column-range", "ragged-64", "odd-units"])
def test_split_symmetric_scores_match_the_serial_products(n, part_count):
    """Dealt to two parts, on a thread or in turn, the stored scores and,
    given the same upstream gradient, both input gradients equal those of
    one part bit for bit: each stripe's product and each row block of G h
    is one part's alone. Against the whole products the scores agree
    within 1e-15 relative and the gradients within 1e-12. Here 30 nodes
    are one stripe, 300 end with a ragged one and 600 are three."""
    rng = np.random.default_rng(n)
    h_val, s_val, g = rng.normal(size=(n, 7)) * 2.0, rng.normal(size=(7, 7)), rng.normal(size=(n, n))
    s_val, g = s_val + s_val.T, g + g.T
    a = oracles.ones(_symmetric_target(rng, n, 0.3))
    got = {}
    for parts, inline in ((1, False), (2, True), (2, False)):
        part_count(parts, inline)
        h, s = tape.param(h_val), tape.param(s_val)
        loss, scores = _loss_and_scores(h, s, a, np.full((n, n), np.nan))
        loss._parents[0]._vjp(oracles.pack(g))
        got[parts, inline] = scores, h.grad, s.grad
    serial, in_turn, threaded = got[1, False], got[2, True], got[2, False]
    for ref in (serial, in_turn):
        for part, want in zip(threaded, ref):
            np.testing.assert_array_equal(part, want)
    whole = h_val @ s_val @ h_val.T
    want = oracles.stored(whole)
    np.testing.assert_allclose(oracles.packed(threaded[0]), want, rtol=1e-15, atol=1e-15 * np.abs(whole).max())
    _assert_rel(threaded[1], 2.0 * g @ h_val @ s_val, "dh")
    _assert_rel(threaded[2], h_val.T @ g @ h_val, "dS")


def test_edge_loss_stays_exact_with_more_threads_than_cores_and_fast_switching(part_count, monkeypatch):
    """The op's two-part passes write disjoint stripes and rows and their
    own call sums: under frequent thread switches, with eight CPUs claimed,
    twenty forward and backward passes all give the loss and gradients of
    the parts run in turn bit for bit."""
    rng = np.random.default_rng(6)
    h_val, s_val = rng.normal(size=(600, 4)), rng.normal(size=(4, 4))
    s_val += s_val.T
    ones = oracles.ones(_symmetric_target(rng, 600, 0.05))

    def once():
        h, s = tape.param(h_val), tape.param(s_val)
        loss = tape.symmetric_sqdiff(h, s, ones, np.empty((600, 600)))
        tape.backward(loss)
        return loss.item(), h.grad, s.grad

    part_count(2, inline=True)
    loss, dh, ds = once()
    part_count(2)
    monkeypatch.setattr(kernels, "_threads", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = once()
            assert got[0] == loss
            np.testing.assert_array_equal(got[1], dh)
            np.testing.assert_array_equal(got[2], ds)
    finally:
        sys.setswitchinterval(interval)
    assert part_count.executors


@pytest.mark.parametrize("node,value", [(0, 1e200), (-1, np.nan)], ids=["inf-first-range", "nan-last-range"])
def test_split_finite_check_still_names_symmetric_scores(node, value, part_count):
    """A non-finite stored score, in the first stripe (the first part's) or
    in the last (the second part's), raises with the scores' error text."""
    part_count(2)
    h = np.random.default_rng(0).normal(size=(600, 3))
    h[node, 0] = value
    want = "^symmetric_scores: non-finite values in result$"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError, match=want):
        tape.symmetric_sqdiff(tape.param(h), tape.param(np.eye(3)), np.empty(0, np.int64), np.empty((600, 600)))
    assert part_count.executors
