"""Forward-op examples and finite-difference oracles for the tape."""
import numpy as np
import pytest

from imbnode import tape
from imbnode.errors import NonFiniteError, ShapeError


def test_relu_definition():
    out = tape.relu(tape.const([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out.value, [[0.0, 2.0]])


def test_row_softmax_zero_row_is_uniform():
    k = 5
    out = tape.row_softmax(tape.const(np.zeros((1, k))))
    np.testing.assert_allclose(out.value, np.full((1, k), 1.0 / k))


def test_frobenius_identity_is_zero():
    e = tape.const(np.arange(6.0).reshape(2, 3))
    assert tape.frobenius_sq_diff(e, e.value).item() == 0.0


def test_sigmoid_of_zero():
    out = tape.sigmoid(tape.const([[0.0]]))
    assert out.item() == 0.5


def test_linear_loss_gradient_matches_hand_formula():
    # loss = sum(x @ W) => dW = column-sums of x broadcast across W columns
    rng = np.random.default_rng(0)
    x = tape.const(rng.normal(size=(3, 4)))
    w = tape.param(rng.normal(size=(4, 2)))
    loss = tape.total_sum(tape.matmul(x, w))
    tape.backward(loss)
    expected = np.repeat(x.value.sum(axis=0)[:, None], 2, axis=1)
    np.testing.assert_allclose(w.grad, expected, atol=1e-12)


def test_backward_twice_doubles_gradients():
    rng = np.random.default_rng(1)
    w = tape.param(rng.normal(size=(3, 3)))
    loss = tape.total_sum(tape.sigmoid(tape.matmul(w, w)))
    tape.backward(loss)
    once = w.grad.copy()
    tape.backward(loss)
    np.testing.assert_allclose(w.grad, 2.0 * once, rtol=1e-14)


def test_backward_requires_scalar():
    w = tape.param(np.ones((2, 2)))
    with pytest.raises(ShapeError):
        tape.backward(tape.matmul(w, w))


def test_nonfinite_forward_raises():
    big = tape.const(np.full((1, 1), 1e308))
    with pytest.raises(NonFiniteError):
        tape.matmul(big, tape.const([[10.0]]))


def test_shape_mismatch_names_op():
    with pytest.raises(ShapeError, match="matmul"):
        tape.matmul(tape.const(np.ones((2, 3))), tape.const(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="concat_cols"):
        tape.concat_cols(tape.const(np.ones((2, 3))), tape.const(np.ones((3, 3))))


def _composite_loss(w1, w2, adj, feat, labels, mask):
    h = tape.relu(tape.matmul(feat, w1))
    scores = tape.sigmoid(tape.matmul(tape.matmul(h, w2), tape.transpose(h)))
    rec = tape.frobenius_sq_diff(scores, adj)
    p = tape.row_softmax(tape.matmul(h, tape.transpose(h)))
    ce = tape.masked_cross_entropy(p, labels, mask)
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
        lambda x: tape.relu(x),
        lambda x: tape.sigmoid(x),
        lambda x: tape.row_softmax(x),
        lambda x: tape.transpose(x),
        lambda x: tape.rowsum(x),
        lambda x: tape.slice_rows(x, 1, 3),
        lambda x: tape.gather_rows(x, np.array([0, 2, 2, 3])),
        lambda x: tape.row_mul(x, np.array([0.5, -1.0, 2.0, 0.25])),
        lambda x: tape.concat_cols(x, tape.mul_scalar(x, 2.0)),
        lambda x: tape.concat_rows(x, tape.mul_scalar(x, -1.0)),
    ],
)
def test_single_op_gradients(build):
    rng = np.random.default_rng(11)
    x = tape.param(rng.normal(size=(4, 3)) + 0.3)

    def f():
        return tape.total_sum(tape.sigmoid(build(x))).item()

    tape.backward(tape.total_sum(tape.sigmoid(build(x))))
    numeric = tape.fd_gradient(f, x)
    assert tape.grad_max_violation(x.grad, numeric) <= 0.0


def test_div_cols_gradients_both_sides():
    rng = np.random.default_rng(3)
    x = tape.param(rng.normal(size=(4, 3)))
    d = tape.param(rng.random((4, 1)) + 0.5)

    def f():
        return tape.total_sum(tape.sigmoid(tape.div_cols(x, d))).item()

    tape.backward(tape.total_sum(tape.sigmoid(tape.div_cols(x, d))))
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

    out = tape.spmm(s, x)
    np.testing.assert_allclose(out.value, dense @ x.value, atol=1e-12)

    def f():
        return tape.total_sum(tape.sigmoid(tape.spmm(s, x))).item()

    tape.backward(tape.total_sum(tape.sigmoid(tape.spmm(s, x))))
    numeric = tape.fd_gradient(f, x)
    assert tape.grad_max_violation(x.grad, numeric) <= 0.0


def test_sigmoid_sqdiff_equals_composition():
    rng = np.random.default_rng(9)
    m_val = rng.normal(size=(6, 6)) * 2.0
    a = (rng.random((6, 6)) < 0.4).astype(float)

    m1 = tape.param(m_val.copy())
    fused = tape.sigmoid_sqdiff(m1, a)
    m2 = tape.param(m_val.copy())
    composed = tape.frobenius_sq_diff(tape.sigmoid(m2), a)
    assert fused.item() == pytest.approx(composed.item(), rel=1e-12)

    tape.backward(fused)
    tape.backward(composed)
    np.testing.assert_allclose(m1.grad, m2.grad, rtol=1e-12, atol=1e-14)


def test_sigmoid_sqdiff_leaf_gradient_accumulates():
    rng = np.random.default_rng(10)
    m = tape.param(rng.normal(size=(5, 4)))
    a = (rng.random((5, 4)) < 0.5).astype(float)
    loss = tape.sigmoid_sqdiff(m, a)
    tape.backward(loss)
    once = m.grad.copy()
    tape.backward(loss)  # a second pass over the same graph doubles it
    np.testing.assert_array_equal(m.grad, 2.0 * once)

    fresh = tape.param(m.value.copy())
    tape.backward(tape.sigmoid_sqdiff(fresh, a))  # becomes fresh.grad
    tape.backward(tape.sigmoid_sqdiff(fresh, 1.0 - a))  # a second loss adds to it
    other = tape.param(m.value.copy())
    tape.backward(tape.sigmoid_sqdiff(other, 1.0 - a))
    np.testing.assert_array_equal(fresh.grad, once + other.grad)


def test_masked_cross_entropy_weighted_vs_uniform():
    rng = np.random.default_rng(13)
    p = tape.const(rng.dirichlet(np.ones(3), size=5))
    labels = rng.integers(0, 3, size=5)
    mask = np.arange(5)
    plain = tape.masked_cross_entropy(p, labels, mask).item()
    weighted = tape.masked_cross_entropy(p, labels, mask, weights=np.ones(3)).item()
    assert plain == pytest.approx(weighted, rel=1e-15)
