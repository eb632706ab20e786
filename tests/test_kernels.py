"""Oracle tests for the numeric kernels."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from imbnode import kernels

INDEX_DTYPES = (np.int32, np.int64)


def csr_args(dense, index_dtype):
    csr = sp.csr_matrix(dense)
    return csr.indptr.astype(index_dtype), csr.indices.astype(index_dtype), csr.data


def test_csr_dense_matches_dense_product():
    rng = np.random.default_rng(0)
    dense = (rng.random((30, 30)) < 0.15) * rng.normal(size=(30, 30))
    dense[5] = 0.0  # empty row inside the matrix
    dense[-1] = 0.0  # empty last row
    dense[:, 5] = 0.0
    x = rng.normal(size=(30, 7))
    for index_dtype in INDEX_DTYPES:
        got = kernels.csr_dense_matmul(*csr_args(dense, index_dtype), x)
        assert got.shape == (30, 7) and got.dtype == np.float64
        np.testing.assert_allclose(got, dense @ x, rtol=0, atol=1e-12, err_msg=str(index_dtype))


def test_csr_dense_empty_matrix():
    x = np.ones((4, 2))
    for index_dtype in INDEX_DTYPES:
        got = kernels.csr_dense_matmul(*csr_args(np.zeros((4, 4)), index_dtype), x)
        np.testing.assert_array_equal(got, np.zeros((4, 2)))


def test_sigmoid_sqdiff_matches_composition():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(20, 20)) * 3.0
    m[0, :3] = [-800.0, 800.0, 0.0]  # saturated and exact-half scores
    a = (rng.random((20, 20)) < 0.3).astype(float)

    e, loss = kernels.sigmoid_sqdiff(m, a)
    sig = expit(m)
    np.testing.assert_allclose(e, sig, rtol=1e-12, atol=0)
    assert loss == pytest.approx(float(((sig - a) ** 2).sum()), rel=1e-12)

    gout = 1.7
    expected = gout * (2.0 * (sig - a)) * (sig * (1.0 - sig))  # chain rule, one factor each
    got = kernels.sigmoid_sqdiff_grad(e, a, gout)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)


def test_nearest_matches_loop_oracle():
    rng = np.random.default_rng(2)
    h = rng.normal(size=(40, 6))
    candidates = np.sort(rng.choice(40, size=15, replace=False))
    queries = rng.choice(candidates, size=8, replace=False)

    def oracle(q):
        best, best_d = q, np.inf
        for c in candidates:
            if c == q:
                continue
            d = float(((h[q] - h[c]) ** 2).sum())
            if d < best_d:
                best_d, best = d, c
        return best

    expected = np.array([oracle(q) for q in queries])
    np.testing.assert_array_equal(kernels.nearest_same_class_ids(h, candidates, queries), expected)


def test_nearest_tie_breaks_to_smallest_id():
    # candidates 1 and 3 are exactly equidistant from the query at 0
    h = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [-1.0, 0.0]])
    got = kernels.nearest_same_class_ids(h, np.array([0, 1, 3]), np.array([0]))
    assert got[0] == 1


def test_nearest_singleton_returns_self():
    got = kernels.nearest_same_class_ids(np.zeros((3, 2)), np.array([2]), np.array([2]))
    assert got[0] == 2
