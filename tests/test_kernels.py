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


@pytest.mark.parametrize(
    "shape",
    [(7, 9), (100, 1000), (1, 40000), (0, 6)],
    ids=["under-one-block", "ragged-last-block", "row-wider-than-block", "empty"],
)
def test_sigmoid_sqdiff_blocks_match_one_shot(shape):
    rng = np.random.default_rng(3)
    m = rng.normal(size=shape) * 4.0
    if m.size:  # saturated and exact-half scores in the first and the last block
        m.flat[[0, 1, 2, -3, -2, -1]] = [-800.0, 800.0, 0.0, 0.0, 800.0, -800.0]
    a = (rng.random(shape) < 0.3).astype(float)
    gout = 0.37

    e, loss = kernels.sigmoid_sqdiff(m, a)
    with np.errstate(over="ignore"):
        ref_e = 1.0 / (1.0 + np.exp(-m))
    r = ref_e - a
    ref_loss = float((r * r).sum())
    assert e.shape == shape
    np.testing.assert_array_equal(e, ref_e)
    assert loss == pytest.approx(ref_loss, rel=1e-13, abs=0.0)

    got = kernels.sigmoid_sqdiff_grad(e, a, gout)
    np.testing.assert_array_equal(got, (2.0 * gout) * (ref_e - a) * ref_e * (1.0 - ref_e))

    # a bool target, as the trainer passes the adjacency, reads the same values
    e_bool, loss_bool = kernels.sigmoid_sqdiff(m, a.astype(bool))
    np.testing.assert_array_equal(e_bool, e)
    assert loss_bool == loss
    np.testing.assert_array_equal(kernels.sigmoid_sqdiff_grad(e, a.astype(bool), gout), got)


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


def _nearest_loop(h, candidates, q):
    """The per-query scan, one candidate at a time: strict improvement only,
    so ties keep the smallest id; no other candidate leaves q itself."""
    best, best_d = q, np.inf
    for c in candidates:
        if c == q:
            continue
        d = float(((h[q] - h[c]) ** 2).sum())
        if d < best_d:
            best_d, best = d, c
    return best


def test_nearest_many_ties_match_loop_oracle():
    rng = np.random.default_rng(3)
    for case in range(200):
        n = int(rng.integers(2, 30))
        h = rng.integers(-1, 2, size=(n, int(rng.integers(1, 3)))).astype(np.float64)
        if case % 5 == 0:
            h *= 1e200  # distinct rows overflow to an infinite distance
        candidates = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        # repeated queries, candidates among them and (mostly) absent ones too
        queries = rng.integers(0, n, size=int(rng.integers(1, 3 * n)))
        with np.errstate(over="ignore"):
            expected = np.array([_nearest_loop(h, candidates, q) for q in queries])
            got = kernels.nearest_same_class_ids(h, candidates, queries)
        np.testing.assert_array_equal(got, expected, err_msg=f"case {case}")


def test_nearest_tie_breaks_to_smallest_id():
    # candidates 1 and 3 are exactly equidistant from the query at 0
    h = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [-1.0, 0.0]])
    got = kernels.nearest_same_class_ids(h, np.array([0, 1, 3]), np.array([0]))
    assert got[0] == 1


def test_nearest_singleton_returns_self():
    got = kernels.nearest_same_class_ids(np.zeros((3, 2)), np.array([2]), np.array([2]))
    assert got[0] == 2
