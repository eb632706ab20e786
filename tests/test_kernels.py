"""Oracle tests for the numeric kernels."""
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

import oracles
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


def _forward_backward(m, a, gout):
    """The loss, the sigmoid the forward wrote over a copy of the scores,
    and the gradient the backward kernel made of that buffer in place."""
    e = m.copy()
    loss = kernels.sigmoid_sqdiff(e, a)
    sig = e.copy()
    got = kernels.sigmoid_sqdiff_grad(e, a, gout)
    assert got is e
    return loss, sig, got


def _assert_matches_recompute_oracle(m, a, gout, loss, got):
    """Bit for bit what the kernels gave when the backward recomputed the
    sigmoid from the scores."""
    assert loss == oracles.sigmoid_sqdiff(m, a)
    np.testing.assert_array_equal(got, oracles.sigmoid_sqdiff_grad(m, a, gout))


def test_sigmoid_sqdiff_matches_composition():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(20, 20)) * 3.0
    m[0, :3] = [-800.0, 800.0, 0.0]  # saturated and exact-half scores
    a = (rng.random((20, 20)) < 0.3).astype(float)
    gout = 1.7

    loss, e, got = _forward_backward(m, a, gout)
    sig = expit(m)
    assert loss == pytest.approx(float(((sig - a) ** 2).sum()), rel=1e-12)
    np.testing.assert_allclose(e, sig, rtol=1e-15, atol=0)
    assert list(e[0, :3]) == [0.0, 1.0, 0.5]

    expected = gout * (2.0 * (sig - a)) * (sig * (1.0 - sig))  # chain rule, one factor each
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-300)
    assert list(got[0, :3]) == [0.0, 0.0, 2.0 * gout * (0.5 - a[0, 2]) * 0.25]
    for target in (a, a.astype(bool)):
        target_loss, _, target_got = _forward_backward(m, target, gout)
        _assert_matches_recompute_oracle(m, target, gout, target_loss, target_got)


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

    loss, e, got = _forward_backward(m, a, gout)
    with np.errstate(over="ignore"):
        ref_e = 1.0 / (1.0 + np.exp(-m))
    r = ref_e - a
    ref_loss = float((r * r).sum())
    assert loss == pytest.approx(ref_loss, rel=1e-13, abs=0.0)
    # the forward writes the one-shot sigmoid, bit for bit, into its buffer
    np.testing.assert_array_equal(e, ref_e)

    # the gradient made of that buffer: bit-identical to the one-shot expression
    assert got.shape == shape
    np.testing.assert_array_equal(got, (2.0 * gout) * (ref_e - a) * ref_e * (1.0 - ref_e))
    _assert_matches_recompute_oracle(m, a, gout, loss, got)

    # a bool target, as the trainer passes the adjacency, reads the same values
    bool_loss, bool_e, bool_got = _forward_backward(m, a.astype(bool), gout)
    assert bool_loss == loss
    np.testing.assert_array_equal(bool_e, e)
    np.testing.assert_array_equal(bool_got, got)
    _assert_matches_recompute_oracle(m, a.astype(bool), gout, bool_loss, bool_got)


@pytest.mark.parametrize("shape", [(100, 1025), (300, 333), (150, 1000)], ids=["31-row-blocks", "98-row-blocks", "32-row-blocks"])
def test_sigmoid_sqdiff_sums_the_loss_per_block_though_each_call_covers_two(shape):
    """The loss is the oracle's sum of per-block sums, bit for bit. One sum
    over two blocks rounds differently for some draws but not for most, so
    each shape takes ten."""
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m, a = rng.normal(size=shape) * 4.0, rng.random(shape) < 0.3
        assert kernels.sigmoid_sqdiff(m.copy(), a) == oracles.sigmoid_sqdiff(m, a), seed


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


# (shape, row blocks, rows of the last block): each NumPy call covers two
# blocks, so a last call may hold one full block, a full and a ragged one,
# or a ragged one alone
SPLIT_SHAPES = {
    "under-one-block": ((7, 9), 1, 7),
    "two-blocks-one-call": ((64, 1000), 2, 32),
    "even-blocks": ((128, 1000), 4, 32),
    "odd-full-blocks": ((96, 1000), 3, 32),
    "odd-ragged-blocks": ((150, 1000), 5, 22),
    "full-and-ragged-last-call": ((180, 1000), 6, 20),
    "one-row-ragged-tail": ((1025, 64), 3, 1),
}


@pytest.mark.parametrize("shape, blocks, last_rows", SPLIT_SHAPES.values(), ids=SPLIT_SHAPES.keys())
def test_split_sigmoid_kernels_match_the_serial_pass_bit_for_bit(shape, blocks, last_rows, split_floor):
    """A pass split across threads, at whole pairs of row blocks, gives the
    serial pass's loss, sigmoid buffer and gradient bit for bit, and the
    loss the per-block oracle sums; an overflow of exp(800) inside a worker
    stays silent (pytest.ini turns RuntimeWarning into an error)."""
    rows, cols = shape
    step = kernels._block_rows(cols)
    assert (-(-rows // step), rows - (blocks - 1) * step) == (blocks, last_rows)
    rng = np.random.default_rng(4)
    m = rng.normal(size=shape) * 4.0
    m.flat[[0, 1, 2, -3, -2, -1]] = [-800.0, 800.0, 0.0, 0.0, 800.0, -800.0]  # first and last range
    a = rng.random(shape) < 0.3
    gout = 0.61

    got = {}
    for floor in (math.inf, 0):
        split_floor(floor)
        loss, e, grad = _forward_backward(m, a, gout)
        got[floor] = loss, e, grad, kernels.sigmoid_sqdiff(m.copy(), a.astype(float))
    assert (not split_floor.executors) == (blocks <= 2)  # one call's two blocks are one range: no thread
    serial, split = got[math.inf], got[0]
    assert split[0] == serial[0] and split[3] == serial[3]
    np.testing.assert_array_equal(split[1], serial[1])
    np.testing.assert_array_equal(split[2], serial[2])
    _assert_matches_recompute_oracle(m, a, gout, split[0], split[2])


@pytest.mark.parametrize("floor", [math.inf, 0], ids=["serial", "split"])
def test_sigmoid_sqdiff_may_write_its_sigmoid_over_the_scores(floor, split_floor):
    """Written over the scores, serially and split at whole row blocks, the
    sigmoid and the loss are those of the one-shot expression on a copy."""
    split_floor(floor)
    rng = np.random.default_rng(6)
    m = rng.normal(size=(150, 1000)) * 4.0  # five row blocks, the last ragged
    m.flat[[0, 1, 2, -3, -2, -1]] = [-800.0, 800.0, 0.0, 0.0, 800.0, -800.0]
    a = rng.random(m.shape) < 0.3
    with np.errstate(over="ignore"):
        e = 1.0 / (1.0 + np.exp(-m))
    loss = oracles.sigmoid_sqdiff(m, a)
    scores = m.copy()
    assert kernels.sigmoid_sqdiff(scores, a) == loss
    np.testing.assert_array_equal(scores, e)
    assert (not split_floor.executors) == (floor == math.inf)


def test_split_covers_each_unit_once_in_order(split_floor):
    """Ranges tile [0, total) in order, every inner bound on a unit
    boundary, one range per thread at most, and below the floor one range
    on the calling thread."""
    split_floor(10)
    ranges = lambda total, unit, size: kernels._split(total, unit, lambda lo, hi: (lo, hi), size)  # noqa: E731
    assert ranges(200, 64, 9) == [(0, 200)]
    assert not split_floor.executors
    assert ranges(200, 64, 10) == [(0, 64), (64, 128), (128, 200)]
    assert ranges(100, 64, 10) == [(0, 64), (64, 100)]
    assert ranges(5, 1, 10) == [(0, 1), (1, 3), (3, 5)]
    assert ranges(0, 64, 10) == [(0, 0)]


def test_split_kernels_stay_exact_with_more_threads_than_cores_and_fast_switching(split_floor, monkeypatch):
    """Ranges write disjoint rows and disjoint loss slots: under frequent
    thread switches, with eight ranges, twenty passes all give the serial
    results bit for bit."""
    rng = np.random.default_rng(6)
    m, a = rng.normal(size=(300, 1000)) * 4.0, rng.random((300, 1000)) < 0.3
    split_floor(math.inf)
    loss, e, grad = _forward_backward(m, a, 0.9)
    split_floor(0)
    monkeypatch.setattr(kernels, "_threads", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _forward_backward(m, a, 0.9)
            assert got[0] == loss
            np.testing.assert_array_equal(got[1], e)
            np.testing.assert_array_equal(got[2], grad)
    finally:
        sys.setswitchinterval(interval)
