"""Oracle tests for the numeric kernels."""
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


def _symmetric(rng, n, scale=4.0):
    m = rng.normal(size=(n, n)) * scale
    return (m + m.T) / 2.0


def _forward_backward(m, ones, gout):
    """The loss, then, flat, the sigmoid the forward wrote over the stored
    entries of the symmetric scores `m` in block-packed storage, NaN past
    it, and the gradient the backward kernel made of that buffer in place,
    for the target whose ones sit at the packed positions `ones`. The NaN
    part is never written."""
    e = oracles.pack(m)
    loss = kernels.sigmoid_sqdiff(e, ones)
    sig = oracles.packed(e).copy()
    got = kernels.sigmoid_sqdiff_grad(e, ones, gout)
    assert got is e
    assert np.isnan(oracles.unused(e)).all() and not np.isnan(oracles.packed(e)).any()
    return loss, sig, oracles.packed(e).copy()


def _assert_matches_recompute_oracle(m, a, gout, loss, got, parts=1):
    """Bit for bit the oracle's loss against the dense target `a`, summed as
    a pass of `parts` parts sums it, and on the stored entries the gradient
    recomputed from the scores."""
    assert loss == oracles.sigmoid_sqdiff(m, a, parts)
    np.testing.assert_array_equal(got, oracles.stored(oracles.sigmoid_sqdiff_grad(m, a, gout)))


def test_sigmoid_sqdiff_matches_composition():
    rng = np.random.default_rng(1)
    m = _symmetric(rng, 20, 3.0)
    m[0, :3] = m[:3, 0] = [-800.0, 800.0, 0.0]  # saturated and exact-half scores
    a = rng.random((20, 20)) < 0.3
    a = (a | a.T).astype(float)
    gout = 1.7

    loss, e, got = _forward_backward(m, oracles.ones(a), gout)
    sig = expit(m)
    assert loss == pytest.approx(float(((sig - a) ** 2).sum()), rel=1e-12)
    np.testing.assert_allclose(e, oracles.stored(sig), rtol=1e-15, atol=0)
    assert list(e[:3]) == [0.0, 1.0, 0.5]  # the first stored entries: row 0 from column 0

    expected = gout * (2.0 * (sig - a)) * (sig * (1.0 - sig))  # chain rule, one factor each
    np.testing.assert_allclose(got, oracles.stored(expected), rtol=1e-12, atol=1e-300)
    assert list(got[:3]) == [0.0, 0.0, 2.0 * gout * (0.5 - a[0, 2]) * 0.25]
    for ones in (oracles.ones(a), oracles.ones(a).astype(np.int32)):  # int64 or int32 positions
        target_loss, _, target_got = _forward_backward(m, ones, gout)
        _assert_matches_recompute_oracle(m, a, gout, target_loss, target_got)


@pytest.mark.parametrize(
    "n, block",
    [(7, None), (1000, None), (100, 64), (0, None)],
    ids=["under-one-block", "ragged-last-block", "row-wider-than-block", "empty"],
)
def test_sigmoid_sqdiff_blocks_match_one_shot(n, block, monkeypatch):
    """One call covers all 7 nodes; at 1000 nodes the four stripes end their
    calls with ragged ones; with 64-element calls each of the 100-element
    rows is a call of its own; a 0-node storage holds nothing."""
    if block is not None:
        monkeypatch.setattr(kernels, "_BLOCK", block)
    rng = np.random.default_rng(3)
    m = _symmetric(rng, n)
    if n:  # saturated and exact-half scores in the first and the last stripe
        m[0, :3] = m[:3, 0] = m[-1, -3:] = m[-3:, -1] = [-800.0, 800.0, 0.0]
    a = rng.random((n, n)) < 0.3
    a = (a | a.T).astype(float)
    gout = 0.37

    loss, e, got = _forward_backward(m, oracles.ones(a), gout)
    with np.errstate(over="ignore"):
        ref_e = 1.0 / (1.0 + np.exp(-m))
    r = ref_e - a
    ref_loss = float((r * r).sum())
    assert loss == pytest.approx(ref_loss, rel=1e-13, abs=0.0)
    # the forward writes the one-shot sigmoid, bit for bit, over the stored scores
    np.testing.assert_array_equal(e, oracles.stored(ref_e))

    # the gradient made of that buffer: bit-identical to the one-shot expression
    assert got.shape == e.shape
    np.testing.assert_array_equal(got, oracles.stored((2.0 * gout) * (ref_e - a) * ref_e * (1.0 - ref_e)))
    _assert_matches_recompute_oracle(m, a, gout, loss, got)

    # the positions the trainer builds from its bool adjacency are the
    # oracle's, and read the same values
    packed_ones = kernels._packed_ones(a.astype(bool))
    assert packed_ones.dtype == np.int64
    np.testing.assert_array_equal(packed_ones, oracles.ones(a))
    bool_loss, bool_e, bool_got = _forward_backward(m, packed_ones, gout)
    assert bool_loss == loss
    np.testing.assert_array_equal(bool_e, e)
    np.testing.assert_array_equal(bool_got, got)
    _assert_matches_recompute_oracle(m, a.astype(bool), gout, bool_loss, bool_got)


@pytest.mark.parametrize("n", [1025, 333, 1000], ids=["31-row-blocks", "98-row-blocks", "32-row-blocks"])
def test_sigmoid_sqdiff_sums_the_loss_per_block_though_each_call_covers_two(n, part_count):
    """The loss is the oracle's sum of per-call sums, bit for bit: a call of a
    one-part pass covers one block (31, 98 or 32 rows of the first stripe),
    and one of a two-part pass two blocks. One sum over two blocks rounds
    differently for some draws but not for most, so each n takes ten."""
    losses = {}
    for parts in (1, 2):
        part_count(parts)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            m, a = _symmetric(rng, n), rng.random((n, n)) < 0.3
            a |= a.T
            losses[parts, seed] = kernels.sigmoid_sqdiff(oracles.pack(m), oracles.ones(a))
            assert losses[parts, seed] == oracles.sigmoid_sqdiff(m, a, parts), (parts, seed)
    assert max(abs(losses[2, s] / losses[1, s] - 1.0) for s in range(10)) < 1e-14


# (n, stripes, rows of the last stripe): the stripes of 256 rows are the row
# blocks that the two parts take in the order 0, 1, 1, 0, 0, ...
SPLIT_SHAPES = {
    "under-one-block": (7, 1, 7),
    "two-blocks-one-call": (300, 2, 44),
    "even-blocks": (1024, 4, 256),
    "odd-full-blocks": (768, 3, 256),
    "odd-ragged-blocks": (1030, 5, 6),
    "full-and-ragged-last-call": (620, 3, 108),
    "one-row-ragged-tail": (257, 2, 1),
}


@pytest.mark.parametrize("n, stripes, last_rows", SPLIT_SHAPES.values(), ids=SPLIT_SHAPES.keys())
def test_split_sigmoid_kernels_match_the_serial_pass_bit_for_bit(n, stripes, last_rows, part_count):
    """A pass dealt to two parts, on a thread or in turn, writes the sigmoid
    and the gradient of the one-part pass bit for bit, and sums the loss as
    the oracle does for its part count; an overflow of exp(800) inside the
    thread stays silent (pytest.ini turns RuntimeWarning into an error)."""
    got_stripes = kernels._stripes(n)
    assert (len(got_stripes), got_stripes[-1][1] - got_stripes[-1][0]) == (stripes, last_rows)
    assert got_stripes[-1][2] + last_rows * last_rows == oracles.packed(np.empty((n, n))).size
    rng = np.random.default_rng(4)
    m = _symmetric(rng, n)
    m[0, :3] = m[:3, 0] = m[-1, -3:] = m[-3:, -1] = [-800.0, 800.0, 0.0]  # first and last stripe
    a = rng.random((n, n)) < 0.3
    a |= a.T
    gout = 0.61

    got = {}
    for parts, inline in ((1, False), (2, True), (2, False)):
        part_count(parts, inline)
        made = len(part_count.executors)
        got[parts, inline] = _forward_backward(m, oracles.ones(a), gout)
        assert (len(part_count.executors) > made) == (parts == 2 and not inline)
        _assert_matches_recompute_oracle(m, a, gout, got[parts, inline][0], got[parts, inline][2], parts)
    serial, in_turn, threaded = got[1, False], got[2, True], got[2, False]
    assert threaded[0] == in_turn[0]
    assert threaded[0] == pytest.approx(serial[0], rel=1e-14, abs=0.0)
    for ref in (serial, in_turn):
        np.testing.assert_array_equal(threaded[1], ref[1])
        np.testing.assert_array_equal(threaded[2], ref[2])


@pytest.mark.parametrize("parts", [1, 2], ids=["serial", "split"])
def test_sigmoid_sqdiff_may_write_its_sigmoid_over_the_scores(parts, part_count):
    """Written over the stored scores, in one part or two, the sigmoid is
    that of the one-shot expression on a copy and the loss the oracle's;
    the entries past the stored ones keep what they held."""
    part_count(parts)
    rng = np.random.default_rng(6)
    m = _symmetric(rng, 1000)  # four stripes, the last of 232 rows
    m[0, :3] = m[:3, 0] = m[-1, -3:] = m[-3:, -1] = [-800.0, 800.0, 0.0]
    a = rng.random(m.shape) < 0.3
    a |= a.T
    with np.errstate(over="ignore"):
        e = 1.0 / (1.0 + np.exp(-m))
    scores = oracles.pack(m)
    oracles.unused(scores)[...] = 7.0
    assert kernels.sigmoid_sqdiff(scores, oracles.ones(a)) == oracles.sigmoid_sqdiff(m, a, parts)
    np.testing.assert_array_equal(oracles.packed(scores), oracles.stored(e))
    assert (oracles.unused(scores) == 7.0).all()
    assert (not part_count.executors) == (parts == 1)


@pytest.mark.parametrize("kind", ["random", "edgeless", "complete"])
@pytest.mark.parametrize("parts", [1, 2], ids=["one-part", "two-parts"])
@pytest.mark.parametrize("n", [1, 5, 255, 256, 257, 620, 1030])
def test_sigmoid_kernels_on_positions_equal_the_dense_target_composition(n, parts, kind, part_count):
    """Given the positions of a target's ones, the kernels give bit for bit
    the loss, sigmoid and gradient that the oracle composes from the dense
    target, scores of +-800 included; `_packed_ones` builds the oracle's
    positions from the dense target."""
    part_count(parts)
    rng = np.random.default_rng(n)
    m = _symmetric(rng, n)
    v = np.array([-800.0, 800.0, 0.0])[:n]  # saturated and exact-half scores in the first and the last stripe
    m[-1, -v.size :] = m[-v.size :, -1] = m[0, : v.size] = m[: v.size, 0] = v
    a = oracles.dense_target(rng, n, kind)
    ones = kernels._packed_ones(a)
    np.testing.assert_array_equal(ones, oracles.ones(a))
    if kind != "random":  # no stored pair a one, or every one
        np.testing.assert_array_equal(ones, np.arange(0 if kind == "edgeless" else oracles.stored(a).size))
    gout = 0.43
    loss, e, got = _forward_backward(m, ones, gout)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(e, oracles.stored(1.0 / (1.0 + np.exp(-m))))
    _assert_matches_recompute_oracle(m, a, gout, loss, got, parts)
    assert (not part_count.executors) == (parts == 1)


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


def test_split_covers_each_unit_once_in_order():
    """Below 2^20 pairs one part takes every stripe in order, on the calling
    thread; from 1024 nodes on two parts take them in the order 0, 1, 1, 0,
    0, ..., and the results come back in part order. Each stripe starts
    where the one before it ends in the flat buffer."""
    rows = lambda n: [[s[:2] for s in part] for part in kernels._deal(n, lambda part: part)]  # noqa: E731
    assert rows(0) == [[]]
    assert rows(300) == [[(0, 256), (256, 300)]]
    assert rows(1023) == [[(0, 256), (256, 512), (512, 768), (768, 1023)]]
    assert rows(1024) == [[(0, 256), (768, 1024)], [(256, 512), (512, 768)]]
    assert rows(1300) == [[(0, 256), (768, 1024), (1024, 1280)], [(256, 512), (512, 768), (1280, 1300)]]
    assert kernels._stripes(1024) == [(0, 256, 0), (256, 512, 262144), (512, 768, 458752), (768, 1024, 589824)]


def test_split_kernels_stay_exact_with_more_threads_than_cores_and_fast_switching(part_count, monkeypatch):
    """The parts write disjoint stripes and their own call sums: under
    frequent thread switches, with eight CPUs claimed, twenty two-part
    passes all give the results of the parts run in turn bit for bit."""
    rng = np.random.default_rng(6)
    m, a = _symmetric(rng, 600), rng.random((600, 600)) < 0.3
    a |= a.T
    part_count(2, inline=True)
    loss, e, grad = _forward_backward(m, oracles.ones(a), 0.9)
    part_count(2)
    monkeypatch.setattr(kernels, "_threads", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            got = _forward_backward(m, oracles.ones(a), 0.9)
            assert got[0] == loss
            np.testing.assert_array_equal(got[1], e)
            np.testing.assert_array_equal(got[2], grad)
    finally:
        sys.setswitchinterval(interval)
    assert part_count.executors
