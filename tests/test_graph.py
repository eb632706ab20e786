"""Loader formats, imbalance protocol, and the block-model fixture."""
import numpy as np
import pytest

from imbnode.errors import GraphFormatError, GraphRangeError
from imbnode.graph import (
    Graph,
    SplitMasks,
    generate_sbm_graph,
    imbalance_ratio,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
    save_graph,
)


def write_dataset(tmp_path, edges, features, labels):
    edge_file = tmp_path / "edges.tsv"
    edge_file.write_text(edges)
    feat_file = tmp_path / "features.txt"
    feat_file.write_text(features)
    label_file = tmp_path / "labels.txt"
    label_file.write_text(labels)
    return edge_file, feat_file, label_file


def test_load_path_graph_symmetrizes(tmp_path):
    files = write_dataset(
        tmp_path,
        "0\t1\n1\t2\n",
        "3 2\n1.0 0.0\n0.0 1.0\n1.0 1.0\n",
        "0\n1\n0\n",
    )
    g = load_graph(*files)
    assert g.n == 3 and g.d == 2 and g.m == 2
    assert g.adjacency.nnz == 4
    dense = g.dense_adjacency()
    np.testing.assert_array_equal(dense, dense.T)


def test_load_empty_edge_file(tmp_path):
    files = write_dataset(tmp_path, "# no edges\n", "2 1\n0.5\n1.5\n", "0\n1\n")
    g = load_graph(*files)
    assert g.adjacency.nnz == 0
    assert g.n == 2


def test_duplicate_edges_collapse(tmp_path):
    once = write_dataset(tmp_path, "0\t1\n", "2 1\n0.0\n1.0\n", "0\n1\n")
    g_once = load_graph(*once)
    both = write_dataset(tmp_path, "1\t0\n0\t1\n", "2 1\n0.0\n1.0\n", "0\n1\n")
    g_both = load_graph(*both)
    assert (g_once.adjacency != g_both.adjacency).nnz == 0


def test_malformed_edge_line_reports_lineno(tmp_path):
    files = write_dataset(tmp_path, "0\t1\nnot an edge\n", "2 1\n0.0\n1.0\n", "0\n1\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_graph(*files)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_feature_reports_lineno(tmp_path, bad):
    files = write_dataset(tmp_path, "0\t1\n", f"2 2\n0.0 1.0\n1.0 {bad}\n", "0\n1\n")
    with pytest.raises(GraphFormatError, match=r"features\.txt:3: non-finite value"):
        load_graph(*files)


def test_out_of_range_node_id(tmp_path):
    files = write_dataset(tmp_path, "0\t7\n", "2 1\n0.0\n1.0\n", "0\n1\n")
    with pytest.raises(GraphRangeError, match=":1"):
        load_graph(*files)


def test_save_load_round_trip(tmp_path):
    g = generate_sbm_graph([4, 3], 0.9, 0.2, 3, seed=5)
    paths = (tmp_path / "e.tsv", tmp_path / "f.txt", tmp_path / "l.txt")
    save_graph(g, *paths)
    g2 = load_graph(*paths)
    assert (g.adjacency != g2.adjacency).nnz == 0
    np.testing.assert_array_equal(g.features, g2.features)
    np.testing.assert_array_equal(g.labels, g2.labels)


# -- imbalance stats ---------------------------------------------------------


def make_labeled_graph(sizes):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    n = labels.size
    import scipy.sparse as sp

    return Graph(
        adjacency=sp.csr_matrix((n, n)),
        features=np.zeros((n, 1)),
        labels=labels,
        m=len(sizes),
    )


def masks_all_train(g):
    return SplitMasks(
        train=np.arange(g.n),
        val=np.array([], dtype=np.int64),
        test=np.array([], dtype=np.int64),
    )


@pytest.mark.parametrize(
    "sizes,expected",
    [
        ((20, 20, 10), 0.5),
        ((7, 7, 7), 1.0),
        ((20, 20, 20, 20, 2, 2, 2), 0.1),
    ],
)
def test_imbalance_ratio_values(sizes, expected):
    g = make_labeled_graph(sizes)
    stats = imbalance_ratio(g, masks_all_train(g))
    assert stats.imbalance_ratio == pytest.approx(expected)
    assert stats.sizes.sum() == g.n


def test_imbalance_ratio_empty_class_names_it():
    g = make_labeled_graph((5, 5, 3))
    masks = SplitMasks(
        train=np.nonzero(g.labels != 2)[0],
        val=np.array([], dtype=np.int64),
        test=np.array([], dtype=np.int64),
    )
    with pytest.raises(GraphFormatError, match="class 2"):
        imbalance_ratio(g, masks)


# -- artificial imbalance protocol -------------------------------------------


@pytest.fixture()
def seven_class_graph():
    return generate_sbm_graph([60] * 7, 0.05, 0.01, 4, seed=3)


def test_artificial_imbalance_sizes(seven_class_graph):
    g = seven_class_graph
    masks = make_artificial_imbalance(g, {4, 5, 6}, 0.5, 20, seed=0)
    stats = imbalance_ratio(g, masks)
    np.testing.assert_array_equal(np.sort(stats.sizes), [10, 10, 10, 20, 20, 20, 20])
    assert stats.imbalance_ratio == pytest.approx(0.5)


def test_artificial_imbalance_ratio_one_is_identity(seven_class_graph):
    masks = make_artificial_imbalance(seven_class_graph, {0, 1, 2}, 1.0, 20, seed=0)
    stats = imbalance_ratio(seven_class_graph, masks)
    np.testing.assert_array_equal(stats.sizes, [20] * 7)


def test_artificial_imbalance_deterministic(seven_class_graph):
    a = make_artificial_imbalance(seven_class_graph, {1, 2, 3}, 0.4, 20, seed=9)
    b = make_artificial_imbalance(seven_class_graph, {1, 2, 3}, 0.4, 20, seed=9)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.val, b.val)
    np.testing.assert_array_equal(a.test, b.test)


def test_artificial_imbalance_split_fractions(seven_class_graph):
    g = seven_class_graph
    masks = make_artificial_imbalance(g, {0, 1, 2}, 0.5, 20, seed=0, val_frac=0.25)
    leftover = g.n - masks.train.size
    assert masks.val.size == round(0.25 * leftover)
    assert masks.train.size + masks.val.size + masks.test.size == g.n
    masks.validate(g)


def test_artificial_imbalance_insufficient_class():
    g = make_labeled_graph((30, 5))
    with pytest.raises(ValueError, match="class 1"):
        make_artificial_imbalance(g, set(), 1.0, 20, seed=0)


def test_masks_disjoint_and_labeled_only():
    g = generate_sbm_graph([10, 10], 0.5, 0.1, 2, seed=0)
    masks = make_proportional_split(g, 0.3, 0.3, seed=1)
    masks.validate(g)
    all_ids = np.concatenate([masks.train, masks.val, masks.test])
    assert np.unique(all_ids).size == all_ids.size
    assert np.all(g.labels[all_ids] != -1)


# -- block-model fixture ------------------------------------------------------


def test_sbm_degenerate_probabilities_give_cliques():
    g = generate_sbm_graph([3, 3], 1.0, 0.0, 2, seed=0)
    dense = g.dense_adjacency()
    expected = np.zeros((6, 6))
    expected[:3, :3] = 1 - np.eye(3)
    expected[3:, 3:] = 1 - np.eye(3)
    np.testing.assert_array_equal(dense, expected)


def test_sbm_edge_count_within_three_sigma():
    # binomial expectation oracle over within/cross pairs
    sizes, p_in, p_out = [40, 40, 20], 0.2, 0.05
    within_pairs = sum(s * (s - 1) // 2 for s in sizes)
    n = sum(sizes)
    cross_pairs = n * (n - 1) // 2 - within_pairs
    mean = within_pairs * p_in + cross_pairs * p_out
    var = within_pairs * p_in * (1 - p_in) + cross_pairs * p_out * (1 - p_out)
    counts = []
    for seed in range(8):
        g = generate_sbm_graph(sizes, p_in, p_out, 2, seed=seed)
        counts.append(g.adjacency.nnz // 2)
    sem = np.sqrt(var / len(counts))
    assert abs(np.mean(counts) - mean) < 3.0 * sem


def test_sbm_measured_imbalance_ratio():
    g = generate_sbm_graph([50, 50, 5], 0.3, 0.05, 4, seed=2)
    stats = imbalance_ratio(g, masks_all_train(g))
    assert stats.imbalance_ratio == pytest.approx(0.1)


def test_sbm_symmetry_and_no_self_loops():
    for seed in range(4):
        g = generate_sbm_graph([7, 9], 0.4, 0.1, 3, seed=seed)
        assert (g.adjacency != g.adjacency.T).nnz == 0
        assert g.adjacency.diagonal().sum() == 0


def test_graph_rejects_adjacency_values_other_than_one():
    import scipy.sparse as sp

    dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    kwargs = dict(features=np.zeros((3, 1)), labels=np.zeros(3, dtype=np.int64), m=1)
    with pytest.raises(GraphFormatError, match="value other than 1"):
        Graph(adjacency=sp.csr_matrix(dense), **kwargs)
    g = Graph(adjacency=sp.csr_matrix(dense > 0).astype(np.float64), **kwargs)
    a = g.dense_adjacency()
    assert a.dtype == np.bool_
    np.testing.assert_array_equal(a, dense > 0)


def test_sbm_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        generate_sbm_graph([5, 5], 0.1, 0.4, 2, seed=0)
