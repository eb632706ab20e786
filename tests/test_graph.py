"""Loader formats, imbalance protocol, and the block-model fixture."""
import hashlib
import pickle
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from imbnode import TrainConfig, train
from imbnode.errors import ConfigError, GraphFormatError, GraphRangeError
from imbnode.graph import (
    _SBM_ROW_CHUNK,
    Graph,
    SplitMasks,
    generate_sbm_graph,
    imbalance_ratio,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
    save_graph,
)
from imbnode.oversample import baseline_duplicate, plan_from_scale
from oracles import degrees, dense_sbm_arrays


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


@pytest.mark.parametrize("header", ["-1 3", "2 -3"])
def test_negative_feature_header_reports_lineno(tmp_path, header):
    files = write_dataset(tmp_path, "0\t1\n", f"{header}\n0.0 1.0 2.0\n1.0 2.0 3.0\n", "0\n1\n")
    with pytest.raises(GraphFormatError, match=r"features\.txt:1: negative header value"):
        load_graph(*files)


def test_feature_rows_beyond_the_header_count_are_rejected_at_their_line(tmp_path):
    files = write_dataset(tmp_path, "0\t1\n", "2 2\n0.0 1.0\n1.0 2.0\n\n  \n", "0\n1\n")
    assert load_graph(*files).features.shape == (2, 2)  # trailing blank lines are fine
    files = write_dataset(tmp_path, "0\t1\n", "2 2\n0.0 1.0\n1.0 2.0\n\n2.0 3.0\n3.0 4.0\n", "0\n1\n")
    with pytest.raises(GraphFormatError, match=r"features\.txt:5: more feature rows than the header's n = 2"):
        load_graph(*files)


def test_blank_line_among_the_feature_rows_is_named(tmp_path):
    files = write_dataset(tmp_path, "0\t1\n", "2 1\n\n0.0\n1.0\n", "0\n1\n")
    with pytest.raises(GraphFormatError, match=r"features\.txt:2: blank line where feature row 1 of 2 was expected"):
        load_graph(*files)
    files = write_dataset(tmp_path, "0\t1\n", "2 0\n\n\n", "0\n1\n")
    assert load_graph(*files).features.shape == (2, 0)  # with d = 0 a blank line is the row


def test_label_below_minus_one_names_its_line(tmp_path):
    files = write_dataset(tmp_path, "0\t1\n", "3 1\n0.0\n1.0\n2.0\n", "0\n\n1\n-2\n")
    with pytest.raises(GraphFormatError, match=r"labels\.txt:4: labels must be class ids or -1, got -2"):
        load_graph(*files)


def test_label_file_with_a_gap_in_its_class_ids_names_the_missing_class(tmp_path):
    files = write_dataset(tmp_path, "0\t1\n", "4 1\n0.0\n1.0\n2.0\n3.0\n", "0\n2\n-1\n3\n")
    with pytest.raises(GraphFormatError, match=r"labels\.txt: class ids must run from 0 to 3; class 1 has no node"):
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


@pytest.mark.parametrize(
    "build, keys",
    [
        (lambda g: make_proportional_split(g, 0.25, -0.5), ("val_frac",)),
        (lambda g: make_proportional_split(g, 1.5, 0.25), ("train_frac",)),
        (lambda g: make_proportional_split(g, 0.6, 0.6), ("val_frac", "train_frac")),
        (lambda g: make_artificial_imbalance(g, [0], 0.5, 10, seed=0, val_frac=1.5), ("val_frac",)),
        (lambda g: make_artificial_imbalance(g, [0], 0.0, 10, seed=0), ("ratio",)),
        (lambda g: make_artificial_imbalance(g, [0], 0.5, 1, seed=0), ("ratio", "majority_train_size")),
        (lambda g: make_artificial_imbalance(g, [7], 0.5, 10, seed=0), ("minority_count",)),
        (lambda g: make_artificial_imbalance(g, [0], 0.5, 50, seed=0), ("majority_train_size",)),
    ],
    ids=[
        "prop_val_frac",
        "prop_train_frac",
        "prop_sum",
        "art_val_frac",
        "art_ratio",
        "art_no_minority_node",
        "art_minority_id",
        "art_class_too_small",
    ],
)
def test_split_builders_raise_config_error_keyed_by_spec_field(build, keys):
    g = make_labeled_graph((30, 30, 30))
    with pytest.raises(ConfigError) as info:
        build(g)
    assert info.value.keys == keys


@pytest.mark.parametrize(
    "args, kwargs, key",
    [
        (([5, 5], 0.5, 0.1, 0, 0), {}, "sbm_dim"),
        (([5, 5], 0.5, 0.1, 2, 0), {"mean_scale": float("nan")}, "sbm_mean_scale"),
        (([5, 5], 0.5, 0.1, 2, 0), {"feature_noise": -1.0}, "sbm_noise"),
        (([], 0.5, 0.1, 2, 0), {}, "sbm_sizes"),
        (([5, 0], 0.5, 0.1, 2, 0), {}, "sbm_sizes"),
        (([5, 5], 0.5, 0.1, 2, -1), {}, "data_seed"),
        (([5, 5], 2.0, 0.1, 2, 0), {}, "sbm_p_in"),
        (([5, 5], 0.1, 0.4, 2, 0), {}, "sbm_p_out"),
    ],
    ids=["dim", "mean_scale_nan", "noise", "no_sizes", "zero_size", "seed", "p_in", "p_out_above_p_in"],
)
def test_sbm_raises_config_error_keyed_by_spec_field(args, kwargs, key):
    with pytest.raises(ConfigError) as info:
        generate_sbm_graph(*args, **kwargs)
    assert info.value.key == key


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
    dense = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
    kwargs = dict(features=np.zeros((3, 1)), labels=np.zeros(3, dtype=np.int64), m=1)
    with pytest.raises(GraphFormatError, match="value other than 1"):
        Graph(adjacency=sp.csr_matrix(dense), **kwargs)
    g = Graph(adjacency=sp.csr_matrix(dense > 0).astype(np.float64), **kwargs)
    a = g.dense_adjacency()
    assert a.dtype == np.bool_
    np.testing.assert_array_equal(a, dense > 0)


def test_graph_rejects_an_edge_stored_twice_and_leaves_the_callers_matrix_alone():
    """Edge 0-1 stored twice in each row would give node 0 degree 2 in the
    aggregation and one edge in the edge loss's target."""
    indptr, indices = np.array([0, 2, 4, 4]), np.array([1, 1, 0, 0])
    twice = sp.csr_matrix((np.ones(4), indices, indptr), shape=(3, 3))
    assert not twice.has_canonical_format
    kwargs = dict(features=np.zeros((3, 1)), labels=np.zeros(3, dtype=np.int64), m=1)
    with pytest.raises(GraphFormatError, match=re.escape("adjacency stores a value other than 1 at (0, 1)")):
        Graph(adjacency=twice, **kwargs)
    np.testing.assert_array_equal(twice.data, np.ones(4))
    np.testing.assert_array_equal(twice.indices, indices)
    np.testing.assert_array_equal(twice.indptr, indptr)
    # stored once per row but out of column order: a valid graph
    unsorted = sp.csr_matrix((np.ones(4), np.array([2, 1, 0, 0]), np.array([0, 2, 3, 4])), shape=(3, 3))
    g = Graph(adjacency=unsorted, **kwargs)
    np.testing.assert_array_equal(g.adj.deg, [2.0, 1.0, 1.0])


def _graph_kwargs(n=3):
    return dict(adjacency=sp.csr_matrix((n, n)), features=np.zeros((n, 1)), labels=np.zeros(n, dtype=np.int64), m=1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("features", np.zeros(3), r"features must be 2-D \(nodes x dims\), got shape \(3,\)"),
        ("features", np.zeros((3, 1, 1)), r"features must be 2-D"),
        ("labels", np.zeros((3, 1), dtype=np.int64), r"labels must be 1-D, got shape \(3, 1\)"),
    ],
    ids=["features_1d", "features_3d", "labels_2d"],
)
def test_graph_rejects_arrays_of_the_wrong_rank(field, value, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(**{**_graph_kwargs(), field: value})


@pytest.mark.parametrize("dtype", [np.float64, np.bool_, np.complex128])
def test_graph_rejects_labels_that_are_not_integers(dtype):
    """Float labels used to build a graph whose first split or train died in
    `np.bincount` with a TypeError that named neither the labels nor Graph."""
    labels = np.zeros(3, dtype=dtype)
    with pytest.raises(GraphFormatError, match=rf"^labels must hold integers, got dtype {np.dtype(dtype)}$"):
        Graph(**{**_graph_kwargs(), "labels": labels})
    for ints in (np.int32, np.uint8):
        assert Graph(**{**_graph_kwargs(), "labels": np.zeros(3, dtype=ints)}).labels.dtype == ints


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_graph_rejects_non_finite_features_naming_the_first_bad_row(bad):
    features = np.zeros((4, 2))
    features[2, 1] = features[3, 0] = bad
    with pytest.raises(GraphFormatError, match=r"^feature row 2 holds a non-finite value$"):
        Graph(**{**_graph_kwargs(4), "features": features})


def _adjacency_cases(tmp_path):
    g = generate_sbm_graph([30, 30, 8], 0.3, 0.05, 3, seed=3)
    paths = (tmp_path / "e.tsv", tmp_path / "f.txt", tmp_path / "l.txt")
    save_graph(g, *paths)
    masks = make_proportional_split(g, 0.5, 0.25, seed=3)
    plan = plan_from_scale(imbalance_ratio(g, masks), "balance")
    extended, _ = baseline_duplicate(g, masks, plan, np.random.default_rng(3))
    return {"loaded": load_graph(*paths), "generated": g, "duplicated": extended}


@pytest.mark.parametrize("case", ["loaded", "generated", "duplicated"])
def test_graph_builds_its_adjacency_const_once_over_the_csr_arrays(tmp_path, case):
    g = _adjacency_cases(tmp_path)[case]
    deg = degrees(g)
    assert deg.any()
    np.testing.assert_array_equal(g.adj.deg, deg)
    np.testing.assert_array_equal(g.adj.inv_deg, 1.0 / np.maximum(deg, 1.0))
    assert g.adj.shape == g.adjacency.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(g.adj, name) is getattr(g.adjacency, name), name
    blob = pickle.dumps(g)
    back = pickle.loads(blob)
    for name in ("indptr", "indices", "data"):
        assert getattr(back.adj, name) is getattr(back.adjacency, name), name
    np.testing.assert_array_equal(back.adj.deg, deg)
    # the two float64 degree vectors, and not a second copy of the CSR arrays
    parts = len(pickle.dumps((g.adjacency, g.features, g.labels, g.m)))
    assert len(blob) - parts <= 16 * g.n + 1024


def test_graph_built_from_coo_stores_csr_and_trains():
    g = generate_sbm_graph([20, 20, 6], 0.4, 0.05, 3, seed=1)
    coo = Graph(g.adjacency.tocoo(), g.features.copy(), g.labels.copy(), g.m)
    assert coo.adjacency.format == "csr"
    assert coo.adj.indptr is coo.adjacency.indptr
    masks = make_proportional_split(coo, 0.5, 0.25, seed=1)
    cfg = TrainConfig(variant="origin", max_epochs=2, embed_dim=4, hidden_dim=4)
    _, record = train(coo, masks, cfg)
    assert len(record.epochs) == 2


def _graph_arrays(adjacency, features, labels):
    return (adjacency.indptr, adjacency.indices, adjacency.data, features, labels)


@pytest.mark.parametrize(
    "sizes, p_in, p_out",
    [
        ([1], 0.5, 0.1),
        ([30, 20], 0.3, 0.0),
        ([15, 25, 10], 1.0, 0.2),
        ([5, 2 * _SBM_ROW_CHUNK + 7, 3], 0.05, 0.01),
        ([_SBM_ROW_CHUNK, _SBM_ROW_CHUNK + 1, 1], 0.04, 0.004),
    ],
    ids=["one_node", "p_out_zero", "p_in_one", "class_spans_chunks", "class_fills_a_chunk"],
)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sbm_matches_dense_oracle_byte_for_byte(sizes, p_in, p_out, seed):
    g = generate_sbm_graph(sizes, p_in, p_out, 3, seed=seed, mean_scale=2.0, feature_noise=0.5)
    want = dense_sbm_arrays(sizes, p_in, p_out, 3, seed, mean_scale=2.0, feature_noise=0.5)
    assert g.m == len(sizes)
    for got, ref in zip(_graph_arrays(g.adjacency, g.features, g.labels), _graph_arrays(*want)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_sbm_generation_allocates_no_n_by_n_array():
    sizes = [1000, 1000, 1000, 100]
    n = sum(sizes)
    tracemalloc.start()
    try:
        generate_sbm_graph(sizes, 0.01, 0.001, 16, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8, f"{peak / (n * n * 8):.2f} n x n float64 arrays"


# The graphs perfbench's workloads train on (perfbench/workloads.py: data
# seed 0, 16 features), hashed over their CSR arrays, features and labels
# with dtypes and shapes. A generator change that alters them changes the
# benchmark's inputs and must say so.
@pytest.mark.parametrize(
    "sizes, p_in, p_out, digest",
    [
        (
            [200, 200, 200, 20],
            0.05,
            0.005,
            "864482acacf8c981a1cc9043b8a1069f18199a150494642e9ade2aa5fed5ef58",
        ),
        (
            [1000, 1000, 1000, 100],
            0.01,
            0.001,
            "686e9f8a836a0876bea919ac344cc7fcce95e60fa0ef934269f790f4f40d415d",
        ),
    ],
    ids=["fixture_620", "sbm3k"],
)
def test_benchmark_graphs_are_pinned(sizes, p_in, p_out, digest):
    g = generate_sbm_graph(sizes, p_in, p_out, 16, seed=0)
    h = hashlib.sha256()
    for arr in _graph_arrays(g.adjacency, g.features, g.labels):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == digest


def test_sbm_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        generate_sbm_graph([5, 5], 0.1, 0.4, 2, seed=0)
