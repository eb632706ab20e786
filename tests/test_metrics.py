"""Metric examples and brute-force oracle agreement."""
import warnings

import numpy as np
import pytest

from imbnode.metrics import (
    accuracy,
    aggregate_reports,
    auc_macro,
    binary_auc,
    f_macro,
    full_report,
)
from oracles import confusion_f_macro, pair_count_auc, pair_count_auc_macro

# (preds, labels, num_classes, accuracy, macro F1) computed with the
# confusion-matrix oracle in oracles.py and frozen.
FIXED_FIXTURES = [
    ([2, 2, 1, 0, 1, 2, 0, 2, 0], [0, 0, 1, 0, 0, 1, 0, 0, 0], 3, 0.4444444444444444, 0.3666666666666667),
    ([2, 2, 2, 2, 1, 2, 0, 0], [1, 0, 0, 0, 0, 1, 1, 0], 3, 0.125, 0.09523809523809525),
    ([2, 0, 2, 2, 1, 2, 1, 2, 0, 0], [0, 1, 2, 0, 2, 0, 2, 1, 0, 0], 3, 0.3, 0.25),
    ([3, 1, 3, 3], [3, 2, 2, 0], 4, 0.25, 0.125),
    ([3, 3, 3, 1, 0], [0, 0, 0, 3, 0], 4, 0.2, 0.1),
    ([0, 2, 1, 0], [0, 1, 1, 1], 3, 0.5, 0.38888888888888884),
    ([3, 2, 0, 3, 0, 0, 1], [0, 0, 0, 1, 1, 1, 1], 4, 0.2857142857142857, 0.18333333333333335),
    ([0, 0, 2, 2], [1, 2, 1, 1], 3, 0.0, 0.0),
    ([2, 2, 3, 3, 2, 3, 1, 2, 1], [0, 3, 3, 2, 3, 3, 3, 2, 0], 4, 0.3333333333333333, 0.20833333333333331),
    ([0, 1, 0, 1, 0, 0, 1, 0], [0, 1, 1, 0, 1, 0, 0, 0], 2, 0.5, 0.4666666666666667),
    ([2, 1, 0, 3, 1, 0], [1, 1, 1, 0, 0, 0], 4, 0.3333333333333333, 0.2),
    ([0, 2, 2, 0, 0, 2, 0, 2], [0, 2, 1, 2, 0, 1, 1, 1], 3, 0.375, 0.3333333333333333),
    ([1, 1, 2, 1, 2, 1, 1, 1, 1, 1, 0], [2, 2, 2, 1, 2, 1, 2, 0, 0, 1, 1], 3, 0.45454545454545453, 0.3571428571428572),
    ([2, 1, 0, 0], [2, 1, 0, 1], 3, 0.75, 0.7777777777777777),
    ([1, 2, 0, 0, 0, 2, 0, 1, 0], [2, 1, 2, 1, 2, 1, 2, 0, 2], 3, 0.0, 0.0),
    ([0, 1, 0, 1, 1, 1, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 2, 0.4, 0.28571428571428575),
    ([2, 2, 2, 1, 2, 2, 0, 1, 1, 1, 0], [0, 0, 2, 1, 1, 1, 0, 0, 1, 1, 1], 3, 0.45454545454545453, 0.4222222222222222),
    ([3, 2, 3, 3, 3, 3], [2, 3, 0, 1, 0, 2], 4, 0.0, 0.0),
    ([0, 2, 0, 2], [0, 0, 2, 1], 3, 0.25, 0.16666666666666666),
    ([3, 2, 3, 1, 1, 1, 2], [0, 2, 2, 0, 3, 2, 1], 4, 0.14285714285714285, 0.1),
]


def test_accuracy_examples():
    mask = np.arange(4)
    assert accuracy([1, 0, 1, 0], [1, 0, 1, 0], mask) == 1.0
    assert accuracy([1, 0, 1, 0], [0, 1, 0, 1], mask) == 0.0
    assert accuracy([1, 0, 1, 0], [1, 0, 1, 1], mask) == 0.75


@pytest.mark.parametrize("preds,labels,m,acc,f", FIXED_FIXTURES)
def test_fixed_fixtures_match_frozen_oracle_values(preds, labels, m, acc, f):
    mask = np.arange(len(preds))
    assert accuracy(preds, labels, mask) == pytest.approx(acc, abs=1e-15)
    assert f_macro(preds, labels, mask, num_classes=m) == pytest.approx(f, abs=1e-15)


def test_perfectly_separated_auc_is_one():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    assert binary_auc(scores, [True, True, False, False]) == 1.0


def test_label_independent_scores_auc_half():
    scores = np.ones(6)
    assert binary_auc(scores, [True, False, True, False, False, True]) == 0.5


def test_binary_auc_matches_pair_count_on_random_instance():
    rng = np.random.default_rng(12)
    scores = rng.integers(0, 5, size=12).astype(float)  # integer scores force ties
    positives = rng.random(12) < 0.4
    assert binary_auc(scores, positives) == pytest.approx(
        pair_count_auc(scores, positives), abs=1e-12
    )


def test_auc_macro_matches_pair_count_oracle_many_instances():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 5))
        labels = rng.integers(0, m, size=n)
        while np.unique(labels).size < 2:  # AUC needs both sides somewhere
            labels = rng.integers(0, m, size=n)
        probs = rng.dirichlet(np.ones(m), size=n)
        if rng.random() < 0.3:  # quantized scores exercise midrank ties
            probs = np.round(probs, 1)
        got = auc_macro(probs, labels, np.arange(n), num_classes=m)
        expected = pair_count_auc_macro(probs, labels)
        assert got == pytest.approx(expected, abs=1e-12)


def test_auc_macro_warns_and_skips_one_sided_class():
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.5, 0.4, 0.1]])
    labels = np.array([0, 1, 0])  # class 2 never appears
    with pytest.warns(UserWarning, match="class 2"):
        got = auc_macro(probs, labels, np.arange(3), num_classes=3)
    assert got == pytest.approx(pair_count_auc_macro(probs, labels), abs=1e-12)


def test_auc_nan_without_numpy_warning_when_every_class_is_skipped():
    probs = np.array([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1]])
    labels = np.array([0, 0])  # class 0 has no negatives, classes 1 and 2 no positives
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = auc_macro(probs, labels, np.arange(2), num_classes=3)
        report = full_report(probs, labels, np.arange(2), num_classes=3)
    assert np.isnan(got) and np.isnan(report.auc_macro)
    assert all(np.isnan(pc.auc) for pc in report.per_class)
    messages = [str(w.message) for w in caught]
    assert all(w.category is UserWarning for w in caught), messages
    assert messages == [f"class {c}: no positives or no negatives on mask, AUC skipped" for c in range(3)] * 2


def test_f_macro_examples():
    mask = np.arange(4)
    assert f_macro([0, 1, 1, 0], [0, 1, 1, 0], mask) == 1.0
    # confusion [[2,1],[1,2]]: both classes F1 = 2/3
    preds = [0, 0, 1, 1, 0, 1]
    labels = [0, 0, 0, 1, 1, 1]
    f = f_macro(preds, labels, np.arange(6), num_classes=2)
    assert f == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert f == pytest.approx(confusion_f_macro(preds, labels, 2), abs=1e-15)


def test_absent_class_contributes_zero():
    # class 2 never true and never predicted: 0/0 -> 0 drags the mean down
    preds = [0, 1, 0, 1]
    labels = [0, 1, 0, 1]
    f = f_macro(preds, labels, np.arange(4), num_classes=3)
    assert f == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_metrics_invariant_to_node_reordering():
    rng = np.random.default_rng(5)
    n, m = 20, 3
    labels = rng.integers(0, m, size=n)
    probs = rng.dirichlet(np.ones(m), size=n)
    preds = np.argmax(probs, axis=1)
    mask = np.arange(n)
    perm = rng.permutation(n)
    assert accuracy(preds[perm], labels[perm], mask) == accuracy(preds, labels, mask)
    assert f_macro(preds[perm], labels[perm], mask, m) == pytest.approx(
        f_macro(preds, labels, mask, m), abs=1e-15
    )
    assert auc_macro(probs[perm], labels[perm], mask, m) == pytest.approx(
        auc_macro(probs, labels, mask, m), abs=1e-12
    )


def test_accuracy_invariant_to_monotone_rescaling():
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(4), size=15)
    labels = rng.integers(0, 4, size=15)
    mask = np.arange(15)
    base = accuracy(np.argmax(probs, axis=1), labels, mask)
    for transform in (lambda p: p**3, lambda p: np.exp(2 * p), lambda p: 0.1 + 0.5 * p):
        rescaled = transform(probs)
        assert accuracy(np.argmax(rescaled, axis=1), labels, mask) == base


def test_full_report_consistency():
    rng = np.random.default_rng(7)
    probs = rng.dirichlet(np.ones(3), size=30)
    labels = rng.integers(0, 3, size=30)
    mask = np.arange(30)
    report = full_report(probs, labels, mask, num_classes=3)
    assert report.f_macro == pytest.approx(np.mean([pc.f1 for pc in report.per_class]), abs=1e-15)
    assert 0.0 <= report.acc <= 1.0
    assert 0.0 <= report.auc_macro <= 1.0
    for pc in report.per_class:
        for v in (pc.precision, pc.recall, pc.f1):
            assert 0.0 <= v <= 1.0


def test_aggregate_reports_mean_std():
    r1 = full_report(np.eye(2), [0, 1], np.arange(2), num_classes=2)
    r2 = full_report(np.array([[0.4, 0.6], [0.6, 0.4]]), [0, 1], np.arange(2), num_classes=2)
    rows = aggregate_reports([("a", r1), ("a", r2), ("b", r1)])
    assert rows[0][0] == "a" and rows[1][0] == "b"
    assert rows[0][1] == pytest.approx((r1.acc + r2.acc) / 2)
    assert rows[1][2] == 0.0  # single seed: zero std
