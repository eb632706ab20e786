"""Evaluation criteria: accuracy, macro one-vs-rest AUC, macro F1.

Accuracy is computed over all masked nodes at once. AUC and F1 are
computed per class and averaged without class-size weighting, so minority
performance shows through. The AUC uses the rank statistic with midrank
tie handling; classes lacking a positive or a negative on the mask are
excluded from the average (with a warning). F1 uses the 0/0 -> 0
convention and averages over all classes.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PerClass:
    precision: float
    recall: float
    f1: float
    auc: float  # nan when the class has no positives or negatives on the mask


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    auc_macro: float
    f_macro: float
    per_class: tuple[PerClass, ...]


def _masked(arr, mask):
    return np.asarray(arr)[np.asarray(mask, dtype=np.int64)]


def accuracy(preds, labels, mask) -> float:
    p = _masked(preds, mask)
    y = _masked(labels, mask)
    return float((p == y).mean())


def _midranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned their group's mean rank."""
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return (starts + (counts + 1) / 2.0)[inverse]


def binary_auc(scores, positives) -> float:
    """Rank-statistic AUC of scores against a boolean positive indicator."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ranks = _midranks(scores)
    return float((ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def _class_aucs(probs, labels, m: int) -> tuple[list[float], float]:
    """One-vs-rest AUC of each class over already-masked rows, and their mean
    over the classes present both ways. A class without a positive or a
    negative gets NaN and a warning; if no class is left, the mean is NaN."""
    aucs = []
    for c in range(m):
        auc = binary_auc(probs[:, c], labels == c)
        if np.isnan(auc):
            warnings.warn(f"class {c}: no positives or no negatives on mask, AUC skipped")
        aucs.append(auc)
    present = [a for a in aucs if not np.isnan(a)]
    return aucs, (float(np.mean(present)) if present else float("nan"))


def auc_macro(probs, labels, mask, num_classes=None) -> float:
    """Unweighted mean of one-vs-rest AUCs over classes present both ways."""
    p = _masked(probs, mask)
    m = int(num_classes) if num_classes is not None else p.shape[1]
    return _class_aucs(p, _masked(labels, mask), m)[1]


def per_class_prf(preds, labels, mask, num_classes=None):
    p = _masked(preds, mask)
    y = _masked(labels, mask)
    m = int(num_classes) if num_classes is not None else int(np.max(np.concatenate([y, p]))) + 1
    out = []
    for c in range(m):
        tp = int(np.sum((p == c) & (y == c)))
        fp = int(np.sum((p == c) & (y != c)))
        fn = int(np.sum((p != c) & (y == c)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2.0 * prec * rec / (prec + rec) if prec + rec else 0.0
        out.append((prec, rec, f1))
    return out


def f_macro(preds, labels, mask, num_classes=None) -> float:
    """Unweighted mean per-class F1 with the 0/0 -> 0 convention."""
    return float(np.mean([f1 for _, _, f1 in per_class_prf(preds, labels, mask, num_classes)]))


def full_report(probs, labels, mask, num_classes=None, preds=None) -> MetricsReport:
    probs = np.asarray(probs)
    if preds is None:
        preds = np.argmax(probs, axis=1)
    m = int(num_classes) if num_classes is not None else probs.shape[1]
    prf = per_class_prf(preds, labels, mask, m)
    aucs, auc_mean = _class_aucs(_masked(probs, mask), _masked(labels, mask), m)
    per_class = tuple(PerClass(*prf[c], auc=aucs[c]) for c in range(m))
    return MetricsReport(
        acc=accuracy(preds, labels, mask),
        auc_macro=auc_mean,
        f_macro=float(np.mean([pc.f1 for pc in per_class])),
        per_class=per_class,
    )


def write_summary_table(rows, path) -> None:
    """Comparison-table CSV: one row per variant with mean +- std columns."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "acc_mean", "acc_std", "auc_mean", "auc_std", "f_mean", "f_std"])
        for row in rows:
            writer.writerow([row[0]] + [repr(float(x)) for x in row[1:]])


def aggregate_reports(pairs):
    """[(variant, MetricsReport)] -> summary rows with mean and std per metric,
    ordered by first appearance of each variant."""
    order = []
    grouped: dict[str, list[MetricsReport]] = {}
    for variant, report in pairs:
        if variant not in grouped:
            grouped[variant] = []
            order.append(variant)
        grouped[variant].append(report)
    rows = []
    for variant in order:
        reports = grouped[variant]
        accs = np.array([r.acc for r in reports])
        aucs = np.array([r.auc_macro for r in reports])
        fs = np.array([r.f_macro for r in reports])
        rows.append(
            (variant, accs.mean(), accs.std(), aucs.mean(), aucs.std(), fs.mean(), fs.std())
        )
    return rows
