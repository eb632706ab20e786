"""Independent brute-force oracles used by the metric, acceptance and
graph tests.

These intentionally avoid the library's code paths: the AUC oracle counts
pairs directly, the F/accuracy oracle works from an explicit confusion
matrix, and the block-model oracle draws the whole n x n matrix at once.
"""
import numpy as np
import scipy.sparse as sp


def pair_count_auc(scores, positives):
    """P(score_pos > score_neg) + 0.5 P(tie), counted over all pairs."""
    scores = np.asarray(scores, dtype=float)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    if pos.size == 0 or neg.size == 0:
        return float("nan")
    wins = ties = 0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1
            elif sp == sn:
                ties += 1
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def pair_count_auc_macro(probs, labels):
    """Unweighted mean of per-class pair-count AUCs (skipping one-sided classes)."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    values = []
    for c in range(probs.shape[1]):
        auc = pair_count_auc(probs[:, c], labels == c)
        if not np.isnan(auc):
            values.append(auc)
    return float(np.mean(values))


def confusion_matrix(preds, labels, m):
    cm = np.zeros((m, m), dtype=int)
    for p, y in zip(preds, labels):
        cm[y, p] += 1
    return cm


def confusion_f_macro(preds, labels, m):
    """Macro F1 from the confusion matrix, 0/0 -> 0 per class."""
    cm = confusion_matrix(preds, labels, m)
    f1s = []
    for c in range(m):
        tp = cm[c, c]
        fp = cm[:, c].sum() - tp
        fn = cm[c, :].sum() - tp
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s))


def confusion_accuracy(preds, labels, m):
    cm = confusion_matrix(preds, labels, m)
    return float(np.trace(cm) / cm.sum())


def dense_sbm_arrays(class_sizes, p_in, p_out, d, seed, mean_scale=1.0, feature_noise=1.0):
    """The block-model graph built densely, as the generator first did: one
    n x n matrix of pair probabilities, one of uniforms and one float
    adjacency. Returns (csr adjacency, features, labels)."""
    sizes = np.asarray(class_sizes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes).astype(np.int64)
    prob = np.where(labels[:, None] == labels[None, :], p_in, p_out)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    adj = sp.csr_matrix(np.logical_or(upper, upper.T).astype(np.float64))
    means = rng.normal(size=(sizes.size, d)) * mean_scale
    features = means[labels] + rng.normal(size=(n, d)) * feature_noise
    return adj, features, labels
