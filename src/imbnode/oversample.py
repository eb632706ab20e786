"""Minority oversampling in embedding space plus the sampling baselines.

The latent sampler picks a seed node uniformly (with replacement) from a
minority class's train pool, finds its same-class nearest neighbor in the
current embedding, and draws a single uniform delta per synthetic node.
That draw, a `SyntheticBatch`, is plain data; `SyntheticBatch.embed(h)`
interpolates its rows from an embedding on the tape, so the encoder
receives gradient through them. Batches are drawn afresh each epoch and
never persisted into the graph.

The graph-level baselines (plain duplication and raw-feature
interpolation) rebuild the graph once up front, copying the seed node's
incident edges. Class re-weighting produces the loss-weight vector
|train| / (m * |C_c|).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import kernels, tape
from .errors import ConfigError
from .graph import ClassStats, Graph, SplitMasks

BALANCE = "balance"


@dataclass(frozen=True)
class SamplingPlan:
    """Synthetic-node counts per class id (zero for classes not oversampled)."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.min() < 0:
            raise ValueError("negative synthetic count")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class SyntheticBatch:
    """One draw of synthetic nodes: per node its class, its parents (seed,
    neighbor) and its delta, plus the thresholded variants' binary s x n
    synthetic-real edges drawn with it (a constant Mat; None otherwise)."""

    labels: np.ndarray
    parents: np.ndarray  # (s, 2): seed id, neighbor id
    deltas: np.ndarray
    syn_real: tape.Mat | None = None

    def embed(self, h: tape.Mat) -> tape.Mat:
        """(1 - delta) * h[seed] + delta * h[neighbor], row-wise, as one
        tape op."""
        return tape.interpolate(h, self.parents[:, 0], self.parents[:, 1], self.deltas)


def _check_scale(scale) -> None:
    if scale != BALANCE and (isinstance(scale, str) or not 0.0 <= scale < np.inf):
        raise ConfigError("scale", f"scale must be {BALANCE!r} or a finite number >= 0")


def plan_from_scale(stats: ClassStats, scale) -> SamplingPlan:
    """Fixed scale: round(|C_c| * scale) for classes below the largest;
    "balance": max|C_i| - |C_c| for every class."""
    _check_scale(scale)
    sizes = stats.sizes
    counts = np.zeros(sizes.size, dtype=np.int64)
    if isinstance(scale, str):
        counts = sizes.max() - sizes
    else:
        minority = sizes < sizes.max()
        counts[minority] = np.round(sizes[minority] * float(scale)).astype(np.int64)
    return SamplingPlan(counts=counts)


def class_pools(labels: np.ndarray, ids: np.ndarray, m: int) -> list[np.ndarray]:
    """Sorted id pool per class restricted to the given ids."""
    ids = np.sort(np.asarray(ids, dtype=np.int64))
    return [ids[labels[ids] == c] for c in range(m)]


def nearest_same_class(h1, v, candidate_ids, labels):
    """Closest candidate sharing v's label, excluding v, for an id v or an
    array of ids (same shape out), one scan per label; ties go to the smallest
    id. A node with no same-class candidate maps to itself (warned per node)."""
    h = h1.value if isinstance(h1, tape.Mat) else np.asarray(h1, dtype=np.float64)
    labels = np.asarray(labels)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64)
    queries = np.asarray(v, dtype=np.int64)
    nn = np.empty_like(queries)
    for c in np.unique(labels[queries]):
        of_c = labels[queries] == c
        same = np.sort(candidate_ids[labels[candidate_ids] == c])
        nn[of_c] = kernels.nearest_same_class_ids(h, same, queries[of_c])
    for u in np.unique(queries[nn == queries]):
        warnings.warn(f"node {u}: no same-class neighbor, duplicating it")
    return int(nn) if nn.ndim == 0 else nn


def smote_interpolate(
    h1: tape.Mat,
    plan: SamplingPlan,
    seed_pools: list[np.ndarray],
    rng: np.random.Generator,
) -> SyntheticBatch:
    """Draw the planned synthetic nodes from the current embedding.

    `seed_pools[c]` holds the train ids of class c; seeds are drawn from it
    and their nearest neighbors in `h1` searched in it, so every parent is a
    train node of the synthetic node's class. Classes iterate in ascending
    id; per class the seeds are drawn first, then the deltas, which fixes
    the rng stream order. Nothing is interpolated here: `embed` builds the
    rows from whichever embedding its caller holds.
    """
    seeds_all, nn_all, deltas_all, labels_all = [], [], [], []
    h_val = h1.value
    for c in np.nonzero(plan.counts)[0]:
        count = int(plan.counts[c])
        pool = seed_pools[c]
        if pool.size == 0:
            raise ValueError(f"class {c}: no train nodes to oversample from")
        seeds = rng.choice(pool, size=count, replace=True)
        deltas = rng.random(count)
        if pool.size == 1:
            warnings.warn(f"class {c}: single-node pool, synthetic nodes duplicate it")
        nns = kernels.nearest_same_class_ids(h_val, np.sort(pool), seeds.astype(np.int64))
        seeds_all.append(seeds)
        nn_all.append(nns)
        deltas_all.append(deltas)
        labels_all.append(np.full(count, c, dtype=np.int64))
    if not seeds_all:
        return SyntheticBatch(
            labels=np.array([], dtype=np.int64),
            parents=np.zeros((0, 2), dtype=np.int64),
            deltas=np.array([]),
        )
    return SyntheticBatch(
        labels=np.concatenate(labels_all),
        parents=np.stack([np.concatenate(seeds_all), np.concatenate(nn_all)], axis=1),
        deltas=np.concatenate(deltas_all),
    )


def reweight_vector(stats: ClassStats) -> np.ndarray:
    """Per-class loss weights |train| / (m * |C_c|); 1.0 when balanced."""
    sizes = stats.sizes
    return sizes.sum() / (sizes.size * sizes.astype(np.float64))


def _pick_seeds(plan: SamplingPlan, pools: list[np.ndarray], rng) -> np.ndarray:
    """Seed ids for graph-level baselines, drawn uniformly with replacement
    from each class's sorted pool (`class_pools`)."""
    seeds = []
    for c in np.nonzero(plan.counts)[0]:
        if pools[c].size == 0:
            raise ValueError(f"class {c}: no train nodes to oversample from")
        seeds.append(rng.choice(pools[c], size=int(plan.counts[c]), replace=True))
    if not seeds:
        return np.array([], dtype=np.int64)
    return np.concatenate(seeds)


def _extend_graph(g: Graph, seeds: np.ndarray, new_features: np.ndarray) -> Graph:
    """Append one node per seed, copying the seed's incident edges."""
    n_new = seeds.size
    block = g.adjacency[:, seeds] if n_new else sp.csr_matrix((g.n, 0))
    adj = sp.bmat(
        [[g.adjacency, block], [block.T, sp.csr_matrix((n_new, n_new))]],
        format="csr",
    )
    labels = np.concatenate([g.labels, g.labels[seeds]])
    features = np.vstack([g.features, new_features])
    return Graph(adjacency=adj, features=features, labels=labels, m=g.m)


def _extend_masks(masks: SplitMasks, n_old: int, n_new: int) -> SplitMasks:
    return SplitMasks(
        train=np.concatenate([masks.train, np.arange(n_old, n_old + n_new)]),
        val=masks.val.copy(),
        test=masks.test.copy(),
    )


def baseline_duplicate(
    g: Graph, masks: SplitMasks, plan: SamplingPlan, rng: np.random.Generator
) -> tuple[Graph, SplitMasks]:
    """Plain oversampling: copy minority train nodes along their edges."""
    pools = class_pools(g.labels, masks.train, g.m)
    seeds = _pick_seeds(plan, pools, rng)
    new_g = _extend_graph(g, seeds, g.features[seeds].copy())
    return new_g, _extend_masks(masks, g.n, seeds.size)


def baseline_raw_smote(
    g: Graph, masks: SplitMasks, plan: SamplingPlan, rng: np.random.Generator
) -> tuple[Graph, SplitMasks]:
    """Raw-feature-space interpolation; the new node's edges copy the seed's."""
    pools = class_pools(g.labels, masks.train, g.m)
    seeds = _pick_seeds(plan, pools, rng)
    deltas = rng.random(seeds.size)[:, None]
    feats = np.ascontiguousarray(g.features, dtype=np.float64)
    nns = nearest_same_class(feats, seeds, masks.train, g.labels)
    new_g = _extend_graph(g, seeds, (1.0 - deltas) * feats[seeds] + deltas * feats[nns])
    return new_g, _extend_masks(masks, g.n, seeds.size)
