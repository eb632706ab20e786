"""Attributed-graph data model, dataset ingestion, and split construction.

File formats
------------
Edge file: UTF-8 text, one edge per line as ``src<TAB>dst`` with 0-based
node ids; blank lines and lines starting with ``#`` are ignored. Each edge
is inserted in both directions and duplicates collapse. Self-loops are
dropped (self-aggregation is explicit in the encoder, so the adjacency
keeps a zero diagonal).

Feature file: a header line ``n d`` followed by n lines of d
space-separated finite decimal floats.

Label file: one line per node holding the class id, or ``-1`` for
unlabeled nodes; the class ids must run from 0 to the largest without a gap.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import tape
from .errors import ConfigError, GraphFormatError, GraphRangeError

UNLABELED = -1
# rows of uniforms generate_sbm_graph draws at once (chunk x n float64)
_SBM_ROW_CHUNK = 128


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable attributed graph: symmetric 0/1 adjacency stored as CSR
    (every stored value is 1, the diagonal empty), dense 2-D finite features,
    1-D per-node labels with -1 marking unlabeled nodes. `adj`, built once
    over the CSR's own arrays, is the `tape.SparseConst` aggregations read."""

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    m: int
    adj: tape.SparseConst = field(init=False, repr=False)

    def __post_init__(self):
        a = self.adjacency.tocsr()
        object.__setattr__(self, "adjacency", a)
        if a.shape[0] != a.shape[1]:
            raise GraphFormatError("adjacency must be square")
        if self.features.ndim != 2:
            raise GraphFormatError(f"features must be 2-D (nodes x dims), got shape {self.features.shape}")
        if self.labels.ndim != 1:
            raise GraphFormatError(f"labels must be 1-D, got shape {self.labels.shape}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise GraphFormatError(f"labels must hold integers, got dtype {self.labels.dtype}")
        if a.shape[0] != self.features.shape[0]:
            raise GraphFormatError("feature row count must equal node count")
        if self.labels.shape[0] != a.shape[0]:
            raise GraphFormatError("label count must equal node count")
        bad_rows = np.flatnonzero(~np.isfinite(self.features).all(axis=1))
        if bad_rows.size:
            raise GraphFormatError(f"feature row {bad_rows[0]} holds a non-finite value")
        if (a != a.T).nnz != 0:
            raise GraphFormatError("adjacency must be symmetric")
        if a.diagonal().any():
            raise GraphFormatError("adjacency carries self-loops")
        summed = a
        if not a.has_canonical_format:  # an entry stored twice would count its edge twice
            summed = a.copy()
            summed.sum_duplicates()
        bad = np.flatnonzero(summed.data != 1)
        if bad.size:
            row = np.searchsorted(summed.indptr, bad[0], side="right") - 1
            raise GraphFormatError(f"adjacency stores a value other than 1 at ({row}, {summed.indices[bad[0]]})")
        labeled = self.labels[self.labels != UNLABELED]
        if labeled.size and (labeled.min() < 0 or labeled.max() >= self.m):
            raise GraphFormatError("labeled class id outside [0, m)")
        self.features.setflags(write=False)
        self.labels.setflags(write=False)
        object.__setattr__(self, "adj", tape.SparseConst(a))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def dense_adjacency(self) -> np.ndarray:
        """The n x n 0/1 adjacency as a `bool` array (one byte per pair),
        filled from the sparse matrix without a float64 n x n temporary."""
        return self.adjacency.astype(bool).toarray()


@dataclass(frozen=True)
class SplitMasks:
    """Disjoint train/val/test node-id sets; train nodes must be labeled."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for name in ("train", "val", "test"):
            ids = np.asarray(getattr(self, name), dtype=np.int64)
            object.__setattr__(self, name, np.sort(ids))
            getattr(self, name).setflags(write=False)
        if self.train.size == 0:
            raise GraphFormatError("train mask is empty")
        combined = np.concatenate([self.train, self.val, self.test])
        if np.unique(combined).size != combined.size:
            raise GraphFormatError("split masks overlap")

    def validate(self, g: Graph) -> None:
        combined = np.concatenate([self.train, self.val, self.test])
        if combined.size and combined.max() >= g.n:
            raise GraphRangeError("mask id outside graph")
        if np.any(g.labels[self.train] == UNLABELED):
            raise GraphFormatError("train mask contains unlabeled nodes")


@dataclass(frozen=True)
class ClassStats:
    """Per-class labeled-train counts and their min/max ratio."""

    sizes: np.ndarray
    imbalance_ratio: float = field(init=False)

    def __post_init__(self):
        sizes = np.asarray(self.sizes, dtype=np.int64)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "imbalance_ratio", float(sizes.min() / sizes.max()))


def _parse_int_pair(line: str, lineno: int, path) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise GraphFormatError(f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc


def load_graph(edge_file, feature_file, label_file) -> Graph:
    """Build a Graph from the three text files described in the module docs."""
    with open(feature_file, encoding="utf-8") as fh:
        header = fh.readline()
        parts = header.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{feature_file}:1: header must be 'n d'")
        try:
            n, d = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"{feature_file}:1: non-integer header") from exc
        if n < 0 or d < 0:
            raise GraphFormatError(f"{feature_file}:1: negative header value in {header.strip()!r}")
        features = np.zeros((n, d))
        for i in range(n):
            line = fh.readline()
            if not line:
                raise GraphFormatError(f"{feature_file}: expected {n} feature rows, got {i}")
            row = line.split()
            if d and not row:
                message = f"blank line where feature row {i + 1} of {n} was expected"
                raise GraphFormatError(f"{feature_file}:{i + 2}: {message}")
            if len(row) != d:
                raise GraphFormatError(f"{feature_file}:{i + 2}: expected {d} values, got {len(row)}")
            try:
                features[i] = [float(x) for x in row]
            except ValueError as exc:
                raise GraphFormatError(f"{feature_file}:{i + 2}: non-numeric value") from exc
        for lineno, line in enumerate(fh, start=n + 2):
            if line.strip():
                raise GraphFormatError(f"{feature_file}:{lineno}: more feature rows than the header's n = {n}")
    bad_rows = np.nonzero(~np.isfinite(features).all(axis=1))[0]
    if bad_rows.size:
        raise GraphFormatError(f"{feature_file}:{bad_rows[0] + 2}: non-finite value")

    labels = np.full(n, UNLABELED, dtype=np.int64)
    with open(label_file, encoding="utf-8") as fh:
        count = 0
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if count >= n:
                raise GraphFormatError(f"{label_file}:{lineno}: more labels than nodes")
            try:
                labels[count] = int(line)
            except ValueError as exc:
                raise GraphFormatError(f"{label_file}:{lineno}: non-integer label {line!r}") from exc
            if labels[count] < UNLABELED:
                raise GraphFormatError(f"{label_file}:{lineno}: labels must be class ids or -1, got {line}")
            count += 1
        if count != n:
            raise GraphFormatError(f"{label_file}: expected {n} labels, got {count}")
    m = int(labels.max()) + 1 if np.any(labels != UNLABELED) else 0
    missing = np.setdiff1d(np.arange(m), labels)
    if missing.size:
        raise GraphFormatError(f"{label_file}: class ids must run from 0 to {m - 1}; class {missing[0]} has no node")

    src, dst = [], []
    with open(edge_file, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            u, v = _parse_int_pair(stripped, lineno, edge_file)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise GraphRangeError(f"{edge_file}:{lineno}: node id outside [0, {n})")
            if u == v:
                continue
            src.append(u)
            dst.append(v)

    adj = edges_to_adjacency(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64), n)
    return Graph(adjacency=adj, features=features, labels=labels, m=m)


def edges_to_adjacency(src: np.ndarray, dst: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency from an edge list; duplicates collapse."""
    # one int64 key per pair sorts and collapses the (lo, hi) pairs
    key = np.unique(np.minimum(src, dst).astype(np.int64) * n + np.maximum(src, dst))
    return _pairs_to_adjacency(*np.divmod(key, n), n)


def _pairs_to_adjacency(lo: np.ndarray, hi: np.ndarray, n: int) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency from distinct pairs with lo < hi."""
    if lo.size == 0:
        return sp.csr_matrix((n, n))
    r = np.concatenate([lo, hi])
    c = np.concatenate([hi, lo])
    return sp.csr_matrix((np.ones(r.size), (r, c)), shape=(n, n))


def imbalance_ratio(g: Graph, masks: SplitMasks) -> ClassStats:
    """Labeled-train class sizes and min/max ratio; every class must appear."""
    masks.validate(g)
    train_labels = g.labels[masks.train]
    sizes = np.bincount(train_labels, minlength=g.m)
    empty = np.nonzero(sizes == 0)[0]
    if empty.size:
        raise GraphFormatError(f"class {int(empty[0])} has no labeled train nodes")
    return ClassStats(sizes=sizes)


# The builders' graph-free preconditions, keyed by ExperimentSpec field so a
# spec can check its values at load time. Private: builders call no public function.


def _check_val_frac(val_frac: float) -> None:
    if not 0.0 <= val_frac < 1.0:
        raise ConfigError("val_frac", "val_frac must lie in [0, 1)")


def _check_artificial(ratio: float, majority_train_size: int, val_frac: float) -> None:
    if not 0.0 < ratio <= 1.0:
        raise ConfigError("ratio", "ratio must be in (0, 1]")
    if round(majority_train_size * ratio) < 1:  # the train nodes of each minority class
        message = "round(majority_train_size * ratio) must be >= 1"
        raise ConfigError("ratio", message, related=("majority_train_size",))
    _check_val_frac(val_frac)


def _check_proportional(train_frac: float, val_frac: float) -> None:
    if not 0.0 < train_frac < 1.0:
        raise ConfigError("train_frac", "train_frac must lie in (0, 1)")
    _check_val_frac(val_frac)
    if train_frac + val_frac >= 1.0:
        message = "train_frac + val_frac must be < 1 for a proportional split"
        raise ConfigError("val_frac", message, related=("train_frac",))


def _check_sbm(sizes, p_in: float, p_out: float, d: int, seed: int, mean_scale: float, noise: float) -> None:
    if len(sizes) == 0 or min(sizes) < 1:
        raise ConfigError("sbm_sizes", "sbm_sizes must list at least one class size, each >= 1")
    if not 0.0 < p_in <= 1.0:
        raise ConfigError("sbm_p_in", "sbm_p_in must be in (0, 1]")
    if not 0.0 <= p_out < p_in:
        raise ConfigError("sbm_p_out", "sbm_p_out must be in [0, sbm_p_in)", related=("sbm_p_in",))
    if d < 1:
        raise ConfigError("sbm_dim", "sbm_dim must be >= 1")
    if seed < 0:
        raise ConfigError("data_seed", "data_seed must be >= 0")
    for key, value in (("sbm_mean_scale", mean_scale), ("sbm_noise", noise)):
        if not 0.0 <= value < np.inf:
            raise ConfigError(key, f"{key} must be finite and >= 0")


def make_artificial_imbalance(
    g: Graph,
    minority_classes,
    ratio: float,
    majority_train_size: int,
    seed: int,
    val_frac: float = 0.25,
) -> SplitMasks:
    """Down-sample the chosen minority classes to build an imbalanced train
    set: majority classes get `majority_train_size` train nodes, minority
    classes get round(majority_train_size * ratio). Remaining labeled nodes
    split into val/test by `val_frac` (default 25%/75%). Pure function of
    (graph, arguments, seed).
    """
    _check_artificial(ratio, majority_train_size, val_frac)
    minority = set(int(c) for c in minority_classes)
    outside = sorted(c for c in minority if not 0 <= c < g.m)
    if outside:
        raise ConfigError("minority_count", f"minority class {outside[0]} outside [0, {g.m})")
    per_minority = int(round(majority_train_size * ratio))
    rng = np.random.default_rng(seed)
    train: list[np.ndarray] = []
    rest: list[np.ndarray] = []
    for c in range(g.m):
        pool = np.nonzero(g.labels == c)[0]
        want = per_minority if c in minority else majority_train_size
        if pool.size < want:
            raise ConfigError("majority_train_size", f"class {c} has {pool.size} labeled nodes, needs {want}")
        chosen = rng.choice(pool, size=want, replace=False)
        train.append(chosen)
        rest.append(np.setdiff1d(pool, chosen))
    leftover = np.concatenate(rest)
    rng.shuffle(leftover)
    n_val = int(round(val_frac * leftover.size))
    return SplitMasks(
        train=np.concatenate(train),
        val=leftover[:n_val],
        test=leftover[n_val:],
    )


def make_proportional_split(
    g: Graph,
    train_frac: float = 0.25,
    val_frac: float = 0.25,
    seed: int = 0,
) -> SplitMasks:
    """Per-class random split by fractions (genuinely imbalanced datasets
    keep their class proportions; at least one train node per class)."""
    _check_proportional(train_frac, val_frac)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for c in range(g.m):
        pool = np.nonzero(g.labels == c)[0]
        if pool.size == 0:
            continue
        perm = rng.permutation(pool)
        n_train = max(1, int(round(train_frac * pool.size)))
        n_val = int(round(val_frac * pool.size))
        train.append(perm[:n_train])
        val.append(perm[n_train : n_train + n_val])
        test.append(perm[n_train + n_val :])
    return SplitMasks(
        train=np.concatenate(train),
        val=np.concatenate(val) if val else np.array([], dtype=np.int64),
        test=np.concatenate(test) if test else np.array([], dtype=np.int64),
    )


def generate_sbm_graph(
    class_sizes,
    p_in: float,
    p_out: float,
    d: int,
    seed: int,
    mean_scale: float = 1.0,
    feature_noise: float = 1.0,
) -> Graph:
    """Stochastic-block-model graph with separable Gaussian features.

    Every node is labeled with its block. Features are the block mean (a
    seeded Gaussian vector scaled by `mean_scale`) plus isotropic noise.

    Pair (i, j), i < j, is an edge when the uniform draw at row i, column j
    of one row-major n x n stream falls below `p_in` (same block) or
    `p_out`. The rows are drawn a chunk at a time, never past a block
    boundary, so memory is O(chunk * n + edges), not O(n^2); the stream,
    and so the graph for a given seed, is the same as in earlier releases,
    which drew the whole n x n matrix at once.
    """
    _check_sbm(class_sizes, p_in, p_out, d, seed, mean_scale, feature_noise)
    sizes = np.asarray(class_sizes, dtype=np.int64)
    rng = np.random.default_rng(seed)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(sizes.size), sizes).astype(np.int64)

    bounds = np.concatenate([[0], np.cumsum(sizes)])
    src, dst = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for start in range(lo, hi, _SBM_ROW_CHUNK):
            stop = min(start + _SBM_ROW_CHUNK, hi)
            # the columns right of the chunk's first row; the first `same` share its block
            u = rng.random((stop - start, n))[:, start + 1 :]
            same = hi - start - 1
            hit = u < p_out
            hit[:, :same] = u[:, :same] < p_in
            rows, cols = np.divmod(np.flatnonzero(hit), u.shape[1])
            upper = cols >= rows
            src.append(rows[upper] + start)
            dst.append(cols[upper] + start + 1)
    adj = _pairs_to_adjacency(np.concatenate(src), np.concatenate(dst), n)

    means = rng.normal(size=(sizes.size, d)) * mean_scale
    features = means[labels] + rng.normal(size=(n, d)) * feature_noise
    return Graph(adjacency=adj, features=features, labels=labels, m=int(sizes.size))


def save_graph(g: Graph, edge_file, feature_file, label_file) -> None:
    """Write a Graph back out in the package's text formats."""
    coo = sp.triu(g.adjacency, k=1).tocoo()
    with open(edge_file, "w", encoding="utf-8") as fh:
        for u, v in zip(coo.row, coo.col):
            fh.write(f"{u}\t{v}\n")
    with open(feature_file, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.d}\n")
        for row in g.features:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")
    with open(label_file, "w", encoding="utf-8") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
