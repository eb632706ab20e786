"""The three training workloads and the spans each must or must not fire.

All three use the configuration of the acceptance suite's criterion-5 trend
fixture: a proportional 25/25/50 split, ``scale=balance``, ``lambda=1e-6``
and ``eta=0.005``. Early stopping is off (both patience values equal the
epoch caps), so every commit trains exactly the same number of epochs.

Each workload has one graph, generated with ``DATA_SEED``; the workload seed
draws the split and seeds the training runs. Block-model graphs from
different seeds differ in how far apart the class means lie, which moved
test macro-F of the short sbm3k_edge runs by about a quarter from seed to
seed; on one graph it moves by about a tenth.

Why these three:

fixture_grid  What users actually run: a grid of short runs over all nine
              variants on the 620-node fixture graph, through
              ``cli.run_experiment`` with its output writes. Sparse
              aggregation dominates; the only workload that reaches ``cli``
              and every variant's code path.
sbm3k_edge    The ~3.1k-node graph (same mean degree) with ``gs_pre_o`` and
              ``gs_t``: the all-pairs edge loss and its backward pass
              dominate, and memory grows as n^2. Covers soft and thresholded
              augmentation and pretraining.
sbm3k_sparse  The same graph read back from files through ``load_graph``,
              with the five variants that have no edge generator:
              aggregation dominates at a large working set. The bypass
              workload for any edge-loss change, and the only one that reads
              a dataset from disk.

Standard library only at import time (imported before the timed
``import imbnode``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

DATA_SEED = 0

# spans every workload fires
COMMON_SPANS = (
    "train.train",
    "encoder.build_input",
    "kernels.csr_dense_matmul",
    "classifier.classify",
    "classifier.node_loss",
    "tape.backward",
    "optim.adam_step",
    "optim.snapshot",
    "metrics.full_report",
    "oversample.smote_interpolate",
    "kernels.nearest_same_class_ids",
)
EDGE_SPANS = (
    "edgegen.edge_loss",
    "kernels.sigmoid_sqdiff",
    "kernels.sigmoid_sqdiff_grad",
    "graph.dense_adjacency",
    "train.pretrain",
    "edgegen.augment_thresholded",
    "edgegen.augment_soft",
    "edgegen.score_matrix",
    "edgegen.symmetric_interaction",
    "tape.backward.nxn",
)
BASELINE_SPANS = (
    "oversample.baseline_duplicate",
    "oversample.baseline_raw_smote",
    "oversample.nearest_same_class",
)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: tuple
    p_in: float
    p_out: float
    variants: tuple
    epochs: int
    pretrain_epochs: int
    # wall seconds of one repetition when this file was written, on a 2-vCPU x86 VM;
    # sets how many repetitions fill a run of --seconds
    rep_seconds: float
    must_fire: tuple
    must_not_fire: tuple
    grid: bool = False  # train through cli.run_experiment, else train.train per variant
    from_files: bool = False  # graph written to files untimed, loaded in set-up
    # variants trained by repetitions after the first; empty means all
    repeat_variants: tuple = ()

    def repetitions(self, seconds: float) -> list[tuple]:
        """Variants per repetition of a timed run: enough repetitions to fill
        ``seconds`` at the nominal cost, at least two so that runs repeat."""
        count = max(2, int(seconds // self.rep_seconds))
        return [self.variants] + [self.repeat_variants or self.variants] * (count - 1)

    def spec(self, seed: int, data_dir):
        """The ExperimentSpec whose split and runs use ``seed``; imports
        imbnode."""
        from imbnode.cli import ExperimentSpec
        from imbnode.train import TrainConfig

        train = TrainConfig(
            scale="balance",
            lambda_=1e-6,
            eta=0.005,
            max_epochs=self.epochs,
            patience=self.epochs,
            pretrain_max_epochs=self.pretrain_epochs,
            pretrain_patience=self.pretrain_epochs,
        )
        spec = ExperimentSpec(
            sbm_sizes=list(self.sizes),
            sbm_p_in=self.p_in,
            sbm_p_out=self.p_out,
            sbm_dim=16,
            data_seed=DATA_SEED,
            protocol="proportional",
            train_frac=0.25,
            val_frac=0.25,
            variants=list(self.variants),
            seeds=[seed],
            workers=1,
            train=train,
        )
        if self.from_files:
            spec = replace(
                spec,
                sbm_sizes=[],
                edge_file=str(data_dir / "edges.tsv"),
                feature_file=str(data_dir / "features.txt"),
                label_file=str(data_dir / "labels.txt"),
            )
        return spec


FIXTURE_SIZES = (200, 200, 200, 20)
SBM3K_SIZES = (1000, 1000, 1000, 100)
ALL_VARIANTS = (
    "origin",
    "oversample_dup",
    "reweight",
    "raw_smote",
    "embed_smote",
    "gs_t",
    "gs_o",
    "gs_pre_t",
    "gs_pre_o",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture_grid",
            sizes=FIXTURE_SIZES,
            p_in=0.05,
            p_out=0.005,
            variants=ALL_VARIANTS,
            epochs=30,
            pretrain_epochs=10,
            rep_seconds=12.0,
            must_fire=COMMON_SPANS
            + EDGE_SPANS
            + BASELINE_SPANS
            + ("cli.run_experiment", "graph.generate_sbm_graph"),
            must_not_fire=("graph.load_graph",),
            grid=True,
        ),
        Workload(
            name="sbm3k_edge",
            sizes=SBM3K_SIZES,
            p_in=0.01,
            p_out=0.001,
            variants=("gs_pre_o", "gs_t"),
            epochs=20,
            pretrain_epochs=4,
            rep_seconds=32.0,
            # F after fewer epochs swings with the seed; the repeat of gs_t
            # alone keeps the run inside its time budget
            repeat_variants=("gs_t",),
            must_fire=COMMON_SPANS + EDGE_SPANS + ("graph.generate_sbm_graph",),
            must_not_fire=BASELINE_SPANS + ("graph.load_graph", "cli.run_experiment"),
        ),
        Workload(
            name="sbm3k_sparse",
            sizes=SBM3K_SIZES,
            p_in=0.01,
            p_out=0.001,
            variants=("origin", "reweight", "oversample_dup", "raw_smote", "embed_smote"),
            epochs=14,
            pretrain_epochs=0,
            rep_seconds=12.5,
            must_fire=COMMON_SPANS + BASELINE_SPANS + ("graph.load_graph",),
            # every edge-generation span; edgegen.real_only only wraps the real graph
            must_not_fire=EDGE_SPANS
            + ("edgegen.edge_score", "graph.generate_sbm_graph", "cli.run_experiment"),
            from_files=True,
        ),
    )
}


# Work counts taken from each call's arguments or result ("computed", not
# measured by hardware counters).


def _csr_counts(result, indptr, indices, data, x):
    nnz, rows, k = len(indices), len(indptr) - 1, x.shape[1]
    # one multiply-add per stored entry and column; bytes: the CSR arrays,
    # the gathered rows of x and the output, 8 bytes per element
    return {"flops": 2 * nnz * k, "bytes": 8 * (rows + 1 + 2 * nnz + nnz * k + rows * k)}


def _elems(result, scores, *args, **kwargs):
    return {"elems": scores.size}


def _pairs(result, h, candidates, queries):
    return {"pairs": len(candidates) * len(queries)}


def _synthetic(result, *args, **kwargs):
    return {"synthetic_nodes": result.labels.size}


def _bytes(result, *args, **kwargs):
    return {"bytes": result.nbytes}


COUNTS = {
    "kernels.csr_dense_matmul": _csr_counts,
    "kernels.sigmoid_sqdiff": _elems,
    "kernels.nearest_same_class_ids": _pairs,
    "oversample.smote_interpolate": _synthetic,
    "graph.dense_adjacency": _bytes,
}
