"""End-to-end training: variant dispatch, edge-task pretraining, the joint
objective, and convergence control.

Variants
--------
origin          plain two-block pipeline on the real graph
oversample_dup  graph rebuilt once with duplicated minority nodes
reweight        per-class loss weights |train| / (m * |C_c|)
raw_smote       graph rebuilt once with raw-feature interpolation
embed_smote     interpolation at the second-block embedding, no edges
gs_t / gs_o     latent oversampling with thresholded / soft generated edges
gs_pre_t/_o     same, preceded by pretraining encoder + edge generator on
                the reconstruction loss alone

Per epoch the gs variants re-encode, draw synthetic nodes from the
current embedding (and, for thresholded edges, their generated edges),
then optimize node_loss + lambda * edge_loss as a pure function of the
parameters and that draw; the gradient check differentiates the same
objective with the draw pinned. With thresholded edges the generator
receives gradient only through the (lambda-scaled) reconstruction term;
with soft edges the classifier gradient also reaches it.

Randomness: a run's seed spawns two child generators, in order, (0) the
parameter init stream and (1) the sampling stream used by graph rebuilds
and the per-epoch synthetic draws. Identical (config, seed) therefore
reproduce the run bit-for-bit.

Convergence: pretraining and joint training run one descent loop,
`_Trainer.descend`, which keeps the best-scoring snapshot and stops on a
patience window. Pretraining scores an epoch by its negated loss, joint
training by validation macro-F (an empty validation mask falls back to
monitoring the train mask); the parameters reported are the snapshot from
the best epoch. Evaluation runs
without the per-epoch synthetic nodes, which exist to shape gradients, not
predictions: on the real graph, or for oversample_dup and raw_smote on
their rebuilt graph, whose rows for the input graph's nodes are reported.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import classifier, edgegen, encoder, kernels, tape
from .errors import ConfigError, DenseCapError, NonFiniteError, TrainingDiverged
from .graph import Graph, SplitMasks, imbalance_ratio
from .metrics import MetricsReport, full_report
from .optim import ParamStore, adam_step, glorot
from .oversample import (
    SamplingPlan,
    SyntheticBatch,
    _check_scale,
    baseline_duplicate,
    baseline_raw_smote,
    class_pools,
    plan_from_scale,
    reweight_vector,
    smote_interpolate,
)

VARIANTS = (
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
GS_VARIANTS = ("gs_t", "gs_o", "gs_pre_t", "gs_pre_o")
SOFT_VARIANTS = ("gs_o", "gs_pre_o")
PRETRAIN_VARIANTS = ("gs_pre_t", "gs_pre_o")
_DIVERGENCE_CAP = 1e9


@dataclass
class TrainConfig:
    variant: str = "origin"
    lambda_: float = 1e-6
    eta: float = 0.5
    lr: float = 1e-3
    weight_decay: float = 5e-4
    max_epochs: int = 5000
    patience: int = 200
    pretrain_max_epochs: int = 500
    pretrain_patience: int = 30
    scale: float | str = 2.0
    seed: int = 0
    embed_dim: int = 64
    hidden_dim: int = 64
    synth_log: str | None = None

    def validate(self) -> None:
        """Raise ConfigError naming the first field out of range."""
        if self.variant not in VARIANTS:
            raise ConfigError("variant", f"unknown variant {self.variant!r}; choose from {VARIANTS}")
        if not self.lr > 0:
            raise ConfigError("lr", "lr must be > 0")
        for key in ("lambda_", "weight_decay", "patience", "pretrain_max_epochs", "pretrain_patience"):
            if not getattr(self, key) >= 0:
                raise ConfigError(key, f"{key} must be >= 0")
        for key in ("lr", "lambda_", "weight_decay"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(key, f"{key} must be finite")
        for key in ("max_epochs", "embed_dim", "hidden_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(key, f"{key} must be >= 1")
        edgegen._check_eta(self.eta)
        _check_scale(self.scale)


@dataclass
class EpochStats:
    epoch: int
    node_loss: float
    edge_loss: float
    total_loss: float
    val_acc: float
    val_auc: float
    val_f: float


@dataclass
class RunRecord:
    variant: str
    seed: int
    config: dict
    pretrain_losses: list[float] = field(default_factory=list)
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    stop_reason: str = "max_epochs"  # or "patience"; "diverged" or "error" for a run that raised
    error: str | None = None  # what a run that raised raised
    minority_classes: list[int] | None = None
    wall_time: float = 0.0
    report: MetricsReport | None = None
    # class probabilities of the input graph's nodes that `report` scored
    probs: np.ndarray | None = field(default=None, compare=False, repr=False)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            head = {
                "type": "run",
                "variant": self.variant,
                "seed": self.seed,
                "config": self.config,
                "best_epoch": self.best_epoch,
                "minority_classes": self.minority_classes,
                "wall_time": self.wall_time,
                "pretrain_epochs": len(self.pretrain_losses),
                "pretrain_losses": self.pretrain_losses,
                "stop_reason": self.stop_reason,
            }
            if self.error is not None:
                head["error"] = self.error
            if self.report is not None:
                head["test"] = {
                    "acc": self.report.acc,
                    "auc_macro": self.report.auc_macro,
                    "f_macro": self.report.f_macro,
                }
            fh.write(json.dumps(head) + "\n")
            for e in self.epochs:
                fh.write(json.dumps(asdict(e)) + "\n")


def init_params(
    d: int,
    embed_dim: int,
    hidden_dim: int,
    m: int,
    rng: np.random.Generator,
    with_edge_generator: bool,
) -> ParamStore:
    """Seeded uniform init; the draw order (W1, W2, Wc, S) is fixed."""
    store = ParamStore()
    store.add("W1", glorot(2 * d, embed_dim, rng))
    store.add("W2", glorot(2 * embed_dim, hidden_dim, rng))
    store.add("Wc", glorot(2 * hidden_dim, m, rng))
    if with_edge_generator:
        store.add("S", glorot(embed_dim, embed_dim, rng))
    return store


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:  # sysconf answers -1 for a count it cannot tell
        return max(os.sysconf("SC_PHYS_PAGES"), 0) * os.sysconf("SC_PAGE_SIZE") or None
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


class _Trainer:
    """Per-run state shared by the epoch objective and the loops.

    Training, the gradient check and the tests build an epoch in the same
    three steps: `embed()`, then `draw_epoch(h)` on the embedding that
    oversampling draws from, then `objective(h1, h, draw)`."""

    def __init__(self, g: Graph, masks: SplitMasks, cfg: TrainConfig):
        cfg.validate()
        masks.validate(g)
        self.cfg = cfg
        init_seed, sample_seed = np.random.SeedSequence(cfg.seed).spawn(2)
        self.init_rng = np.random.default_rng(init_seed)
        self.sample_rng = np.random.default_rng(sample_seed)

        baseline = {"oversample_dup": baseline_duplicate, "raw_smote": baseline_raw_smote}.get(cfg.variant)
        if baseline is not None:
            plan0 = plan_from_scale(imbalance_ratio(g, masks), cfg.scale)
            g, masks = baseline(g, masks, plan0, self.sample_rng)
        self.g = g
        self.masks = masks
        self.stats = imbalance_ratio(g, masks)
        self.weights = reweight_vector(self.stats) if cfg.variant == "reweight" else None
        gs = cfg.variant in GS_VARIANTS
        self.params = init_params(g.d, cfg.embed_dim, cfg.hidden_dim, g.m, self.init_rng, gs)
        # a run takes the edge loss in its joint epochs, its pretraining, or both
        self.joint_edge_loss = gs and cfg.lambda_ > 0
        self.pretrains = cfg.variant in PRETRAIN_VARIANTS and cfg.pretrain_max_epochs > 0
        # the edge loss's target, the packed positions of the adjacency's ones,
        # and its n x n float64 scores buffer, made once by a run that takes the
        # loss and reused by every edge loss; np.empty maps all 8 n^2 bytes at once
        self.target = self.scores = None
        if self.joint_edge_loss or self.pretrains:
            memory, buffer = _physical_memory(), 8 * g.n**2
            if memory is not None and buffer > memory:
                raise DenseCapError(
                    f"{g.n} nodes need an n x n float64 edge-loss buffer of {buffer / 1e6:.0f} MB, "
                    f"more than the {memory / 1e6:.0f} MB of physical memory"
                )
            self.target = kernels._packed_ones(g.dense_adjacency())
            self.scores = np.empty((g.n, g.n))
        self.enc_in = encoder.build_input(g)
        self.pretrain_losses: list[float] = []  # `pretrain`'s epoch losses, appended as they come
        self.plan: SamplingPlan | None = None
        if cfg.variant in GS_VARIANTS or cfg.variant == "embed_smote":
            self.plan = plan_from_scale(self.stats, cfg.scale)
        self.pools = class_pools(g.labels, masks.train, g.m)

    # -- objective ---------------------------------------------------------

    def encode(self) -> tape.Mat:
        """The encoder output h1 on the real graph."""
        return encoder.encode_from_input(self.enc_in, self.params)

    def edge_loss(self, h1: tape.Mat, s_sym: tape.Mat) -> tape.Mat:
        """The all-pairs reconstruction loss of the real adjacency from `h1`
        and `s_sym`, on the run's one scores buffer: its backward must run
        before the next edge loss's forward, as each epoch's does."""
        if self.target is None:
            cfg = self.cfg
            raise ConfigError(
                "lambda_",
                f"a {cfg.variant} run with lambda_ = {cfg.lambda_} and pretrain_max_epochs = "
                f"{cfg.pretrain_max_epochs} takes no edge loss and holds no target for it",
                ("variant", "pretrain_max_epochs"),
            )
        return edgegen.edge_loss(h1, s_sym, self.target, self.scores)

    def embed(self) -> tuple[tape.Mat, tape.Mat]:
        """Step 1: the encoder output h1 and the embedding h that
        oversampling draws from: h1 itself, or for embed_smote the second
        block on the real graph."""
        h1 = self.encode()
        if self.cfg.variant != "embed_smote":
            return h1, h1
        return h1, classifier.hidden_embed(edgegen.AugmentedGraph(self.g, h1), self.params)

    def draw_epoch(self, h: tape.Mat) -> SyntheticBatch | None:
        """Step 2: sample one epoch's synthetic nodes from `h`, consuming
        the sampling stream; for the thresholded variants the batch also
        carries its binary synthetic-real edges, scored on constant copies
        of `h` and `S`. Nothing here is on the tape. Variants without
        per-epoch oversampling draw nothing (None)."""
        if self.plan is None:
            return None
        batch = smote_interpolate(h, self.plan, self.pools, self.sample_rng)
        if self.cfg.variant in ("gs_t", "gs_pre_t"):
            return edgegen.augment_thresholded(h, self.params["S"], batch, self.cfg.eta)
        return batch

    def objective(self, h1: tape.Mat, h: tape.Mat, draw: SyntheticBatch | None):
        """Step 3: one epoch's loss, a pure function of the parameters
        (through `h1` and `h` from `embed`) and the draw. Returns (loss,
        node_loss_value, edge_loss_value, logits) with the class logits
        covering real then synthetic rows.

        Every variant takes the node loss on one augmented graph: `h` plus
        the draw's rows, interpolated from `h` once by the graph, wired in
        by the draw's thresholded edges, by soft scores, or not at all. The
        gs variants add lambda times the edge loss; it and the soft scores
        share one `S_sym`. embed_smote interpolates at the second-block
        embedding, so it runs only the head: its synthetic rows have no
        edges, so their aggregate is zero and their logits take only the
        self half of the head, Wc[:k]."""
        cfg = self.cfg
        soft = cfg.variant in SOFT_VARIANTS and draw.labels.size > 0
        s_sym = edgegen.symmetric_interaction(self.params["S"]) if soft or self.joint_edge_loss else None
        aug = edgegen.augment_soft(h, s_sym, draw, self.g) if soft else edgegen.AugmentedGraph(self.g, h, draw)
        edge_term = self.edge_loss(h1, s_sym) if self.joint_edge_loss else None
        if cfg.variant == "embed_smote":
            logits = classifier.class_logits(aug, aug.x, self.params)
        else:
            logits = classifier.classify(aug, self.params)
        node_term = classifier.node_loss(logits, aug.labels, aug.train_ids(self.masks.train), self.weights)
        loss = node_term if edge_term is None else tape.add(node_term, tape.mul_scalar(edge_term, cfg.lambda_))
        return loss, node_term.item(), (edge_term.item() if edge_term is not None else 0.0), logits

    # -- evaluation --------------------------------------------------------

    def eval_probs(self, h1_values: np.ndarray) -> np.ndarray:
        """Class probabilities of an inference pass on the real graph only, off the tape."""
        aug = edgegen.AugmentedGraph(self.g, tape.const(h1_values))
        return classifier.softmax(classifier.classify(aug, self.params).value)

    # -- descent -----------------------------------------------------------

    def descend(self, epochs: int, patience: int, step, names=None, phase: str = "epoch") -> tuple[int, bool]:
        """Adam descent on the parameters `names` (None: all) for at most
        `epochs` epochs. `step(epoch)` runs one forward pass and returns
        (loss, score of the parameters that produced it); a strictly better
        score is snapshotted, and the best snapshot is restored at the end.
        Stops once the score has not improved for `patience` epochs (0: after
        one epoch). A step's `NonFiniteError` is raised as `TrainingDiverged`
        naming `phase` and the epoch. Returns (best epoch, stopped by patience)."""
        best_score, best_epoch, bad, stopped = -np.inf, -1, 0, False
        best_snap = self.params.snapshot()
        for epoch in range(epochs):
            try:
                loss, score = step(epoch)
            except NonFiniteError as exc:
                raise TrainingDiverged(f"{phase} {epoch}: {exc}") from exc
            if score > best_score:
                best_score, best_epoch, bad = score, epoch, 0
                best_snap = self.params.snapshot()  # params that produced this loss
            else:
                bad += 1
            tape.backward(loss)
            adam_step(self.params, lr=self.cfg.lr, weight_decay=self.cfg.weight_decay, names=names)
            del loss  # the epoch's tape, freed before the next forward
            if bad >= patience:
                stopped = True
                break
        self.params.restore(best_snap)
        return best_epoch, stopped


def pretrain(t: _Trainer) -> list[float]:
    """Optimize encoder + edge generator on the reconstruction loss alone,
    scoring each epoch by its negated loss: up to `pretrain_max_epochs`
    epochs with patience `pretrain_patience`. Appends each epoch's loss to
    `t.pretrain_losses` as it comes, and returns that list."""
    losses = t.pretrain_losses

    def step(epoch):
        loss = t.edge_loss(t.encode(), edgegen.symmetric_interaction(t.params["S"]))
        losses.append(loss.item())
        return loss, -losses[-1]

    t.descend(t.cfg.pretrain_max_epochs, t.cfg.pretrain_patience, step, ("W1", "S"), "pretrain epoch")
    return losses


def train(g: Graph, masks: SplitMasks, cfg: TrainConfig) -> tuple[ParamStore, RunRecord]:
    """Run one variant to convergence and evaluate the best checkpoint on
    the test ids, which must not be empty. The run holds one helper thread
    (`kernels._helping`), joined before it returns or raises. Every error it
    raises carries the run's partial `RunRecord` as `record`: the epochs run
    so far, `stop_reason` "diverged" for `TrainingDiverged` or else "error",
    and the error's type and message as `error`."""
    started = time.perf_counter()
    record = RunRecord(variant=cfg.variant, seed=cfg.seed, config=asdict(cfg))
    try:
        with kernels._helping():
            params = _run(g, masks, cfg, record)
    except Exception as exc:
        record.stop_reason = "diverged" if isinstance(exc, TrainingDiverged) else "error"
        record.error = f"{type(exc).__name__}: {exc}"
        record.wall_time = time.perf_counter() - started
        exc.record = record
        raise
    record.wall_time = time.perf_counter() - started
    return params, record


def _run(g: Graph, masks: SplitMasks, cfg: TrainConfig, record: RunRecord) -> ParamStore:
    """`train`'s run, filling `record` epoch by epoch; returns the parameters."""
    if masks.test.size == 0:
        raise ConfigError("test", "the split has no test ids to report metrics on")
    t = _Trainer(g, masks, cfg)

    if t.pretrains:
        record.pretrain_losses = t.pretrain_losses  # the same list: a run that raises keeps its finished epochs
        pretrain(t)
        if not t.joint_edge_loss:
            t.target = t.scores = None  # the joint epochs take no edge loss: free its target and buffer

    monitor_ids = t.masks.val if t.masks.val.size else t.masks.train
    synth_fh = None
    if cfg.synth_log:
        synth_fh = open(cfg.synth_log, "w", encoding="utf-8")
        synth_fh.write("epoch,class,v,nn,delta\n")

    def step(epoch):
        h1, h = t.embed()
        draw = t.draw_epoch(h)
        loss, node_value, edge_value, logits = t.objective(h1, h, draw)
        total = loss.item()
        if not np.isfinite(total) or abs(total) > _DIVERGENCE_CAP:
            raise TrainingDiverged(f"epoch {epoch}: loss {total}")
        if synth_fh is not None and draw is not None:
            for c, (v, nn), delta in zip(draw.labels, draw.parents, draw.deltas):
                synth_fh.write(f"{epoch},{c},{v},{nn},{float(delta)!r}\n")

        if cfg.variant in GS_VARIANTS:
            eval_probs = t.eval_probs(h1.value)
        else:
            eval_probs = classifier.softmax(logits.value[: t.g.n])
        val = full_report(eval_probs, t.g.labels, monitor_ids, num_classes=t.g.m)
        record.epochs.append(EpochStats(epoch, node_value, edge_value, total, val.acc, val.auc_macro, val.f_macro))
        return loss, val.f_macro

    try:
        record.best_epoch, stopped = t.descend(cfg.max_epochs, cfg.patience, step)
    finally:
        if synth_fh is not None:
            synth_fh.close()
    record.stop_reason = "patience" if stopped else "max_epochs"

    probs = t.eval_probs(t.encode().value)
    record.report = full_report(probs, t.g.labels, t.masks.test, num_classes=t.g.m)
    record.probs = probs[: g.n]
    return t.params


# ---------------------------------------------------------------------------
# gradient checking of the full per-variant objectives
# ---------------------------------------------------------------------------


# the gradient check's instance: a small dense block model, and the
# tolerances and central-difference step every variant is held to
GRADCHECK_SIZES = (3, 3, 2)
GRADCHECK_DIM = 4
GRADCHECK_EMBED_DIM = 5
GRADCHECK_HIDDEN_DIM = 4
GRADCHECK_LAMBDA = 1e-2
GRADCHECK_RTOL = 1e-4
GRADCHECK_ATOL = 1e-6
GRADCHECK_STEP = 1e-4
GRADCHECK_MAX_REDRAWS = 8


def _gradcheck_instance(variant: str, seed: int):
    """A trainer and its first epoch's draw for one variant objective."""
    from .graph import generate_sbm_graph

    g = generate_sbm_graph(GRADCHECK_SIZES, p_in=0.9, p_out=0.3, d=GRADCHECK_DIM, seed=seed)
    masks = SplitMasks(
        train=np.arange(g.n, dtype=np.int64),
        val=np.array([], dtype=np.int64),
        test=np.array([], dtype=np.int64),
    )
    cfg = TrainConfig(
        variant=variant,
        lambda_=GRADCHECK_LAMBDA,
        scale=1.0,
        seed=seed,
        embed_dim=GRADCHECK_EMBED_DIM,
        hidden_dim=GRADCHECK_HIDDEN_DIM,
        max_epochs=1,
    )
    t = _Trainer(g, masks, cfg)
    return t, t.draw_epoch(t.embed()[1])


def gradcheck_variants(seed: int = 0) -> dict[str, float]:
    """Compare analytic gradients of every variant's full objective against
    central finite differences on a small random graph.

    Returns the per-variant maximum tolerance violation; values <= 0 pass.
    The objective is the one training runs, with the epoch's draw pinned so
    it is a smooth function of the parameters. Central differences are
    meaningless when a relu input sits within the step of zero, so instances
    whose activations come that close are redrawn (a property of the random
    instance, checked before any comparison).
    """

    def loss():
        return t.objective(*t.embed(), draw)[0]

    out: dict[str, float] = {}
    for variant in VARIANTS:
        t = draw = None
        for redraw in range(GRADCHECK_MAX_REDRAWS):
            t, draw = _gradcheck_instance(variant, seed + 101 * redraw)
            with tape.track_kinks() as tracker:
                loss()
            if tracker[0] > 20.0 * GRADCHECK_STEP:
                break

        t.params.zero_grads()
        tape.backward(loss())
        analytic = {name: t.params[name].grad.copy() for name in t.params.names()}

        worst = -np.inf
        for name in t.params.names():
            numeric = tape.fd_gradient(lambda: loss().item(), t.params[name], step=GRADCHECK_STEP)
            worst = max(worst, tape.grad_max_violation(analytic[name], numeric, GRADCHECK_RTOL, GRADCHECK_ATOL))
        out[variant] = worst
    return out
