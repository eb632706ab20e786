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

Convergence: early stopping on validation macro-F with a patience window
(an empty validation mask falls back to monitoring the train mask); the
parameters reported are the snapshot from the best epoch. Evaluation runs
without the per-epoch synthetic nodes, which exist to shape gradients, not
predictions: on the real graph, or for oversample_dup and raw_smote on
their rebuilt graph, whose rows for the input graph's nodes are reported.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import classifier, edgegen, encoder, tape
from .errors import ConfigError, NonFiniteError, TrainingDiverged
from .graph import Graph, SplitMasks, imbalance_ratio
from .metrics import MetricsReport, aggregate_reports, full_report
from .optim import ParamStore, adam_step, glorot
from .oversample import (
    SamplingPlan,
    SyntheticBatch,
    baseline_duplicate,
    baseline_raw_smote,
    class_pools,
    interpolate_rows,
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
    agg: str = "mean"
    embed_dim: int = 64
    hidden_dim: int = 64
    edge_dense_cap: int = 5000
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
        for key in ("max_epochs", "embed_dim", "hidden_dim"):
            if getattr(self, key) < 1:
                raise ConfigError(key, f"{key} must be >= 1")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError("eta", "eta must lie in [0, 1]")
        if self.scale != "balance" and (isinstance(self.scale, str) or not self.scale >= 0):
            raise ConfigError("scale", "scale must be 'balance' or a number >= 0")
        if self.agg not in ("mean", "sum"):
            raise ConfigError("agg", "agg must be 'mean' or 'sum'")


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
    stop_reason: str = "max_epochs"  # or "patience"
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


@dataclass
class EpochDraw:
    """One epoch's sampling decisions: per synthetic node its class, seed,
    neighbour and delta, plus the binary synthetic-real edges for the
    thresholded variants. Given the draw, the epoch objective is a
    deterministic function of the parameters."""

    seeds: np.ndarray
    nns: np.ndarray
    deltas: np.ndarray
    labels: np.ndarray
    b_mask: np.ndarray | None = None  # thresholded variants only

    def batch(self, h: tape.Mat) -> SyntheticBatch:
        """The synthetic nodes interpolated from the embedding `h`."""
        return SyntheticBatch(
            embeddings=interpolate_rows(h, self.seeds, self.nns, self.deltas),
            labels=self.labels,
            parents=np.stack([self.seeds, self.nns], axis=1),
            deltas=self.deltas,
        )


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

        if cfg.variant == "oversample_dup":
            plan0 = plan_from_scale(imbalance_ratio(g, masks), cfg.scale)
            g, masks = baseline_duplicate(g, masks, plan0, self.sample_rng)
        elif cfg.variant == "raw_smote":
            plan0 = plan_from_scale(imbalance_ratio(g, masks), cfg.scale)
            g, masks = baseline_raw_smote(g, masks, plan0, self.sample_rng)
        self.g = g
        self.masks = masks
        self.stats = imbalance_ratio(g, masks)
        self.weights = reweight_vector(self.stats) if cfg.variant == "reweight" else None
        self.needs_generator = cfg.variant in GS_VARIANTS
        self.params = init_params(
            g.d, cfg.embed_dim, cfg.hidden_dim, g.m, self.init_rng, self.needs_generator
        )
        self.enc_in = encoder.build_input(g, cfg.agg)
        self.adj_dense = None
        if self.needs_generator and (cfg.lambda_ > 0 or cfg.variant in PRETRAIN_VARIANTS):
            if g.n <= cfg.edge_dense_cap:
                self.adj_dense = g.dense_adjacency()
        self.plan: SamplingPlan | None = None
        if cfg.variant in GS_VARIANTS or cfg.variant == "embed_smote":
            self.plan = plan_from_scale(self.stats, cfg.scale)
        self.pools = class_pools(g.labels, masks.train, g.m)

    # -- objective ---------------------------------------------------------

    def embed(self) -> tuple[tape.Mat, tape.Mat]:
        """Step 1: the encoder output h1 and the embedding h that
        oversampling draws from: h1 itself, or for embed_smote the second
        block on the real graph."""
        h1 = encoder.encode_from_input(self.enc_in, self.params)
        if self.cfg.variant != "embed_smote":
            return h1, h1
        return h1, classifier.hidden_embed(edgegen.real_only(self.g, h1), self.params, self.cfg.agg)

    def draw_epoch(self, h: tape.Mat) -> EpochDraw | None:
        """Step 2: sample one epoch's synthetic nodes from `h` (and the
        threshold mask for the binary variants), consuming the sampling
        stream. Variants without per-epoch oversampling draw nothing."""
        if self.plan is None:
            return None
        batch = smote_interpolate(h, self.plan, self.pools, self.sample_rng)
        b_mask = None
        if self.cfg.variant in ("gs_t", "gs_pre_t") and batch.labels.size:
            aug = edgegen.augment_thresholded(h, self.params, batch, self.g, self.cfg.eta)
            b_mask = aug.syn_real.value
        return EpochDraw(
            seeds=batch.parents[:, 0],
            nns=batch.parents[:, 1],
            deltas=batch.deltas,
            labels=batch.labels,
            b_mask=b_mask,
        )

    def objective(self, h1: tape.Mat, h: tape.Mat, draw: EpochDraw | None):
        """Step 3: one epoch's loss, a pure function of the parameters
        (through `h1` and `h` from `embed`) and the draw. Returns (loss,
        node_loss_value, edge_loss_value, logits) with the class logits
        covering real then synthetic rows."""
        cfg = self.cfg
        edge_term = None
        if cfg.variant in GS_VARIANTS:
            if draw.labels.size == 0:
                aug = edgegen.real_only(self.g, h1)
            elif cfg.variant in SOFT_VARIANTS:
                aug = edgegen.augment_soft(h1, self.params, draw.batch(h1), self.g)
            else:
                aug = edgegen.AugmentedGraph(
                    self.g, h1, batch=draw.batch(h1), syn_real=tape.const(draw.b_mask)
                )
            if cfg.lambda_ > 0:
                edge_term = edgegen.edge_loss(h1, self.params, self.g, cfg.edge_dense_cap, self.adj_dense)
            logits = classifier.classify(aug, self.params, cfg.agg)
            labels_aug = aug.labels_aug
            mask = aug.train_ids_aug(self.masks.train)
        elif cfg.variant == "embed_smote":
            logits, labels_aug, mask = self._embed_smote_logits(h1, h, draw)
        else:
            aug = edgegen.real_only(self.g, h1)
            logits = classifier.classify(aug, self.params, cfg.agg)
            labels_aug = aug.labels_aug
            mask = self.masks.train
        node_term = classifier.node_loss(logits, labels_aug, mask, self.weights)
        loss = node_term if edge_term is None else tape.add(node_term, tape.mul_scalar(edge_term, cfg.lambda_))
        return loss, node_term.item(), (edge_term.item() if edge_term is not None else 0.0), logits

    def _embed_smote_logits(self, h1: tape.Mat, h2: tape.Mat, draw: EpochDraw):
        """Interpolation at the second-block embedding: synthetic rows skip
        edge generation; their aggregate is zero, so their logits take only
        the self half of the head, Wc[:k]."""
        logits_real = classifier.class_logits(edgegen.real_only(self.g, h1), h2, self.params, self.cfg.agg)
        s = draw.labels.size
        if s == 0:
            logits = logits_real
            labels_aug = self.g.labels
            mask = self.masks.train
        else:
            wc_self = tape.slice_rows(self.params["Wc"], 0, h2.cols)
            logits_syn = tape.matmul(draw.batch(h2).embeddings, wc_self)
            logits = tape.concat_rows(logits_real, logits_syn)
            labels_aug = np.concatenate([self.g.labels, draw.labels])
            mask = np.concatenate(
                [self.masks.train, np.arange(self.g.n, self.g.n + s, dtype=np.int64)]
            )
        return logits, labels_aug, mask

    # -- evaluation --------------------------------------------------------

    def eval_probs(self, h1_values: np.ndarray) -> np.ndarray:
        """Class probabilities of an inference pass on the real graph only, off the tape."""
        aug = edgegen.real_only(self.g, tape.const(h1_values))
        return classifier.softmax(classifier.classify(aug, self.params, self.cfg.agg).value)

    def evaluate(self, ids: np.ndarray, probs: np.ndarray) -> MetricsReport:
        return full_report(probs, self.g.labels, ids, num_classes=self.g.m)


def pretrain(
    g: Graph,
    params: ParamStore,
    cfg: TrainConfig,
    enc_in: tape.Mat,
    adj_dense: np.ndarray | None,
) -> list[float]:
    """Optimize encoder + edge generator on the reconstruction loss alone.

    `enc_in` is the encoder input `encoder.build_input(g, cfg.agg)` and
    `adj_dense` the dense `bool` adjacency `g.dense_adjacency()` that the
    loss reconstructs (None above `edge_dense_cap`, where the loss raises).
    Stops once the loss has not improved for `pretrain_patience` epochs
    (patience 0 means exactly one epoch) or at the epoch cap.
    """
    losses: list[float] = []
    best = np.inf
    best_snap = params.snapshot()
    bad = 0
    for _ in range(cfg.pretrain_max_epochs):
        h1 = encoder.encode_from_input(enc_in, params)
        loss = edgegen.edge_loss(h1, params, g, cfg.edge_dense_cap, adj_dense)
        value = loss.item()
        if value < best:
            best = value
            best_snap = params.snapshot()  # params that produced this loss
            bad = 0
        else:
            bad += 1
        tape.backward(loss)
        adam_step(params, lr=cfg.lr, weight_decay=cfg.weight_decay, names=("W1", "S"))
        del h1, loss  # the epoch's n x n tape, freed before the next forward
        losses.append(value)
        if bad >= cfg.pretrain_patience:
            break
    params.restore(best_snap)
    return losses


def train(g: Graph, masks: SplitMasks, cfg: TrainConfig) -> tuple[ParamStore, RunRecord]:
    """Run one variant to convergence and evaluate the best checkpoint."""
    started = time.perf_counter()
    t = _Trainer(g, masks, cfg)
    record = RunRecord(variant=cfg.variant, seed=cfg.seed, config=asdict(cfg))

    if cfg.variant in PRETRAIN_VARIANTS:
        record.pretrain_losses = pretrain(t.g, t.params, cfg, t.enc_in, t.adj_dense)

    monitor_ids = t.masks.val if t.masks.val.size else t.masks.train
    best_f = -np.inf
    best_snap = t.params.snapshot()
    bad = 0
    synth_fh = None
    if cfg.synth_log:
        synth_fh = open(cfg.synth_log, "w", encoding="utf-8")
        synth_fh.write("epoch,class,v,nn,delta\n")
    try:
        for epoch in range(cfg.max_epochs):
            try:
                h1, h = t.embed()
                draw = t.draw_epoch(h)
                loss, node_value, edge_value, logits = t.objective(h1, h, draw)
            except NonFiniteError as exc:
                raise TrainingDiverged(f"epoch {epoch}: {exc}") from exc
            total = loss.item()
            if not np.isfinite(total) or abs(total) > _DIVERGENCE_CAP:
                raise TrainingDiverged(f"epoch {epoch}: loss {total}")
            if synth_fh is not None and draw is not None:
                for c, v, nn, delta in zip(draw.labels, draw.seeds, draw.nns, draw.deltas):
                    synth_fh.write(f"{epoch},{c},{v},{nn},{float(delta)!r}\n")

            if cfg.variant in GS_VARIANTS:
                eval_probs = t.eval_probs(h1.value)
            else:
                eval_probs = classifier.softmax(logits.value[: t.g.n])
            val_report = t.evaluate(monitor_ids, eval_probs)
            if val_report.f_macro > best_f:
                best_f = val_report.f_macro
                best_snap = t.params.snapshot()
                record.best_epoch = epoch
                bad = 0
            else:
                bad += 1

            tape.backward(loss)
            adam_step(t.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
            del h1, h, draw, loss, logits  # the epoch's tape, freed before the next forward
            record.epochs.append(
                EpochStats(
                    epoch=epoch,
                    node_loss=node_value,
                    edge_loss=edge_value,
                    total_loss=total,
                    val_acc=val_report.acc,
                    val_auc=val_report.auc_macro,
                    val_f=val_report.f_macro,
                )
            )
            if bad >= cfg.patience:
                record.stop_reason = "patience"
                break
    finally:
        if synth_fh is not None:
            synth_fh.close()

    t.params.restore(best_snap)
    h1_final = encoder.encode_from_input(t.enc_in, t.params)
    probs = t.eval_probs(h1_final.value)
    record.report = t.evaluate(t.masks.test if t.masks.test.size else monitor_ids, probs)
    record.probs = probs[: g.n]
    record.wall_time = time.perf_counter() - started
    return t.params, record


@dataclass
class GridResult:
    rows: list[tuple[str, int, MetricsReport]]
    summary: list[tuple]


def run_variant_grid(g: Graph, masks: SplitMasks, cfgs: list[TrainConfig]) -> GridResult:
    """Train every config and aggregate metrics per variant (mean, std)."""
    rows = []
    for cfg in cfgs:
        _, record = train(g, masks, cfg)
        rows.append((cfg.variant, cfg.seed, record.report))
    summary = aggregate_reports([(v, r) for v, _, r in rows])
    return GridResult(rows=rows, summary=summary)


# ---------------------------------------------------------------------------
# gradient checking of the full per-variant objectives
# ---------------------------------------------------------------------------


def _gradcheck_instance(variant: str, seed: int, n_per_class, d, embed_dim, hidden_dim, lambda_):
    """A trainer and its first epoch's draw for one variant objective."""
    from .graph import generate_sbm_graph

    g = generate_sbm_graph(n_per_class, p_in=0.9, p_out=0.3, d=d, seed=seed)
    masks = SplitMasks(
        train=np.arange(g.n, dtype=np.int64),
        val=np.array([], dtype=np.int64),
        test=np.array([], dtype=np.int64),
    )
    cfg = TrainConfig(
        variant=variant,
        lambda_=lambda_,
        scale=1.0,
        seed=seed,
        embed_dim=embed_dim,
        hidden_dim=hidden_dim,
        max_epochs=1,
    )
    t = _Trainer(g, masks, cfg)
    return t, t.draw_epoch(t.embed()[1])


def gradcheck_variants(
    seed: int = 0,
    n_per_class=(3, 3, 2),
    d: int = 4,
    embed_dim: int = 5,
    hidden_dim: int = 4,
    lambda_: float = 1e-2,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    step: float = 1e-4,
    max_redraws: int = 8,
) -> dict[str, float]:
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
        for redraw in range(max_redraws):
            t, draw = _gradcheck_instance(
                variant, seed + 101 * redraw, n_per_class, d, embed_dim, hidden_dim, lambda_
            )
            with tape.track_kinks() as tracker:
                loss()
            if tracker[0] > 20.0 * step:
                break

        t.params.zero_grads()
        tape.backward(loss())
        analytic = {name: t.params[name].grad.copy() for name in t.params.names()}

        worst = -np.inf
        for name in t.params.names():
            numeric = tape.fd_gradient(lambda: loss().item(), t.params[name], step=step)
            worst = max(worst, tape.grad_max_violation(analytic[name], numeric, rtol, atol))
        out[variant] = worst
    return out
