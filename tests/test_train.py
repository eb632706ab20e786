"""Training loop behavior: pretraining, variants, invariants, reproducibility."""
import dataclasses
import importlib
import json

import numpy as np
import pytest

import oracles
from imbnode import edgegen, encoder, tape
from imbnode.errors import ConfigError, DenseCapError, TrainingDiverged
from imbnode.graph import (
    Graph,
    SplitMasks,
    generate_sbm_graph,
    imbalance_ratio,
    make_proportional_split,
)
from imbnode.metrics import full_report
from imbnode.train import (
    GS_VARIANTS,
    PRETRAIN_VARIANTS,
    VARIANTS,
    TrainConfig,
    _Trainer,
    pretrain,
    train,
)

train_mod = importlib.import_module("imbnode.train")  # the package's `train` is the function


def two_clique_graph(seed=0):
    return generate_sbm_graph([6, 6], 1.0, 0.0, 3, seed=seed, feature_noise=0.3)


def separable_graph(seed=0):
    return generate_sbm_graph([15, 15, 15], 0.4, 0.05, 6, seed=seed, mean_scale=2.0, feature_noise=0.5)


def small_cfg(**kw):
    base = dict(
        embed_dim=8,
        hidden_dim=8,
        max_epochs=60,
        patience=20,
        pretrain_max_epochs=40,
        pretrain_patience=10,
        scale="balance",
        lambda_=1e-4,
    )
    base.update(kw)
    return TrainConfig(**base)


# -- pretraining ----------------------------------------------------------------


def test_pretrain_reduces_edge_loss_on_cliques():
    g = two_clique_graph()
    masks = make_proportional_split(g, 0.5, 0.25, seed=0)
    cfg = small_cfg(variant="gs_pre_t", pretrain_max_epochs=30, pretrain_patience=30)
    t = _Trainer(g, masks, cfg)
    losses = pretrain(t)
    assert len(losses) >= 2
    assert losses[-1] < losses[0]
    # non-strict decrease under 10-epoch window smoothing
    assert np.mean(losses[-10:]) <= np.mean(losses[:10])


def test_pretrain_patience_zero_runs_exactly_one_epoch():
    g = two_clique_graph()
    masks = make_proportional_split(g, 0.5, 0.25, seed=0)
    cfg = small_cfg(variant="gs_pre_t", pretrain_patience=0)
    t = _Trainer(g, masks, cfg)
    losses = pretrain(t)
    assert len(losses) == 1


def test_pretrain_separates_within_from_cross_pair_scores():
    g = generate_sbm_graph([10, 10], 0.8, 0.05, 4, seed=1, feature_noise=0.3)
    masks = make_proportional_split(g, 0.5, 0.25, seed=1)
    cfg = small_cfg(variant="gs_pre_t", pretrain_max_epochs=150, pretrain_patience=150)
    t = _Trainer(g, masks, cfg)
    pretrain(t)

    # score-averaging oracle over held-out (non-train) pairs
    h1 = encoder.encode_from_input(t.enc_in, t.params).value
    held = np.setdiff1d(np.arange(g.n), masks.train)
    within, cross = [], []
    for i, u in enumerate(held):
        for v in held[i + 1 :]:
            score = oracles.edge_score(h1, t.params, int(u), int(v))
            (within if g.labels[u] == g.labels[v] else cross).append(score)
    assert np.mean(within) > np.mean(cross)


def test_pretrain_touches_only_encoder_and_generator():
    g = two_clique_graph()
    masks = make_proportional_split(g, 0.5, 0.25, seed=0)
    cfg = small_cfg(variant="gs_pre_t", pretrain_max_epochs=3, pretrain_patience=5)
    t = _Trainer(g, masks, cfg)
    w2_before = t.params["W2"].value.copy()
    wc_before = t.params["Wc"].value.copy()
    pretrain(t)
    np.testing.assert_array_equal(t.params["W2"].value, w2_before)
    np.testing.assert_array_equal(t.params["Wc"].value, wc_before)


def test_pretraining_divergence_names_the_pretraining_epoch():
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=9)
    masks = make_proportional_split(g, 0.5, 0.25, seed=9)
    cfg = small_cfg(variant="gs_pre_o", lr=1e200, max_epochs=3)
    # the first Adam step overflows the scores, which warn before the finite check
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match=r"^pretrain epoch 1: symmetric_scores: non-finite"):
            train(g, masks, cfg)


def test_one_adam_step_per_pretraining_and_per_joint_epoch(monkeypatch):
    """Adam steps taken inside `pretrain` are pretraining epochs, the rest are
    joint epochs, when both names are looked up in `imbnode.train` at call
    time, as the benchmark's epoch timer does."""
    train_mod = importlib.import_module("imbnode.train")
    adam_fn, pretrain_fn = train_mod.adam_step, train_mod.pretrain
    steps = {"pretrain": 0, "joint": 0}
    phase = ["joint"]

    def adam_step(*args, **kwargs):
        steps[phase[0]] += 1
        return adam_fn(*args, **kwargs)

    def pretrain(*args, **kwargs):
        phase[0] = "pretrain"
        try:
            return pretrain_fn(*args, **kwargs)
        finally:
            phase[0] = "joint"

    monkeypatch.setattr(train_mod, "adam_step", adam_step)
    monkeypatch.setattr(train_mod, "pretrain", pretrain)
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=9)
    masks = make_proportional_split(g, 0.5, 0.25, seed=9)
    cfg = small_cfg(variant="gs_pre_o", max_epochs=5, patience=50, pretrain_max_epochs=4, pretrain_patience=50)
    _, record = train_mod.train(g, masks, cfg)
    assert steps == {"pretrain": len(record.pretrain_losses), "joint": len(record.epochs)} == {"pretrain": 4, "joint": 5}


# -- single-variant behavior -------------------------------------------------------


def test_origin_lambda_zero_never_computes_edge_loss(monkeypatch):
    def boom(*a, **k):
        raise AssertionError("edge loss must not run for origin")

    monkeypatch.setattr(edgegen, "edge_loss", boom)
    g = separable_graph()
    masks = make_proportional_split(g, 0.3, 0.2, seed=2)
    cfg = small_cfg(variant="origin", lambda_=0.0, lr=0.01, max_epochs=200, patience=200)
    _, record = train(g, masks, cfg)
    assert record.epochs[-1].node_loss < 0.1 * np.log(g.m)
    assert all(e.edge_loss == 0.0 for e in record.epochs)


@pytest.mark.parametrize(
    "variant, lambda_, pretrain_epochs, takes_edge_loss",
    [
        ("gs_t", 1e-3, 5, True),
        ("gs_o", 0.0, 5, False),
        ("gs_pre_t", 0.0, 5, True),
        ("gs_pre_o", 0.0, 0, False),
        ("gs_pre_o", 1e-3, 0, True),
        ("embed_smote", 1e-3, 5, False),
        ("origin", 1e-3, 5, False),
    ],
)
def test_trainer_builds_the_edge_target_only_for_runs_that_take_the_edge_loss(
    variant, lambda_, pretrain_epochs, takes_edge_loss
):
    """The target, the packed positions of the adjacency's ones, is built,
    and the dense cap checked, once before any epoch, by a gs run with
    lambda > 0 or a pretrained run that pretrains."""
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=13)
    masks = make_proportional_split(g, 0.5, 0.25, seed=13)
    cfg = small_cfg(variant=variant, lambda_=lambda_, pretrain_max_epochs=pretrain_epochs)
    t = _Trainer(g, masks, cfg)
    if takes_edge_loss:
        assert t.target.dtype == np.int64
        np.testing.assert_array_equal(t.target, oracles.ones(g.dense_adjacency()))
        assert t.scores.shape == (g.n, g.n) and t.scores.dtype == np.float64
    else:
        assert t.target is None and t.scores is None
        with pytest.raises(ConfigError, match="takes no edge loss"):
            t.edge_loss(t.encode(), tape.const(np.eye(cfg.embed_dim)))
    capped = dataclasses.replace(cfg, edge_dense_cap=g.n - 1)
    if takes_edge_loss:
        with pytest.raises(DenseCapError, match=f"{g.n} nodes exceeds the dense reconstruction cap {g.n - 1}"):
            _Trainer(g, masks, capped)
    else:
        assert _Trainer(g, masks, capped).target is None


def test_trainer_holds_its_edge_target_in_at_most_eight_bytes_per_stored_edge():
    """The target is one int64 position per stored one of the adjacency's
    block-packed upper storage: at most nnz of them, not n^2 bools."""
    g = generate_sbm_graph([200, 200, 200, 20], 0.05, 0.005, 4, seed=3)
    masks = make_proportional_split(g, 0.25, 0.25, seed=3)
    t = _Trainer(g, masks, small_cfg(variant="gs_t", lambda_=1e-3))
    nnz = g.adjacency.nnz
    assert 0 < t.target.nbytes <= 8 * nnz < g.n * g.n
    assert t.target.size == np.count_nonzero(oracles.stored(g.dense_adjacency()))


@pytest.mark.parametrize(
    "variant, lambda_, kept", [("gs_pre_o", 0.0, False), ("gs_pre_t", 0.0, False), ("gs_pre_o", 1e-3, True)]
)
def test_joint_epochs_hold_the_edge_target_only_when_they_take_the_edge_loss(variant, lambda_, kept, monkeypatch):
    """A pretrained run with lambda = 0 uses the target and the scores
    buffer only to pretrain and drops both before its first joint epoch;
    with lambda > 0 it keeps them."""
    objective, held = _Trainer.objective, []

    def recording(self, *args):
        held.append((self.target is not None, self.scores is not None))
        return objective(self, *args)

    monkeypatch.setattr(_Trainer, "objective", recording)
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=13)
    masks = make_proportional_split(g, 0.5, 0.25, seed=13)
    cfg = small_cfg(variant=variant, lambda_=lambda_, max_epochs=3, patience=50, pretrain_max_epochs=2)
    _, record = train(g, masks, cfg)
    assert len(record.pretrain_losses) == 2
    assert held == [(kept, kept)] * 3


def test_gs_t_balance_plan_equalizes_counts_every_epoch(tmp_path):
    g = generate_sbm_graph([14, 14, 6], 0.4, 0.1, 4, seed=3)
    masks = make_proportional_split(g, 0.5, 0.25, seed=3)
    log = tmp_path / "synth.csv"
    cfg = small_cfg(variant="gs_t", scale="balance", max_epochs=5, patience=50, synth_log=str(log))
    train(g, masks, cfg)

    sizes = imbalance_ratio(g, masks).sizes
    rows = [line.split(",") for line in log.read_text().splitlines()[1:]]
    by_epoch: dict[int, np.ndarray] = {}
    for epoch, cls, *_ in rows:
        counts = by_epoch.setdefault(int(epoch), np.zeros(g.m, dtype=int))
        counts[int(cls)] += 1
    assert sorted(by_epoch) == list(range(5))
    for counts in by_epoch.values():
        totals = sizes + counts
        assert np.all(totals == totals.max())


@pytest.mark.parametrize("variant", ["gs_o", "embed_smote"])
def test_synth_log_replays_exactly(tmp_path, variant):
    g = generate_sbm_graph([10, 10, 5], 0.5, 0.1, 4, seed=4)
    masks = make_proportional_split(g, 0.5, 0.25, seed=4)
    log = tmp_path / "synth.csv"
    cfg = small_cfg(variant=variant, max_epochs=3, patience=50, synth_log=str(log))
    train(g, masks, cfg)
    lines = log.read_text().splitlines()
    assert lines[0] == "epoch,class,v,nn,delta"
    parsed = [line.split(",") for line in lines[1:]]
    assert sorted({int(row[0]) for row in parsed}) == [0, 1, 2]  # every epoch synthesizes
    assert all(0.0 <= float(delta) <= 1.0 for *_, delta in parsed)
    assert all(g.labels[int(v)] == int(cls) == g.labels[int(nn)] for _, cls, v, nn, _ in parsed)


def test_divergence_reports_epoch():
    import scipy.sparse as sp

    # finite features, so Graph accepts them, whose first product with W1 overflows
    g = Graph(
        adjacency=sp.csr_matrix((6, 6)),
        features=np.full((6, 2), np.finfo(np.float64).max),
        labels=np.array([0, 0, 0, 1, 1, 1]),
        m=2,
    )
    masks = SplitMasks(train=np.arange(5), val=np.array([], dtype=np.int64), test=np.array([5]))
    with np.errstate(over="ignore"), pytest.raises(TrainingDiverged, match="epoch 0"):
        train(g, masks, small_cfg(variant="origin", max_epochs=3))


def test_train_refuses_a_split_without_test_ids(monkeypatch):
    g = separable_graph(seed=5)
    masks = SplitMasks(train=np.arange(0, g.n, 2), val=np.arange(1, g.n, 2), test=np.array([], dtype=np.int64))
    # the check comes before any epoch: nothing is encoded
    monkeypatch.setattr(encoder, "encode_from_input", lambda *a: pytest.fail("an epoch ran"))
    with pytest.raises(ConfigError, match="no test ids") as info:
        train(g, masks, small_cfg(variant="origin", max_epochs=3))
    assert info.value.key == "test"


def test_patience_zero_stops_after_one_epoch():
    g = separable_graph(seed=5)
    masks = make_proportional_split(g, 0.3, 0.2, seed=5)
    _, record = train(g, masks, small_cfg(variant="origin", patience=0, max_epochs=50))
    assert len(record.epochs) == 1


def test_record_head_says_what_pretraining_did_and_why_training_stopped(tmp_path):
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=9)
    masks = make_proportional_split(g, 0.5, 0.25, seed=9)
    cut = small_cfg(variant="gs_pre_o", max_epochs=50, patience=0, pretrain_max_epochs=6, seed=3)
    capped = dataclasses.replace(cut, max_epochs=4, patience=50)
    for cfg, reason, epochs in ((cut, "patience", 1), (capped, "max_epochs", 4)):
        _, record = train(g, masks, cfg)
        record.write_jsonl(tmp_path / "record.jsonl")
        head = json.loads((tmp_path / "record.jsonl").read_text().splitlines()[0])
        assert len(record.epochs) == epochs
        assert head["stop_reason"] == reason
        assert len(record.pretrain_losses) >= 2
        assert head["pretrain_losses"] == record.pretrain_losses
        assert head["pretrain_epochs"] == len(record.pretrain_losses)


# -- objective invariants -----------------------------------------------------------


@pytest.mark.parametrize("variant", ["gs_t", "gs_o"])
def test_total_loss_is_node_plus_lambda_edge(variant):
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=6)
    masks = make_proportional_split(g, 0.5, 0.25, seed=6)
    cfg = small_cfg(variant=variant, lambda_=3e-3, max_epochs=6, patience=50)
    _, record = train(g, masks, cfg)
    for e in record.epochs:
        assert e.total_loss == pytest.approx(e.node_loss + cfg.lambda_ * e.edge_loss, abs=1e-9)


def test_gs_t_interaction_gradient_comes_only_from_edge_term():
    g = generate_sbm_graph([6, 6, 4], 0.6, 0.2, 3, seed=7)
    masks = SplitMasks(train=np.arange(g.n), val=np.array([], dtype=np.int64), test=np.array([], dtype=np.int64))
    cfg = TrainConfig(variant="gs_t", lambda_=5e-3, scale=1.0, embed_dim=5, hidden_dim=4, seed=7)
    t = _Trainer(g, masks, cfg)
    draw = t.draw_epoch(t.embed()[1])

    # finite differences of the full objective w.r.t. S ...
    fd_total = tape.fd_gradient(lambda: t.objective(*t.embed(), draw)[0].item(), t.params["S"])

    # ... equal the analytic gradient of the scaled edge term alone
    def edge_only():
        h1 = encoder.encode_from_input(t.enc_in, t.params)
        s_sym = edgegen.symmetric_interaction(t.params["S"])
        return tape.mul_scalar(edgegen.edge_loss(h1, s_sym, t.target, np.empty((g.n, g.n))), cfg.lambda_)

    t.params.zero_grads()
    tape.backward(edge_only())
    assert tape.grad_max_violation(t.params["S"].grad, fd_total) <= 0.0


def test_soft_variant_feeds_classifier_gradient_to_generator():
    g = generate_sbm_graph([6, 6, 4], 0.6, 0.2, 3, seed=8)
    masks = SplitMasks(train=np.arange(g.n), val=np.array([], dtype=np.int64), test=np.array([], dtype=np.int64))
    grads = {}
    for variant in ("gs_t", "gs_o"):
        cfg = TrainConfig(variant=variant, lambda_=0.0, scale=1.0, embed_dim=5, hidden_dim=4, seed=8)
        t = _Trainer(g, masks, cfg)
        h1, h = t.embed()
        draw = t.draw_epoch(h)
        t.params.zero_grads()
        loss = t.objective(h1, h, draw)[0]
        tape.backward(loss)
        grads[variant] = np.abs(t.params["S"].grad).max()
    assert grads["gs_t"] == 0.0  # binary edges block the classifier path
    assert grads["gs_o"] > 0.0


def _epoch_loss_and_grads(g, masks, variant):
    """One epoch's loss and the gradients of W1, W2 and Wc, at scale 0 and lambda 0."""
    cfg = TrainConfig(variant=variant, lambda_=0.0, scale=0.0, embed_dim=5, hidden_dim=4, seed=9)
    t = _Trainer(g, masks, cfg)
    h1, h = t.embed()
    draw = t.draw_epoch(h)
    t.params.zero_grads()
    loss = t.objective(h1, h, draw)[0]
    tape.backward(loss)
    return loss.item(), {name: t.params[name].grad.copy() for name in ("W1", "W2", "Wc")}, draw


@pytest.mark.parametrize("variant", ["gs_t", "gs_o", "gs_pre_t", "embed_smote"])
def test_empty_draw_gives_origin_objective_bit_for_bit(variant):
    g = generate_sbm_graph([6, 6, 4], 0.6, 0.2, 3, seed=9)
    masks = make_proportional_split(g, 0.5, 0.25, seed=9)
    ref_loss, ref_grads, _ = _epoch_loss_and_grads(g, masks, "origin")
    loss, grads, draw = _epoch_loss_and_grads(g, masks, variant)
    assert draw.labels.size == 0 and draw.syn_real is None
    assert loss == ref_loss
    for name in ref_grads:
        np.testing.assert_array_equal(grads[name], ref_grads[name], err_msg=name)


@pytest.mark.parametrize("variant", ["gs_t", "gs_o", "gs_pre_o", "embed_smote"])
def test_training_with_scale_zero_completes(variant):
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=10)
    masks = make_proportional_split(g, 0.5, 0.25, seed=10)
    cfg = small_cfg(variant=variant, scale=0.0, max_epochs=3, pretrain_max_epochs=2)
    _, record = train(g, masks, cfg)
    assert len(record.epochs) == 3
    assert all(np.isfinite(e.total_loss) for e in record.epochs)
    assert 0.0 <= record.report.f_macro <= 1.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_and_gradcheck_share_one_objective(variant):
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=12)
    masks = make_proportional_split(g, 0.5, 0.25, seed=12)
    cfg = small_cfg(variant=variant, max_epochs=1, pretrain_max_epochs=3, seed=5)
    _, record = train(g, masks, cfg)

    # the three steps of an epoch, rebuilt by hand on a fresh trainer
    t = _Trainer(g, masks, cfg)
    if variant in PRETRAIN_VARIANTS:
        pretrain(t)
    h1, h = t.embed()
    draw = t.draw_epoch(h)
    assert (draw is None) == (variant not in GS_VARIANTS + ("embed_smote",))
    assert t.objective(h1, h, draw)[0].item() == record.epochs[0].total_loss


@pytest.mark.parametrize("variant", ["gs_t", "gs_o", "embed_smote"])
def test_draws_take_seeds_and_neighbours_from_train_ids_of_their_class(variant):
    g = generate_sbm_graph([12, 12, 6], 0.5, 0.1, 4, seed=4)
    masks = make_proportional_split(g, 0.3, 0.3, seed=4)
    assert masks.val.size and masks.test.size
    t = _Trainer(g, masks, small_cfg(variant=variant))
    for _ in range(3):
        draw = t.draw_epoch(t.embed()[1])
        assert draw.labels.size
        for parents in draw.parents.T:
            assert np.isin(parents, masks.train).all()
            np.testing.assert_array_equal(g.labels[parents], draw.labels)


@pytest.mark.parametrize("variant", ["gs_t", "gs_o", "gs_pre_t", "gs_pre_o", "embed_smote"])
def test_each_oversampling_epoch_interpolates_once(variant, monkeypatch):
    """Drawing and scoring an epoch interpolate the synthetic rows of a
    trainable embedding once, in one op that gathers the seed and neighbour
    rows: the draw and the thresholded edges interpolate nothing on the
    tape, and the objective interpolates once."""
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=13)
    masks = make_proportional_split(g, 0.5, 0.25, seed=13)
    t = _Trainer(g, masks, small_cfg(variant=variant))
    interpolate = tape.interpolate
    calls = []

    def counting(h, *args):
        calls.append(h.requires_grad)
        return interpolate(h, *args)

    monkeypatch.setattr(tape, "interpolate", counting)
    h1, h = t.embed()
    draw = t.draw_epoch(h)
    t.objective(h1, h, draw)
    assert draw.labels.size
    assert sum(calls) == 1


def test_edge_variants_hold_one_epoch_of_n_squared_state():
    """Beyond what the origin variant needs, training and pretraining hold
    the run's one n x n float64 buffer, in which the edge loss's scores are
    overwritten by their sigmoid and the backward turns that into their
    gradient, the 1-byte target and some n x hidden arrays: under 2.25
    n x n float64 arrays at 620 nodes. The sigmoid or the gradient
    allocated beside the scores, an epoch's tape kept alive into the
    next, consumed gradients kept to the end of backward, or a float64
    target exceed the bound. Pretraining on a trainer that already holds
    its buffer and target allocates under half an n x n array: a scores
    buffer made per epoch exceeds that."""
    import tracemalloc

    g = generate_sbm_graph([200, 200, 200, 20], 0.05, 0.005, 16, seed=0)
    masks = make_proportional_split(g, seed=0)
    n_by_n = g.n * g.n * 8

    def cfg(variant):
        return TrainConfig(variant=variant, max_epochs=3, pretrain_max_epochs=3, scale="balance", eta=0.005)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    base = peak(lambda: train(g, masks, cfg("origin")))
    for variant in ("gs_t", "gs_pre_o"):
        extra = (peak(lambda: train(g, masks, cfg(variant))) - base) / n_by_n
        assert extra <= 2.25, f"{variant}: {extra:.2f} n x n arrays above origin"
    t = _Trainer(g, masks, cfg("gs_pre_o"))
    extra = peak(lambda: pretrain(t)) / n_by_n
    assert extra <= 0.5, f"pretrain: {extra:.2f} n x n arrays"


def test_pretraining_and_joint_epochs_take_the_edge_loss_on_the_trainers_one_buffer(monkeypatch):
    """Every edge loss of a gs_pre_o run, pretraining and joint, fills the
    float64 n x n buffer its trainer made, and each epoch's losses and every
    parameter gradient equal, bit for bit, those of the same run with the
    edge loss on a fresh NaN-filled buffer each epoch."""
    g = generate_sbm_graph([20, 20, 8], 0.4, 0.05, 4, seed=21)
    masks = make_proportional_split(g, 0.5, 0.25, seed=21)
    cfg = small_cfg(variant="gs_pre_o", max_epochs=4, patience=50, pretrain_max_epochs=3, pretrain_patience=50)
    edge_loss, trainer_loss, step = edgegen.edge_loss, _Trainer.edge_loss, train_mod.adam_step
    buffers, outs, grads = [], [], []

    def on_trainer_buffer(self, h1, s_sym):
        buffers.append(self.scores)
        return trainer_loss(self, h1, s_sym)

    def recording_step(params, **kwargs):
        grads.append({name: None if params[name].grad is None else params[name].grad.copy() for name in params.names()})
        return step(params, **kwargs)

    def run(fresh):
        def loss_on(h1, s_sym, target, out):
            outs.append(out)
            return edge_loss(h1, s_sym, target, np.full_like(out, np.nan) if fresh else out)

        monkeypatch.setattr(edgegen, "edge_loss", loss_on)
        del buffers[:], outs[:], grads[:]
        _, record = train(g, masks, cfg)
        losses = record.pretrain_losses + [(e.node_loss, e.edge_loss, e.total_loss) for e in record.epochs]
        return losses, list(grads)

    monkeypatch.setattr(_Trainer, "edge_loss", on_trainer_buffer)
    monkeypatch.setattr(train_mod, "adam_step", recording_step)
    shared = run(fresh=False)
    assert len(outs) == len(buffers) == 3 + 4
    assert buffers[0].shape == (g.n, g.n) and buffers[0].dtype == np.float64
    assert all(np.shares_memory(out, buffers[0]) for out in outs + buffers)
    fresh = run(fresh=True)
    assert shared[0] == fresh[0]
    assert len(shared[1]) == len(fresh[1]) == 3 + 4
    for epoch, (got, want) in enumerate(zip(shared[1], fresh[1])):
        assert got.keys() == want.keys()
        for name in got:
            assert (got[name] is None) == (want[name] is None), (epoch, name)
            if got[name] is not None:
                np.testing.assert_array_equal(got[name], want[name], err_msg=f"epoch {epoch}, {name}")


@pytest.mark.parametrize("variant", ["gs_o", "gs_pre_o"])
def test_soft_joint_epoch_reaches_s_through_one_s_sym_node(variant, monkeypatch):
    """The soft score block and the edge loss share the epoch's one S_sym:
    every path from the loss to S passes through that one node."""
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=14)
    masks = make_proportional_split(g, 0.5, 0.25, seed=14)
    t = _Trainer(g, masks, small_cfg(variant=variant, lambda_=1e-3))
    symmetric_interaction, built = edgegen.symmetric_interaction, []

    def recording(s):
        built.append(symmetric_interaction(s))
        return built[-1]

    monkeypatch.setattr(edgegen, "symmetric_interaction", recording)
    h1, h = t.embed()
    draw = t.draw_epoch(h)
    loss = t.objective(h1, h, draw)[0]
    assert draw.labels.size and t.joint_edge_loss
    # walk the tape from the loss without entering an S_sym node
    s_sym_ids = {id(node) for node in built}
    reached, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if id(node) in s_sym_ids:
            reached.add(id(node))
        else:
            stack.extend(node._parents)
    assert len(reached) == 1
    assert id(t.params["S"]) not in seen  # no path to S bypasses it


@pytest.mark.parametrize("variant", ["gs_t", "gs_pre_t"])
def test_thresholded_draw_makes_no_trainable_node(variant, monkeypatch):
    """The draw scores its synthetic-real edges on constants: it returns the
    batch with a constant `syn_real` and builds no node that requires grad."""
    g = generate_sbm_graph([8, 8, 4], 0.5, 0.1, 3, seed=15)
    masks = make_proportional_split(g, 0.5, 0.25, seed=15)
    t = _Trainer(g, masks, small_cfg(variant=variant))
    h = t.embed()[1]
    init, trainable = tape.Mat.__init__, []

    def recording(self, value, requires_grad=False, *args, **kwargs):
        init(self, value, requires_grad, *args, **kwargs)
        if requires_grad:
            trainable.append(self)

    monkeypatch.setattr(tape.Mat, "__init__", recording)
    draw = t.draw_epoch(h)
    monkeypatch.undo()
    assert trainable == []
    assert draw.labels.size and draw.syn_real.shape == (draw.labels.size, g.n)
    assert not draw.syn_real.requires_grad and draw.syn_real._parents == ()
    assert set(np.unique(draw.syn_real.value)) <= {0.0, 1.0}


# Tape nodes, leaves included, behind one epoch's loss on the 620-node graph.
# Built from small ops, the blocks took 19 (origin), 27 (embed_smote), 50
# (gs_t) and 66 (gs_o) nodes; each encoder, block and head is now one op, and
# so are the edge loss's all-pairs scores (a three-op matmul chain before),
# the synthetic rows (five ops before) and the soft synthetic-real scores
# (four ops before). The soft variants' score block and edge loss share one
# three-op S_sym chain (one each before: 22 nodes).
_EPOCH_TAPE_NODES = {
    "origin": 8,
    "oversample_dup": 8,
    "reweight": 8,
    "raw_smote": 8,
    "embed_smote": 10,
    "gs_t": 19,
    "gs_o": 19,
    "gs_pre_t": 19,
    "gs_pre_o": 19,
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_epoch_tape_stays_small(variant):
    """A change that grows an epoch's chain of tape ops again fails here."""
    g = generate_sbm_graph([200, 200, 200, 20], 0.05, 0.005, 16, seed=0)
    masks = make_proportional_split(g, seed=0)
    t = _Trainer(g, masks, TrainConfig(variant=variant, scale="balance", eta=0.005))
    h1, h = t.embed()
    loss = t.objective(h1, h, t.draw_epoch(h))[0]
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    assert len(seen) <= _EPOCH_TAPE_NODES[variant]


# -- trend and reproducibility --------------------------------------------------------


def test_gs_pre_o_beats_origin_minority_recall():
    recalls = {"origin": [], "gs_pre_o": []}
    for seed in range(3):
        g = generate_sbm_graph(
            [50, 50, 5], 0.15, 0.02, 8, seed=seed, mean_scale=1.0, feature_noise=1.0
        )
        masks = make_proportional_split(g, 0.4, 0.2, seed=seed)
        for variant in recalls:
            cfg = small_cfg(
                variant=variant,
                seed=seed,
                max_epochs=150,
                patience=40,
                embed_dim=16,
                hidden_dim=16,
                lambda_=1e-4,
                pretrain_max_epochs=120,
                pretrain_patience=20,
            )
            _, record = train(g, masks, cfg)
            recalls[variant].append(record.report.per_class[2].recall)
    assert np.mean(recalls["gs_pre_o"]) > np.mean(recalls["origin"])


def test_same_config_same_record():
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=9)
    masks = make_proportional_split(g, 0.5, 0.25, seed=9)
    cfg = small_cfg(variant="gs_pre_o", max_epochs=8, patience=50, seed=3)
    _, rec1 = train(g, masks, cfg)
    _, rec2 = train(g, masks, cfg)
    assert rec1.epochs == rec2.epochs
    assert rec1.pretrain_losses == rec2.pretrain_losses
    assert rec1.best_epoch == rec2.best_epoch
    assert dataclasses.asdict(rec1.report) == dataclasses.asdict(rec2.report)


def test_best_checkpoint_is_restored():
    g = separable_graph(seed=11)
    masks = make_proportional_split(g, 0.3, 0.3, seed=11)
    cfg = small_cfg(variant="origin", max_epochs=40, patience=40)
    params, record = train(g, masks, cfg)
    # re-evaluate returned params on the val mask: must match the best epoch's val F
    t = _Trainer(g, masks, cfg)
    t.params.restore(params.snapshot())
    h1 = encoder.encode_from_input(t.enc_in, t.params)
    report = full_report(t.eval_probs(h1.value), g.labels, masks.val, num_classes=g.m)
    best = max(e.val_f for e in record.epochs)
    assert report.f_macro == pytest.approx(best, abs=1e-12)
    assert record.epochs[record.best_epoch].val_f == pytest.approx(best, abs=1e-12)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="variant"):
        TrainConfig(variant="nope").validate()
    with pytest.raises(ValueError, match="lambda"):
        TrainConfig(lambda_=-1.0).validate()
    with pytest.raises(ValueError, match="max_epochs"):
        TrainConfig(max_epochs=0).validate()
    with pytest.raises(ValueError, match="scale"):
        TrainConfig(scale="equalize").validate()
    for bad_lr in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="lr"):
            TrainConfig(lr=bad_lr).validate()
    with pytest.raises(ValueError, match="embed_dim"):
        TrainConfig(embed_dim=0).validate()
    with pytest.raises(ValueError, match="hidden_dim"):
        TrainConfig(hidden_dim=0).validate()
