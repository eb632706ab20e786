"""Training loop behavior: pretraining, variants, invariants, reproducibility."""
import dataclasses
import json

import numpy as np
import pytest

from imbnode import edgegen, encoder, tape
from imbnode.errors import TrainingDiverged
from imbnode.graph import (
    Graph,
    SplitMasks,
    generate_sbm_graph,
    imbalance_ratio,
    make_proportional_split,
)
from imbnode.train import (
    GS_VARIANTS,
    PRETRAIN_VARIANTS,
    VARIANTS,
    TrainConfig,
    _Trainer,
    pretrain,
    run_variant_grid,
    train,
)


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
    losses = pretrain(g, t.params, cfg, t.enc_in, t.adj_dense)
    assert len(losses) >= 2
    assert losses[-1] < losses[0]
    # non-strict decrease under 10-epoch window smoothing
    assert np.mean(losses[-10:]) <= np.mean(losses[:10])


def test_pretrain_patience_zero_runs_exactly_one_epoch():
    g = two_clique_graph()
    masks = make_proportional_split(g, 0.5, 0.25, seed=0)
    cfg = small_cfg(variant="gs_pre_t", pretrain_patience=0)
    t = _Trainer(g, masks, cfg)
    losses = pretrain(g, t.params, cfg, t.enc_in, t.adj_dense)
    assert len(losses) == 1


def test_pretrain_separates_within_from_cross_pair_scores():
    g = generate_sbm_graph([10, 10], 0.8, 0.05, 4, seed=1, feature_noise=0.3)
    masks = make_proportional_split(g, 0.5, 0.25, seed=1)
    cfg = small_cfg(variant="gs_pre_t", pretrain_max_epochs=150, pretrain_patience=150)
    t = _Trainer(g, masks, cfg)
    pretrain(g, t.params, cfg, t.enc_in, t.adj_dense)

    # score-averaging oracle over held-out (non-train) pairs
    h1 = encoder.encode_from_input(t.enc_in, t.params).value
    held = np.setdiff1d(np.arange(g.n), masks.train)
    within, cross = [], []
    for i, u in enumerate(held):
        for v in held[i + 1 :]:
            score = edgegen.edge_score(h1, t.params, int(u), int(v))
            (within if g.labels[u] == g.labels[v] else cross).append(score)
    assert np.mean(within) > np.mean(cross)


def test_pretrain_touches_only_encoder_and_generator():
    g = two_clique_graph()
    masks = make_proportional_split(g, 0.5, 0.25, seed=0)
    cfg = small_cfg(variant="gs_pre_t", pretrain_max_epochs=3, pretrain_patience=5)
    t = _Trainer(g, masks, cfg)
    w2_before = t.params["W2"].value.copy()
    wc_before = t.params["Wc"].value.copy()
    pretrain(g, t.params, cfg, t.enc_in, t.adj_dense)
    np.testing.assert_array_equal(t.params["W2"].value, w2_before)
    np.testing.assert_array_equal(t.params["Wc"].value, wc_before)


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

    bad_features = np.ones((6, 2))
    bad_features[3, 1] = np.inf
    g = Graph(
        adjacency=sp.csr_matrix((6, 6)),
        features=bad_features,
        labels=np.array([0, 0, 0, 1, 1, 1]),
        m=2,
    )
    masks = SplitMasks(train=np.arange(6), val=np.array([], dtype=np.int64), test=np.array([], dtype=np.int64))
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(g, masks, small_cfg(variant="origin", max_epochs=3))


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
        return tape.mul_scalar(
            edgegen.edge_loss(h1, t.params, t.g, cfg.edge_dense_cap, t.adj_dense), cfg.lambda_
        )

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


@pytest.mark.parametrize("variant", VARIANTS)
def test_training_and_gradcheck_share_one_objective(variant):
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=12)
    masks = make_proportional_split(g, 0.5, 0.25, seed=12)
    cfg = small_cfg(variant=variant, max_epochs=1, pretrain_max_epochs=3, seed=5)
    _, record = train(g, masks, cfg)

    # the three steps of an epoch, rebuilt by hand on a fresh trainer
    t = _Trainer(g, masks, cfg)
    if variant in PRETRAIN_VARIANTS:
        pretrain(t.g, t.params, cfg, t.enc_in, t.adj_dense)
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
        for parents in (draw.seeds, draw.nns):
            assert np.isin(parents, masks.train).all()
            np.testing.assert_array_equal(g.labels[parents], draw.labels)


def test_edge_variants_hold_one_epoch_of_n_squared_state():
    """Beyond what the origin variant needs, training and pretraining hold
    one epoch's scores, their sigmoid and its gradient (n x n float64
    each), the 1-byte target and some n x hidden arrays: under 4.5 n x n
    float64 arrays at 620 nodes. An epoch's tape kept alive into the next,
    consumed gradients kept to the end of backward, or a float64 target
    exceed the bound."""
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
        assert extra <= 4.5, f"{variant}: {extra:.2f} n x n arrays above origin"
    t = _Trainer(g, masks, cfg("gs_pre_o"))
    extra = peak(lambda: pretrain(t.g, t.params, t.cfg, t.enc_in, t.adj_dense)) / n_by_n
    assert extra <= 4.5, f"pretrain: {extra:.2f} n x n arrays"


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


def test_run_variant_grid_shape_and_determinism():
    g = generate_sbm_graph([10, 10, 4], 0.5, 0.1, 4, seed=10)
    masks = make_proportional_split(g, 0.5, 0.25, seed=10)
    cfgs = [
        small_cfg(variant=v, seed=s, max_epochs=5, patience=50)
        for v in ("origin", "reweight")
        for s in (0, 1, 2)
    ]
    result = run_variant_grid(g, masks, cfgs)
    assert len(result.rows) == 6
    assert [r[0] for r in result.summary] == ["origin", "reweight"]
    for row in result.summary:
        assert row[2] >= 0.0  # std column populated
    # identical (variant, seed) rows are bit-identical
    again = run_variant_grid(g, masks, [cfgs[0]])
    assert dataclasses.asdict(again.rows[0][2]) == dataclasses.asdict(result.rows[0][2])


def test_best_checkpoint_is_restored():
    g = separable_graph(seed=11)
    masks = make_proportional_split(g, 0.3, 0.3, seed=11)
    cfg = small_cfg(variant="origin", max_epochs=40, patience=40)
    params, record = train(g, masks, cfg)
    # re-evaluate returned params on the val mask: must match the best epoch's val F
    t = _Trainer(g, masks, cfg)
    t.params.restore(params.snapshot())
    h1 = encoder.encode_from_input(t.enc_in, t.params)
    report = t.evaluate(masks.val, t.eval_probs(h1.value))
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
