"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The real-dataset trend
test activates when IMBNODE_CORA_DIR points at a directory containing
edges.tsv / features.txt / labels.txt in the package's file formats; it is
skipped otherwise.
"""
import importlib
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from imbnode import edgegen, tape
from imbnode.cli import main as cli_main
from imbnode.graph import (
    generate_sbm_graph,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
)
from imbnode.metrics import auc_macro
from imbnode.optim import ParamStore, glorot
from imbnode.oversample import SamplingPlan, class_pools, plan_from_scale, smote_interpolate
from imbnode.train import TrainConfig, gradcheck_variants, train
from oracles import adjacency_dense, pair_count_auc_macro
from test_metrics import FIXED_FIXTURES

pytestmark = pytest.mark.acceptance


def announce(k, detail):
    print(f"\n[criterion {k}] PASS: {detail}")


# -- 1: gradient correctness ---------------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    results = gradcheck_variants(seed=0)
    elapsed = time.perf_counter() - started
    assert set(results) == {
        "origin", "oversample_dup", "reweight", "raw_smote", "embed_smote",
        "gs_t", "gs_o", "gs_pre_t", "gs_pre_o",
    }
    for variant, violation in results.items():
        assert violation <= 0.0, f"{variant}: finite-difference mismatch {violation:+.3e}"
    assert elapsed < 10.0, f"gradcheck took {elapsed:.1f}s"
    announce(1, f"all {len(results)} variant objectives match finite differences ({elapsed:.1f}s)")


# -- 2: metric oracles ----------------------------------------------------------


def test_criterion_2_metric_oracles():
    from imbnode.metrics import accuracy, f_macro

    started = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(200):
        n = int(rng.integers(5, 51))
        m = int(rng.integers(2, 5))
        labels = rng.integers(0, m, size=n)
        while np.unique(labels).size < 2:  # AUC needs both sides somewhere
            labels = rng.integers(0, m, size=n)
        probs = rng.dirichlet(np.ones(m), size=n)
        if rng.random() < 0.3:
            probs = np.round(probs, 1)  # force midrank ties
        got = auc_macro(probs, labels, np.arange(n), num_classes=m)
        expected = pair_count_auc_macro(probs, labels)
        assert abs(got - expected) <= 1e-12

    for preds, labels, m, acc, f in FIXED_FIXTURES:
        mask = np.arange(len(preds))
        assert accuracy(preds, labels, mask) == pytest.approx(acc, abs=1e-15)
        assert f_macro(preds, labels, mask, num_classes=m) == pytest.approx(f, abs=1e-15)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"metric oracles took {elapsed:.1f}s"
    announce(2, f"AUC matches pair counting on 200 instances; 20 fixed confusion fixtures ({elapsed:.1f}s)")


# -- 3: oversampling invariants ---------------------------------------------------


def test_criterion_3_smote_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    total = 0
    while total < 1000:
        n, k, m = int(rng.integers(20, 60)), int(rng.integers(3, 9)), int(rng.integers(2, 5))
        labels = rng.integers(0, m, size=n)
        while np.bincount(labels, minlength=m).min() < 2:
            labels = rng.integers(0, m, size=n)
        h = tape.const(rng.normal(size=(n, k)))
        pools = class_pools(labels, np.arange(n), m)
        plan = SamplingPlan(counts=rng.integers(0, 40, size=m))
        batch = smote_interpolate(h, plan, pools, rng)
        rows = batch.embed(h).value
        total += batch.labels.size
        assert np.all(batch.deltas >= 0.0) and np.all(batch.deltas <= 1.0)
        for i, (v, nn) in enumerate(batch.parents):
            # label preservation on both parents
            assert labels[v] == batch.labels[i] == labels[nn]
            # segment membership: exact recomputation from the logged draw
            d = batch.deltas[i]
            expected = (1.0 - d) * h.value[v] + d * h.value[nn]
            assert np.array_equal(rows[i], expected)

    # class balance after a "balance" plan
    sizes = np.array([23, 9, 4, 17])
    labels = np.repeat(np.arange(4), sizes)
    from imbnode.graph import ClassStats

    plan = plan_from_scale(ClassStats(sizes=sizes), "balance")
    h = tape.const(rng.normal(size=(labels.size, 5)))
    batch = smote_interpolate(h, plan, class_pools(labels, np.arange(labels.size), 4), rng)
    counts = sizes + np.bincount(batch.labels, minlength=4)
    assert np.all(counts == sizes.max())
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oversampling invariants took {elapsed:.1f}s"
    announce(3, f"{total} synthetic nodes: labels, segments, deltas, balance ({elapsed:.1f}s)")


# -- 4: augmentation invariants ----------------------------------------------------


def test_criterion_4_augmentation_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    for seed in range(5):
        g = generate_sbm_graph([8, 8, 6], 0.6, 0.2, 3, seed=seed)
        params = ParamStore()
        params.add("S", glorot(5, 5, np.random.default_rng(seed)))
        h1 = tape.const(rng.normal(size=(g.n, 5)))
        pools = class_pools(g.labels, np.arange(g.n), g.m)
        batch = smote_interpolate(h1, SamplingPlan(counts=np.array([0, 2, 3])), pools, rng)
        a = g.dense_adjacency()

        soft = edgegen.augment_soft(h1, edgegen.symmetric_interaction(params["S"]), batch, g)
        assert np.all(soft.syn_real.value >= 0.0) and np.all(soft.syn_real.value <= 1.0)
        previous = None
        for eta in np.linspace(1.0, 0.0, 10):
            aug = edgegen.AugmentedGraph(g, h1, edgegen.augment_thresholded(h1, params["S"], batch, float(eta)))
            dense = adjacency_dense(aug)
            assert np.array_equal(dense[: g.n, : g.n], a)  # real block bit-equal
            assert np.array_equal(dense, dense.T)
            if previous is not None:
                assert np.all(aug.syn_real.value >= previous)  # eta monotonicity
            previous = aug.syn_real.value
        dense_soft = adjacency_dense(soft)
        assert np.array_equal(dense_soft[: g.n, : g.n], a)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"augmentation invariants took {elapsed:.1f}s"
    announce(4, f"real block exact, eta monotone on 10-point grid, soft in [0,1] ({elapsed:.1f}s)")


# -- 5 and 7: synthetic trend fixture -------------------------------------------------

TREND_VARIANTS = ("origin", "oversample_dup", "gs_t", "gs_o", "gs_pre_t", "gs_pre_o")


def _trend_run(variant, seed):
    """Test macro-F of one fixture run."""
    g = generate_sbm_graph([200, 200, 200, 20], 0.05, 0.005, 16, seed=seed)
    masks = make_proportional_split(g, 0.25, 0.25, seed=seed)
    cfg = TrainConfig(
        variant=variant,
        seed=seed,
        scale="balance",
        lambda_=1e-6,
        eta=0.005,  # at the fixture's edge-density scale (see ledger)
        max_epochs=300,
        patience=50,
        pretrain_max_epochs=200,
        pretrain_patience=20,
    )
    _, record = train(g, masks, cfg)
    return record.report.f_macro


@pytest.fixture(scope="module")
def trend_runs():
    """{variant: mean F over seeds 0-2}, {(variant, seed): F} and the wall time.

    The 18 runs are independent, so they are mapped over one process per
    usable CPU, longest variants first. Each worker imports imbnode before
    NumPy, so it keeps BLAS on one thread."""
    started = time.perf_counter()
    tasks = [(v, s) for v in reversed(TREND_VARIANTS) for s in range(3)]
    workers = min(len(tasks), len(os.sched_getaffinity(0)))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, ctx, initializer=importlib.import_module, initargs=("imbnode",)) as pool:
        fs = dict(zip(tasks, pool.map(_trend_run, *zip(*tasks))))
    means = {v: float(np.mean([fs[v, s] for s in range(3)])) for v in TREND_VARIANTS}
    return means, fs, time.perf_counter() - started


# Each run's test F from `_trend_run(variant, seed)` called in one process,
# serially: the pool must reproduce them bit for bit.
SERIAL_TREND_F = {
    ("origin", 0): 0.9697346600331674,
    ("origin", 1): 0.8830755269575221,
    ("origin", 2): 0.9325980392156863,
    ("oversample_dup", 0): 0.9202763120912618,
    ("oversample_dup", 1): 0.954294910004329,
    ("oversample_dup", 2): 0.9521877716603884,
    ("gs_t", 0): 0.9521877716603884,
    ("gs_t", 1): 0.956794786857686,
    ("gs_t", 2): 0.9341819043311581,
    ("gs_o", 0): 0.9325616376246845,
    ("gs_o", 1): 0.954306481983433,
    ("gs_o", 2): 0.9521633243218965,
    ("gs_pre_t", 0): 0.9325616376246845,
    ("gs_pre_t", 1): 0.9672713595343989,
    ("gs_pre_t", 2): 0.9672713595343988,
    ("gs_pre_o", 0): 0.9521877716603884,
    ("gs_pre_o", 1): 0.969999499949995,
    ("gs_pre_o", 2): 0.9974999374984375,
}


def test_trend_runs_in_the_pool_match_serial_runs(trend_runs):
    _, fs, _ = trend_runs
    assert fs == SERIAL_TREND_F


def test_criterion_5_synthetic_trend(trend_runs):
    means, _, elapsed = trend_runs
    gap_origin = means["gs_pre_o"] - means["origin"]
    gap_dup = means["gs_pre_o"] - means["oversample_dup"]
    assert gap_origin >= 0.02, f"gs_pre_o - origin = {gap_origin:+.4f}"
    assert gap_dup > 0.0, f"gs_pre_o - oversample_dup = {gap_dup:+.4f}"
    assert elapsed < 600.0, f"trend fixture took {elapsed:.0f}s"
    announce(
        5,
        f"macro-F gs_pre_o={means['gs_pre_o']:.4f} vs origin={means['origin']:.4f} "
        f"(+{gap_origin:.4f}) and dup={means['oversample_dup']:.4f} ({elapsed:.0f}s)",
    )


def test_criterion_7_pretraining_not_worse(trend_runs):
    means, _, _ = trend_runs
    for pre, base in (("gs_pre_t", "gs_t"), ("gs_pre_o", "gs_o")):
        margin = means[pre] - means[base]
        assert margin >= -0.01, f"{pre}={means[pre]:.4f} vs {base}={means[base]:.4f} ({margin:+.4f})"
    announce(
        7,
        "pretrained variants within tolerance of non-pretrained: "
        + ", ".join(f"{v}={means[v]:.4f}" for v in ("gs_t", "gs_pre_t", "gs_o", "gs_pre_o")),
    )


# -- 6: real-dataset trend (when files are supplied) ------------------------------------

CORA_ENV = "IMBNODE_CORA_DIR"


def _cora_runs(g, ratio, variants, seeds, scale):
    out = {v: {"f": [], "auc": []} for v in variants}
    for seed in seeds:
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        minority = sorted(int(c) for c in rng.choice(g.m, size=3, replace=False))
        masks = make_artificial_imbalance(g, minority, ratio, 20, seed=int(rng.integers(2**31)))
        for variant in variants:
            cfg = TrainConfig(
                variant=variant,
                seed=seed,
                scale=scale,
                lambda_=1e-6,
                eta=0.005,
                max_epochs=300,
                patience=50,
                pretrain_max_epochs=80,
                pretrain_patience=15,
            )
            _, record = train(g, masks, cfg)
            out[variant]["f"].append(record.report.f_macro)
            out[variant]["auc"].append(record.report.auc_macro)
    return out


@pytest.mark.skipif(CORA_ENV not in os.environ, reason="set IMBNODE_CORA_DIR to run")
def test_criterion_6_cora_trend():
    started = time.perf_counter()
    root = Path(os.environ[CORA_ENV])
    g = load_graph(root / "edges.tsv", root / "features.txt", root / "labels.txt")
    seeds = (0, 1, 2)

    main = _cora_runs(g, 0.5, ("origin", "gs_pre_o"), seeds, scale=2.0)
    f_gap = np.mean(main["gs_pre_o"]["f"]) - np.mean(main["origin"]["f"])
    auc_pre_o = float(np.mean(main["gs_pre_o"]["auc"]))
    assert f_gap >= 0.01, f"macro-F gap {f_gap:+.4f}"
    assert abs(auc_pre_o - 0.934) <= 0.04, f"gs_pre_o AUC {auc_pre_o:.4f}"

    low = _cora_runs(g, 0.1, ("gs_pre_o", "reweight"), seeds, scale=1.0)
    high = _cora_runs(g, 0.6, ("gs_pre_o", "reweight"), seeds, scale=1.0)
    gap_low = np.mean(low["gs_pre_o"]["auc"]) - np.mean(low["reweight"]["auc"])
    gap_high = np.mean(high["gs_pre_o"]["auc"]) - np.mean(high["reweight"]["auc"])
    assert gap_low > gap_high, f"AUC gap at 0.1 ({gap_low:+.4f}) vs 0.6 ({gap_high:+.4f})"

    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0, f"real-dataset trend took {elapsed:.0f}s"
    announce(
        6,
        f"macro-F gap {f_gap:+.4f}, AUC {auc_pre_o:.4f}, "
        f"ratio-gap pattern {gap_low:+.4f} > {gap_high:+.4f} ({elapsed:.0f}s)",
    )


# -- 8: determinism -----------------------------------------------------------------


def test_criterion_8_bit_identical_summaries(tmp_path):
    spec = tmp_path / "det.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 12,12,6",
                "sbm_p_in = 0.4",
                "sbm_p_out = 0.05",
                "sbm_dim = 4",
                "protocol = proportional",
                "variants = origin,gs_pre_o",
                "seeds = 0,1",
                "max_epochs = 6",
                "patience = 50",
                "pretrain_max_epochs = 5",
                "pretrain_patience = 5",
                "embed_dim = 8",
                "hidden_dim = 8",
                "scale = balance",
            ]
        )
    )
    blobs = []
    for name in ("first", "second"):
        assert cli_main(["grid", "--spec", str(spec), "--out", str(tmp_path / name)]) == 0
        blobs.append(
            (tmp_path / name / "summary.csv").read_bytes()
            + (tmp_path / name / "runs.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]
    announce(8, "rerun of an identical grid spec is byte-identical")
