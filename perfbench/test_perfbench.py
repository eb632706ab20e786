"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from stats import median, percentile, tail_percentile, valid_name, valid_unit  # noqa: E402


@pytest.mark.parametrize(
    "count, expected",
    [(20, 50), (36, 72), (130, 92), (513, 98), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_percentile_interpolates_between_order_statistics():
    xs = [4.0, 1.0, 3.0, 2.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 4.0
    assert median(xs) == 2.5
    assert percentile(xs, 75) == pytest.approx(3.25)


def test_self_time_subtracts_nested_children():
    trace = [
        ("a", 0.0, 10.0, -1, 1),
        ("b", 1.0, 4.0, 0, 1),
        ("c", 2.0, 3.0, 1, 1),
        ("d", 5.0, 7.0, 0, 1),
        ("b", 8.0, 9.0, 0, 1),
    ]
    got = spans.self_times(trace)
    assert got["a"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert got["b"] == {"calls": 2, "total_s": 4.0, "self_s": 3.0}
    assert got["c"]["self_s"] == 1.0
    assert got["d"]["self_s"] == 2.0


def test_self_time_counts_overlapping_children_once_and_clips_them():
    trace = [
        ("p", 0.0, 10.0, -1, 0),
        ("x", 1.0, 5.0, 0, 0),
        ("y", 3.0, 8.0, 0, 0),
        ("z", 9.0, 12.0, 0, 0),
    ]
    assert spans.self_times(trace)["p"]["self_s"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_bucket_shares_partition_traced_time():
    trace = [
        ("outer", 0.0, 10.0, -1, 0),
        ("edge", 2.0, 6.0, 0, 0),
        ("inner", 3.0, 4.0, 1, 0),
    ]
    shares = spans.bucket_shares(trace, lambda path: "edge" if "edge" in path else path[0])
    assert shares == pytest.approx({"outer": 0.6, "edge": 0.4})


def test_tracer_records_parent_run_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    def boom():
        raise RuntimeError("fails")

    leaf_t = tracer.wrap("m.leaf", leaf, count=lambda result, x: {"work": x})
    boom_t = tracer.wrap("m.boom", boom)

    def outer():
        leaf_t(2)
        with pytest.raises(RuntimeError):
            boom_t()
        return leaf_t(5)

    outer_t = tracer.wrap("m.outer", outer, starts_run=True)
    assert outer_t() == 6
    assert outer_t() == 6
    names = [(name, parent, run_id) for name, _, _, parent, run_id in tracer.spans]
    assert names[:4] == [("m.outer", -1, 1), ("m.leaf", 0, 1), ("m.boom", 0, 1), ("m.leaf", 0, 1)]
    assert names[4] == ("m.outer", -1, 2)
    assert tracer.counters == {"m.leaf.work": 14}
    assert tracer.run == 0


def test_install_wraps_names_callers_look_up_and_restores():
    import imbnode
    from imbnode import cli, generate_sbm_graph, make_proportional_split

    train_mod = importlib.import_module("imbnode.train")
    originals = (train_mod.train, train_mod.adam_step, cli.train, imbnode.train)
    tracer = spans.Tracer()
    restore = spans.install(tracer, {})
    try:
        assert train_mod.adam_step is not originals[1]
        assert cli.train is train_mod.train is imbnode.train
        assert train_mod.smote_interpolate is importlib.import_module("imbnode.oversample").smote_interpolate
        g = generate_sbm_graph([6, 6, 4], 0.6, 0.1, 4, seed=0)
        masks = make_proportional_split(g, 0.5, 0.25, seed=0)
        cfg = train_mod.TrainConfig(variant="gs_pre_t", max_epochs=2, pretrain_max_epochs=1, embed_dim=4, hidden_dim=4)
        train_mod.train(g, masks, cfg)
    finally:
        restore()
    assert (train_mod.train, train_mod.adam_step, cli.train, imbnode.train) == originals
    calls = spans.self_times(tracer.spans)
    for name in ("train.train", "train.pretrain", "optim.adam_step", "optim.snapshot", "edgegen.edge_loss"):
        assert calls[name]["calls"] > 0, name
    assert calls["optim.adam_step"]["calls"] == 3
    assert {span[-1] for span in tracer.spans} == {1}


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower" and setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("name", ["", "_x", "a b", "x" * 65, "é"])
def test_invalid_metric_names_are_rejected(name):
    assert not valid_name(name)
