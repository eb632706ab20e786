"""End-to-end command-line runs on small generated datasets."""
import argparse
import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import imbnode
from imbnode import cli
from imbnode.classifier import read_predictions
from imbnode.cli import ExperimentSpec, build_masks, load_spec_graph, main, parse_config_file, spec_from_pairs
from imbnode.graph import load_graph
from imbnode.metrics import full_report
from imbnode.train import VARIANTS, TrainConfig


@pytest.fixture()
def sbm_files(tmp_path):
    out = tmp_path / "data"
    code = main(
        [
            "gen-sbm",
            "--sizes",
            "12,12,6",
            "--p-in",
            "0.4",
            "--p-out",
            "0.05",
            "--dim",
            "4",
            "--seed",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out / "edges.tsv", out / "features.txt", out / "labels.txt"


def test_gen_sbm_files_load(sbm_files):
    g = load_graph(*sbm_files)
    assert g.n == 30 and g.m == 3 and g.d == 4
    assert (g.adjacency != g.adjacency.T).nnz == 0


def test_python_m_imbnode_runs_the_command_from_a_source_checkout(tmp_path):
    """`PYTHONPATH=src python -m imbnode ...` is the console script's
    command without an install."""
    src = Path(imbnode.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "data"
    args = ["gen-sbm", "--sizes", "5,5", "--p-in", "0.5", "--p-out", "0.1", "--dim", "2", "--out", str(out)]
    done = subprocess.run([sys.executable, "-m", "imbnode", *args], env=env, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in out.iterdir()) == ["edges.tsv", "features.txt", "labels.txt"]
    assert load_graph(out / "edges.tsv", out / "features.txt", out / "labels.txt").n == 10


def test_train_from_files_writes_outputs(tmp_path, sbm_files, capsys):
    edge, feat, label = sbm_files
    out = tmp_path / "run"
    # epoch budget comes from a config file to exercise the override chain
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_epochs = 6\npatience = 50\nembed_dim = 8\nhidden_dim = 8\n")
    code = main(
        [
            "train",
            "--edge-file", str(edge),
            "--feature-file", str(feat),
            "--label-file", str(label),
            "--protocol", "proportional",
            "--variant", "reweight",
            "--seed", "1",
            "--config", str(cfg),
            "--out", str(out),
        ]
    )
    assert code == 0
    for name in ("record.jsonl", "summary.csv", "predictions.csv", "checkpoint.npz"):
        assert (out / name).exists(), name
    assert "reweight" in capsys.readouterr().out


def test_train_rerun_byte_identical_summary(tmp_path, sbm_files):
    edge, feat, label = sbm_files
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_epochs = 5\npatience = 50\nembed_dim = 8\nhidden_dim = 8\nscale = balance\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(
            [
                "train",
                "--edge-file", str(edge),
                "--feature-file", str(feat),
                "--label-file", str(label),
                "--protocol", "proportional",
                "--variant", "gs_t",
                "--seed", "7",
                "--config", str(cfg),
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("variant", VARIANTS)
def test_predictions_score_to_recorded_test_metrics(tmp_path, variant):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sbm_sizes = 40,40,8\nsbm_p_in = 0.2\nsbm_p_out = 0.02\nsbm_dim = 4\n"
        "max_epochs = 30\npatience = 50\nembed_dim = 8\nhidden_dim = 8\n"
        "pretrain_max_epochs = 5\nscale = balance\neta = 0.005\n"
    )
    out = tmp_path / "run"
    args = ["train", "--config", str(cfg), "--variant", variant, "--seed", "0", "--out", str(out)]
    assert main(args) == 0

    spec = spec_from_pairs(parse_config_file(cfg))
    masks, _ = build_masks(load_spec_graph(spec), spec, spec.ratio, 0)
    labels, preds, probs = read_predictions(out / "predictions.csv")
    report = full_report(probs, labels, masks.test, num_classes=probs.shape[1], preds=preds)
    recorded = json.loads((out / "record.jsonl").read_text().splitlines()[0])["test"]
    assert report.f_macro == recorded["f_macro"]
    assert report.auc_macro == recorded["auc_macro"]


def test_missing_dataset_files_actionable_error(tmp_path, capsys):
    code = main(
        [
            "train",
            "--edge-file", str(tmp_path / "nope.tsv"),
            "--feature-file", str(tmp_path / "nope.txt"),
            "--label-file", str(tmp_path / "nope2.txt"),
            "--variant", "origin",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "edge_file" in err and "missing" in err


def test_grid_spec_runs_and_series(tmp_path):
    spec = tmp_path / "grid.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 10,10,5",
                "sbm_p_in = 0.4",
                "sbm_p_out = 0.05",
                "sbm_dim = 4",
                "protocol = proportional",
                "sweep = scale",
                "sweep_values = 0.5,1.0",
                "variants = origin,gs_t",
                "seeds = 0,1",
                "max_epochs = 4",
                "patience = 50",
                "embed_dim = 6",
                "hidden_dim = 6",
                f"out = {tmp_path / 'gridout'}",
            ]
        )
    )
    code = main(["grid", "--spec", str(spec)])
    assert code == 0
    out = tmp_path / "gridout"
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 * 2 * 2  # header + values x seeds x variants
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2 * 2  # header + values x variants
    for variant in ("origin", "gs_t"):
        for metric in ("acc", "auc", "f"):
            series = (out / "series" / f"{variant}_{metric}.csv").read_text().splitlines()
            assert len(series) == 3  # header + one row per sweep value
            assert series[1].startswith("0.5,")
            assert series[2].startswith("1.0,")
    assert len(list((out / "records").glob("*.jsonl"))) == 8
    assert (out / "failures.csv").read_text().splitlines() == ["sweep_value,variant,seed,error"]


def test_stopped_grid_keeps_its_finished_runs(tmp_path, monkeypatch):
    spec = tmp_path / "grid.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 8,8,4",
                "sbm_p_in = 0.5",
                "sbm_p_out = 0.1",
                "sbm_dim = 3",
                "protocol = proportional",
                "variants = origin,reweight,gs_t",
                "seeds = 0",
                "max_epochs = 3",
                "patience = 50",
                "embed_dim = 5",
                "hidden_dim = 5",
            ]
        )
    )
    full, stopped = tmp_path / "full", tmp_path / "stopped"
    assert main(["grid", "--spec", str(spec), "--out", str(full)]) == 0
    calls = []

    def train_stopped_at_third_run(*args):
        calls.append(args)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return cli_train(*args)

    cli_train = cli.train
    monkeypatch.setattr(cli, "train", train_stopped_at_third_run)
    with pytest.raises(KeyboardInterrupt):
        main(["grid", "--spec", str(spec), "--out", str(stopped)])

    settings = [json.loads((d / "spec.json").read_text()) for d in (full, stopped)]
    assert [s.pop("out") for s in settings] == [str(full), str(stopped)]
    assert settings[0] == settings[1]
    assert (stopped / "runs.csv").read_text().splitlines() == (full / "runs.csv").read_text().splitlines()[:3]
    assert (stopped / "failures.csv").read_text().splitlines() == ["sweep_value,variant,seed,error"]
    records = sorted(p.name for p in (stopped / "records").iterdir())
    assert records == ["origin_s0.jsonl", "reweight_s0.jsonl"]
    for name in records:
        lines = [(d / "records" / name).read_text().splitlines() for d in (full, stopped)]
        heads = [json.loads(record[0]) for record in lines]
        for head in heads:
            del head["wall_time"]
        assert heads[0] == heads[1]
        assert lines[0][1:] == lines[1][1:]


def test_grid_rerun_byte_identical(tmp_path):
    spec = tmp_path / "grid.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 8,8,4",
                "sbm_p_in = 0.5",
                "sbm_p_out = 0.1",
                "sbm_dim = 3",
                "protocol = proportional",
                "variants = origin",
                "seeds = 0",
                "max_epochs = 3",
                "patience = 50",
                "embed_dim = 5",
                "hidden_dim = 5",
            ]
        )
    )
    blobs = []
    for name in ("g1", "g2"):
        code = main(["grid", "--spec", str(spec), "--out", str(tmp_path / name)])
        assert code == 0
        blobs.append(
            (tmp_path / name / "summary.csv").read_bytes()
            + (tmp_path / name / "runs.csv").read_bytes()
        )
    assert blobs[0] == blobs[1]


def test_spec_json_train_map_lists_only_config_keys(tmp_path):
    spec = tmp_path / "grid.cfg"
    spec.write_text("sbm_sizes = 8,8,4\nvariants = origin,reweight\nseeds = 0,1\nmax_epochs = 2\n")
    assert main(["grid", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
    recorded = json.loads((tmp_path / "out" / "spec.json").read_text())
    assert list(recorded["train"]) == list(cli._TRAIN_DEFAULTS)
    assert recorded["variants"] == ["origin", "reweight"] and recorded["seeds"] == [0, 1]


def test_reference_grid_spec_runs_every_variant():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reference_grid.cfg"
    spec = spec_from_pairs(parse_config_file(path))
    assert tuple(spec.variants) == VARIANTS
    assert spec.seeds == [0, 1] and spec.sbm_sizes == [200, 200, 200, 20]


def test_lambda_sweep_echoes_configured_values(tmp_path):
    spec = tmp_path / "lam.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 8,8,4",
                "sbm_p_in = 0.5",
                "sbm_p_out = 0.1",
                "sbm_dim = 3",
                "protocol = proportional",
                "sweep = lambda",
                "sweep_values = 1e-7,1e-6,2e-6",
                "variants = gs_t",
                "seeds = 0",
                "max_epochs = 2",
                "patience = 50",
                "embed_dim = 5",
                "hidden_dim = 5",
                f"out = {tmp_path / 'lam'}",
            ]
        )
    )
    assert main(["grid", "--spec", str(spec)]) == 0
    series = (tmp_path / "lam" / "series" / "gs_t_auc.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in series[1:]] == ["1e-07", "1e-06", "2e-06"]


def test_train_from_generated_graph_flag(tmp_path):
    out = tmp_path / "sbmrun"
    code = main(
        [
            "train",
            "--sbm-sizes", "10,10,5",
            "--p-in", "0.4",
            "--p-out", "0.05",
            "--sbm-dim", "3",
            "--protocol", "proportional",
            "--variant", "gs_o",
            "--scale", "balance",
            "--seed", "2",
            "--config", str(_mini_cfg(tmp_path)),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()


def _mini_cfg(tmp_path):
    cfg = tmp_path / "mini.cfg"
    cfg.write_text("max_epochs = 3\npatience = 50\nembed_dim = 5\nhidden_dim = 5\n")
    return cfg


def test_metrics_scores_prediction_dump(tmp_path, capsys):
    from imbnode.classifier import write_predictions

    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(3), size=20)
    labels = rng.integers(0, 3, size=20)
    path = tmp_path / "pred.csv"
    write_predictions(path, probs, labels)
    assert main(["metrics", "--pred", str(path)]) == 0
    out = capsys.readouterr().out
    assert "acc=" in out and "auc_macro=" in out and "f_macro=" in out
    assert "class 2:" in out


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("", 1, "expected a header"),
        ("node_id,true_label,predicted_label,p_0,p_1\n0,1,1,0.25,0.75\n1,0,0,0.5\n", 3, "expected 5 columns, got 4"),
        ("node_id,true_label,predicted_label,p_0,p_1\n0,x,1,0.25,0.75\n", 2, "non-numeric value"),
        ("node_id,true_label,predicted_label,p_0,p_1\n0,1,1,0.25,0.75\n1,0,1,nan,0.75\n", 3, "non-finite probability"),
        ("node_id,true_label,predicted_label,p_0,p_1\n0,5,1,0.25,0.75\n", 2, "true_label 5 outside [-1, 2)"),
        ("node_id,true_label,predicted_label,p_0,p_1\n0,1,7,0.25,0.75\n", 2, "predicted_label 7 outside [0, 2)"),
    ],
    ids=["empty", "short_row", "non_numeric", "non_finite", "true_label_range", "predicted_label_range"],
)
def test_metrics_rejects_malformed_prediction_dump(tmp_path, capsys, body, line, message):
    path = tmp_path / "pred.csv"
    path.write_text(body)
    assert main(["metrics", "--pred", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}:{line}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "body",
    ["node_id,true_label,predicted_label,p_0,p_1\n", "node_id,true_label,predicted_label,p_0,p_1\n0,-1,1,0.25,0.75\n"],
    ids=["header_only", "unlabeled_only"],
)
def test_metrics_rejects_a_dump_with_no_labeled_row(tmp_path, capsys, body):
    path = tmp_path / "pred.csv"
    path.write_text(body)
    assert main(["metrics", "--pred", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: no labeled row to score")
    assert captured.err.count("\n") == 1


def test_metrics_scores_labeled_rows_and_has_no_all_nodes_flag(tmp_path, capsys):
    path = tmp_path / "pred.csv"
    path.write_text("node_id,true_label,predicted_label,p_0,p_1\n0,0,0,0.75,0.25\n1,1,1,0.25,0.75\n2,-1,0,0.5,0.5\n")
    assert main(["metrics", "--pred", str(path)]) == 0
    assert capsys.readouterr().out.startswith("acc=1.000000 ")
    with pytest.raises(SystemExit) as exc:
        main(["metrics", "--pred", str(path), "--all-nodes"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --all-nodes" in capsys.readouterr().err


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("IMBNODE_OUT", str(tmp_path))
    code = main(["gen-sbm", "--sizes", "5,5", "--p-in", "0.5", "--p-out", "0.1", "--out", "envdata"])
    assert code == 0
    assert (tmp_path / "envdata" / "edges.tsv").exists()


def test_config_parser_round_trip(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nlambda = 1e-5\nscale = balance\nvariants = gs_o\nseeds = 3,4\n")
    spec = spec_from_pairs(parse_config_file(cfg))
    assert spec.train.lambda_ == 1e-5
    assert spec.train.scale == "balance"
    assert spec.variants == ["gs_o"]
    assert spec.seeds == [3, 4]


def test_grid_rejects_invalid_train_config_before_any_run(tmp_path, capsys):
    spec = tmp_path / "bad.cfg"
    spec.write_text(f"sbm_sizes = 5,5\nlr = -1\nout = {tmp_path / 'out'}\n")
    assert main(["grid", "--spec", str(spec)]) == 2
    assert f"{spec}:2: bad value for 'lr': lr must be > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, key, message",
    [
        ("sweep = scal", "sweep", "sweep must be one of ('none', 'scale', 'ratio', 'lambda')"),
        ("variants = origin,gs_x", "variants", "unknown variant 'gs_x'; choose from "),
        ("lr = -1", "lr", "lr must be > 0"),
        ("lambda = -1", "lambda", "lambda_ must be >= 0"),
        ("lr = inf", "lr", "lr must be finite"),
        ("lambda = inf", "lambda", "lambda_ must be finite"),
        ("scale = -1", "scale", "scale must be 'balance' or a finite number >= 0"),
        ("scale = nan", "scale", "scale must be 'balance' or a finite number >= 0"),
        ("scale = inf", "scale", "scale must be 'balance' or a finite number >= 0"),
        ("weight_decay = inf", "weight_decay", "weight_decay must be finite"),
        ("weight_decay = -1", "weight_decay", "weight_decay must be >= 0"),
        ("patience = -5", "patience", "patience must be >= 0"),
        ("pretrain_patience = -1", "pretrain_patience", "pretrain_patience must be >= 0"),
        ("pretrain_max_epochs = -1", "pretrain_max_epochs", "pretrain_max_epochs must be >= 0"),
        ("edge_dense_cap = -1", "edge_dense_cap", "edge_dense_cap must be >= 1"),
        ("ratio = 0", "ratio", "ratio must be in (0, 1]"),
        ("ratio = 0.01", "ratio", "round(majority_train_size * ratio) must be >= 1"),
        ("majority_train_size = 0", "majority_train_size", "round(majority_train_size * ratio) must be >= 1"),
        ("sweep = ratio", "sweep", "sweep=ratio needs protocol = artificial, not proportional"),
        ("val_frac = 1.5", "val_frac", "val_frac must lie in [0, 1)"),
        ("train_frac = 1", "train_frac", "train_frac must lie in (0, 1)"),
        ("val_frac = 0.75", "val_frac", "train_frac + val_frac must be < 1 for a proportional split"),
        ("train_frac = 0.8", "train_frac", "train_frac + val_frac must be < 1 for a proportional split"),
        ("workers = 0", "workers", "workers must be >= 1"),
        ("minority_count = 0", "minority_count", "minority_count must be >= 1"),
        ("sbm_p_in = 2", "sbm_p_in", "sbm_p_in must be in (0, 1]"),
        ("sbm_p_out = 0.5", "sbm_p_out", "sbm_p_out must be in [0, sbm_p_in)"),
        ("sbm_dim = 0", "sbm_dim", "sbm_dim must be >= 1"),
        ("sbm_mean_scale = nan", "sbm_mean_scale", "sbm_mean_scale must be finite and >= 0"),
        ("sbm_noise = inf", "sbm_noise", "sbm_noise must be finite and >= 0"),
        ("data_seed = -1", "data_seed", "data_seed must be >= 0"),
        ("seeds = -1", "seeds", "seeds must list at least one seed, each >= 0"),
        ("seeds = 0,0", "seeds", "seeds lists 0 more than once"),
        ("variants = origin,gs_t,origin", "variants", "variants lists 'origin' more than once"),
        ("sweep_values = 0.5,0.50", "sweep_values", "sweep_values lists 0.5 more than once"),
    ],
    ids=[
        "sweep",
        "variants",
        "lr",
        "lambda",
        "lr_inf",
        "lambda_inf",
        "scale",
        "scale_nan",
        "scale_inf",
        "weight_decay_inf",
        "weight_decay",
        "patience",
        "pretrain_patience",
        "pretrain_max_epochs",
        "edge_dense_cap",
        "ratio",
        "ratio_times_majority",
        "majority_train_size",
        "ratio_sweep_proportional",
        "val_frac",
        "train_frac",
        "split_sum_val",
        "split_sum_train",
        "workers",
        "minority_count",
        "sbm_p_in",
        "sbm_p_out",
        "sbm_dim",
        "sbm_mean_scale_nan",
        "sbm_noise_inf",
        "data_seed",
        "seeds_negative",
        "seeds_repeated",
        "variants_repeated",
        "sweep_values_repeated",
    ],
)
def test_out_of_range_values_name_key_and_line(tmp_path, capsys, line, key, message):
    cfg = tmp_path / "c.cfg"
    # the block-model rules apply to a spec that names a generated graph
    graph = "sbm_sizes = 40,40,40"
    seeds = "# seeds below" if key == "seeds" else "seeds = 0"  # a key is set once per file
    cfg.write_text(f"# a spec\n{seeds}\n{line}\n{graph}\nout = {tmp_path / 'out'}\n")
    want = f"{cfg}:3: bad value for {key!r}: {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
        spec_from_pairs(parse_config_file(cfg))
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert f"error: {want}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a value set by a flag is named by the flag, in place of its field name
    raw = line.partition("=")[2].strip()
    flag, field = "--" + key.replace("_", "-"), key.replace("lambda", "lambda_")
    want = message.replace(field, flag) if field in message else f"{flag}: {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
        spec_from_pairs({"sbm_sizes": (graph.partition("=")[2], f"{cfg}:4"), key: (raw, flag)})


@pytest.mark.parametrize(
    "sweep, values, message",
    [
        ("ratio", "0,1.5", "ratio sweep value 0.0: ratio must be in (0, 1]"),
        ("ratio", "0.5,1.5", "ratio sweep value 1.5: ratio must be in (0, 1]"),
        ("ratio", "0.5,0.01", "ratio sweep value 0.01: round(majority_train_size * ratio) must be >= 1"),
        ("scale", "1,-0.5", "scale sweep value -0.5: scale must be 'balance' or a finite number >= 0"),
        ("scale", "1,inf", "scale sweep value inf: scale must be 'balance' or a finite number >= 0"),
        ("lambda", "1e-6,nan", "lambda sweep value nan: lambda_ must be >= 0"),
        ("lambda", "1e-6,inf", "lambda sweep value inf: lambda_ must be finite"),
    ],
    ids=["ratio_zero", "ratio_above_one", "ratio_times_majority", "scale", "scale_inf", "lambda_nan", "lambda_inf"],
)
def test_sweep_values_are_range_checked_per_axis(tmp_path, capsys, sweep, values, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"protocol = artificial\nsweep = {sweep}\nsweep_values = {values}\n")
    want = f"{cfg}:3: bad value for 'sweep_values': {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        spec_from_pairs(parse_config_file(cfg))
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert f"error: {want}" in capsys.readouterr().err


def test_ratio_sweep_needs_the_artificial_protocol(tmp_path, capsys):
    spec = tmp_path / "ratio.cfg"
    lines = [
        "sbm_sizes = 30,30,30",
        "sweep = ratio",
        "sweep_values = 0.2,0.9",
        "max_epochs = 2",
        "patience = 50",
        "embed_dim = 5",
        "hidden_dim = 5",
        f"out = {tmp_path / 'out'}",
    ]
    spec.write_text("\n".join(lines) + "\n")
    # a generated graph defaults to the proportional split, which has no ratio
    assert main(["grid", "--spec", str(spec)]) == 2
    want = f"error: {spec}:2: bad value for 'sweep': sweep=ratio needs protocol = artificial, not proportional"
    assert want in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    spec.write_text("\n".join(["protocol = artificial"] + lines) + "\n")
    assert main(["grid", "--spec", str(spec)]) == 0
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in runs[1:]] == ["0.2", "0.9"]


@pytest.mark.parametrize(
    "lines, split",
    [
        (["sbm_sizes = 2,2,2", "train_frac = 0.5", "val_frac = 0.49"], "train_frac = 0.5, val_frac = 0.49"),
        (
            ["sbm_sizes = 21,21,21", "protocol = artificial", "val_frac = 0.99"],
            "majority_train_size = 20, ratio = 0.5, val_frac = 0.99",
        ),
    ],
    ids=["proportional", "artificial"],
)
def test_split_without_test_nodes_stops_before_any_run(tmp_path, capsys, lines, split):
    spec = tmp_path / "spec.cfg"
    spec.write_text("\n".join(lines + ["seeds = 3", "max_epochs = 2", f"out = {tmp_path / 'grid'}"]) + "\n")
    want = f"error: {spec}:3: bad value for 'val_frac': seed 3: the split leaves no test node ({split})"
    assert main(["grid", "--spec", str(spec)]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()
    assert main(["train", "--config", str(spec), "--variant", "origin", "--out", str(tmp_path / "run")]) == 2
    assert want in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_minority_count_above_the_class_count_stops_before_any_run(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    lines = ["sbm_sizes = 30,30,30", "protocol = artificial", "minority_count = 5", f"out = {tmp_path / 'grid'}"]
    spec.write_text("\n".join(lines) + "\n")
    assert main(["grid", "--spec", str(spec)]) == 2
    want = f"error: {spec}:3: bad value for 'minority_count': minority_count = 5 exceeds the graph's 3 classes"
    assert want in capsys.readouterr().err
    assert not (tmp_path / "grid").exists()


def test_grid_on_a_label_file_with_a_gap_stops_before_any_run(tmp_path, sbm_files, capsys):
    edge, feat, label = sbm_files
    label.write_text("".join("2\n" if line == "1" else line + "\n" for line in label.read_text().split()))
    spec = tmp_path / "spec.cfg"
    lines = [f"edge_file = {edge}", f"feature_file = {feat}", f"label_file = {label}", "protocol = artificial"]
    spec.write_text("\n".join(lines + ["max_epochs = 2", f"out = {tmp_path / 'grid'}"]) + "\n")
    assert main(["grid", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {label}: class ids must run from 0 to 2; class 1 has no node\n"
    assert not (tmp_path / "grid").exists()


def test_graph_dependent_errors_name_key_and_line(tmp_path, capsys):
    spec = tmp_path / "spec.cfg"
    lines = ["sbm_sizes = 40,40,40,40", "protocol = artificial", "majority_train_size = 500", "max_epochs = 2"]
    spec.write_text("\n".join(lines) + "\n")
    want = f"error: {spec}:3: bad value for 'majority_train_size': class 0 has 40 labeled nodes, needs 500\n"
    assert main(["grid", "--spec", str(spec), "--out", str(tmp_path / "grid")]) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "grid").exists()
    assert main(["train", "--config", str(spec), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "flags, want",
    [
        (["--p-in", "2"], "--p-in must be in (0, 1]"),
        (["--p-out", "0.5"], "--p-out must be in [0, sbm_p_in)"),
        (["--p-in", "0.2", "--p-out", "0.5"], "--p-out must be in [0, --p-in)"),
        (["--sbm-dim", "0"], "--sbm-dim must be >= 1"),
        (["--data-seed", "-1"], "--data-seed must be >= 0"),
        (["--seed", "-1"], "--seed must list at least one seed, each >= 0"),
        (["--ratio", "0.01", "--protocol", "artificial"], "round(majority_train_size * --ratio) must be >= 1"),
    ],
    ids=["p_in", "p_out", "p_out_and_p_in", "sbm_dim", "data_seed", "seed", "ratio"],
)
def test_train_flags_are_checked_as_command_line_values(tmp_path, capsys, flags, want):
    assert main(["train", "--sbm-sizes", "5,5", *flags, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "run").exists()


def test_gen_sbm_rejects_zero_feature_dimension(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-sbm", "--sizes", "5,5", "--dim", "0", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --dim must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, want",
    [
        (["--p-in", "2"], "--p-in must be in (0, 1]"),
        (["--p-in", "0.2", "--p-out", "0.5"], "--p-out must be in [0, --p-in)"),
        (["--mean-scale", "nan"], "--mean-scale must be finite and >= 0"),
        (["--seed", "-1"], "--seed must be >= 0"),
    ],
    ids=["p_in", "p_out", "mean_scale", "seed"],
)
def test_gen_sbm_errors_name_the_flag(tmp_path, capsys, flags, want):
    out = tmp_path / "data"
    assert main(["gen-sbm", "--sizes", "5,5", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {want}\n"
    assert not out.exists()


def test_gen_sbm_unparsable_sizes_name_the_flag(tmp_path, capsys):
    # parsed by the rule `train --sbm-sizes` uses, so the error names the flag the same way
    out = tmp_path / "data"
    assert main(["gen-sbm", "--sizes", "5,x", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --sizes: invalid literal for int() with base 10: 'x'\n"
    assert main(["train", "--sbm-sizes", "5,x", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: --sbm-sizes: invalid literal for int() with base 10: 'x'\n"
    assert not out.exists() and not (tmp_path / "run").exists()


def test_every_config_error_key_is_a_spec_or_train_config_field():
    """The CLI maps a ConfigError's keys to where they were set, so every key
    the library raises with must be a field; `test` is train's check of the
    split it is handed, which no config value sets."""
    fields = {f.name for cls in (ExperimentSpec, TrainConfig) for f in dataclasses.fields(cls)} | {"test"}

    def literals(node):
        if isinstance(node, ast.Constant):
            return [node.value]
        if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts):
            return [e.value for e in node.elts]
        return None

    keys = {}
    for path in sorted(Path(imbnode.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # the strings a loop `for key in ("a", "b")` or `for key, x in (("a", x1), ...)` binds
        loops = {}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)):
                continue
            if isinstance(node.target, ast.Name) and literals(node.iter):
                loops.setdefault(node.target.id, []).extend(literals(node.iter))
            elif isinstance(node.target, ast.Tuple) and isinstance(node.target.elts[0], ast.Name):
                firsts = [literals(e.elts[0]) for e in node.iter.elts if isinstance(e, ast.Tuple)]
                if firsts and all(firsts):
                    loops.setdefault(node.target.elts[0].id, []).extend(v for f in firsts for v in f)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ConfigError"):
                continue
            where = f"{path.name}:{node.lineno}"
            key = node.args[0]
            found = literals(key) or (loops.get(key.id) if isinstance(key, ast.Name) else None)
            assert found, f"{where}: ConfigError key is neither a literal nor a loop over literals"
            for kw in node.keywords:
                # a non-literal `related` re-raises keys checked where they were first raised
                if kw.arg == "related" and literals(kw.value) is not None:
                    found = found + literals(kw.value)
            for value in found:
                keys.setdefault(value, where)
    assert {"sbm_dim", "majority_train_size", "minority_count", "lr", "test"} <= set(keys)
    assert {key: where for key, where in keys.items() if key not in fields} == {}


def test_grid_flags_are_checked_as_command_line_values(tmp_path, capsys):
    spec = tmp_path / "ok.cfg"
    spec.write_text(f"sbm_sizes = 5,5\nout = {tmp_path / 'out'}\n")
    assert main(["grid", "--spec", str(spec), "--workers", "-3"]) == 2
    assert capsys.readouterr().err == "error: --workers must be >= 1\n"
    assert not (tmp_path / "out").exists()


def test_config_parser_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a spec\nmax_epochs = 3\nnot_a_key = 1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:3: unknown config key 'not_a_key'$"):
        spec_from_pairs(parse_config_file(cfg))
    # a key this version no longer has fails the same way, at its line
    for line in ("nn_scope = labeled", "agg = sum"):
        cfg.write_text(f"{line}\n")
        key = line.split()[0]
        with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:1: unknown config key {key!r}$"):
            spec_from_pairs(parse_config_file(cfg))
    # a value that does not parse names its key and line
    cfg.write_text("seeds = 0\n\nmax_epochs = ten\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:3: bad value for 'max_epochs': "):
        spec_from_pairs(parse_config_file(cfg))
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert f"{cfg}:3: bad value for 'max_epochs'" in capsys.readouterr().err
    # flags parse through the same path
    assert main(["train", "--sbm-sizes", "5,5", "--scale", "half"]) == 2
    assert capsys.readouterr().err == "error: --scale: could not convert string to float: 'half'\n"


@pytest.mark.parametrize("first, second", [("lr = 0.01", "lr = 0.02"), ("lambda = 1e-3", "lambda_ = 1e-4")])
def test_config_file_rejects_a_setting_given_twice(tmp_path, capsys, first, second):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"sbm_sizes = 5,5\n{first}\n\n{second}\nout = {tmp_path / 'out'}\n")
    want = f"{cfg}:4: config key {second.split()[0]!r} is set twice (also as {first.split()[0]!r} at {cfg}:2)"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        parse_config_file(cfg)
    for argv in (["grid", "--spec", str(cfg)], ["train", "--config", str(cfg)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {want}\n"
    assert not (tmp_path / "out").exists()


def test_a_flag_still_overrides_its_key_in_the_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("sbm_sizes = 5,5\nscale = 1.0\nlr = 0.01\n")
    flags = cli._FLAGS["train"]
    args = argparse.Namespace(**{**dict.fromkeys(flags), "scale": "2.0"})
    spec = spec_from_pairs(cli._flag_pairs(args, flags, parse_config_file(cfg)))
    assert spec.train.scale == 2.0 and spec.train.lr == 0.01


@pytest.mark.parametrize(
    "argv, want",
    [
        (["train", "--sbm-sizes", "5,5", "--p-in", "abc"], "--p-in: could not convert string to float: 'abc'"),
        (["train", "--sbm-sizes", "5,5", "--variant", "nope"], "--variant: unknown variant 'nope'; choose from "),
        (["train", "--sbm-sizes", "5,5", "--protocol", "x"], "--protocol must be 'artificial' or 'proportional'"),
        (["grid", "--spec", "SPEC", "--workers", "two"], "--workers: invalid literal for int() with base 10: 'two'"),
        (["gen-sbm", "--sizes", "5,5", "--dim", "x"], "--dim: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["train_p_in", "train_variant", "train_protocol", "grid_workers", "gen_sbm_dim"],
)
def test_bad_flag_values_fail_like_file_values(tmp_path, capsys, argv, want):
    spec = tmp_path / "ok.cfg"
    spec.write_text("sbm_sizes = 5,5\n")
    argv = [str(spec) if a == "SPEC" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {want}") and captured.err.count("\n") == 1
    assert "usage" not in captured.err + captured.out
    assert not (tmp_path / "out").exists()


def test_gen_sbm_names_the_flag_of_a_default(tmp_path, capsys):
    assert main(["gen-sbm", "--sizes", "5,5", "--p-out", "0.5", "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == "error: --p-out must be in [0, --p-in)\n"
    assert main(["gen-sbm", "--out", str(tmp_path / "data")]) == 2
    assert capsys.readouterr().err == "error: --sizes must list at least one class size, each >= 1\n"
    assert not (tmp_path / "data").exists()


def test_flag_tables_set_config_keys_listed_in_help(capsys):
    config_keys = cli._SPEC_DEFAULTS.keys() | cli._TRAIN_DEFAULTS.keys()
    assert len(config_keys) == 34 and not config_keys & cli._PER_RUN.keys()
    for command, flags in cli._FLAGS.items():
        assert set(flags) <= config_keys, command
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        for key, flag in flags.items():
            assert f"  {flag} {key.upper()}" in out, (command, flag)


@pytest.mark.parametrize(
    "line, use", [("variant = gs_t", "variants"), ("seed = 5", "seeds"), ("synth_log = s.csv", "train --synth-log")]
)
def test_per_run_fields_are_not_config_keys(tmp_path, capsys, line, use):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"sbm_sizes = 5,5\n{line}\nout = {tmp_path / 'out'}\n")
    want = f"error: {cfg}:2: unknown config key {line.split()[0]!r}; use {use}\n"
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert capsys.readouterr().err == want
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == want
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, values", [("variants", "origin,gs_t"), ("seeds", "0,1")])
def test_train_with_several_variants_or_seeds_names_where_they_were_set(tmp_path, capsys, key, values):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"sbm_sizes = 5,5\n{key} = {values}\n")
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    message = f"{key} must list one value for train; use grid for more"
    assert capsys.readouterr().err == f"error: {cfg}:2: bad value for {key!r}: {message}\n"
    flag = {"variants": "--variant", "seeds": "--seed"}[key]
    assert main(["train", "--sbm-sizes", "5,5", flag, values, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.replace(key, flag)}\n"
    assert not out.exists()
