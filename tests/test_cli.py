"""End-to-end command-line runs on small generated datasets."""
import json
import re

import numpy as np
import pytest

from imbnode.classifier import read_predictions
from imbnode.cli import build_masks, load_spec_graph, main, parse_config_file, spec_from_pairs
from imbnode.graph import load_graph
from imbnode.metrics import full_report
from imbnode.train import VARIANTS


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
        ("scale = -1", "scale", "scale must be 'balance' or a number >= 0"),
        ("scale = nan", "scale", "scale must be 'balance' or a number >= 0"),
        ("weight_decay = -1", "weight_decay", "weight_decay must be >= 0"),
        ("patience = -5", "patience", "patience must be >= 0"),
        ("pretrain_patience = -1", "pretrain_patience", "pretrain_patience must be >= 0"),
        ("pretrain_max_epochs = -1", "pretrain_max_epochs", "pretrain_max_epochs must be >= 0"),
        ("ratio = 0", "ratio", "ratio must be in (0, 1]"),
        ("val_frac = 1.5", "val_frac", "val_frac must lie in [0, 1)"),
        ("train_frac = 1", "train_frac", "train_frac must lie in (0, 1)"),
        ("val_frac = 0.75", "val_frac", "train_frac + val_frac must be < 1 for a proportional split"),
        ("train_frac = 0.8", "train_frac", "train_frac + val_frac must be < 1 for a proportional split"),
        ("workers = 0", "workers", "workers must be >= 1"),
    ],
    ids=[
        "sweep",
        "variants",
        "lr",
        "lambda",
        "scale",
        "scale_nan",
        "weight_decay",
        "patience",
        "pretrain_patience",
        "pretrain_max_epochs",
        "ratio",
        "val_frac",
        "train_frac",
        "split_sum_val",
        "split_sum_train",
        "workers",
    ],
)
def test_out_of_range_values_name_key_and_line(tmp_path, capsys, line, key, message):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"# a spec\nseeds = 0\n{line}\n")
    want = f"{cfg}:3: bad value for {key!r}: {message}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
        spec_from_pairs(parse_config_file(cfg))
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert f"error: {want}" in capsys.readouterr().err
    # a value set on the command line says so
    raw = line.partition("=")[2].strip()
    with pytest.raises(ValueError, match=f"^command line: bad value for {key!r}: "):
        spec_from_pairs({key: (raw, "command line")})


def test_grid_flags_are_checked_as_command_line_values(tmp_path, capsys):
    spec = tmp_path / "ok.cfg"
    spec.write_text(f"sbm_sizes = 5,5\nout = {tmp_path / 'out'}\n")
    assert main(["grid", "--spec", str(spec), "--workers", "-3"]) == 2
    assert "error: command line: bad value for 'workers': workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_parser_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# a spec\nmax_epochs = 3\nnot_a_key = 1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:3: unknown config key 'not_a_key'$"):
        spec_from_pairs(parse_config_file(cfg))
    # a key this version no longer has fails the same way, at its line
    cfg.write_text("nn_scope = labeled\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:1: unknown config key 'nn_scope'$"):
        spec_from_pairs(parse_config_file(cfg))
    # a value that does not parse names its key and line
    cfg.write_text("seeds = 0\n\nmax_epochs = ten\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(cfg))}:3: bad value for 'max_epochs': "):
        spec_from_pairs(parse_config_file(cfg))
    assert main(["grid", "--spec", str(cfg)]) == 2
    assert f"{cfg}:3: bad value for 'max_epochs'" in capsys.readouterr().err
    # flags parse through the same path
    assert main(["train", "--sbm-sizes", "5,5", "--scale", "half"]) == 2
    assert "command line: bad value for 'scale'" in capsys.readouterr().err
