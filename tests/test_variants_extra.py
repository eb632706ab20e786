"""Mean aggregation over the augmented graph, and grid failure handling."""
import csv
import importlib

import numpy as np

import oracles
from imbnode import edgegen, tape
from imbnode.cli import main as cli_main
from imbnode.graph import generate_sbm_graph
from imbnode.optim import ParamStore, glorot
from imbnode.oversample import SamplingPlan, class_pools, smote_interpolate

train_mod = importlib.import_module("imbnode.train")  # the package's `train` is the function


def setup_aug(seed=0):
    g = generate_sbm_graph([6, 6, 4], 0.7, 0.2, 3, seed=seed)
    rng = np.random.default_rng(seed)
    params = ParamStore()
    params.add("S", glorot(5, 5, rng))
    params.add("W2", glorot(10, 4, rng))
    params.add("Wc", glorot(8, 3, rng))
    h1 = tape.param(rng.normal(size=(g.n, 5)))
    pools = class_pools(g.labels, np.arange(g.n), g.m)
    batch = smote_interpolate(h1, SamplingPlan(counts=np.array([0, 0, 3])), pools, rng)
    return g, params, h1, batch


def aggregate(aug):
    """mean(x) over the augmented graph, x = h1 then the synthetic embeddings,
    through the fused block with W = [0; I], which keeps the aggregate half."""
    x = aug.x
    w = tape.const(np.vstack([np.zeros((x.cols, x.cols)), np.eye(x.cols)]))
    return tape.graph_layer(x, w, aug.graph.adj, aug.syn_real, aug.soft, relu=False)


def test_mean_aggregation_with_synthetics_matches_dense_reference():
    g, params, h1, batch = setup_aug(seed=1)
    s_sym = edgegen.symmetric_interaction(params["S"])
    for aug in (
        edgegen.augment_soft(h1, s_sym, batch, g),
        edgegen.AugmentedGraph(g, h1, edgegen.augment_thresholded(h1, params["S"], batch, eta=0.4)),
    ):
        got = aggregate(aug)
        dense = oracles.adjacency_dense(aug)
        x = np.vstack([h1.value, batch.embed(h1).value])
        deg = dense.sum(axis=1)
        expected = (dense @ x) / np.maximum(deg, 1e-9)[:, None]
        np.testing.assert_allclose(got.value, expected, atol=1e-9)


def test_grid_exit_code_nonzero_when_a_run_aborts(tmp_path, capsys, monkeypatch):
    # the grid runs in this process (workers = 1): too little physical memory
    # for the gs_t run's 8 n^2-byte edge-loss buffer forces it to abort
    monkeypatch.setattr(train_mod, "_physical_memory", lambda: 1)
    spec = tmp_path / "abort.cfg"
    spec.write_text(
        "\n".join(
            [
                "sbm_sizes = 8,8,4",
                "sbm_p_in = 0.5",
                "sbm_p_out = 0.1",
                "sbm_dim = 3",
                "protocol = proportional",
                "variants = origin,gs_t",
                "seeds = 0",
                "max_epochs = 3",
                "patience = 50",
                "embed_dim = 5",
                "hidden_dim = 5",
                f"out = {tmp_path / 'out'}",
            ]
        )
    )
    code = cli_main(["grid", "--spec", str(spec)])
    assert code == 1
    progress = capsys.readouterr().err.splitlines()
    assert progress[0].startswith("run 1/2 origin seed 0 done: test F")
    assert progress[1].startswith("run 2/2 gs_t seed 0 aborted: DenseCapError")
    runs = (tmp_path / "out" / "runs.csv").read_text().splitlines()
    assert len(runs) == 2  # header + the surviving origin row
    assert runs[1].split(",")[1] == "origin"
    with open(tmp_path / "out" / "failures.csv", newline="", encoding="utf-8") as fh:
        failures = list(csv.reader(fh))
    assert failures[0] == ["sweep_value", "variant", "seed", "error"]
    assert len(failures) == 2
    assert failures[1][:3] == ["", "gs_t", "0"]
    assert failures[1][3].startswith("DenseCapError: ") and "of physical memory" in failures[1][3]


def test_grid_workers_parallel_matches_serial(tmp_path):
    base = [
        "sbm_sizes = 8,8,4",
        "sbm_p_in = 0.5",
        "sbm_p_out = 0.1",
        "sbm_dim = 3",
        "protocol = proportional",
        "variants = origin,reweight",
        "seeds = 0,1",
        "max_epochs = 3",
        "patience = 50",
        "embed_dim = 5",
        "hidden_dim = 5",
    ]
    spec1 = tmp_path / "serial.cfg"
    spec1.write_text("\n".join(base + [f"out = {tmp_path / 'serial'}", "workers = 1"]))
    spec2 = tmp_path / "par.cfg"
    spec2.write_text("\n".join(base + [f"out = {tmp_path / 'par'}", "workers = 2"]))
    assert cli_main(["grid", "--spec", str(spec1)]) == 0
    assert cli_main(["grid", "--spec", str(spec2)]) == 0
    assert (tmp_path / "serial" / "runs.csv").read_bytes() == (tmp_path / "par" / "runs.csv").read_bytes()

