"""The benchmark's span checks, run small inside the suite.

Each workload of `perfbench/workloads.py` names the spans its traced run
must fire and those it must not. This runs each workload's variants at a
few dozen nodes for two epochs, traced by perfbench's own `spans.install`
and `spans.trace_nxn_backward`, the way `perfbench/child.py` traces a
repetition, and applies perfbench's own `run.check_spans` to the result:
the grid through `cli.run_experiment`, the file workload through
`save_graph` and `load_graph`. The tracer is taken off again afterwards.
"""
import dataclasses
import importlib
import sys
from pathlib import Path

import pytest

from imbnode import cli, tape
from imbnode.graph import generate_sbm_graph, save_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

train_mod = importlib.import_module("imbnode.train")  # the package's `train` is the function
SMALL_SIZES = (30, 30, 30, 8)
SEED = 0


def _traced_spans(wl, tmp_path, monkeypatch):
    """Span name -> calls of one traced repetition of the workload `wl`."""
    if wl.from_files:  # written before tracing starts, as perfbench's prepare step does
        g = generate_sbm_graph(list(wl.sizes), wl.p_in, wl.p_out, 16, workloads.DATA_SEED)
        save_graph(g, tmp_path / "edges.tsv", tmp_path / "features.txt", tmp_path / "labels.txt")
    tracer = spans.Tracer()
    monkeypatch.setattr(tape, "_out", tape._out)  # put back after trace_nxn_backward rebinds it
    restore = spans.install(tracer, workloads.COUNTS)
    try:
        spec = wl.spec(SEED, tmp_path)
        g = cli.load_spec_graph(spec)
        masks, _ = cli.build_masks(g, spec, spec.ratio, SEED)
        spans.trace_nxn_backward(tracer, g.n)
        if wl.grid:
            assert cli.run_experiment(dataclasses.replace(spec, out=str(tmp_path / "grid"))) == 0
        else:
            for variant in wl.variants:
                train_mod.train(g, masks, dataclasses.replace(spec.train, variant=variant, seed=SEED))
    finally:
        restore()
    return {"spans": spans.self_times(tracer.spans)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_traced_workload_passes_the_benchmarks_span_checks(name, tmp_path, monkeypatch):
    wl = dataclasses.replace(workloads.WORKLOADS[name], sizes=SMALL_SIZES, epochs=2, pretrain_epochs=1)
    traced = _traced_spans(wl, tmp_path, monkeypatch)
    failed = [msg for ok, msg in run.check_spans(wl, traced) if not ok]
    assert failed == []
    assert len(run.check_spans(wl, traced)) == len(wl.must_fire) + len(wl.must_not_fire)
    assert train_mod.train.__module__ == "imbnode.train" and not hasattr(train_mod.train, "__wrapped__")
