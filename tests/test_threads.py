"""The n x n passes that `kernels._deal` deals to two parts: the thread of
the second part never enters a public function, it is joined before the
pass returns or raises, forked processes, plain children and a grid's
workers alike, finish their passes with the in-turn results, and the bits
do not depend on the CPU count."""
import importlib
import inspect
import multiprocessing
import os
import signal
import sys
import threading

import numpy as np
import pytest

import imbnode
from imbnode import cli, edgegen, kernels, tape
from imbnode.graph import generate_sbm_graph
from imbnode.optim import ParamStore

# the modules whose public functions a span tracer wraps (perfbench's MODULES)
TRACED = (
    "graph",
    "encoder",
    "oversample",
    "kernels",
    "edgegen",
    "classifier",
    "tape",
    "optim",
    "metrics",
    "train",
    "cli",
)


def _recording(name, fn, calls):
    def recorded(*args, **kwargs):
        calls.append((name, threading.current_thread()))
        return fn(*args, **kwargs)

    return recorded


def test_split_edge_loss_calls_public_functions_on_the_main_thread_only(monkeypatch, part_count):
    """A span tracer keeps one stack of open spans, so a public call from a
    worker thread would take a span of the main thread for its parent."""
    part_count(2)
    g = generate_sbm_graph((260, 260, 80), 0.1, 0.01, 4, seed=0)
    assert len(kernels._stripes(g.n)) == 3  # both parts hold stripes
    rng = np.random.default_rng(0)
    params = ParamStore()
    params.add("S", rng.normal(size=(6, 6)))
    h1 = tape.param(rng.normal(size=(g.n, 6)))

    calls = []
    modules = {short: importlib.import_module(f"imbnode.{short}") for short in TRACED}
    wrapped = {}
    for short, module in modules.items():
        for attr, fn in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrapped[fn] = _recording(f"{short}.{attr}", fn, calls)
    for module in (imbnode, *modules.values()):  # every name a caller looks a function up by
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                monkeypatch.setattr(module, attr, wrapped[obj])

    scores = np.empty((g.n, g.n))
    target = kernels._packed_ones(g.dense_adjacency())
    tape.backward(edgegen.edge_loss(h1, edgegen.symmetric_interaction(params["S"]), target, scores))
    split_callers = {"edgegen.edge_loss", "tape.symmetric_sqdiff", "kernels.sigmoid_sqdiff", "kernels.sigmoid_sqdiff_grad"}
    assert split_callers <= {name for name, _ in calls}
    assert len(part_count.executors) == 4  # scores, sigmoid, gradient and G h each ran a part on a thread
    off_main = sorted({name for name, thread in calls if thread is not threading.main_thread()})
    assert off_main == []


@pytest.mark.parametrize("fails", [None, "worker", "caller"])
def test_split_pass_joins_its_threads_and_passes_a_range_error_to_the_caller(fails):
    """No thread a two-part pass starts is alive once the pass returns, or
    once it raises because the part run on the thread or on the caller
    raised; the part's own error reaches the caller."""
    before = set(threading.enumerate())
    ran = []

    def run(stripes):
        ran.append(threading.current_thread())
        if (fails == "worker" and stripes[0][0] == 256) or (fails == "caller" and stripes[0][0] == 0):
            raise ValueError(f"part from row {stripes[0][0]}")
        return [stripe[:2] for stripe in stripes]

    if fails is None:
        assert kernels._deal(1030, run) == [[(0, 256), (768, 1024), (1024, 1030)], [(256, 512), (512, 768)]]
    else:
        with pytest.raises(ValueError, match="part from row 256" if fails == "worker" else "part from row 0"):
            kernels._deal(1030, run)
    workers = {t for t in ran if t is not threading.current_thread()}
    assert len(ran) == 2  # both parts ran
    assert (len(workers) == 1) == (kernels._threads > 1)  # the second on a thread of its own
    assert not [t for t in workers if t.is_alive()]
    assert set(threading.enumerate()) <= before


def _edge_loss_bits(n, k):
    """The edge loss, dh and dS of a fixed random case, as bytes."""
    rng = np.random.default_rng(22)
    h, s = tape.param(rng.normal(size=(n, k)) * 0.3), tape.param(rng.normal(size=(k, k)) * 0.3)
    upper = np.triu(rng.random((n, n)) < 0.05, k=1)
    s_sym = edgegen.symmetric_interaction(s)
    loss = edgegen.edge_loss(h, s_sym, kernels._packed_ones(upper | upper.T), np.empty((n, n)))
    tape.backward(loss)
    return loss.value.tobytes(), h.grad.tobytes(), s.grad.tobytes()


@pytest.mark.parametrize("k", [2, 64])
def test_edge_loss_bits_do_not_depend_on_the_cpu_count(k, monkeypatch):
    """From 1024 nodes the edge loss's passes take two parts however many
    CPUs the process may use: with one, two or three CPUs, and in a grid
    worker that runs both parts on its calling thread, the loss and both
    gradients are the same bytes. (Products cut into one column range per
    CPU gave other bits with three CPUs at k = 2 on OpenBLAS 0.3.31.)"""
    got = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(kernels, "_threads", threads)
        got[threads] = _edge_loss_bits(1030, k)
    monkeypatch.setattr(kernels, "_threads", 2)
    monkeypatch.setattr(kernels, "_inline", False)
    kernels._single_thread()
    got["grid worker"] = _edge_loss_bits(1030, k)
    for key, bits in got.items():
        for name, mine, ref in zip(("loss", "dh", "dS"), bits, got[1]):
            assert mine == ref, f"{name} with {key} CPUs"


def _in_own_group(fn, args):
    os.setpgid(0, 0)
    sys.exit(fn(*args))


def _exit_code_in_fork(fn, *args, timeout):
    """Run fn(*args) in a forked child; its exit code, or None when it had to
    be killed after `timeout` seconds with every process it started."""
    proc = multiprocessing.get_context("fork").Process(target=_in_own_group, args=(fn, args))
    proc.start()
    proc.join(timeout)
    if proc.exitcode is not None:
        return proc.exitcode
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # not yet in its own group
        proc.kill()
    proc.join()
    return None


def _loss_is(m, ones, expected):
    return 0 if kernels.sigmoid_sqdiff(m, ones) == expected else 1


GRID = """sbm_sizes = 60,60,16
sbm_p_in = 0.3
sbm_p_out = 0.02
sbm_dim = 4
protocol = proportional
variants = gs_t,gs_pre_o
seeds = 0
max_epochs = 4
pretrain_max_epochs = 3
embed_dim = 6
hidden_dim = 6
eta = 0.2
"""


def test_forked_processes_finish_split_passes_after_the_parent_split_one(tmp_path, part_count):
    """A child forked after the parent ran a two-part pass on a thread
    starts a thread of its own for its passes. A grid's workers run both
    parts in turn, so `workers = 2` writes the files `workers = 1` writes on
    threads."""
    part_count(2)
    rng = np.random.default_rng(5)
    m, a = rng.normal(size=(300, 300)) * 4.0, rng.random((300, 300)) < 0.2
    ones = kernels._packed_ones(a)
    loss = kernels.sigmoid_sqdiff(m.copy(), ones)
    assert part_count.executors
    assert _exit_code_in_fork(_loss_is, m, ones, loss, timeout=60) == 0

    outs = {}
    for workers in (1, 2):
        outs[workers] = tmp_path / f"w{workers}"
        spec = tmp_path / f"w{workers}.cfg"
        spec.write_text(GRID + f"out = {outs[workers]}\nworkers = {workers}\n")
        args = (["grid", "--spec", str(spec)],)
        code = cli.main(*args) if workers == 1 else _exit_code_in_fork(cli.main, *args, timeout=300)
        assert code == 0, f"workers = {workers}"
    assert len((outs[1] / "runs.csv").read_text().splitlines()) == 3  # header, gs_t, gs_pre_o
    for name in ("runs.csv", "summary.csv"):
        assert (outs[2] / name).read_bytes() == (outs[1] / name).read_bytes(), name
