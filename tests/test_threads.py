"""The helper thread: `kernels._deal` runs a two-part pass's second part on
it, and from 1024 nodes the tape's ops hand it one product of each pair of
independent products (`kernels._aside`). It never enters a public function,
runs under the caller's NumPy error state, and is joined when its run ends or
raises, or, outside a run, when its pass returns or raises. Forked processes,
plain children and a grid's workers alike finish their passes with the
in-turn results, and the bits do not depend on the CPU count."""
import importlib
import inspect
import multiprocessing
import os
import signal
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import asdict, replace

import numpy as np
import pytest

import imbnode
from imbnode import cli, edgegen, kernels, tape
from imbnode.errors import TrainingDiverged
from imbnode.graph import generate_sbm_graph, make_proportional_split
from imbnode.optim import ParamStore
from imbnode.train import TrainConfig

train_mod = importlib.import_module("imbnode.train")  # the package's `train` is the function

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


def _record_public_calls(monkeypatch, calls):
    """Wrap every public function of the traced modules, under every name a
    caller looks it up by, to append (name, calling thread) to `calls`."""
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


def _big_graph():
    """A 1040-node graph, past the 1024-node rule, and its split."""
    g = generate_sbm_graph((500, 500, 40), 0.02, 0.002, 6, seed=0)
    return g, make_proportional_split(g, 0.25, 0.25, seed=0)


def _short_cfg(variant, **kw):
    """Three epochs, and two of pretraining, of `variant` at width 12."""
    base = dict(embed_dim=12, hidden_dim=12, max_epochs=3, patience=3, pretrain_max_epochs=2, seed=4)
    return TrainConfig(variant=variant, scale="balance", lambda_=1e-4, eta=0.05, **{**base, **kw})


def test_split_edge_loss_calls_public_functions_on_the_main_thread_only(monkeypatch, part_count):
    """A span tracer keeps one stack of open spans, so a public call from a
    worker thread would take a span of the main thread for its parent.
    Outside a run each of the edge loss's four passes holds a helper of its
    own."""
    part_count(2)
    g = generate_sbm_graph((260, 260, 80), 0.1, 0.01, 4, seed=0)
    assert len(kernels._stripes(g.n)) == 3  # both parts hold stripes
    rng = np.random.default_rng(0)
    params = ParamStore()
    params.add("S", rng.normal(size=(6, 6)))
    h1 = tape.param(rng.normal(size=(g.n, 6)))

    calls = []
    _record_public_calls(monkeypatch, calls)
    scores = np.empty((g.n, g.n))
    target = kernels._packed_ones(g.dense_adjacency())
    tape.backward(edgegen.edge_loss(h1, edgegen.symmetric_interaction(params["S"]), target, scores))
    split_callers = {"edgegen.edge_loss", "tape.symmetric_sqdiff", "kernels.sigmoid_sqdiff", "kernels.sigmoid_sqdiff_grad"}
    assert split_callers <= {name for name, _ in calls}
    # scores, sigmoid, gradient and G h each ran a part on a helper of its
    # own; outside a run no helper is open for the scores' vjp to hand h^T GH
    assert len(part_count.executors) == 4
    assert [e.submitted for e in part_count.executors] == [1, 1, 1, 1]
    off_main = sorted({name for name, thread in calls if thread is not threading.main_thread()})
    assert off_main == []


@pytest.mark.parametrize("variant", ["gs_o", "gs_t"])
def test_whole_runs_call_public_functions_on_the_main_thread_only(variant, monkeypatch, part_count):
    """A whole run at 1040 nodes, evaluation included, keeps every public
    call on the calling thread, while its one helper takes the edge loss's
    second parts and one product of each independent pair."""
    g, masks = _big_graph()
    calls = []
    _record_public_calls(monkeypatch, calls)
    train_mod.train(g, masks, _short_cfg(variant))
    called = {name for name, _ in calls}
    assert {"train.train", "tape.graph_layer", "tape.edge_scores", "kernels.csr_dense_matmul"} <= called
    assert len(part_count.executors) == 1  # one helper for the whole run
    assert part_count.executors[0].submitted > 0
    off_main = sorted({name for name, thread in calls if thread is not threading.main_thread()})
    assert off_main == []


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("fails", [None, "worker", "caller", "both"])
def test_split_pass_joins_its_threads_and_passes_a_range_error_to_the_caller(fails, threads, monkeypatch):
    """No thread a two-part pass starts is alive once the pass returns, or
    once it raises because the part run on the thread or on the caller
    raised; the part's own error reaches the caller, the first part's if
    both raise. On one CPU the parts run in turn on the caller, the first
    part first, and a failing first part ends the pass."""
    monkeypatch.setattr(kernels, "_threads", threads)
    before = set(threading.enumerate())
    ran = []
    failing = {None: (), "worker": (256,), "caller": (0,), "both": (0, 256)}[fails]  # first rows of failing parts

    def run(stripes):
        ran.append((stripes[0][0], threading.current_thread()))
        if stripes[0][0] in failing:
            raise ValueError(f"part from row {stripes[0][0]}")
        return [stripe[:2] for stripe in stripes]

    if fails is None:
        assert kernels._deal(1030, run) == [[(0, 256), (768, 1024), (1024, 1030)], [(256, 512), (512, 768)]]
    else:
        with pytest.raises(ValueError, match="part from row 256" if fails == "worker" else "part from row 0"):
            kernels._deal(1030, run)
    workers = {t for _, t in ran if t is not threading.current_thread()}
    assert (len(workers) == 1) == (threads > 1)  # the second on a thread of its own
    if threads > 1:
        assert len(ran) == 2  # both parts ran
    else:  # in turn: the first part, then the second unless the first raised
        assert [row for row, _ in ran] == ([0] if 0 in failing else [0, 256])
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


def _run_bits(g, masks, cfg):
    """A run's record, probabilities and parameters, as bytes."""
    params, record = train_mod.train(g, masks, cfg)
    numbers = [record.pretrain_losses, [asdict(e) for e in record.epochs], record.best_epoch, record.stop_reason]
    numbers.append([record.report.acc, record.report.auc_macro, record.report.f_macro])
    return repr(numbers).encode(), record.probs.tobytes(), *(params[n].value.tobytes() for n in params.names())


RUN_VARIANTS = ("origin", "raw_smote", "gs_t", "gs_o")


def test_whole_runs_do_not_depend_on_the_cpu_count_or_thread_switches(monkeypatch, part_count):
    """At 1040 nodes, runs of four variants write the same records,
    probabilities and parameters with one, two or three CPUs, in a grid
    worker, and with two threads switching every microsecond: each product
    runs whole on one thread, from the same operands, whichever thread."""
    g, masks = _big_graph()
    cfgs = [_short_cfg(v) for v in RUN_VARIANTS]
    got = {}
    for threads in (1, 2, 3):
        monkeypatch.setattr(kernels, "_threads", threads)
        made = len(part_count.executors)
        got[threads] = [_run_bits(g, masks, cfg) for cfg in cfgs]
        helpers = part_count.executors[made:]
        assert len(helpers) == (0 if threads == 1 else len(cfgs))  # one helper per run
        assert all(helper.submitted for helper in helpers)
    monkeypatch.setattr(kernels, "_threads", 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got["fast switching"] = [_run_bits(g, masks, cfg) for cfg in cfgs]
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(kernels, "_inline", False)
    made = len(part_count.executors)
    kernels._single_thread()
    got["grid worker"] = [_run_bits(g, masks, cfg) for cfg in cfgs]
    assert len(part_count.executors) == made
    for key, runs in got.items():
        for variant, bits, ref in zip(RUN_VARIANTS, runs, got[1]):
            assert bits == ref, f"{variant} with {key}"


def test_the_helper_ends_with_its_run_returned_or_diverged(part_count):
    """No helper thread is left once a run at 1040 nodes returns, or raises
    `TrainingDiverged` after epochs that used the helper."""
    g, masks = _big_graph()
    before = set(threading.enumerate())
    train_mod.train(g, masks, _short_cfg("gs_t"))
    assert len(part_count.executors) == 1
    assert set(threading.enumerate()) == before
    with pytest.raises(TrainingDiverged) as info:
        train_mod.train(g, masks, _short_cfg("gs_t", lr=1e4, max_epochs=20, patience=20))
    assert len(info.value.record.epochs) >= 1
    assert len(part_count.executors) == 2 and part_count.executors[1].submitted
    assert set(threading.enumerate()) == before


def test_a_620_node_run_starts_no_thread(monkeypatch, part_count):
    """Below 1024 nodes a run hands nothing off: the thread count stays put
    through every epoch of a run that takes the edge loss."""
    g = generate_sbm_graph((200, 200, 200, 20), 0.05, 0.005, 6, seed=0)
    masks = make_proportional_split(g, 0.25, 0.25, seed=0)
    counts = []
    adam_step = train_mod.adam_step

    def counting(*args, **kwargs):
        counts.append(threading.active_count())
        return adam_step(*args, **kwargs)

    monkeypatch.setattr(train_mod, "adam_step", counting)
    before = threading.active_count()
    for variant in ("gs_pre_o", "gs_t"):
        train_mod.train(g, masks, _short_cfg(variant))
    assert len(counts) == 2 * 3 + 2  # pretraining's epochs and both runs' epochs
    assert set(counts) == {before}
    assert part_count.executors == []


@pytest.mark.parametrize("fails", [None, "helper", "caller"])
def test_an_op_waits_for_its_handed_off_products_and_gets_their_errors(fails, part_count):
    """An op returns or raises only after every product it handed off has
    finished; a handed-off product's error reaches the caller, and the
    caller's own error wins over it. The helper is gone once the run ends."""
    before = set(threading.enumerate())
    ran, finished = [], []

    def product(x):
        ran.append(threading.current_thread())
        time.sleep(0.05)  # still running when the caller's own products raise
        finished.append(True)
        if fails == "helper":
            raise ValueError("handed-off product")
        return 2.0 * x

    expect = {None: nullcontext(), "helper": pytest.raises(ValueError, match="handed-off product")}
    with kernels._helping():
        with expect.get(fails, pytest.raises(ValueError, match="own product")):
            with kernels._aside(1030) as aside:
                doubled = aside(product, np.ones(3))
                if fails == "caller":
                    raise ValueError("own product")
            np.testing.assert_array_equal(doubled(), np.full(3, 2.0))
        assert finished == [True]  # waited for, also when the caller raised
    assert len(ran) == 1 and ran[0] is not threading.current_thread()
    assert not ran[0].is_alive()
    assert set(threading.enumerate()) <= before


def test_handed_off_products_run_under_the_callers_numpy_error_state(part_count):
    """The helper takes each product under the caller's NumPy error state:
    an overflow raises where the caller raises and is silent where the
    caller ignores it (pytest.ini turns RuntimeWarning into an error)."""
    big = np.array([1000.0])
    with kernels._helping():
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            with kernels._aside(1030) as aside:
                aside(np.exp, big)
        with np.errstate(over="ignore"), kernels._aside(1030) as aside:
            assert aside(np.exp, big)()[0] == np.inf
    assert [e.submitted for e in part_count.executors] == [2]


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
