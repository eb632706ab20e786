"""One benchmark repetition in a fresh interpreter; prints one JSON line.

Modes:
  prepare  generate the workload graph and write it in the package's file
           formats (untimed; only for workloads that load from files)
  setup    time set-up only: from ``import imbnode`` until the graph and the
           splits are ready
  timed    set up, then train the workload's runs (or ``--variants`` of
           them) with only the epoch-boundary hooks attached
  traced   as timed, with every public function of the package traced;
           writes the spans out and reports per-layer aggregates

Run by ``run.py``; not meant to be called by hand.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import spans
from workloads import COUNTS, DATA_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Hooks:
    """Epoch boundaries, run outcomes and generated-edge counts, taken at the
    public calls the trainer makes: ``adam_step`` once per epoch (pretraining
    included), ``pretrain`` around the pretraining loop, ``train`` per run
    and ``augment_thresholded`` per thresholded epoch."""

    def __init__(self):
        self.clock = time.perf_counter
        self.runs: list[dict] = []
        self.epoch_ms: list[float] = []
        self.thresholded: dict[str, dict] = {}
        self._variant = None
        self._in_pretrain = False
        self._last = None

    def install(self) -> None:
        train_mod = importlib.import_module("imbnode.train")
        cli = importlib.import_module("imbnode.cli")
        edgegen = importlib.import_module("imbnode.edgegen")
        train_fn, pretrain_fn = train_mod.train, train_mod.pretrain
        adam_fn, augment_fn = train_mod.adam_step, edgegen.augment_thresholded

        def train(g, masks, cfg):
            self._variant, self._last = cfg.variant, None
            try:
                params, record = train_fn(g, masks, cfg)
            except Exception as exc:
                self.runs.append({"variant": cfg.variant, "error": repr(exc)})
                raise
            self.runs.append(run_summary(record))
            return params, record

        def pretrain(*args, **kwargs):
            self._in_pretrain = True
            try:
                return pretrain_fn(*args, **kwargs)
            finally:
                self._in_pretrain = False

        def adam_step(*args, **kwargs):
            result = adam_fn(*args, **kwargs)
            if not self._in_pretrain:
                # one main-loop epoch runs from one adam_step return to the next
                now = self.clock()
                if self._last is not None:
                    self.epoch_ms.append((now - self._last) * 1e3)
                self._last = now
            return result

        def augment_thresholded(*args, **kwargs):
            aug = augment_fn(*args, **kwargs)
            if aug.syn_real is not None:
                b = aug.syn_real.value
                edges = int((b != 0).sum())
                stat = self.thresholded.setdefault(
                    self._variant, {"calls": 0, "edges": 0, "pairs": 0, "syn": 0, "min_edges": None}
                )
                stat["calls"] += 1
                stat["edges"] += edges
                stat["pairs"] += b.size
                stat["syn"] += b.shape[0]
                stat["min_edges"] = edges if stat["min_edges"] is None else min(stat["min_edges"], edges)
            return aug

        # bind under the names the callers look up
        train_mod.train = cli.train = train
        train_mod.pretrain = pretrain
        train_mod.adam_step = adam_step
        edgegen.augment_thresholded = augment_thresholded


def run_summary(record) -> dict:
    epochs = [asdict(e) for e in record.epochs]
    losses = list(record.pretrain_losses)
    for e in record.epochs:
        losses += [e.node_loss, e.edge_loss, e.total_loss]
    curve = json.dumps([record.pretrain_losses, epochs]).encode()
    return {
        "variant": record.variant,
        "epochs": len(record.epochs),
        "pretrain_epochs": len(record.pretrain_losses),
        "finite": all(math.isfinite(x) for x in losses),
        "curve_sha256": hashlib.sha256(curve).hexdigest(),
        "test_f": record.report.f_macro,
        "test_auc": record.report.auc_macro,
    }


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "imbnode"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    try:
        numba = importlib.import_module("numba").__version__
    except ImportError:
        numba = None
    try:
        backend = importlib.import_module("imbnode.kernels").backend()
    except (ImportError, AttributeError):  # the kernel layer may lose its backends
        backend = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": numba,
        "kernels_backend": backend,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARS},
        "machine": platform.machine(),
    }


def prepare(wl, work: Path) -> dict:
    from imbnode.graph import generate_sbm_graph, save_graph

    g = generate_sbm_graph(list(wl.sizes), wl.p_in, wl.p_out, 16, DATA_SEED)
    save_graph(g, work / "edges.tsv", work / "features.txt", work / "labels.txt")
    return {"nodes": g.n}


EDGE_LOSS_SPANS = {"edgegen.edge_loss", spans.NXN_BACKWARD}


def layer_bucket(path) -> str:
    """Self time of everything under the edge loss, forward or backward, is
    the edge-loss layer; the aggregation kernel is its own layer; the rest
    goes to the span's module."""
    if any(name in EDGE_LOSS_SPANS for name in path):
        return "edge_loss"
    if path[0] == "kernels.csr_dense_matmul":
        return "csr_dense_matmul"
    return path[0].split(".")[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("prepare", "setup", "timed", "traced"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--variants", help="comma-separated subset of the workload's variants")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    variants = args.variants.split(",") if args.variants else list(wl.variants)
    if wl.grid and variants != list(wl.variants):
        parser.error("a grid repetition trains every variant")
    sys.path.insert(0, str(ROOT / "src"))

    if args.mode == "prepare":
        print(json.dumps(prepare(wl, args.work)))
        return 0

    tracer = spans.Tracer() if args.mode == "traced" else None
    started = time.perf_counter()
    import imbnode

    if tracer is not None:
        spans.install(tracer, COUNTS)
    from imbnode import cli

    spec = wl.spec(args.seed, args.work)
    g = cli.load_spec_graph(spec)
    masks, _ = cli.build_masks(g, spec, spec.ratio, args.seed)
    setup_s = time.perf_counter() - started
    if not Path(imbnode.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imbnode imported from {imbnode.__file__}, not from {ROOT / 'src'}")
    result = {"setup_s": setup_s, "nodes": g.n, "variants": variants}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    if tracer is not None:
        spans.trace_nxn_backward(tracer, g.n)
    hooks = Hooks()
    hooks.install()
    train_mod = importlib.import_module("imbnode.train")
    if wl.grid:
        spec = replace(spec, out=str(args.work / f"grid-{args.rep}"))
        t0 = time.perf_counter()
        cli.run_experiment(spec)
        train_s = time.perf_counter() - t0
        result["outputs_sha256"] = {
            name: file_sha256(Path(spec.out) / name) for name in ("runs.csv", "summary.csv")
        }
    else:
        train_s = 0.0
        for variant in variants:
            cfg = replace(spec.train, variant=variant, seed=args.seed)
            t0 = time.perf_counter()
            try:
                train_mod.train(g, masks, cfg)
            except Exception as exc:  # noqa: BLE001 - recorded by the hook, counted as failed
                print(f"run {variant} aborted: {exc!r}", file=sys.stderr)
            train_s += time.perf_counter() - t0

    result.update(
        train_s=train_s,
        epochs=sum(r.get("epochs", 0) + r.get("pretrain_epochs", 0) for r in hooks.runs),
        epoch_ms=hooks.epoch_ms,
        runs=hooks.runs,
        thresholded=hooks.thresholded,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    if tracer is not None:
        result["spans"] = spans.self_times(tracer.spans)
        result["counters"] = tracer.counters
        result["shares"] = spans.bucket_shares(tracer.spans, layer_bucket)
        result["span_count"] = len(tracer.spans)
        result["traced_s"] = sum(e - s for _, s, e, parent, _ in tracer.spans if parent < 0)
        if args.spans_out is not None:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
