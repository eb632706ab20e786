"""End-to-end training benchmark for imbnode.

Usage (from the repository root):

    python3 perfbench/run.py --workload fixture_grid --seed 0 --seconds 30 --trace 0

Trains the real pipeline through its public entry points
(``cli.run_experiment`` and ``train.train``) on one of the generated
block-model workloads described in ``workloads.py``. Every repetition runs in
a fresh child process, one at a time, with the BLAS thread defaults of the
environment. The workload seed fixes the split and the runs' seeds; each
workload trains on one fixed graph.

``--trace 0`` runs enough repetitions to fill ``--seconds`` at the nominal
cost (at least two; later ones may train a subset of the variants) plus
set-up-only processes, and reports the end-to-end metrics. The work is fixed
by the workload and ``--seconds``, never by the measured speed, so every
commit trains the same epochs. ``--trace 1`` runs one untraced and one traced repetition and
reports the per-layer metrics, self times from spans recorded around every
public function of the package, and the tracing overhead. The spans are
written to ``.perfbench_runs/``.

Both modes check the outputs: every run trains its fixed epoch count with
finite losses, test macro-F and AUC lie in [0, 1], repeated runs give
identical loss curves (and, for the grid, byte-identical runs.csv and
summary.csv), and ``gs_t`` attaches generated edges. The traced run also
checks that each expected span fires, and that spans that must not fire do
not. Human-readable lines come first; the last line is one JSON object. The
exit code is 1 if a check fails and 2 if the benchmark could not run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from stats import median, percentile, tail_percentile, valid_name, valid_unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 7

END_TO_END = (
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
    ("test_f_macro", "frac"),
    ("test_auc_macro", "frac"),
    ("runs_ok_frac", "frac"),
)

# Each group notes the end-to-end metric it should move, and on which workload.
PER_LAYER = (
    # aggregation, run by the classifier, tape.backward and encoder.build_input:
    # epochs_per_s and epoch_ms_p50 on sbm3k_sparse and fixture_grid, much
    # less on sbm3k_edge
    ("kernels.csr_dense_matmul.calls", "count"),
    ("kernels.csr_dense_matmul.self_s", "s"),
    ("kernels.csr_dense_matmul.flops", "flop"),
    ("kernels.csr_dense_matmul.bytes", "B"),
    # the all-pairs edge loss, forward and backward: epochs_per_s and
    # peak_rss_mb on sbm3k_edge; zero calls on sbm3k_sparse (predicted: no
    # change); a small share on fixture_grid
    ("edgegen.edge_loss.calls", "count"),
    ("edgegen.edge_loss.self_s", "s"),
    ("edgegen.edge_loss.total_s", "s"),
    ("kernels.sigmoid_sqdiff.calls", "count"),
    ("kernels.sigmoid_sqdiff.self_s", "s"),
    ("kernels.sigmoid_sqdiff.elems", "count"),
    ("kernels.sigmoid_sqdiff_grad.self_s", "s"),
    ("tape.backward.calls", "count"),
    ("tape.backward.self_s", "s"),
    ("tape.backward.nxn.self_s", "s"),
    ("tape.forward.self_s", "s"),
    ("graph.dense_adjacency.calls", "count"),
    ("graph.dense_adjacency.bytes", "B"),
    # pretraining: epochs_per_s on sbm3k_edge
    ("train.pretrain.self_s", "s"),
    ("train.pretrain.epochs", "count"),
    # classifier over dense soft syn x real blocks: epoch_ms_p50 on sbm3k_edge
    ("classifier.forward.self_s", "s"),
    ("classifier.node_loss.self_s", "s"),
    # oversampling and the nearest-neighbour scan: epoch_ms_p50 on
    # fixture_grid and sbm3k_sparse
    ("oversample.smote_interpolate.calls", "count"),
    ("oversample.smote_interpolate.self_s", "s"),
    ("oversample.smote_interpolate.synthetic_nodes", "count"),
    ("kernels.nearest_same_class_ids.calls", "count"),
    ("kernels.nearest_same_class_ids.self_s", "s"),
    ("kernels.nearest_same_class_ids.pairs", "count"),
    ("oversample.baseline.self_s", "s"),
    ("oversample.nearest_same_class.calls", "count"),
    # augmentation, and its useful-work ratio: epoch_ms_p50 on sbm3k_edge
    ("edgegen.augment.self_s", "s"),
    ("edgegen.augment.total_s", "s"),
    ("edgegen.augment_thresholded.edge_frac", "frac"),
    # fixed per-epoch costs: epoch_ms_p50 on fixture_grid
    ("metrics.full_report.calls", "count"),
    ("metrics.full_report.self_s", "s"),
    ("optim.adam_step.self_s", "s"),
    ("optim.snapshot.calls", "count"),
    # set-up: setup_s on sbm3k_edge (generation) and sbm3k_sparse (loading);
    # build_input runs once per training run
    ("graph.generate_sbm_graph.self_s", "s"),
    ("graph.load_graph.self_s", "s"),
    ("encoder.build_input.self_s", "s"),
    # grid bookkeeping and output writes: epochs_per_s on fixture_grid only
    ("cli.run_experiment.self_s", "s"),
    # shares of traced self time, and what tracing costs
    ("share.edge_loss", "frac"),
    ("share.csr_dense_matmul", "frac"),
    ("trace.spans", "count"),
    ("trace.traced_s", "s"),
    ("trace.overhead_epochs_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
)
COMPUTED = {
    "kernels.csr_dense_matmul.flops",
    "kernels.csr_dense_matmul.bytes",
    "kernels.sigmoid_sqdiff.elems",
    "kernels.nearest_same_class_ids.pairs",
    "graph.dense_adjacency.bytes",
}
# layer metrics that sum several spans
CLASSIFIER_FORWARD = (
    "classifier.classify",
    "classifier.hidden_embed",
    "classifier.class_logits",
    "classifier.neighbor_aggregate",
)
BASELINES = ("oversample.baseline_duplicate", "oversample.baseline_raw_smote")
AUGMENT = ("edgegen.augment_thresholded", "edgegen.augment_soft")


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed output check)."""


def run_child(workload: str, seed: int, mode: str, work: Path, deadline: float, **extra) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--work",
        str(work),
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} process")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def epochs_per_s(reps: list[dict]) -> float:
    return sum(rep["epochs"] for rep in reps) / sum(rep["train_s"] for rep in reps)


def check_outputs(wl, reps: list[dict]) -> list[tuple[bool, str]]:
    checks = []
    first = reps[0]
    for i, rep in enumerate(reps):
        runs = rep["runs"]
        failed = [r for r in runs if "error" in r]
        checks.append(
            (
                len(runs) == len(rep["variants"]) and not failed,
                f"repetition {i}: {len(runs) - len(failed)} of {len(rep['variants'])} runs completed"
                + "".join(f"; {r['variant']} raised {r['error']}" for r in failed),
            )
        )
        for r in runs:
            if "error" in r:
                continue
            pre = wl.pretrain_epochs if r["variant"].startswith("gs_pre") else 0
            checks.append(
                (
                    r["epochs"] == wl.epochs and r["pretrain_epochs"] == pre and r["finite"],
                    f"repetition {i} {r['variant']}: {r['epochs']} of {wl.epochs} epochs, "
                    f"{r['pretrain_epochs']} of {pre} pretrain epochs, finite losses: {r['finite']}",
                )
            )
            checks.append(
                (
                    0.0 <= r["test_f"] <= 1.0 and 0.0 <= r["test_auc"] <= 1.0,
                    f"repetition {i} {r['variant']}: test F {r['test_f']:.4f}, AUC {r['test_auc']:.4f} in [0, 1]",
                )
            )
    base = {r["variant"]: r for r in first["runs"] if "error" not in r}
    for i, rep in enumerate(reps[1:], start=1):
        for r in rep["runs"]:
            ref = base.get(r["variant"])
            same = ref is not None and "error" not in r and all(
                r[k] == ref[k] for k in ("curve_sha256", "test_f", "test_auc")
            )
            checks.append((same, f"repetition {i} {r['variant']}: loss curve and test metrics repeat exactly"))
        if wl.grid:
            checks.append(
                (
                    rep["outputs_sha256"] == first["outputs_sha256"],
                    f"repetition {i}: runs.csv and summary.csv are byte-identical",
                )
            )
    if "gs_t" in wl.variants:
        for i, rep in enumerate(reps):
            stat = rep["thresholded"].get("gs_t")
            ok = stat is not None and stat["calls"] > 0 and stat["min_edges"] > 0
            detail = (
                "no thresholded augmentation"
                if stat is None
                else f"{stat['edges'] / stat['syn']:.0f} of {rep['nodes']} real nodes per synthetic node, "
                f"minimum {stat['min_edges']} edges in one epoch"
            )
            checks.append((ok, f"repetition {i}: gs_t attaches generated edges ({detail})"))
    return checks


def check_spans(wl, traced: dict) -> list[tuple[bool, str]]:
    calls = {name: agg["calls"] for name, agg in traced["spans"].items()}
    checks = [(calls.get(n, 0) > 0, f"span {n} fires ({calls.get(n, 0)} calls)") for n in wl.must_fire]
    checks += [
        (calls.get(n, 0) == 0, f"span {n} does not fire ({calls.get(n, 0)} calls)")
        for n in wl.must_not_fire
    ]
    return checks


def end_to_end(wl, reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    epoch_ms = [x for rep in reps for x in rep["epoch_ms"]]
    tail_q = tail_percentile(len(epoch_ms))
    runs = [r for r in reps[0]["runs"] if "error" not in r]
    attempted = sum(len(rep["runs"]) for rep in reps)
    ok = sum(1 for rep in reps for r in rep["runs"] if "error" not in r)
    values = {
        "setup_s": median(setups),
        "epochs_per_s": epochs_per_s(reps),
        "epoch_ms_p50": percentile(epoch_ms, 50.0),
        "epoch_ms_tail": percentile(epoch_ms, tail_q),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reps),
        "test_f_macro": sum(r["test_f"] for r in runs) / len(runs) if runs else 0.0,
        "test_auc_macro": sum(r["test_auc"] for r in runs) / len(runs) if runs else 0.0,
        "runs_ok_frac": ok / attempted if attempted else 0.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "epochs_per_s": f"{sum(rep['epochs'] for rep in reps)} epochs in {len(reps)} processes",
        "epoch_ms_p50": f"p50 of {len(epoch_ms)} main-loop epochs",
        "epoch_ms_tail": f"p{tail_q:g} of {len(epoch_ms)} main-loop epochs",
        "peak_rss_mb": f"largest of {len(reps)} processes",
        "test_f_macro": f"mean of {len(runs)} runs",
        "test_auc_macro": f"mean of {len(runs)} runs",
        "runs_ok_frac": f"{ok} of {attempted} runs",
    }
    return values, notes


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    sp, ct = traced["spans"], traced["counters"]

    def calls(name):
        return sp.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(sp.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(*names):
        return sum(sp.get(n, {}).get("total_s", 0.0) for n in names)

    def count(key):
        return ct.get(key, 0)

    tape_forward = [n for n in sp if n.startswith("tape.") and not n.startswith("tape.backward")]
    edges = sum(stat["edges"] for stat in traced["thresholded"].values())
    pairs = sum(stat["pairs"] for stat in traced["thresholded"].values())
    fast, slow = epochs_per_s([untraced]), epochs_per_s([traced])
    values = {
        "kernels.csr_dense_matmul.calls": calls("kernels.csr_dense_matmul"),
        "kernels.csr_dense_matmul.self_s": self_s("kernels.csr_dense_matmul"),
        "kernels.csr_dense_matmul.flops": count("kernels.csr_dense_matmul.flops"),
        "kernels.csr_dense_matmul.bytes": count("kernels.csr_dense_matmul.bytes"),
        "edgegen.edge_loss.calls": calls("edgegen.edge_loss"),
        "edgegen.edge_loss.self_s": self_s("edgegen.edge_loss"),
        "edgegen.edge_loss.total_s": total_s("edgegen.edge_loss"),
        "kernels.sigmoid_sqdiff.calls": calls("kernels.sigmoid_sqdiff"),
        "kernels.sigmoid_sqdiff.self_s": self_s("kernels.sigmoid_sqdiff"),
        "kernels.sigmoid_sqdiff.elems": count("kernels.sigmoid_sqdiff.elems"),
        "kernels.sigmoid_sqdiff_grad.self_s": self_s("kernels.sigmoid_sqdiff_grad"),
        "tape.backward.calls": calls("tape.backward"),
        "tape.backward.self_s": self_s("tape.backward"),
        "tape.backward.nxn.self_s": self_s("tape.backward.nxn"),
        "tape.forward.self_s": self_s(*tape_forward),
        "graph.dense_adjacency.calls": calls("graph.dense_adjacency"),
        "graph.dense_adjacency.bytes": count("graph.dense_adjacency.bytes"),
        "train.pretrain.self_s": self_s("train.pretrain"),
        "train.pretrain.epochs": sum(r.get("pretrain_epochs", 0) for r in traced["runs"]),
        "classifier.forward.self_s": self_s(*CLASSIFIER_FORWARD),
        "classifier.node_loss.self_s": self_s("classifier.node_loss"),
        "oversample.smote_interpolate.calls": calls("oversample.smote_interpolate"),
        "oversample.smote_interpolate.self_s": self_s("oversample.smote_interpolate"),
        "oversample.smote_interpolate.synthetic_nodes": count("oversample.smote_interpolate.synthetic_nodes"),
        "kernels.nearest_same_class_ids.calls": calls("kernels.nearest_same_class_ids"),
        "kernels.nearest_same_class_ids.self_s": self_s("kernels.nearest_same_class_ids"),
        "kernels.nearest_same_class_ids.pairs": count("kernels.nearest_same_class_ids.pairs"),
        "oversample.baseline.self_s": self_s(*BASELINES),
        "oversample.nearest_same_class.calls": calls("oversample.nearest_same_class"),
        "edgegen.augment.self_s": self_s(*AUGMENT),
        "edgegen.augment.total_s": total_s(*AUGMENT),
        "edgegen.augment_thresholded.edge_frac": edges / pairs if pairs else 0.0,
        "metrics.full_report.calls": calls("metrics.full_report"),
        "metrics.full_report.self_s": self_s("metrics.full_report"),
        "optim.adam_step.self_s": self_s("optim.adam_step"),
        "optim.snapshot.calls": calls("optim.snapshot"),
        "graph.generate_sbm_graph.self_s": self_s("graph.generate_sbm_graph"),
        "graph.load_graph.self_s": self_s("graph.load_graph"),
        "encoder.build_input.self_s": self_s("encoder.build_input"),
        "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        "share.edge_loss": traced["shares"].get("edge_loss", 0.0),
        "share.csr_dense_matmul": traced["shares"].get("csr_dense_matmul", 0.0),
        "trace.spans": traced["span_count"],
        "trace.traced_s": traced["traced_s"],
        "trace.overhead_epochs_per_s": slow - fast,
        "trace.overhead_frac": (fast - slow) / fast,
    }
    notes = {name: "computed" for name in COMPUTED}
    notes["edgegen.augment_thresholded.edge_frac"] = (
        f"{edges} generated edges of {pairs} syn x real pairs scored"
    )
    notes["trace.overhead_epochs_per_s"] = f"traced {slow:.4f} minus untraced {fast:.4f} epochs/s"
    return values, notes


def declared_metrics(trace: int):
    """The metric names BENCHMARK.json declares for this mode, or None when
    the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "imbnode" / "__init__.py").is_file():
        print(f"perfbench: no imbnode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    work = RUNS_DIR / f"work-{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans_out = RUNS_DIR / f"spans-{wl.name}-s{args.seed}.jsonl"

    def child(mode, **extra):
        return run_child(wl.name, args.seed, mode, work, deadline, **extra)

    setups: list[float] = []
    try:
        if wl.from_files:
            child("prepare")
        if args.trace:
            reps = [child("timed", rep=0), child("traced", rep=1, spans_out=spans_out)]
        else:
            plan = wl.repetitions(args.seconds)
            setups = [child("setup")["setup_s"] for _ in range(max(0, SETUP_SAMPLES - len(plan)))]
            reps = [child("timed", rep=i, variants=",".join(v)) for i, v in enumerate(plan)]
            setups += [rep["setup_s"] for rep in reps]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = check_outputs(wl, reps)
    try:
        if args.trace:
            checks += check_spans(wl, reps[1])
            values, notes = per_layer(reps[1], reps[0])
            units = dict(PER_LAYER)
        else:
            values, notes = end_to_end(wl, reps, setups)
            units = dict(END_TO_END)
    except (ValueError, ZeroDivisionError) as exc:  # too few epochs to measure
        for ok, msg in checks:
            if not ok:
                print(f"FAILED {msg}", file=sys.stderr)
        print(f"perfbench: no metrics: {exc}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    emitted = list(units.items())
    checks.append(
        (
            all(valid_name(n) and valid_unit(u) for n, u in emitted)
            and (declared is None or declared == emitted),
            "emitted metric names and units match BENCHMARK.json",
        )
    )

    print(
        f"perfbench {wl.name} seed={args.seed} trace={args.trace}: repetitions of "
        + " / ".join(",".join(rep["variants"]) for rep in reps)
        + f"; {wl.epochs} epochs"
        + (f" + {wl.pretrain_epochs} pretrain epochs" if wl.pretrain_epochs else "")
        + f", {reps[0]['nodes']} nodes"
    )
    for name, unit in emitted:
        note = notes.get(name, "")
        print(f"  {name:46s} {values[name]:>16.6g} {unit:6s} {note}")
    if args.trace:
        shares = sorted(reps[1]["shares"].items(), key=lambda kv: -kv[1])
        print("  share of traced self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares))
        print(f"  spans written to {spans_out.relative_to(ROOT)}")
    failed = [msg for ok, msg in checks if not ok]
    print(f"checks: {len(checks) - len(failed)} of {len(checks)} passed")
    for msg in failed:
        print(f"  FAILED {msg}")
    print("env " + json.dumps(reps[0]["env"], sort_keys=True))

    attempted = sum(len(rep["runs"]) for rep in reps)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": sum(1 for rep in reps for r in rep["runs"] if "error" in r),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in emitted},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
