"""Experiment driver.

Subcommands
-----------
train      one training run (dataset files or a generated block-model graph)
grid       sweep experiment from a spec file: variants x seeds x sweep axis
metrics    score a prediction dump CSV
gradcheck  verify analytic gradients of every variant objective
gen-sbm    write a synthetic block-model dataset in the package file formats

Config files are flat ``key = value`` text (comments with ``#``); keys map
1:1 onto TrainConfig / ExperimentSpec fields, and command-line flags
override file values. Lists are comma-separated. An unknown key, an
unparseable value and a value out of range are reported with the key and
its file:line (or "command line" for a flag). All randomness derives from
the seeds in the spec: splits and minority-class selection for seed s come
from the stream SeedSequence([s, 1]), and each run's parameter init and
sampling streams come from SeedSequence(s) inside the trainer, so a rerun
of the same spec is byte-identical.

The environment variable IMBNODE_OUT sets the root under which relative
output directories are created (default: current directory).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import classifier
from .errors import ConfigError, ImbnodeError
from .graph import (
    Graph,
    generate_sbm_graph,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
    save_graph,
)
from .metrics import aggregate_reports, full_report, write_summary_table
from .train import VARIANTS, TrainConfig, gradcheck_variants, train

SWEEP_AXES = ("none", "scale", "ratio", "lambda")


@dataclass
class ExperimentSpec:
    """Everything needed to reproduce a table or sweep figure."""

    # dataset: either the three files or block-model parameters
    edge_file: str | None = None
    feature_file: str | None = None
    label_file: str | None = None
    sbm_sizes: list[int] = field(default_factory=list)
    sbm_p_in: float = 0.05
    sbm_p_out: float = 0.005
    sbm_dim: int = 16
    sbm_mean_scale: float = 1.0
    sbm_noise: float = 1.0
    data_seed: int = 0
    # split protocol
    protocol: str = ""  # "artificial" | "proportional"; default per source
    ratio: float = 0.5
    majority_train_size: int = 20
    minority_count: int = 3
    val_frac: float = 0.25
    train_frac: float = 0.25
    # experiment grid
    sweep: str = "none"
    sweep_values: list[float] = field(default_factory=list)
    variants: list[str] = field(default_factory=lambda: ["origin"])
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str = "experiment"
    workers: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        """Raise ConfigError naming the first field out of range."""
        if self.sweep not in SWEEP_AXES:
            raise ConfigError("sweep", f"sweep must be one of {SWEEP_AXES}")
        if self.sweep != "none" and not self.sweep_values:
            raise ConfigError("sweep", f"sweep={self.sweep} needs sweep_values")
        if not self.seeds:
            raise ConfigError("seeds", "at least one seed required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError("variants", f"unknown variant {v!r}; choose from {VARIANTS}")
        if self.protocol and self.protocol not in ("artificial", "proportional"):
            raise ConfigError("protocol", "protocol must be 'artificial' or 'proportional'")
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigError("ratio", "ratio must be in (0, 1]")
        if not 0.0 <= self.val_frac < 1.0:
            raise ConfigError("val_frac", "val_frac must lie in [0, 1)")
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError("train_frac", "train_frac must lie in (0, 1)")
        if self.effective_protocol() == "proportional" and self.train_frac + self.val_frac >= 1.0:
            message = "train_frac + val_frac must be < 1 for a proportional split"
            raise ConfigError("val_frac", message, related=("train_frac",))
        if self.workers < 1:
            raise ConfigError("workers", "workers must be >= 1")
        self.train.validate()

    def uses_files(self) -> bool:
        return bool(self.edge_file or self.feature_file or self.label_file)

    def effective_protocol(self) -> str:
        if self.protocol:
            return self.protocol
        return "artificial" if self.uses_files() else "proportional"


def out_root() -> Path:
    return Path(os.environ.get("IMBNODE_OUT", "."))


def resolve_out(out: str) -> Path:
    p = Path(out)
    return p if p.is_absolute() else out_root() / p


def load_spec_graph(spec: ExperimentSpec) -> Graph:
    if spec.uses_files():
        missing = [
            name
            for name, val in (
                ("edge_file", spec.edge_file),
                ("feature_file", spec.feature_file),
                ("label_file", spec.label_file),
            )
            if not val or not Path(val).exists()
        ]
        if missing:
            raise FileNotFoundError(
                f"dataset files missing or unset: {', '.join(missing)}; "
                "pass all of edge_file/feature_file/label_file or sbm_sizes"
            )
        return load_graph(spec.edge_file, spec.feature_file, spec.label_file)
    if not spec.sbm_sizes:
        raise ValueError("no dataset: set the three files or sbm_sizes")
    return generate_sbm_graph(
        spec.sbm_sizes,
        spec.sbm_p_in,
        spec.sbm_p_out,
        spec.sbm_dim,
        spec.data_seed,
        mean_scale=spec.sbm_mean_scale,
        feature_noise=spec.sbm_noise,
    )


def build_masks(g: Graph, spec: ExperimentSpec, ratio: float, seed: int):
    """Split (and pick minority classes) for one seed; deterministic."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    if spec.effective_protocol() == "artificial":
        minority = sorted(int(c) for c in rng.choice(g.m, size=spec.minority_count, replace=False))
        masks = make_artificial_imbalance(
            g,
            minority,
            ratio,
            spec.majority_train_size,
            seed=int(rng.integers(2**31)),
            val_frac=spec.val_frac,
        )
        return masks, minority
    masks = make_proportional_split(g, spec.train_frac, spec.val_frac, seed=int(rng.integers(2**31)))
    return masks, None


def _run_one(task):
    g, masks, cfg, minority = task
    params, record = train(g, masks, cfg)
    record.minority_classes = minority
    return record


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the grid; write runs.csv, summary.csv, failures.csv (runs that
    raised), per-run records, and (for sweeps) per-variant series files.
    Prints one progress line per run to stderr. Returns a process exit code."""
    spec.validate()
    g = load_spec_graph(spec)
    out_dir = resolve_out(spec.out)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)

    values = spec.sweep_values if spec.sweep != "none" else [None]
    tasks = []
    labels = []
    for value in values:
        ratio = float(value) if spec.sweep == "ratio" else spec.ratio
        for seed in spec.seeds:
            masks, minority = build_masks(g, spec, ratio, seed)
            for variant in spec.variants:
                cfg = replace(spec.train, variant=variant, seed=seed)
                if spec.sweep == "scale":
                    cfg = replace(cfg, scale=float(value))
                elif spec.sweep == "lambda":
                    cfg = replace(cfg, lambda_=float(value))
                tasks.append((g, masks, cfg, minority))
                labels.append((value, variant, seed))

    failures = []
    results: list = [None] * len(tasks)

    def finish(i, run):
        value, variant, seed = labels[i]
        name = f"run {i + 1}/{len(tasks)} {variant} seed {seed}"
        if value is not None:
            name += f" {spec.sweep} {value}"
        try:
            results[i] = run()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            error = f"{type(exc).__name__}: {exc}"
            failures.append((labels[i], error))
            print(f"{name} aborted: {error}", file=sys.stderr)
            return
        report = results[i].report
        print(
            f"{name} done: test F {report.f_macro:.4f}, AUC {report.auc_macro:.4f}, "
            f"{results[i].wall_time:.1f} s",
            file=sys.stderr,
        )

    if spec.workers > 1:
        with ProcessPoolExecutor(max_workers=spec.workers) as pool:
            futures = [pool.submit(_run_one, task) for task in tasks]
            for i, future in enumerate(futures):
                finish(i, future.result)
    else:
        for i, task in enumerate(tasks):
            finish(i, partial(_run_one, task))

    run_rows = []
    for (value, variant, seed), rec in zip(labels, results):
        if rec is None:
            continue
        tag = f"{'' if value is None else f'{value}_'}{variant}_s{seed}"
        rec.write_jsonl(records_dir / f"{tag}.jsonl")
        run_rows.append((value, variant, seed, rec.report))

    with open(out_dir / "runs.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "variant", "seed", "acc", "auc", "f"])
        for value, variant, seed, report in run_rows:
            writer.writerow(
                [
                    "" if value is None else repr(float(value)),
                    variant,
                    seed,
                    repr(report.acc),
                    repr(report.auc_macro),
                    repr(report.f_macro),
                ]
            )

    with open(out_dir / "failures.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_value", "variant", "seed", "error"])
        for (value, variant, seed), error in failures:
            writer.writerow(["" if value is None else repr(float(value)), variant, seed, error])

    summary_rows = []
    for value in values:
        pairs = [(variant, rep) for v, variant, _, rep in run_rows if v == value]
        for row in aggregate_reports(pairs):
            summary_rows.append((value, *row))
    with open(out_dir / "summary.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sweep_value", "variant", "acc_mean", "acc_std", "auc_mean", "auc_std", "f_mean", "f_std"]
        )
        for value, variant, *stats in summary_rows:
            writer.writerow(
                ["" if value is None else repr(float(value)), variant]
                + [repr(float(x)) for x in stats]
            )

    if spec.sweep != "none":
        emit_plot_data(summary_rows, out_dir / "series")

    with open(out_dir / "spec.json", "w", encoding="utf-8") as fh:
        cfg_dict = {k: v for k, v in spec.__dict__.items() if k != "train"}
        cfg_dict["train"] = asdict(spec.train)
        json.dump(cfg_dict, fh, indent=2)
    return 1 if failures else 0


def emit_plot_data(summary_rows, series_dir: Path) -> None:
    """One CSV series per (variant, metric) over the sweep axis, ready for
    external plotting; axis values keep their configured order."""
    series_dir.mkdir(parents=True, exist_ok=True)
    variants = []
    for _, variant, *_ in summary_rows:
        if variant not in variants:
            variants.append(variant)
    metric_cols = {"acc": (2, 3), "auc": (4, 5), "f": (6, 7)}
    for variant in variants:
        rows = [r for r in summary_rows if r[1] == variant]
        for metric, (i_mean, i_std) in metric_cols.items():
            with open(series_dir / f"{variant}_{metric}.csv", "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["sweep_value", "mean", "std"])
                for r in rows:
                    writer.writerow([repr(float(r[0])), repr(float(r[i_mean])), repr(float(r[i_std]))])


# ---------------------------------------------------------------------------
# config-file parsing
# ---------------------------------------------------------------------------

_LIST_KEYS = {"sbm_sizes", "sweep_values", "variants", "seeds"}
_TRAIN_DEFAULTS = vars(TrainConfig())
_SPEC_DEFAULTS = {k: v for k, v in vars(ExperimentSpec()).items() if k != "train"}


def parse_config_file(path) -> dict[str, tuple[str, str]]:
    """Flat ``key = value`` lines to {key: (raw value, "file:line")}."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            out[key.strip()] = (raw.strip(), f"{path}:{lineno}")
    return out


def spec_from_pairs(pairs: dict[str, tuple[str, str]]) -> ExperimentSpec:
    """The validated spec from {key: (raw value, where it was set)}. An
    unknown key, a value that does not parse and a value out of range raise
    ValueError naming the key and where it was set."""
    spec = ExperimentSpec()
    train_kwargs = {}
    where_set = {}
    for key, (raw, where) in pairs.items():
        name = "lambda_" if key == "lambda" else key
        if name not in _SPEC_DEFAULTS and name not in _TRAIN_DEFAULTS:
            raise ValueError(f"{where}: unknown config key {key!r}")
        try:
            value = _parse_value(name, raw)
        except ValueError as exc:
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
        if name in _SPEC_DEFAULTS:
            setattr(spec, name, value)
        else:
            train_kwargs[name] = value
        where_set[name] = (key, where)
    spec.train = replace(spec.train, **train_kwargs)
    try:
        spec.validate()
    except ConfigError as exc:
        named = [k for k in exc.keys if k in where_set]
        if not named:
            raise
        key, where = where_set[named[0]]
        raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
    return spec


def _parse_value(name: str, raw: str):
    if name in _LIST_KEYS:
        items = [x.strip() for x in raw.split(",") if x.strip()]
        if name == "variants":
            return items
        return [int(x) if name in ("seeds", "sbm_sizes") else float(x) for x in items]
    if name == "scale":
        return raw if raw == "balance" else float(raw)
    default = _SPEC_DEFAULTS[name] if name in _SPEC_DEFAULTS else _TRAIN_DEFAULTS[name]
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--edge-file")
    p.add_argument("--feature-file")
    p.add_argument("--label-file")
    p.add_argument("--sbm-sizes", help="comma-separated class sizes for a generated graph")
    p.add_argument("--p-in", type=float)
    p.add_argument("--p-out", type=float)
    p.add_argument("--sbm-dim", type=int)
    p.add_argument("--data-seed", type=int)
    p.add_argument("--protocol", choices=["artificial", "proportional"])
    p.add_argument("--ratio", type=float)
    p.add_argument("--scale")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")


def _spec_from_args(args) -> ExperimentSpec:
    pairs = parse_config_file(args.config) if args.config else {}
    overrides = {
        "edge_file": args.edge_file,
        "feature_file": args.feature_file,
        "label_file": args.label_file,
        "sbm_sizes": args.sbm_sizes,
        "sbm_p_in": args.p_in,
        "sbm_p_out": args.p_out,
        "sbm_dim": args.sbm_dim,
        "data_seed": args.data_seed,
        "protocol": args.protocol,
        "ratio": args.ratio,
        "scale": args.scale,
        "out": args.out,
    }
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = str(args.seed)
    if getattr(args, "variant", None) is not None:
        overrides["variants"] = args.variant
    for key, val in overrides.items():
        if val is not None:
            pairs[key] = (str(val), "command line")
    return spec_from_pairs(pairs)


def cmd_train(args) -> int:
    spec = _spec_from_args(args)
    if len(spec.variants) != 1 or len(spec.seeds) != 1:
        raise SystemExit("train runs a single (variant, seed); use grid for more")
    g = load_spec_graph(spec)
    masks, minority = build_masks(g, spec, spec.ratio, spec.seeds[0])
    cfg = replace(spec.train, variant=spec.variants[0], seed=spec.seeds[0])
    out_dir = resolve_out(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.synth_log:
        cfg = replace(cfg, synth_log=str(out_dir / "synthetic_nodes.csv"))
    params, record = train(g, masks, cfg)
    record.minority_classes = minority
    record.write_jsonl(out_dir / "record.jsonl")
    write_summary_table(
        aggregate_reports([(cfg.variant, record.report)]), out_dir / "summary.csv"
    )
    params.save(out_dir / "checkpoint.npz")
    classifier.write_predictions(out_dir / "predictions.csv", record.probs, g.labels)
    r = record.report
    print(
        f"{cfg.variant} seed={cfg.seed}: acc={r.acc:.4f} auc={r.auc_macro:.4f} "
        f"f={r.f_macro:.4f} (best epoch {record.best_epoch}, {len(record.epochs)} epochs)"
    )
    print(f"outputs in {out_dir}")
    return 0


def cmd_grid(args) -> int:
    pairs = parse_config_file(args.spec)
    for key, val in (("out", args.out), ("workers", args.workers)):
        if val is not None:
            pairs[key] = (str(val), "command line")
    spec = spec_from_pairs(pairs)
    code = run_experiment(spec)
    print(f"grid written to {resolve_out(spec.out)}")
    return code


def cmd_metrics(args) -> int:
    labels, preds, probs = classifier.read_predictions(args.pred)
    mask = np.arange(labels.size) if args.all_nodes else np.nonzero(labels >= 0)[0]
    report = full_report(probs, labels, mask, num_classes=probs.shape[1], preds=preds)
    print(f"acc={report.acc:.6f} auc_macro={report.auc_macro:.6f} f_macro={report.f_macro:.6f}")
    for c, pc in enumerate(report.per_class):
        print(
            f"class {c}: precision={pc.precision:.4f} recall={pc.recall:.4f} "
            f"f1={pc.f1:.4f} auc={pc.auc:.4f}"
        )
    return 0


def cmd_gradcheck(args) -> int:
    results = gradcheck_variants(seed=args.seed)
    ok = True
    for variant, violation in results.items():
        passed = violation <= 0.0
        ok &= passed
        print(f"{variant:15s} {'PASS' if passed else 'FAIL'} (margin {violation:+.3e})")
    return 0 if ok else 1


def cmd_gen_sbm(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    g = generate_sbm_graph(
        sizes,
        args.p_in,
        args.p_out,
        args.dim,
        args.seed,
        mean_scale=args.mean_scale,
        feature_noise=args.noise,
    )
    out_dir = resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_graph(g, out_dir / "edges.tsv", out_dir / "features.txt", out_dir / "labels.txt")
    print(f"{g.n} nodes, {g.adjacency.nnz // 2} edges, {g.m} classes -> {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="imbnode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="single training run")
    _add_dataset_args(p_train)
    p_train.add_argument("--variant", choices=VARIANTS)
    p_train.add_argument("--synth-log", action="store_true", help="log per-epoch synthetic nodes")
    p_train.set_defaults(fn=cmd_train)

    p_grid = sub.add_parser("grid", help="run an experiment spec file")
    p_grid.add_argument("--spec", required=True)
    p_grid.add_argument("--out")
    p_grid.add_argument("--workers", type=int)
    p_grid.set_defaults(fn=cmd_grid)

    p_metrics = sub.add_parser("metrics", help="score a prediction dump")
    p_metrics.add_argument("--pred", required=True)
    p_metrics.add_argument("--all-nodes", action="store_true", help="include unlabeled nodes")
    p_metrics.set_defaults(fn=cmd_metrics)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(fn=cmd_gradcheck)

    p_gen = sub.add_parser("gen-sbm", help="generate a block-model dataset")
    p_gen.add_argument("--sizes", required=True)
    p_gen.add_argument("--p-in", type=float, default=0.05)
    p_gen.add_argument("--p-out", type=float, default=0.005)
    p_gen.add_argument("--dim", type=int, default=16)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--mean-scale", type=float, default=1.0)
    p_gen.add_argument("--noise", type=float, default=1.0)
    p_gen.add_argument("--out", default="sbm_data")
    p_gen.set_defaults(fn=cmd_gen_sbm)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, ImbnodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
