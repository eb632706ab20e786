"""Experiment driver.

Subcommands
-----------
train      one training run (dataset files or a generated block-model graph)
grid       sweep experiment from a spec file: variants x seeds x sweep axis
metrics    score a prediction dump CSV
gradcheck  verify analytic gradients of every variant objective
gen-sbm    write a synthetic block-model dataset in the package file formats

Config files are flat ``key = value`` text (comments with ``#``); keys map
1:1 onto ExperimentSpec and TrainConfig fields, except the TrainConfig
fields each run takes from `variants`, `seeds` and ``train --synth-log``.
Command-line flags override file values and parse as file values do.
Lists are comma-separated. An unknown key, an unparseable value and a
value out of range (each range rule lives in the library function that
uses the value, keyed by field; some need the graph) are reported with the
key and its file:line, or, for a value given by a flag, with the flag in
place of the key. All randomness derives from the seeds in the spec:
splits and minority-class selection for seed s come from the stream
SeedSequence([s, 1]), and each run's parameter init and sampling streams
come from SeedSequence(s) inside the trainer, so a rerun of the same spec
is byte-identical.

The environment variable IMBNODE_OUT sets the root under which relative
output directories are created (default: current directory).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import classifier, kernels
from .errors import ConfigError, ImbnodeError
from .graph import (
    Graph,
    _check_artificial,
    _check_proportional,
    _check_sbm,
    generate_sbm_graph,
    load_graph,
    make_artificial_imbalance,
    make_proportional_split,
    save_graph,
)
from .metrics import aggregate_reports, full_report, write_summary_table
from .train import VARIANTS, TrainConfig, gradcheck_variants, train

SWEEP_AXES = ("none", "scale", "ratio", "lambda")
_SWEEP_FIELDS = {"scale": "scale", "lambda": "lambda_"}  # the TrainConfig field each axis sets


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
        if self.protocol and self.protocol not in ("artificial", "proportional"):
            raise ConfigError("protocol", "protocol must be 'artificial' or 'proportional'")
        if self.sweep == "ratio" and self.effective_protocol() != "artificial":
            message = f"sweep=ratio needs protocol = artificial, not {self.effective_protocol()}"
            raise ConfigError("sweep", message, related=("protocol",))
        if self.sweep != "none" and not self.sweep_values:
            raise ConfigError("sweep", f"sweep={self.sweep} needs sweep_values")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("seeds", "seeds must list at least one seed, each >= 0")
        for key in ("seeds", "variants", "sweep_values"):
            values = getattr(self, key)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ConfigError(key, f"{key} lists {repeated[0]!r} more than once")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError("variants", f"unknown variant {v!r}; choose from {VARIANTS}")
        if self.minority_count < 1:
            raise ConfigError("minority_count", "minority_count must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers", "workers must be >= 1")
        self.train.validate()
        _check_artificial(self.ratio, self.majority_train_size, self.val_frac)
        if self.effective_protocol() == "proportional":
            _check_proportional(self.train_frac, self.val_frac)
        if not self.uses_files() and self.sbm_sizes:  # no dataset at all fails in load_spec_graph
            _check_sbm(*self.sbm_args())
        for v in self.sweep_values if self.sweep != "none" else ():
            try:
                if self.sweep == "ratio":
                    _check_artificial(v, self.majority_train_size, self.val_frac)
                else:
                    replace(self.train, **{_SWEEP_FIELDS[self.sweep]: v}).validate()
            except ConfigError as exc:
                message = f"{self.sweep} sweep value {v!r}: {exc}"
                raise ConfigError("sweep_values", message, related=exc.keys[1:]) from None

    def sbm_args(self) -> tuple:
        """generate_sbm_graph's positional arguments for this spec's graph."""
        return (self.sbm_sizes, self.sbm_p_in, self.sbm_p_out, self.sbm_dim, self.data_seed,
                self.sbm_mean_scale, self.sbm_noise)

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
        files = ("edge_file", "feature_file", "label_file")
        missing = [f for f in files if not getattr(spec, f) or not Path(getattr(spec, f)).exists()]
        if missing:
            raise FileNotFoundError(
                f"dataset files missing or unset: {', '.join(missing)}; "
                "pass all of edge_file/feature_file/label_file or sbm_sizes"
            )
        return load_graph(spec.edge_file, spec.feature_file, spec.label_file)
    if not spec.sbm_sizes:
        raise ValueError("no dataset: set the three files or sbm_sizes")
    return generate_sbm_graph(*spec.sbm_args())


def build_masks(g: Graph, spec: ExperimentSpec, ratio: float, seed: int):
    """Split (and pick minority classes) for one seed; deterministic. More
    minority classes than the graph has, or no test node, raise ConfigError."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    if spec.effective_protocol() == "artificial":
        if spec.minority_count > g.m:
            message = f"minority_count = {spec.minority_count} exceeds the graph's {g.m} classes"
            raise ConfigError("minority_count", message)
        minority = sorted(int(c) for c in rng.choice(g.m, size=spec.minority_count, replace=False))
        masks = make_artificial_imbalance(
            g,
            minority,
            ratio,
            spec.majority_train_size,
            seed=int(rng.integers(2**31)),
            val_frac=spec.val_frac,
        )
        split = f"majority_train_size = {spec.majority_train_size}, ratio = {ratio!r}"
    else:
        minority = None
        masks = make_proportional_split(g, spec.train_frac, spec.val_frac, seed=int(rng.integers(2**31)))
        split = f"train_frac = {spec.train_frac!r}"
    if masks.test.size == 0:
        message = f"seed {seed}: the split leaves no test node ({split}, val_frac = {spec.val_frac!r})"
        raise ConfigError("val_frac", message)
    return masks, minority


def _run_one(task):
    g, masks, cfg, minority = task
    try:
        params, record = train(g, masks, cfg)
    except Exception as exc:  # its partial record names the split's minority classes too
        exc.record.minority_classes = minority
        raise
    record.minority_classes = minority
    return record


def run_experiment(spec: ExperimentSpec) -> int:
    """Execute the grid in one pass. Once every split is built, write
    spec.json and the headers of runs.csv and failures.csv; as each run
    finishes, write its record under records/ and its row (to failures.csv
    if it raised) and print one progress line to stderr, so a stopped grid
    keeps the runs that finished. After the last run, write summary.csv and,
    for sweeps, the per-variant series files. Returns a process exit code:
    1 when some run raised."""
    spec.validate()
    g = load_spec_graph(spec)

    values = spec.sweep_values if spec.sweep != "none" else [None]
    tasks = []  # ((sweep value, variant, seed), training task) per run
    for value in values:
        ratio = float(value) if spec.sweep == "ratio" else spec.ratio
        for seed in spec.seeds:
            masks, minority = build_masks(g, spec, ratio, seed)
            for variant in spec.variants:
                cfg = replace(spec.train, variant=variant, seed=seed)
                if spec.sweep in _SWEEP_FIELDS:
                    cfg = replace(cfg, **{_SWEEP_FIELDS[spec.sweep]: float(value)})
                tasks.append(((value, variant, seed), (g, masks, cfg, minority)))
    out_dir = resolve_out(spec.out)
    records_dir = out_dir / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    recorded = asdict(spec)
    recorded["train"] = {k: v for k, v in recorded["train"].items() if k not in _PER_RUN}
    with open(out_dir / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=2)

    reports = []  # (sweep value, variant, report) per completed run, for summary.csv
    # line-buffered, so each row reaches its file as its run finishes
    with (
        open(out_dir / "runs.csv", "w", newline="", encoding="utf-8", buffering=1) as runs_fh,
        open(out_dir / "failures.csv", "w", newline="", encoding="utf-8", buffering=1) as failures_fh,
    ):
        runs, failures = csv.writer(runs_fh), csv.writer(failures_fh)
        runs.writerow(["sweep_value", "variant", "seed", "acc", "auc", "f"])
        failures.writerow(["sweep_value", "variant", "seed", "error"])

        def finish(i, label, run):
            value, variant, seed = label
            sweep_value = "" if value is None else repr(float(value))
            name = f"run {i + 1}/{len(tasks)} {variant} seed {seed}"
            if value is not None:
                name += f" {spec.sweep} {value}"
            tag = f"{'' if value is None else f'{value}_'}{variant}_s{seed}"
            try:
                rec = run()
            except Exception as exc:  # noqa: BLE001 - report and keep going
                error = f"{type(exc).__name__}: {exc}"
                failures.writerow([sweep_value, variant, seed, error])
                if getattr(exc, "record", None) is not None:  # the epochs the run finished
                    exc.record.write_jsonl(records_dir / f"{tag}.jsonl")
                print(f"{name} aborted: {error}", file=sys.stderr)
                return
            rec.write_jsonl(records_dir / f"{tag}.jsonl")
            report = rec.report
            runs.writerow(
                [sweep_value, variant, seed, repr(report.acc), repr(report.auc_macro), repr(report.f_macro)]
            )
            reports.append((value, variant, report))
            print(
                f"{name} done: test F {report.f_macro:.4f}, AUC {report.auc_macro:.4f}, "
                f"{rec.wall_time:.1f} s",
                file=sys.stderr,
            )

        if spec.workers > 1:
            # one process per worker already: each keeps its n x n passes on one thread
            with ProcessPoolExecutor(max_workers=spec.workers, initializer=kernels._single_thread) as pool:
                futures = [pool.submit(_run_one, task) for _, task in tasks]
                for i, ((label, _), future) in enumerate(zip(tasks, futures)):
                    finish(i, label, future.result)
        else:
            for i, (label, task) in enumerate(tasks):
                finish(i, label, partial(_run_one, task))

    summary_rows = []
    for value in values:
        pairs = [(variant, rep) for v, variant, rep in reports if v == value]
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
    return 1 if len(reports) < len(tasks) else 0


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
_KEY_ALIAS = {"lambda": "lambda_"}  # config key -> field name
# TrainConfig fields each run takes from elsewhere, which no config key sets
_PER_RUN = {"variant": "variants", "seed": "seeds", "synth_log": "train --synth-log"}
_TRAIN_DEFAULTS = {k: v for k, v in vars(TrainConfig()).items() if k not in _PER_RUN}
_SPEC_DEFAULTS = {k: v for k, v in vars(ExperimentSpec()).items() if k != "train"}


def parse_config_file(path) -> dict[str, tuple[str, str]]:
    """Flat ``key = value`` lines to {key: (raw value, "file:line")}. Two
    lines that set one field (`lambda` and `lambda_` included) raise
    ValueError naming the key and both lines."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, raw = stripped.partition("=")
            key, where = key.strip(), f"{path}:{lineno}"
            twin = next((k for k in out if _KEY_ALIAS.get(k, k) == _KEY_ALIAS.get(key, key)), None)
            if twin is not None:
                raise ValueError(f"{where}: config key {key!r} is set twice (also as {twin!r} at {out[twin][1]})")
            out[key] = (raw.strip(), where)
    return out


def spec_from_pairs(pairs: dict[str, tuple[str, str]], flags: dict[str, str] | None = None) -> ExperimentSpec:
    """The validated spec from {key: (raw value, where it was set)}, where
    is "file:line" or the flag that gave the value. An unknown key, a value
    that does not parse and a value out of range raise ValueError naming the
    key and where it was set, or just the flag. `flags` ({key: flag}) holds
    the keys only a flag sets, named by their flag even when not given."""
    spec = ExperimentSpec()
    train_kwargs = {}
    for key, (raw, where) in pairs.items():
        name = _KEY_ALIAS.get(key, key)
        if name not in _SPEC_DEFAULTS and name not in _TRAIN_DEFAULTS:
            hint = f"; use {_PER_RUN[name]}" if name in _PER_RUN else ""
            raise ValueError(f"{where}: unknown config key {key!r}{hint}")
        try:
            value = _parse_value(name, raw)
        except ValueError as exc:
            named = where if where.startswith("--") else f"{where}: bad value for {key!r}"
            raise ValueError(f"{named}: {exc}") from None
        if name in _SPEC_DEFAULTS:
            setattr(spec, name, value)
        else:
            train_kwargs[name] = value
    spec.train = replace(spec.train, **train_kwargs)
    with _located(pairs, flags):
        spec.validate()
    return spec


@contextmanager
def _located(pairs: dict[str, tuple[str, str]], flags: dict[str, str] | None = None):
    """Re-raise a ConfigError as a ValueError naming where its key (or else
    a related key) was set: in `pairs` or, for a key of `flags` that `pairs`
    lacks, by its flag. One whose keys are set nowhere propagates. A message
    about flags names the flags, not the fields they set."""
    try:
        yield
    except ConfigError as exc:
        where_set = {key: (key, flag) for key, flag in (flags or {}).items()}
        where_set.update({_KEY_ALIAS.get(key, key): (key, where) for key, (_, where) in pairs.items()})
        named = [k for k in exc.keys if k in where_set]
        if not named:
            raise
        key, where = where_set[named[0]]
        if not where.startswith("--"):
            raise ValueError(f"{where}: bad value for {key!r}: {exc}") from None
        by_flag = {k: where_set[k][1] for k in named if where_set[k][1].startswith("--")}
        message = re.sub(r"\w+", lambda word: by_flag.get(word[0], word[0]), str(exc))
        raise ValueError(message if where in message else f"{where}: {message}") from None


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

# Each subcommand's settings flags, {config key: flag}. A flag's value is
# parsed and range-checked as the key's value in a file is; the argparse
# dest is the key.
_FLAGS = {
    "train": {
        "edge_file": "--edge-file", "feature_file": "--feature-file", "label_file": "--label-file",
        "sbm_sizes": "--sbm-sizes", "sbm_p_in": "--p-in", "sbm_p_out": "--p-out", "sbm_dim": "--sbm-dim",
        "data_seed": "--data-seed", "protocol": "--protocol", "ratio": "--ratio", "scale": "--scale",
        "seeds": "--seed", "variants": "--variant", "out": "--out"},
    "grid": {"out": "--out", "workers": "--workers"},
    "gen-sbm": {
        "sbm_sizes": "--sizes", "sbm_p_in": "--p-in", "sbm_p_out": "--p-out", "sbm_dim": "--dim",
        "data_seed": "--seed", "sbm_mean_scale": "--mean-scale", "sbm_noise": "--noise"},
}


def _flag_pairs(args, flags: dict[str, str], pairs: dict[str, tuple[str, str]]) -> dict[str, tuple[str, str]]:
    """`pairs` with each key of `flags` whose flag was given set from it."""
    given = {key: (getattr(args, key), flag) for key, flag in flags.items() if getattr(args, key) is not None}
    return {**pairs, **given}


def cmd_train(args) -> int:
    pairs = _flag_pairs(args, _FLAGS["train"], parse_config_file(args.config) if args.config else {})
    spec = spec_from_pairs(pairs)
    with _located(pairs):
        for key in ("variants", "seeds"):
            if len(getattr(spec, key)) != 1:
                raise ConfigError(key, f"{key} must list one value for train; use grid for more")
        g = load_spec_graph(spec)
        masks, minority = build_masks(g, spec, spec.ratio, spec.seeds[0])
    cfg = replace(spec.train, variant=spec.variants[0], seed=spec.seeds[0])
    out_dir = resolve_out(spec.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.synth_log:
        cfg = replace(cfg, synth_log=str(out_dir / "synthetic_nodes.csv"))
    try:
        params, record = train(g, masks, cfg)
    except Exception as exc:  # the failed run's record, then the error
        exc.record.minority_classes = minority
        exc.record.write_jsonl(out_dir / "record.jsonl")
        raise
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
    pairs = _flag_pairs(args, _FLAGS["grid"], parse_config_file(args.spec))
    spec = spec_from_pairs(pairs)
    with _located(pairs):
        code = run_experiment(spec)
    print(f"grid written to {resolve_out(spec.out)}")
    return code


def cmd_metrics(args) -> int:
    labels, preds, probs = classifier.read_predictions(args.pred)
    mask = np.nonzero(labels >= 0)[0]
    if mask.size == 0:
        raise ValueError(f"{args.pred}: no labeled row to score (every true_label is -1, or there are no rows)")
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
    # flags alone set gen-sbm's graph, so a flag left at its default is named too
    flags = _FLAGS["gen-sbm"]
    pairs = _flag_pairs(args, flags, {})
    spec = spec_from_pairs(pairs, flags)
    with _located(pairs, flags):  # the spec checks no graph without --sizes; the generator does
        g = generate_sbm_graph(*spec.sbm_args())
    out_dir = resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_graph(g, out_dir / "edges.tsv", out_dir / "features.txt", out_dir / "labels.txt")
    print(f"{g.n} nodes, {g.adjacency.nnz // 2} edges, {g.m} classes -> {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="imbnode", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="single training run")
    p_train.add_argument("--config", help="flat key = value config file")
    p_train.add_argument("--synth-log", action="store_true", help="log per-epoch synthetic nodes")
    p_train.set_defaults(fn=cmd_train)

    p_grid = sub.add_parser("grid", help="run an experiment spec file")
    p_grid.add_argument("--spec", required=True)
    p_grid.set_defaults(fn=cmd_grid)

    p_metrics = sub.add_parser("metrics", help="score a prediction dump")
    p_metrics.add_argument("--pred", required=True)
    p_metrics.set_defaults(fn=cmd_metrics)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(fn=cmd_gradcheck)

    p_gen = sub.add_parser("gen-sbm", help="generate a block-model dataset")
    p_gen.add_argument("--out", default="sbm_data")
    p_gen.set_defaults(fn=cmd_gen_sbm)

    for command, flags in _FLAGS.items():
        for key, flag in flags.items():
            sub.choices[command].add_argument(flag, dest=key)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError, ImbnodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
