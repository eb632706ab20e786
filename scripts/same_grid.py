"""Check that two grid output directories hold the same numbers.

Usage:
    python scripts/same_grid.py DIR_A DIR_B

Exits 0 when `runs.csv`, `summary.csv` and `failures.csv` are
byte-identical, `spec.json` records the same settings once `out` is
dropped, every file under `series/` is byte-identical, and every
`records/*.jsonl` exists on both sides with identical epoch lines and head
lines that are equal once `wall_time` is dropped. Otherwise it prints
every file that differs, each with its first difference, and exits 1: the
first differing line, or for a record's head line the first key path that
differs (`records/gs_t_s0.jsonl:1: config.lr differs`). For
a table, series or record whose numbers differ, the line also gives the
largest relative difference |a - b| / max(|a|, |b|) over the numeric
fields of the lines both files hold (CSV cells, or the numbers anywhere in
a record line). A change that should move no number runs the reference
grid (`scripts/reference_grid.cfg`) before and after it and compares the
two output directories here; one that moves numbers in the last bits shows
how far.
"""
import csv
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path

TABLES = ("runs.csv", "summary.csv", "failures.csv")


def _listing(root: Path, sub: str, pattern: str) -> set[str]:
    return {f"{sub}/{p.name}" for p in (root / sub).glob(pattern)}


def _head(line: str) -> dict:
    head = json.loads(line)
    head.pop("wall_time", None)
    return head


def _settings(root: Path) -> dict:
    """spec.json without `out`, with the train settings keyed `train.<name>`."""
    spec = json.loads((root / "spec.json").read_text(encoding="utf-8"))
    spec.pop("out", None)
    train = spec.pop("train", {})
    return {**spec, **{f"train.{k}": v for k, v in train.items()}}


_ABSENT = object()  # a key or index one side of a comparison lacks


def _first_difference(a, b, key: str = "") -> str:
    """The path (`config.lr`, `pretrain_losses[3]`) of the first field where
    the parsed record lines `a` and `b` differ, in `a`'s order and then
    `b`'s; empty when they are equal."""
    if isinstance(a, dict) and isinstance(b, dict):
        fields = [(f"{key}.{k}" if key else k, a.get(k, _ABSENT), b.get(k, _ABSENT)) for k in {**a, **b}]
    elif isinstance(a, list) and isinstance(b, list):
        fields = [(f"{key}[{i}]", x, y) for i, (x, y) in enumerate(zip_longest(a, b, fillvalue=_ABSENT))]
    else:
        return "" if a == b else key
    return next((path for k, x, y in fields if (path := _first_difference(x, y, k))), "")


def _numbers(value, key: str = "") -> dict:
    """The numbers in a parsed record line, keyed by their path in it."""
    if isinstance(value, dict):
        return {k: x for name, v in value.items() for k, x in _numbers(v, f"{key}.{name}").items()}
    if isinstance(value, list):
        return {k: x for i, v in enumerate(value) for k, x in _numbers(v, f"{key}[{i}]").items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return {key: float(value)}
    return {}


def _fields(line: bytes, is_record: bool, is_head: bool) -> dict:
    """The numeric fields of one line: a record line's numbers (a head line
    without `wall_time`), or a CSV line's cells that read as numbers."""
    if is_record:
        return _numbers(_head(line) if is_head else json.loads(line))
    cells = next(csv.reader([line.decode("utf-8")]), [])
    fields = {}
    for i, cell in enumerate(cells):
        try:
            fields[str(i)] = float(cell)
        except ValueError:
            pass
    return fields


def _largest_relative(lines_a: list, lines_b: list, is_record: bool) -> float:
    """The largest |a - b| / max(|a|, |b|) over the numeric fields that the
    paired lines share (inf where one side is not finite); 0 when none moved."""
    worst = 0.0
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if x == y:
            continue
        fa, fb = _fields(x, is_record, i == 0), _fields(y, is_record, i == 0)
        for key in fa.keys() & fb.keys():
            u, v = fa[key], fb[key]
            if u == v or (math.isnan(u) and math.isnan(v)):
                continue
            moved = abs(u - v) / max(abs(u), abs(v)) if math.isfinite(u) and math.isfinite(v) else math.inf
            worst = max(worst, moved)
    return worst


def _compare(rel: str, a: Path, b: Path, is_record: bool) -> str | None:
    """The first line where file `rel` differs, or None, with the largest
    relative difference of its numbers when some moved. A record's head
    line (its first) is compared without `wall_time`; any other file must
    match byte for byte."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return None
    lines_a, lines_b = data_a.splitlines(), data_b.splitlines()
    moved = _largest_relative(lines_a, lines_b, is_record)
    by = f"; largest relative difference {moved:.3g}" if moved else ""
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if is_record and i == 0:
            path = _first_difference(_head(x), _head(y))
            if path:
                return f"{rel}:1: {path} differs{by}"
        elif x != y:
            return f"{rel}:{i + 1}: lines differ{by}"
    if len(lines_a) != len(lines_b):
        return f"{rel}: {len(lines_a)} lines against {len(lines_b)}{by}"
    return None if is_record else f"{rel}: bytes differ"  # line endings or the final newline


def differences(a: Path, b: Path) -> list[str]:
    """Every file in which grid directory `b` differs from `a`, each with
    its first difference; empty when the two match."""
    out = []
    for name in (*TABLES, "spec.json"):
        for root in (a, b):
            if not (root / name).is_file():
                out.append(f"{name}: missing in {root}")
    series = [_listing(root, "series", "*") for root in (a, b)]
    records = [_listing(root, "records", "*.jsonl") for root in (a, b)]
    for names in (series, records):
        for mine, theirs, root in ((names[0], names[1], a), (names[1], names[0], b)):
            out += [f"{rel}: only in {root}" for rel in sorted(mine - theirs)]
    tables = [rel for rel in TABLES if (a / rel).is_file() and (b / rel).is_file()]
    for rel in (*tables, *sorted(series[0] & series[1])):
        out.append(_compare(rel, a / rel, b / rel, is_record=False))
    if (a / "spec.json").is_file() and (b / "spec.json").is_file():
        before, after = _settings(a), _settings(b)
        changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
        if changed:
            out.append(f"spec.json: {changed[0]} differs")
    for rel in sorted(records[0] & records[1]):
        out.append(_compare(rel, a / rel, b / rel, is_record=True))
    return [diff for diff in out if diff is not None]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/same_grid.py DIR_A DIR_B", file=sys.stderr)
        return 2
    diffs = differences(Path(argv[0]), Path(argv[1]))
    print("\n".join(diffs) if diffs else "same grid")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
