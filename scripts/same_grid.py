"""Check that two grid output directories hold the same numbers.

Usage:
    python scripts/same_grid.py DIR_A DIR_B

Exits 0 when `runs.csv`, `summary.csv` and `failures.csv` are
byte-identical, `spec.json` records the same settings once `out` is
dropped, every file under `series/` is byte-identical, and every
`records/*.jsonl` exists on both sides with identical epoch lines and head
lines that are equal once `wall_time` is dropped. Otherwise it prints
every file that differs, each with its first difference, and exits 1. A
change that should move no number runs the reference grid
(`scripts/reference_grid.cfg`) before and after it and compares the two
output directories here.
"""
import json
import sys
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


def _compare(rel: str, a: Path, b: Path, is_record: bool) -> str | None:
    """The first line where file `rel` differs, or None. A record's head
    line (its first) is compared without `wall_time`; any other file must
    match byte for byte."""
    data_a, data_b = a.read_bytes(), b.read_bytes()
    if data_a == data_b:
        return None
    lines_a, lines_b = data_a.splitlines(), data_b.splitlines()
    for i, (x, y) in enumerate(zip(lines_a, lines_b)):
        if (_head(x) != _head(y)) if is_record and i == 0 else x != y:
            return f"{rel}:{i + 1}: lines differ"
    if len(lines_a) != len(lines_b):
        return f"{rel}: {len(lines_a)} lines against {len(lines_b)}"
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
