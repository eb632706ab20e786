"""Order statistics and metric-name rules shared by run.py and its tests.

Standard library only.
"""
from __future__ import annotations

import re

# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10
_TAIL_LADDER = tuple(range(50, 100)) + (99.9,)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics
    (the same estimator as NumPy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> float:
    """Highest percentile on the ladder 50, 51, ..., 99, 99.9 that leaves at
    least ``TAIL_BEYOND`` of ``count`` samples beyond it."""
    # the slack absorbs the rounding of 100 - 99.9
    fits = [q for q in _TAIL_LADDER if count * (100.0 - q) >= 100.0 * TAIL_BEYOND - 1e-6]
    if not fits:
        raise ValueError(f"{count} samples leave fewer than {TAIL_BEYOND} beyond the median")
    return fits[-1]


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None
