"""Arithmetic of the benchmark: percentiles, span self-time and failure accounting."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def nearest_rank(values: Sequence[float], pct: int) -> float:
    """The pct-th percentile by the nearest-rank rule (p0 is the minimum)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct * len(s) / 100))
    return s[rank - 1]


def tail_percentile(count: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile whose nearest-rank sample has >= beyond samples after it.

    With count <= beyond no percentile qualifies; 0 (the minimum) is returned.
    """
    if count <= beyond:
        return 0
    return 100 * (count - beyond) // count


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """(percentile, value) of the tail rule applied to values."""
    pct = tail_percentile(len(values), beyond)
    return pct, nearest_rank(values, pct)


def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    return (end - start) - union_length(children, start, end)


def _check_counts(attempted: int, failed: int) -> None:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")


def fail_ratio(attempted: int, failed: int) -> float:
    """Share of attempted ops that failed or returned an output that failed its check."""
    _check_counts(attempted, failed)
    return failed / attempted


def ok_ratio(attempted: int, failed: int) -> float:
    """Share of attempted ops that completed with a checked result."""
    _check_counts(attempted, failed)
    return (attempted - failed) / attempted
