"""The benchmark's own arithmetic: percentiles, detection latency, errors.

Everything here is pure (no engine, no clock) so the unit tests in
``test_perfbench.py`` can pin each rule down on hand-made numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, Sequence

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *values* (need not be sorted)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil(n * p / 100)
    return ordered[int(rank) - 1]


def supports(n: int, p: float) -> bool:
    """True when *n* samples leave at least ten beyond the *p*-th percentile."""
    # Rounded so that 10,000 samples support p99.9 despite float error.
    return round(n * (100.0 - p) / 100.0, 9) >= MIN_BEYOND


def tail_percentile(n: int) -> float | None:
    """The highest percentile of ``TAIL_LADDER`` that *n* samples support."""
    for p in TAIL_LADDER:
        if supports(n, p):
            return p
    return None


def unit_medians(series: Sequence[Sequence[float]]) -> list[float]:
    """Element-wise median of several equally long series: one latency per
    unit (or result) out of its latencies in every pass.  Series of unequal
    length, which only wrong output gives, are cut to the shortest."""
    from statistics import median

    return [median(column) for column in zip(*series)]


def detection_latencies(
    results: Iterable[tuple[float, int]],
    unit_ts: Sequence[float],
    handoff_ns: Sequence[int],
    flush_start_ns: int,
) -> list[int]:
    """Nanoseconds from the hand-off that carries each result's timestamp
    to the moment the result was first seen.

    *results* holds ``(result_ts, seen_ns)`` pairs.  *unit_ts* is each
    input unit's largest timestamp, in hand-off order (non-decreasing), and
    *handoff_ns* the matching hand-off stamps.  The carrying unit is the
    first one at or after the result's timestamp: for a timer-fired result
    that is the input that pushed the clock to the deadline.  A result
    stamped after every input was fired by ``flush()``, whose start is
    then the hand-off.
    """
    out = []
    n = len(unit_ts)
    for result_ts, seen_ns in results:
        index = bisect_left(unit_ts, result_ts)
        start = handoff_ns[index] if index < n else flush_start_ns
        out.append(seen_ns - start)
    return out


def seen_stamps(
    count_log: Sequence[tuple[int, int]], total: int, end_ns: int
) -> list[int]:
    """First-seen stamp of every result of one output.

    *count_log* lists ``(stamp_ns, visible_count)`` observations in time
    order, taken each time the engine handed control back; results beyond
    the last observation were first seen at *end_ns* (after ``flush()``).
    """
    stamps = [end_ns] * total
    done = 0
    for stamp, count in count_log:
        count = min(count, total)
        for index in range(done, count):
            stamps[index] = stamp
        done = max(done, count)
    return stamps


def row_errors(expected: Iterable, actual: Iterable) -> tuple[int, int]:
    """``(missing, spurious)`` rows between two multisets of hashable rows."""
    want = Counter(expected)
    got = Counter(actual)
    missing = sum((want - got).values())
    spurious = sum((got - want).values())
    return missing, spurious


def error_rate(missing: int, spurious: int, reference_rows: int) -> float:
    """(missing + spurious) / reference rows; an empty reference with no
    output is a perfect score, and any output against it is all wrong."""
    if reference_rows == 0:
        return 0.0 if spurious == 0 else 1.0
    return (missing + spurious) / reference_rows


def crashed_errors(reference_rows: int) -> tuple[int, int]:
    """A crashed run misses every reference row."""
    return reference_rows, 0


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    from statistics import median, quantiles

    q1, _q2, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0

