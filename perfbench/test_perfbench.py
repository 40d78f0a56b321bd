"""Unit tests for the benchmark's own arithmetic and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from measure import (  # noqa: E402
    crashed_errors,
    detection_latencies,
    error_rate,
    percentile,
    row_errors,
    seen_stamps,
    supports,
    tail_percentile,
    unit_medians,
)
from tracing import Tracer, instrument_engine  # noqa: E402


class FakeClock:
    """A clock the test moves by hand."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def spend(self, ns: int) -> None:
        self.now += ns


# -- percentiles --------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(9_999) == 99.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None
    assert supports(1000, 99.0) and not supports(999, 99.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


# -- self time ----------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.spend(5)

    def middle():
        clock.spend(3)
        traced_leaf()
        clock.spend(1)

    def outer():
        clock.spend(1)
        traced_middle()
        clock.spend(2)
        traced_leaf()

    traced_leaf = tracer.wrap("seq", leaf)
    traced_middle = tracer.wrap("streams", middle)
    tracer.wrap("engine", outer)()
    assert dict(tracer.self_ns) == {"engine": 3, "streams": 4, "seq": 10}
    assert sum(tracer.self_ns.values()) == clock.now
    assert tracer.counts["seq.calls"] == 2
    assert tracer.current is None


def test_spans_under_a_timer_fired_clock_span():
    """A timer callback runs inside the clock span; what it emits into a
    traced sink is a child of the clock, and the clock's own share keeps
    the expiry work itself."""
    clock = FakeClock()
    tracer = Tracer(clock)
    fired = []

    def sink(row):
        clock.spend(2)

    traced_sink = tracer.wrap("sink", sink)

    def advance(to):
        clock.spend(1)  # the timer loop
        for deadline in (3.0, 4.0):  # two timer callbacks, not wrapped
            clock.spend(4)  # expiry work
            traced_sink(("late", deadline))
        return 2

    traced_advance = tracer.wrap(
        "clock", advance, lambda result, outer: fired.append((result, outer))
    )

    def run_trace():
        clock.spend(1)
        traced_advance(5.0)
        tracer.add_child("generator", 3)
        clock.spend(3)

    tracer.wrap("engine", run_trace)()
    assert tracer.self_ns["clock"] == 9
    assert tracer.self_ns["sink"] == 4
    assert tracer.self_ns["generator"] == 3
    assert tracer.self_ns["engine"] == 1
    assert sum(tracer.self_ns.values()) == clock.now
    assert fired == [(2, "engine")]


def test_wrapped_subscriber_keeps_its_vector_hook():
    tracer = Tracer()

    def callback(tup):
        return None

    callback.vector_admission = lambda cols, tss, n: [True] * n
    assert tracer.wrap("seq", callback).vector_admission is callback.vector_admission


def test_traced_engine_runs_the_same_program():
    """Tracing a real engine keeps its rows and tier, counts each timer
    firing once, and its self times cover the traced span."""
    from repro.dsms import Engine
    from repro.rfid.scenarios import WORKFLOW_PARTITIONED_QUERY

    trace = [
        ("a1", {"tagid": "x", "tagtime": 0.0}, 0.0),
        ("a2", {"tagid": "x", "tagtime": 10.0}, 10.0),
        ("a1", {"tagid": "y", "tagtime": 20.0}, 20.0),
        ("a3", {"tagid": "y", "tagtime": 30.0}, 30.0),
        ("a1", {"tagid": "z", "tagtime": 5000.0}, 5000.0),
    ]

    def build():
        engine = Engine()
        for name in ("a1", "a2", "a3"):
            engine.create_stream(name, "tagid str, tagtime float")
        return engine, engine.query(WORKFLOW_PARTITIONED_QUERY)

    plain, plain_handle = build()
    plain.run_trace(trace)
    plain.flush()

    clock = FakeClock()
    tracer = Tracer(clock)
    engine, handle = build()
    undo = instrument_engine(tracer, engine)
    try:
        engine.run_trace(iter(trace))
        engine.flush()
    finally:
        undo()
    assert handle.rows() == plain_handle.rows()
    assert handle.rows()  # the x timeout and the y wrong order at least
    assert engine.execution_tier() == plain.execution_tier()
    # x's deadline fires when z arrives, z's on flush(): two firings, each
    # counted once although advance_if_due nests an advance.
    assert tracer.counts["clock.timers_fired"] == 2
    assert tracer.counts["streams.rows_in"] == len(trace)
    assert tracer.counts["streams.fanout_calls"] == len(trace)


# -- detection latency ----------------------------------------------------------


def test_detection_is_timed_from_the_carrying_hand_off():
    unit_ts = [1.0, 5.0, 9.0]
    handoff = [100, 200, 300]
    results = [
        (1.0, 150),   # emitted by the unit carrying ts 1.0
        (5.0, 250),
        (3.6, 260),   # timer-fired at 3.6: the ts-5.0 unit pushed the clock there
        (9.0, 390),
        (12.0, 450),  # deadline after every input: fired by flush()
    ]
    assert detection_latencies(results, unit_ts, handoff, 400) == [50, 50, 60, 90, 50]


def test_batch_units_carry_their_last_timestamp():
    # Two batches covering ts 0..3 and 4..7: a result at 2.5 belongs to the first.
    assert detection_latencies([(2.5, 130), (4.0, 260)], [3.0, 7.0], [100, 200], 300) == [
        30, 60
    ]


def test_seen_stamps_date_each_result_by_its_first_sighting():
    log = [(110, 1), (210, 3)]
    assert seen_stamps(log, 4, 500) == [110, 210, 210, 500]
    assert seen_stamps([], 2, 500) == [500, 500]


def test_each_unit_takes_its_median_over_passes():
    # Pass 2 was descheduled during unit 1, pass 3 during unit 2: neither
    # spike survives, while unit 3, slow in every pass, stays slow.
    passes = [[10, 11, 12, 90], [10, 500, 12, 95], [11, 12, 400, 92]]
    assert unit_medians(passes) == [10, 12, 12, 92]
    assert percentile(unit_medians(passes), 75) == 12
    assert unit_medians([[1, 2, 3], [3, 4]]) == [2, 3]


# -- error rate -----------------------------------------------------------------


def test_error_rate_counts_missing_and_spurious_rows():
    missing, spurious = row_errors(["a", "a", "b"], ["a", "b", "b", "c"])
    assert (missing, spurious) == (1, 2)
    assert error_rate(missing, spurious, 3) == 1.0
    assert row_errors([("x", 1)], [("x", 1)]) == (0, 0)
    assert error_rate(0, 0, 0) == 0.0
    assert error_rate(0, 1, 0) == 1.0


def test_a_crashed_run_fails_every_row():
    missing, spurious = crashed_errors(7)
    assert error_rate(missing, spurious, 7) == 1.0


# -- the benchmark's declared metrics --------------------------------------------


def test_benchmark_json_matches_what_run_prints():
    spec_path = HERE.parent / "BENCHMARK.json"
    if not spec_path.is_file():
        pytest.skip("no BENCHMARK.json beside the benchmark")
    import run
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text())
    # Every declared workload exists; quality_sharded runs by name only.
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"quality_sharded"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
