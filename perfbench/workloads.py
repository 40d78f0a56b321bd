"""The four benchmark workloads: generated inputs, engine set-up, references.

Each workload has two halves:

* ``make_inputs(seed)`` builds every input unit before any timing starts
  — a list of ``(stream, values, ts)`` records or ``(stream, ColumnBatch)``
  entries, exactly what ``run_trace`` consumes — together with the
  reference output the benchmark computes from the same inputs;
* ``build(hook)`` constructs a ready engine (streams, tables, registered
  queries, and for the sharded workload its started workers) and names the
  outputs to read back.

The engines run at their defaults; the query texts are the paper's (the
scenario module holds them), renamed onto distinct streams where several
share one engine.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import merge
from typing import Any, Callable

from repro.dsms.columns import ColumnBatch
from repro.dsms.engine import Engine
from repro.dsms.schema import Schema
from repro.dsms.sharding import ShardedEngine
from repro.rfid import workloads as gen
from repro.rfid.scenarios import (
    CONTAINMENT_QUERY,
    DEDUP_QUERY,
    DOOR_QUERY_THEFT,
    EPC_AGG_QUERY,
    LOCATION_QUERY,
    WORKFLOW_PARTITIONED_QUERY,
    quality_query_text,
)

QUALITY_PRODUCTS = 20_000
QUALITY_SCHEMA = "readerid str, tagid str, tagtime float"
QUALITY_QUERY = quality_query_text("RECENT", 30)

SENSOR_CYCLES = 400  # each: two X-reader batches, then one Y-reader batch
SENSOR_BATCH_ROWS = 32
SENSOR_TAGS = 8
SENSOR_REREADS = 3
SENSOR_READINGS = -(-SENSOR_BATCH_ROWS // SENSOR_REREADS)  # logical readings per batch
SENSOR_WINDOW_S = 400.0
SENSOR_V_MAX = 0.5
SENSOR_W_MIN = 0.5
SENSOR_GAP = 0.6
SENSOR_QUERY = (
    "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
    f"WHERE SEQ(X, Y) OVER [{SENSOR_WINDOW_S:g} SECONDS PRECEDING Y] "
    "AND X.tag_id = Y.tag_id "
    f"AND X.v < {SENSOR_V_MAX!r} AND Y.w > {SENSOR_W_MIN!r} "
    f"AND Y.w - X.v > {SENSOR_GAP!r}"
)

EPC_QUERY = EPC_AGG_QUERY.replace("FROM readings", "FROM epc_readings")
LAB_STAFF = 20
LAB_RUNS_EACH = 5

Row = tuple
Reference = dict[str, list[Row]]


class Inputs:
    """Generated input units plus the reference output they must produce."""

    def __init__(
        self,
        units: list[tuple],
        reference: Reference,
        rows_per_stream: dict[str, int],
    ) -> None:
        self.units = units
        self.reference = reference
        self.rows_per_stream = rows_per_stream
        self.rows = sum(rows_per_stream.values())
        # Largest timestamp carried by each unit, in hand-off order.
        self.unit_ts = [
            unit[2] if len(unit) == 3 else unit[1].timestamps[-1] for unit in units
        ]


class Output:
    """One query output as the benchmark reads it.

    ``visible`` is an object whose ``len()`` is the number of results a
    caller can see right now (a collector's result list, or a table);
    ``read`` returns every result as ``(ts, row)`` in order of appearance.
    """

    def __init__(self, visible: Any, read: Callable[[], list[tuple[float, Row]]]):
        self.visible = visible
        self.read = read


class Setup:
    """A ready engine and the outputs to read back from it."""

    def __init__(self, engine: Any, outputs: dict[str, Output]) -> None:
        self.engine = engine
        self.outputs = outputs

    def close(self) -> None:
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()


def _results(handle: Any, key: Callable[[tuple], Row] = tuple) -> Output:
    results = handle.results
    return Output(results, lambda: [(tup.ts, key(tup.values)) for tup in results])


def _query(engine: Any, hook: Callable | None) -> Callable:
    """The engine's ``query`` method, wrapped by *hook* when one is given
    (the traced run times query compilation this way)."""
    return engine.query if hook is None else hook(engine.query)


def _by_ts(units: list[tuple]) -> list[tuple]:
    return sorted(units, key=lambda unit: unit[2])


# ---------------------------------------------------------------------------
# quality_rows / quality_sharded: Example 6, 30-minute window, MODE RECENT
# ---------------------------------------------------------------------------


def quality_inputs(seed: int) -> Inputs:
    workload = gen.quality_check_workload(
        n_products=QUALITY_PRODUCTS, dropout_rate=0.15, interleave=True, seed=seed
    )
    reference = sorted(
        (tag, *stamps) for tag, stamps in workload.truth.items()
    )
    counts = Counter(record[0] for record in workload.trace)
    return Inputs(workload.trace, {"quality": reference}, dict(counts))


def _quality_ddl(engine: Any) -> None:
    for name in ("c1", "c2", "c3", "c4"):
        engine.create_stream(name, QUALITY_SCHEMA)


def quality_build(hook: Callable | None = None) -> Setup:
    engine = Engine()
    _quality_ddl(engine)
    handle = _query(engine, hook)(QUALITY_QUERY, name="quality")
    return Setup(engine, {"quality": _results(handle)})


def quality_sharded_build(hook: Callable | None = None) -> Setup:
    engine = ShardedEngine(n_shards=2, executor="parallel")
    try:
        _quality_ddl(engine)
        handle = _query(engine, hook)(QUALITY_QUERY, name="quality")
        engine.start()
    except BaseException:
        engine.close()
        raise
    # Merged results are only readable after the run (reading them syncs
    # the workers); arrival times come from the transport's collector.
    return Setup(engine, {"quality": Output((), lambda: [
        (tup.ts, tuple(tup.values)) for tup in handle.results
    ])})


# ---------------------------------------------------------------------------
# sensor_columns: ColumnBatch reader cycles into a windowed SEQ(X, Y)
# ---------------------------------------------------------------------------

SENSOR_SCHEMA_A = Schema.parse("tag_id str, v float")
SENSOR_SCHEMA_B = Schema.parse("tag_id str, w float")


def sensor_inputs(seed: int) -> Inputs:
    """Reader-cycle batches over a few dense tag partitions.

    The X reader (stream ``a``) reports twice per cycle of the Y reader
    (stream ``b``), so cheap admission-only batches outnumber the batches
    that pair, and the median batch is one of them rather than the boundary
    between the two kinds.  Every logical reading is re-read
    ``SENSOR_REREADS`` times with a little jitter, as a tag sitting in a
    reader's field is; timestamps increase strictly across the trace.

    Each batch draws its readings' values stratified over [0, 1) (one per
    equal slice, in shuffled order) rather than independently, so every
    batch carries about the same number of qualifying rows and pairs.  A
    result's detection latency is its batch's latency, so with independent
    draws the top one per cent of results sat in the one or two batches
    that happened to pair most, and ``detect_p99_us`` read that extreme
    instead of a tail.
    """
    rng = random.Random(seed)
    units: list[tuple] = []
    rows: dict[str, list[tuple[str, float, float]]] = {"a": [], "b": []}
    ts = 0.0
    cycle = (("a", SENSOR_SCHEMA_A), ("a", SENSOR_SCHEMA_A), ("b", SENSOR_SCHEMA_B))
    for _ in range(SENSOR_CYCLES):
        for stream, schema in cycle:
            block: list[tuple[tuple, float]] = []
            bases = [(i + rng.random()) / SENSOR_READINGS for i in range(SENSOR_READINGS)]
            rng.shuffle(bases)
            while len(block) < SENSOR_BATCH_ROWS:
                tag = f"t{rng.randrange(SENSOR_TAGS)}"
                base = bases.pop()
                for _ in range(min(SENSOR_REREADS, SENSOR_BATCH_ROWS - len(block))):
                    value = min(1.0, base + rng.random() * 0.02)
                    block.append(((tag, value), ts))
                    rows[stream].append((tag, value, ts))
                    ts += 1.0
            units.append((stream, ColumnBatch.from_rows(schema, block)))
    return Inputs(
        units,
        {"pairs": sensor_reference(rows["a"], rows["b"])},
        {stream: len(batch) for stream, batch in rows.items()},
    )


def sensor_reference(
    a_rows: list[tuple[str, float, float]], b_rows: list[tuple[str, float, float]]
) -> list[Row]:
    """Direct evaluation of the sensor query: every (X, Y) pair on one tag
    with X before Y inside the window and all three conjuncts true."""
    history: dict[str, list[tuple[float, float]]] = {}
    for tag, v, ts in a_rows:
        if v < SENSOR_V_MAX:
            history.setdefault(tag, []).append((ts, v))
    out = []
    for tag, w, y_ts in b_rows:
        if not w > SENSOR_W_MIN:
            continue
        for x_ts, v in history.get(tag, ()):
            if y_ts - SENSOR_WINDOW_S <= x_ts < y_ts and w - v > SENSOR_GAP:
                out.append((tag, v, w))
    return out


def sensor_build(hook: Callable | None = None) -> Setup:
    engine = Engine()
    engine.create_stream("a", SENSOR_SCHEMA_A)
    engine.create_stream("b", SENSOR_SCHEMA_B)
    handle = _query(engine, hook)(SENSOR_QUERY, name="pairs")
    return Setup(engine, {"pairs": _results(handle)})


# ---------------------------------------------------------------------------
# rfid_mix_rows: Examples 1, 2, 3, 4/7, 5 and 8 on one engine
# ---------------------------------------------------------------------------


def _lab_traces(seed: int) -> tuple[list[tuple], list[Row]]:
    """Several lab staff running Example 5's procedure side by side.

    Each member's runs come from ``lab_workflow_workload``; tags are made
    unique per member, so the tag-partitioned query keeps one automaton
    each.  Expected exceptions follow the generator's labels: a wrong
    order reports the started A, a timeout the bound A and B, and a wrong
    start nothing bound.
    """
    records: list[tuple] = []
    expected: list[Row] = []
    rng = random.Random(seed)
    for member in range(LAB_STAFF):
        workload = gen.lab_workflow_workload(
            n_runs=LAB_RUNS_EACH, seed=rng.randrange(1 << 30)
        )
        offset = rng.uniform(0.0, 3600.0)
        prefix = f"s{member}."
        for stream, values, ts in workload.trace:
            values = dict(values, tagid=prefix + values["tagid"],
                          tagtime=ts + offset)
            records.append((stream, values, ts + offset))
        for run, label in enumerate(workload.truth["labels"]):
            tag = f"{prefix}op{run}"
            if label == "wrong_order":
                expected.append((tag, None, None))
            elif label == "timeout":
                expected.append((tag, tag, None))
            elif label == "wrong_start":
                expected.append((None, None, None))
    return _by_ts(records), expected


def _location_reference(trace: list[tuple]) -> list[Row]:
    seen: set[tuple[str, str]] = set()
    out = []
    for _stream, values, _ts in trace:
        key = (values["tid"], values["loc"])
        if key not in seen:
            seen.add(key)
            out.append((values["tid"], values["loc"], values["tagtime"]))
    return out


def _epc_reference(trace: list[tuple]) -> list[Row]:
    out = []
    count = 0
    for _stream, values, _ts in trace:
        parts = values["tid"].split(".")
        if parts[0] == "20" and len(parts) >= 3 and 5000 < int(parts[-1]) < 9999:
            count += 1
            out.append((count,))
    return out


def mix_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)

    def sub_seed() -> int:
        return rng.randrange(1 << 30)

    dedup = gen.dedup_workload(n_tags=50, presences_per_tag=40, seed=sub_seed())
    location = gen.location_workload(
        n_tags=150, n_locations=6, moves_per_tag=8, seed=sub_seed()
    )
    # EPC reads are the high-rate feed: most records, and most results.
    epc = gen.epc_stream_workload(
        n_readings=40_000, seed=sub_seed(), stream="epc_readings"
    )
    packing = gen.packing_workload(n_cases=300, seed=sub_seed())
    lab_trace, lab_expected = _lab_traces(sub_seed())
    door = gen.door_workload(n_events=160, seed=sub_seed())

    # Product and case tags are unique, so a tag names one reading.
    read_at = {values["tagid"]: ts for _stream, values, ts in packing.trace}
    reference = {
        "dedup": [tuple(item) for item in dedup.truth],
        "location": _location_reference(location.trace),
        "epc": _epc_reference(epc.trace),
        "containment": [
            (read_at[products[0]], len(products), case, read_at[case])
            for case, products in packing.truth.items()
        ],
        "workflow": lab_expected,
        "door": [(item,) for item in door.truth["thefts"]],
    }
    traces = [dedup.trace, location.trace, epc.trace, packing.trace,
              lab_trace, door.trace]
    units = list(merge(*traces, key=lambda record: record[2]))
    counts = Counter(record[0] for record in units)
    return Inputs(units, reference, dict(counts))


def mix_build(hook: Callable | None = None) -> Setup:
    engine = Engine()
    query = _query(engine, hook)
    engine.create_stream("readings", "reader_id str, tag_id str, read_time float")
    engine.create_stream(
        "cleaned_readings", "reader_id str, tag_id str, read_time float"
    )
    engine.create_stream(
        "tag_locations", "readerid str, tid str, tagtime float, loc str"
    )
    table = engine.create_table(
        "object_movement", "tagid str, location str, start_time float"
    )
    engine.create_stream("epc_readings", "reader_id str, tid str, read_time float")
    engine.create_stream("r1", "readerid str, tagid str, tagtime float")
    engine.create_stream("r2", "readerid str, tagid str, tagtime float")
    for name in ("a1", "a2", "a3"):
        engine.create_stream(name, "tagid str, tagtime float")
    engine.create_stream("tag_readings", "tagid str, tagtype str, tagtime float")

    query(DEDUP_QUERY, name="dedup")
    dedup = engine.collect("cleaned_readings")
    query(LOCATION_QUERY, name="location")
    outputs = {
        "dedup": _results(dedup, key=lambda values: (values[1], values[2])),
        "location": Output(
            table, lambda: [(row[2], tuple(row)) for row in table.rows()]
        ),
        "epc": _results(query(EPC_QUERY, name="epc")),
        "containment": _results(query(CONTAINMENT_QUERY, name="containment")),
        "workflow": _results(query(WORKFLOW_PARTITIONED_QUERY, name="workflow")),
        "door": _results(query(DOOR_QUERY_THEFT, name="door")),
    }
    return Setup(engine, outputs)


class Workload:
    """A named pair of input generator and engine set-up; ``sharded``
    marks the workload whose results arrive from worker processes."""

    def __init__(
        self,
        name: str,
        make_inputs: Callable[[int], Inputs],
        build: Callable[..., Setup],
        sharded: bool = False,
    ) -> None:
        self.name = name
        self.make_inputs = make_inputs
        self.build = build
        self.sharded = sharded


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("quality_rows", quality_inputs, quality_build),
        Workload("sensor_columns", sensor_inputs, sensor_build),
        Workload("rfid_mix_rows", mix_inputs, mix_build),
        Workload("quality_sharded", quality_inputs, quality_sharded_build,
                 sharded=True),
    )
}
