#!/usr/bin/env python3
"""The repository benchmark: the paper's queries through the public engine API.

Run one workload::

    python3 perfbench/run.py --workload quality_rows --seed 1 --seconds 10 --trace 0

Inputs are generated from ``--seed`` before any timing starts.  The engine
is then fed by one caller in a closed loop — ``run_trace`` asks for the
next record or ``ColumnBatch`` only after the previous one returned — in
passes over the same input, each on a freshly built engine in a process
forked for that pass, until ``--seconds`` have been spent measuring.
Every pass's output is checked against a reference the benchmark computes
itself.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` spends half the time on untraced passes and half on traced
ones, and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn, each in its own process.

Lines before the last are a readable report (every metric with its unit and
sample count, and a ``stamp`` line naming the host and configuration).  The
last line is one JSON object with ``correct``, ``attempted`` (reference
result rows checked), ``failed`` (missing plus spurious rows) and
``metrics``.  The exit code is non-zero when any row was wrong.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import re
import signal
import subprocess
import sys
import time
import traceback
from array import array
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Any

from measure import (
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
from tracing import Tracer, instrument_engine, instrument_sharded

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "throughput_tps": "tuples/s",
    "ingest_p50_us": "us",
    "ingest_p99_us": "us",
    "detect_p50_us": "us",
    "detect_p99_us": "us",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "engine.self_s": "s",
    "engine.sink_s": "s",
    "engine.results": "count",
    "streams.self_s": "s",
    "streams.rows_in": "count",
    "streams.tuples_built": "count",
    "streams.fanout_calls": "count",
    "clock.self_s": "s",
    "clock.calls": "count",
    "clock.timers_fired": "count",
    "columns.mask_s": "s",
    "columns.batches": "count",
    "columns.admit_ratio": "ratio",
    "seq.self_s": "s",
    "seq.tuples_seen": "count",
    "seq.matches": "count",
    "seq.match_ratio": "ratio",
    "seq.state_peak": "count",
    "seq.state_end": "count",
    "star.self_s": "s",
    "star.state_peak": "count",
    "exception_seq.self_s": "s",
    "exception_seq.state_peak": "count",
    "subquery.self_s": "s",
    "subquery.pending_peak": "count",
    "compiler.compile_s": "s",
    "compiler.self_s": "s",
    "compiler.pass_ratio": "ratio",
    "windows.rows_scanned": "count",
    "table.rows_scanned": "count",
    "table.rows": "count",
    "sharding.parent_s": "s",
    "sharding.flush_s": "s",
    "sharding.shard_skew": "ratio",
    "transport.encode_s": "s",
    "transport.decode_s": "s",
    "transport.worker_encode_s": "s",
    "transport.worker_decode_s": "s",
    "transport.bytes_sent": "bytes",
    "transport.bytes_received": "bytes",
    "transport.round_trips": "count",
    "trace.generator_s": "s",
    "trace.overhead": "ratio",
    "trace.unaccounted_share": "ratio",
}

SETUP_SAMPLES = 15  # set-ups timed per run, at least
PASS_TIMEOUT_S = 120  # a pass process silent this long is stopped
ACCOUNTING_TOLERANCE = 0.05  # layer self times must cover the traced wall time
TAIL = 99.0


def workloads() -> dict:
    """The workload table; importable once the engine sources are on
    ``sys.path`` (``main`` puts them there)."""
    from workloads import WORKLOADS

    return WORKLOADS


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------


def _status_kib(field: str, pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as status:
        match = re.search(rf"^{field}:\s+(\d+)", status.read(), re.M)
    return int(match.group(1)) if match else 0


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter at its current size."""
    with open("/proc/self/clear_refs", "w") as clear:
        clear.write("5")


def worker_rss_kib() -> dict[int, int]:
    """Resident size of each live child process (the shard workers)."""
    return {
        child.pid: _status_kib("VmRSS", str(child.pid))
        for child in multiprocessing.active_children()
    }


def peak_rss_mb(inherited_kib: int, worker_start_kib: dict[int, int]) -> float:
    """This process's peak RSS, less *inherited_kib*, plus each shard
    worker's growth past its size when the pass began.  A forked process
    starts out sharing its parent's pages, which its own RSS counts:
    *inherited_kib* is what the benchmark process grew by since its first
    pass (the results of earlier passes), and a worker's pages at the start
    of the pass are already counted in this process."""
    kib = _status_kib("VmHWM") - inherited_kib
    for pid, start in worker_start_kib.items():
        kib += max(0, _status_kib("VmHWM", str(pid)) - start)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


class Stamps:
    """Hand-off and return stamps of every input unit, and the visible
    output counts each time they changed."""

    def __init__(self) -> None:
        self.handoff: list[int] = []
        self.returned: list[int] = []
        self.log: list[tuple[int, list[int]]] = []


def feed(units, visible, stamps: Stamps, tracer=None, sample=None):
    """The input generator ``run_trace`` consumes, stamping each hand-off.

    After each unit returns it reads how many results are visible, which
    dates every result's first sighting.  In a traced pass its own time is
    booked as the ``generator`` child span of ``run_trace``.
    """
    clock = time.perf_counter_ns
    handoff = stamps.handoff
    returned = stamps.returned
    log = stamps.log
    last_total = 0
    resumed = 0
    for unit in units:
        now = clock()
        if tracer is not None and resumed:
            tracer.add_child("generator", now - resumed)
        handoff.append(now)
        yield unit
        resumed = clock()
        returned.append(resumed)
        if visible:
            total = sum(map(len, visible))
            if total != last_total:
                last_total = total
                log.append((resumed, [len(v) for v in visible]))
        if sample is not None:
            sample()
    if tracer is not None and resumed:
        tracer.add_child("generator", clock() - resumed)


class Arrivals:
    """Stamps output rows as they reach the parent of a sharded engine.

    Results of shard workers are visible to the caller once the transport's
    ``RunCollector.absorb`` has taken them in; this wraps that method for
    the life of a pass (it must be in place before the workers start, when
    the transport binds it).
    """

    def __init__(self) -> None:
        self.log: list[tuple[int, dict]] = []

    def __enter__(self) -> "Arrivals":
        from repro.dsms.merge import RunCollector

        self._cls = RunCollector
        self._original = original = RunCollector.absorb
        log = self.log
        clock = time.perf_counter_ns

        def absorb(collector: Any, shard: int, outputs: dict) -> None:
            log.append((clock(), outputs))
            original(collector, shard, outputs)

        RunCollector.absorb = absorb
        return self

    def __exit__(self, *exc: Any) -> None:
        self._cls.absorb = self._original

    def results(self) -> list[tuple[float, int]]:
        """``(row_ts, arrival_ns)`` of every row that arrived, ordered by
        the stamped row itself: shards' batches interleave differently from
        pass to pass, the rows they carry do not."""
        arrived = sorted(
            (name, row, stamp)
            for stamp, outputs in self.log
            for name, rows in outputs.items()
            for row in rows
        )
        return [(row[0], stamp) for _name, row, stamp in arrived]


class Pass:
    """What one pass over the inputs measured (sent back from its process)."""

    throughput: float
    setup_s: float
    rss_mb: float
    ingest_us: array  # per input unit, in hand-off order
    detect_us: array  # per result, in a pass-independent order
    missing: int
    spurious: int
    digest: str  # of every output row, in order
    tier: dict
    transport: dict
    layers: dict[str, float]


def isolated(fn, *args):
    """``fn(*args)`` in a forked child process, so that no pass runs on the
    heap, garbage or peak memory another pass left behind.  Returns the
    child's result; an error in the child is raised here with its
    traceback."""
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_child_main, args=(sender, fn, args))
    child.start()
    sender.close()
    try:
        if receiver.poll(PASS_TIMEOUT_S):
            ok, payload = receiver.recv()
        else:
            child.terminate()
            ok, payload = False, f"no result within {PASS_TIMEOUT_S} s"
    except EOFError:
        ok, payload = False, "the pass process died without a result"
    except BaseException:
        child.terminate()
        raise
    finally:
        receiver.close()
        child.join()
    if not ok:
        raise RuntimeError(f"pass failed (exit {child.exitcode}):\n{payload}")
    return payload


def _child_main(sender, fn, args) -> None:
    try:
        sender.send((True, fn(*args)))
    except Exception:  # noqa: BLE001 - reported to the parent, which raises
        sender.send((False, traceback.format_exc()))
    finally:
        sender.close()


def build(workload, tracer=None):
    """Build the workload's engine, timing it; returns ``(setup, seconds)``."""
    hook = None if tracer is None else (
        lambda query: tracer.wrap("compile", query)
    )
    start = time.perf_counter()
    setup = workload.build(hook)
    return setup, time.perf_counter() - start


def run_pass(workload, inputs, reference, inherited_kib, traced=False) -> Pass:
    """One pass on a fresh engine; runs inside :func:`isolated`."""
    reset_peak_rss()
    with Arrivals() if workload.sharded else nullcontext() as arrivals:
        tracer = Tracer() if traced else None
        setup, setup_s = build(workload, tracer)
        try:
            return _measure(workload, inputs, reference, setup, tracer, arrivals,
                            setup_s, inherited_kib)
        finally:
            setup.close()


def _measure(workload, inputs, reference, setup, tracer, arrivals, setup_s,
             inherited_kib) -> Pass:
    engine = setup.engine
    workers = worker_rss_kib()
    sample = undo = None
    if tracer is not None:
        if workload.sharded:
            undo = instrument_sharded(tracer, engine)
        else:
            undo = instrument_engine(tracer, engine)
            sample = _StateSampler(tracer.owners)
    visible = [] if workload.sharded else [o.visible for o in setup.outputs.values()]
    stamps = Stamps()
    try:
        start = time.perf_counter_ns()
        engine.run_trace(feed(inputs.units, visible, stamps, tracer, sample))
        flush_start = time.perf_counter_ns()
        engine.flush()
        end = time.perf_counter_ns()
    finally:
        if undo is not None:
            undo()
    result = Pass()
    result.rss_mb = peak_rss_mb(inherited_kib, workers)
    result.setup_s = setup_s
    result.throughput = inputs.rows / ((end - stamps.handoff[0]) / 1e9)
    read = {name: out.read() for name, out in setup.outputs.items()}
    if workload.sharded:
        seen = arrivals.results()
    else:
        seen = []
        for index, rows in enumerate(read.values()):
            log = [(stamp, counts[index]) for stamp, counts in stamps.log]
            seen.extend(zip((ts for ts, _row in rows), seen_stamps(log, len(rows), end)))
    ingest = [(back - out) / 1e3 for out, back in zip(stamps.handoff, stamps.returned)]
    detect = [
        ns / 1e3
        for ns in detection_latencies(seen, inputs.unit_ts, stamps.handoff, flush_start)
    ]
    result.ingest_us = array("d", ingest)
    result.detect_us = array("d", detect)
    outputs = {name: [row for _ts, row in rows] for name, rows in read.items()}
    result.digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    result.missing = result.spurious = 0
    for name, rows in outputs.items():
        missing, spurious = row_errors(reference[name], rows)
        result.missing += missing
        result.spurious += spurious
    result.tier = engine.execution_tier()
    result.transport = engine.transport_stats() if workload.sharded else {}
    result.layers = (
        _layer_metrics(tracer, engine, outputs, result.transport, end - start, sample)
        if tracer is not None else {}
    )
    return result


class _StateSampler:
    """Samples the live state of operators that keep no peak counter."""

    def __init__(self, ops: list[Any]) -> None:
        from repro.core.operators.exception_seq import ExceptionSeqOperator
        from repro.core.operators.star import StarSeqOperator
        from repro.core.operators.subquery import SymmetricExistsOperator

        self.star = [op for op in ops if isinstance(op, StarSeqOperator)]
        self.exception_seq = [op for op in ops if isinstance(op, ExceptionSeqOperator)]
        self.subquery = [op for op in ops if isinstance(op, SymmetricExistsOperator)]
        self.peaks = {"star": 0, "exception_seq": 0, "subquery": 0}

    def __call__(self) -> None:
        peaks = self.peaks
        for layer, size in (
            ("star", sum(op.state_size for op in self.star)),
            ("exception_seq", sum(op.state_size for op in self.exception_seq)),
            ("subquery", sum(op.pending_count for op in self.subquery)),
        ):
            if size > peaks[layer]:
                peaks[layer] = size


def _layer_metrics(tracer, engine, outputs, transport, wall_ns: int, sampler) -> dict:
    from repro.core.operators.seq import SeqOperator

    seconds = tracer.seconds
    counts = tracer.counts
    metrics = {name: 0.0 for name in PER_LAYER}
    accounted = sum(ns for layer, ns in tracer.self_ns.items() if layer != "compile")
    metrics.update({
        "engine.self_s": seconds("engine"),
        "engine.sink_s": seconds("sink"),
        "engine.results": sum(len(rows) for rows in outputs.values()),
        "streams.self_s": seconds("streams"),
        "streams.rows_in": counts["streams.rows_in"],
        "streams.tuples_built": counts["streams.tuples_built"],
        "streams.fanout_calls": counts["streams.fanout_calls"],
        "clock.self_s": seconds("clock"),
        "clock.calls": counts["clock.outer_calls"],
        "clock.timers_fired": counts["clock.timers_fired"],
        "columns.mask_s": seconds("columns"),
        "columns.batches": counts["columns.batches"],
        "columns.admit_ratio": _ratio(counts["columns.admitted"], counts["columns.rows"]),
        "star.self_s": seconds("star"),
        "exception_seq.self_s": seconds("exception_seq"),
        "subquery.self_s": seconds("subquery"),
        "compiler.compile_s": seconds("compile"),
        "compiler.self_s": seconds("compiler"),
        "compiler.pass_ratio": _ratio(counts["compiler.passed"], counts["compiler.calls"]),
        "windows.rows_scanned": counts["windows.rows_scanned"],
        "table.rows_scanned": counts["table.rows_scanned"],
        "table.rows": sum(len(table) for table in getattr(engine, "tables", ())),
        "sharding.parent_s": seconds("sharding"),
        "sharding.flush_s": seconds("sharding.flush"),
        "trace.generator_s": seconds("generator"),
        "trace.unaccounted_share": _ratio(wall_ns - accounted, wall_ns),
    })
    if sampler is not None:
        metrics["star.state_peak"] = sampler.peaks["star"]
        metrics["exception_seq.state_peak"] = sampler.peaks["exception_seq"]
        metrics["subquery.pending_peak"] = sampler.peaks["subquery"]
    seq_ops = [
        op for op in getattr(engine, "checkpointables", ())
        if isinstance(op, SeqOperator)
    ]
    if seq_ops:
        seen = sum(op.tuples_seen for op in seq_ops)
        matches = sum(op.matches_emitted for op in seq_ops)
        metrics.update({
            "seq.self_s": seconds("seq"),
            "seq.tuples_seen": seen,
            "seq.matches": matches,
            "seq.match_ratio": _ratio(matches, seen),
            "seq.state_peak": sum(op.peak_state_size for op in seq_ops),
            "seq.state_end": sum(op.state_size for op in seq_ops),
        })
    if transport:
        totals = transport["totals"]
        sent = [shard.get("records_sent", 0) for shard in transport["per_shard"]]
        metrics["sharding.shard_skew"] = _ratio(max(sent), sum(sent) / len(sent))
        for key in ("encode_s", "decode_s", "worker_encode_s", "worker_decode_s",
                    "bytes_sent", "bytes_received", "round_trips"):
            metrics["transport." + key] = totals.get(key, 0)
    return metrics


# ---------------------------------------------------------------------------
# one run: inputs, reference, passes, report
# ---------------------------------------------------------------------------


def single_engine_rows(inputs) -> dict[str, list]:
    """The ``quality_rows`` engine's output on *inputs*."""
    single = workloads()["quality_rows"].build()
    try:
        single.engine.run_trace(inputs.units)
        single.engine.flush()
        return {name: [row for _ts, row in out.read()]
                for name, out in single.outputs.items()}
    finally:
        single.close()


def reference_for(workload, inputs) -> tuple[dict, int]:
    """The rows every pass must produce, and how many rows of the
    reference's own check were wrong.

    The sharded workload is held to the single engine's output on the same
    input (multiset equality), after that output is itself checked
    against the generator's ground truth.
    """
    if not workload.sharded:
        return inputs.reference, 0
    rows = isolated(single_engine_rows, inputs)
    wrong = 0
    for name, expected in inputs.reference.items():
        wrong += sum(row_errors(expected, rows[name]))
    return rows, wrong


def measure_passes(workload, inputs, reference, seconds, traced, base_kib):
    """Passes until *seconds* of measuring are spent: at least one, and
    another only while at least half of it fits before the deadline.
    *base_kib* is this process's size before its first pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    last_s = 0.0
    while not passes or time.perf_counter() + last_s / 2 < deadline:
        start = time.perf_counter()
        passes.append(
            isolated(run_pass, workload, inputs, reference,
                     max(0, _status_kib("VmRSS") - base_kib), traced)
        )
        last_s = time.perf_counter() - start
    return passes


def setup_samples(workload, count: int) -> list[float]:
    """*count* more timed set-ups, each engine closed straight away."""
    samples = []
    for _ in range(count):
        setup, elapsed = build(workload)
        setup.close()
        samples.append(elapsed)
    return samples


def end_to_end(passes, setups) -> tuple[dict, dict, list[str]]:
    """Metric values, their sample counts, and any unsupported tails.

    Every pass feeds the same units and yields the same results, so each
    unit (and each result) has one latency per pass.  Its latency is the
    median of those; the percentiles are taken over units (results).  A
    unit that one pass happened to run while the host descheduled it or ran
    slow does not move the tail, while a unit that is slow in every pass
    does.  Throughput and peak memory are medians over passes.
    """
    ingest = unit_medians([p.ingest_us for p in passes])
    detect = unit_medians([p.detect_us for p in passes])
    problems = [
        f"{label}: {len(samples)} samples cannot support p{TAIL:g}"
        for label, samples in (("ingest", ingest), ("detect", detect))
        if not supports(len(samples), TAIL)
    ]
    if problems:
        return {}, {}, problems
    values = {
        "throughput_tps": median(p.throughput for p in passes),
        "ingest_p50_us": percentile(ingest, 50),
        "ingest_p99_us": percentile(ingest, TAIL),
        "detect_p50_us": percentile(detect, 50),
        "detect_p99_us": percentile(detect, TAIL),
        "setup_s": median(setups),
        "peak_rss_mb": median(p.rss_mb for p in passes),
    }
    samples = {
        "throughput_tps": len(passes),
        "ingest_p50_us": len(ingest),
        "ingest_p99_us": len(ingest),
        "detect_p50_us": len(detect),
        "detect_p99_us": len(detect),
        "setup_s": len(setups),
        "peak_rss_mb": len(passes),
    }
    return values, samples, problems


def host_stamp(workload, inputs, seed, passes) -> dict:
    from repro.bench.harness import effective_cpu_count

    last = passes[-1]
    stamp = {
        "workload": workload.name,
        "seed": seed,
        "effective_cpu_count": effective_cpu_count(),
        "python": sys.version.split()[0],
        "tier": last.tier["active"],
        "pairing_tier": last.tier["pairing"]["active"],
        "input_rows": inputs.rows,
        "input_rows_per_stream": inputs.rows_per_stream,
        "input_units": len(inputs.units),
        "passes": len(passes),
    }
    if last.transport:
        stamp["executor"] = last.transport["executor"]
        stamp["codec"] = last.transport["codec"]
        stamp["n_shards"] = last.transport["n_shards"]
        stamp["final_batch_size"] = [
            shard.get("batch_size") for shard in last.transport["per_shard"]
        ]
    return stamp


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = workloads()[name]
    inputs = workload.make_inputs(seed)
    reference_rows = sum(len(rows) for rows in inputs.reference.values())
    try:
        reference, reference_wrong = reference_for(workload, inputs)
        # Imports and lazy module state load here, once, before the passes
        # fork; the inputs are frozen out of the collector, as records a
        # deployment receives are not held for the whole run.
        build(workload)[0].close()
        gc.collect()
        gc.freeze()
        base_kib = _status_kib("VmRSS")
        budget = seconds / 2 if traced else seconds
        passes = measure_passes(workload, inputs, reference, budget, False, base_kib)
        traced_passes = (
            measure_passes(workload, inputs, reference, budget, True, base_kib)
            if traced else []
        )
        setups = [p.setup_s for p in passes]
        if len(setups) < SETUP_SAMPLES:
            setups += isolated(setup_samples, workload, SETUP_SAMPLES - len(setups))
    except Exception:  # noqa: BLE001 - a crashed run is reported, not raised
        traceback.print_exc()
        missing, spurious = crashed_errors(reference_rows)
        print(json.dumps({"correct": False, "attempted": max(1, reference_rows),
                          "failed": missing + spurious, "metrics": {}}))
        return 1

    checked = passes + traced_passes
    attempted = reference_rows * len(checked)
    missing = sum(p.missing for p in checked)
    spurious = sum(p.spurious for p in checked)
    failed = missing + spurious + reference_wrong
    problems = []
    if reference_wrong:
        problems.append(f"single-engine reference: {reference_wrong} wrong rows")
    values, samples, tails = end_to_end(passes, setups)
    problems += tails
    print(f"workload {name}: {inputs.rows} input rows in {len(inputs.units)} units, "
          f"{reference_rows} reference rows")
    for metric, unit in END_TO_END.items():
        if metric in values:
            print(f"  {metric} = {values[metric]:.6g} {unit} (n={samples[metric]})")
    print("  per-pass throughput_tps: "
          + ", ".join(f"{p.throughput:.0f}" for p in passes))
    print(f"  error_rate = {error_rate(missing, spurious, attempted):.6g} ratio "
          f"(n={attempted} rows)")
    for label in ("ingest", "detect"):
        n = len(getattr(passes[0], label + "_us"))
        print(f"  {label}: {n} samples per pass, each the median of "
              f"{len(passes)} passes; highest supported tail p{tail_percentile(n)}")
    if traced:
        problems += _check_traced(passes[0], traced_passes)
        layers = {
            metric: median(p.layers[metric] for p in traced_passes)
            for metric in PER_LAYER
        }
        layers["trace.overhead"] = _ratio(
            median(p.throughput for p in traced_passes),
            median(p.throughput for p in passes),
        )
        for metric, unit in PER_LAYER.items():
            print(f"  {metric} = {layers[metric]:.6g} {unit} "
                  f"(n={len(traced_passes)} traced passes)")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in PER_LAYER.items()}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END[m]} for m, v in values.items()}
    print("stamp " + json.dumps(host_stamp(workload, inputs, seed, passes)))
    for problem in problems:
        print(f"  FAILED: {problem}")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _check_traced(untraced: Pass, traced: list[Pass]) -> list[str]:
    """A traced pass must run the same program: same rows, same tier, and
    layer self times that cover its wall time."""
    problems = []
    for p in traced:
        if p.digest != untraced.digest:
            problems.append("traced pass output differs from the untraced pass")
        if p.tier != untraced.tier:
            problems.append(f"traced tier {p.tier} != untraced {untraced.tier}")
        share = p.layers["trace.unaccounted_share"]
        if abs(share) > ACCOUNTING_TOLERANCE:
            problems.append(f"layer self times leave {share:.1%} of wall time unaccounted")
    return problems


def run_all(args: argparse.Namespace) -> int:
    """Every workload, one child process each; non-zero if any failed."""
    status = 0
    for name in workloads():
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        verdict = json.loads(lines[-1]) if lines else {"correct": False}
        if child.returncode or not verdict.get("correct"):
            status = 1
            print(f"workload {name} FAILED (exit {child.returncode})")
    print(json.dumps({"correct": status == 0}))
    return status


def _terminated(signum: int, _frame: Any) -> None:
    # Unwinds like an error, so every pass process and shard worker this
    # run started is stopped and waited for on the way out.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "dsms" / "engine.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORKLOADS = workloads()

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
