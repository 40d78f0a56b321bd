"""From-outside per-layer tracing.

:class:`Tracer` times spans around the public calls into each layer and
keeps, per layer, the *self* time: a span's duration minus the part of it
covered by child spans.  Self times therefore add up exactly to the time
covered by the outermost spans, which is what lets the traced run check
that the layers account for its wall time.

:func:`instrument_engine` and :func:`instrument_sharded` wrap a ready
engine's public surface on the instance — ``run_trace``/``push_columns``/
``flush``, each stream's ingester, ``push``, ``push_columns`` and
``column_mask``, every subscriber callback, the clock's advance calls,
window and table scans — and ``Collector.__call__`` for the sinks.  Wrapped
subscribers keep their ``vector_admission`` hooks, so the traced engine
runs the same tier and produces the same output as an untraced one.
Nothing inside the engine's own source is changed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# Layer of a subscriber callback, by the module that defines it.
LAYER_OF_MODULE = {
    "repro.core.operators.seq": "seq",
    "repro.core.operators.star": "star",
    "repro.core.operators.exception_seq": "exception_seq",
    "repro.core.operators.subquery": "subquery",
    "repro.core.language.compiler": "compiler",
    "repro.dsms.windows": "windows",
    "repro.dsms.engine": "sink",
}


class Tracer:
    """Self-time accounting over nested spans.

    ``self_ns[layer]`` is the summed self time of the layer's spans;
    ``counts`` holds named event counters.  ``current`` is the layer of
    the innermost open span (None outside every span).
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.current: str | None = None
        self._child_ns = 0  # time covered by children of the open span
        # Objects whose bound methods were wrapped as subscribers (the
        # operators), so their state can be read while the run goes on.
        self.owners: list[Any] = []

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        on_return: Callable[[Any, str | None], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* timed as a span of *layer*.

        ``on_return(result, outer_layer)`` runs after each call, with the
        layer that was current when the call began.
        """
        clock = self.clock
        self_ns = self.self_ns
        counts = self.counts
        calls_key = layer + ".calls"

        def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            outer_child = self._child_ns
            outer_layer = self.current
            self._child_ns = 0
            self.current = layer
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[layer] += elapsed - self._child_ns
                self._child_ns = outer_child + elapsed
                self.current = outer_layer
            counts[calls_key] += 1
            if on_return is not None:
                on_return(result, outer_layer)
            return result

        hook = getattr(fn, "vector_admission", None)
        if hook is not None:
            traced.vector_admission = hook  # type: ignore[attr-defined]
        return traced

    def add_child(self, layer: str, elapsed_ns: int) -> None:
        """Book *elapsed_ns* measured elsewhere as a child span of *layer*."""
        self.self_ns[layer] += elapsed_ns
        self._child_ns += elapsed_ns

    def counting(self, key: str, fn: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """*fn* (returning an iterator) with every item it yields counted."""
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Iterator:
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    def seconds(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


def layer_of(callback: Any) -> str:
    """The layer a subscriber callback belongs to (``other`` if unknown)."""
    owner = getattr(callback, "__self__", None)
    module = (
        type(owner).__module__ if owner is not None else getattr(callback, "__module__", "")
    )
    return LAYER_OF_MODULE.get(module, "other")


def _wrap_subscribers(tracer: Tracer, stream: Any) -> None:
    counts = tracer.counts

    def count_fanout(_result: Any, _outer: Any) -> None:
        counts["streams.fanout_calls"] += 1

    for callback in stream.take_subscribers(0):
        owner = getattr(callback, "__self__", None)
        if owner is not None and not any(owner is known for known in tracer.owners):
            tracer.owners.append(owner)
        stream.subscribe(tracer.wrap(layer_of(callback), callback, count_fanout))


def _count_pass(counts: dict[str, int], outer: str | None) -> None:
    """A result emitted straight from a compiler-built callback passed it."""
    if outer == "compiler":
        counts["compiler.passed"] += 1


def _wrap_stream(tracer: Tracer, stream: Any) -> None:
    counts = tracer.counts

    def count_row(_tup: Any, outer: str | None) -> None:
        counts["streams.rows_in"] += 1
        counts["streams.tuples_built"] += 1
        _count_pass(counts, outer)

    ingester = tracer.wrap("streams", stream.batch_ingester(), count_row)
    stream.batch_ingester = lambda: ingester
    # Derived streams (INSERT INTO a stream) receive built tuples here.
    stream.push = tracer.wrap("streams", stream.push, count_row)

    def count_batch(rows: int, _outer: Any) -> None:
        counts["streams.rows_in"] += rows

    stream.push_columns = tracer.wrap("streams", stream.push_columns, count_batch)
    column_mask = stream.column_mask

    def counted_mask(batch: Any) -> Any:
        mask = column_mask(batch)
        rows = len(batch)
        admitted = rows if mask is None else sum(mask)
        counts["columns.batches"] += 1
        counts["columns.rows"] += rows
        counts["columns.admitted"] += admitted
        counts["streams.tuples_built"] += admitted
        return mask

    stream.column_mask = tracer.wrap("columns", counted_mask)
    _wrap_subscribers(tracer, stream)


def instrument_engine(tracer: Tracer, engine: Any) -> Callable[[], None]:
    """Wrap a single :class:`Engine`.

    Sinks (``Collector.__call__``) and window scans
    (``RangeWindowBuffer.tuples_preceding``, a slotted class) can only be
    wrapped on their class; the returned function puts both back.
    """
    from repro.dsms.engine import Collector
    from repro.dsms.windows import RangeWindowBuffer

    counts = tracer.counts
    engine.run_trace = tracer.wrap("engine", engine.run_trace)
    engine.push_columns = tracer.wrap("engine", engine.push_columns)
    engine.flush = tracer.wrap("engine", engine.flush)

    def count_fired(fired: int, outer: str | None) -> None:
        if outer != "clock":  # a nested advance reports the same firings
            counts["clock.outer_calls"] += 1
            counts["clock.timers_fired"] += fired

    clock = engine.clock
    for name in ("advance_if_due", "advance", "drain"):
        setattr(clock, name, tracer.wrap("clock", getattr(clock, name), count_fired))
    for stream in engine.streams:
        _wrap_stream(tracer, stream)
    for table in engine.tables:
        table.as_tuples = tracer.counting("table.rows_scanned", table.as_tuples)
        table.insert = tracer.wrap(
            "table", table.insert, lambda _r, outer: _count_pass(counts, outer)
        )

    original_call = Collector.__call__
    original_scan = RangeWindowBuffer.tuples_preceding
    Collector.__call__ = tracer.wrap(
        "sink", original_call, lambda _r, outer: _count_pass(counts, outer)
    )
    RangeWindowBuffer.tuples_preceding = tracer.counting(
        "windows.rows_scanned", original_scan
    )

    def undo() -> None:
        Collector.__call__ = original_call
        RangeWindowBuffer.tuples_preceding = original_scan

    return undo


def instrument_sharded(tracer: Tracer, engine: Any) -> Callable[[], None]:
    """Wrap a :class:`ShardedEngine`'s parent-side calls.  The shard
    engines live in worker processes; their transport counters come from
    ``transport_stats()``."""
    engine.run_trace = tracer.wrap("sharding", engine.run_trace)
    engine.flush = tracer.wrap("sharding.flush", engine.flush)
    return lambda: None
