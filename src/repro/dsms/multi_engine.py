"""MultiQueryEngine: one ingestion front door for many registered queries.

The paper's deployment model is many continuous RFID queries (per-reader
alerts, per-tag tracking, shoplifting variants for every department) over
the same few streams.  :class:`MultiQueryEngine` packages the two ways to
run that workload:

* **shared** (default, ``shared_execution=True``) — one
  :class:`~repro.dsms.engine.Engine` plus a
  :class:`~repro.dsms.registry.QueryRegistry`: ingestion and schema
  decode run once per tuple, routing is predicate-indexed, and identical
  queries share one compiled plan.

* **naive** (``shared_execution=False``) — the differential baseline: a
  fresh private :class:`Engine` per registered query, DDL replayed into
  each, every tuple pushed once per engine.  This is what "N queries =
  N engines" costs, and the bench harness measures shared against it.

Both modes expose the same register/cancel/push surface and produce
byte-identical per-subscription answers, so tests can diff them shape by
shape.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from .columns import ColumnBatch
from .engine import Collector, Engine
from .errors import EslSemanticError
from .registry import QueryRegistry, Subscription, _parse_select
from .schema import Schema
from .tuples import Tuple

__all__ = ["MultiQueryEngine"]


class MultiQueryEngine:
    """Register N continuous queries over one shared ingestion path.

    Catalog DDL (streams, tables, UDFs, UDAs) goes through the methods
    here so naive mode can replay it into per-query engines; query text
    itself is registered via :meth:`register`, which returns a
    :class:`~repro.dsms.registry.Subscription`.
    """

    def __init__(
        self,
        *,
        shared_execution: bool = True,
        compile_expressions: bool = True,
        indexed_state: bool = True,
        vectorized_admission: bool = True,
    ) -> None:
        self.shared_execution = shared_execution
        self._flags = {
            "compile_expressions": compile_expressions,
            "indexed_state": indexed_state,
            "vectorized_admission": vectorized_admission,
        }
        #: The catalog engine.  Shared mode also executes here; naive mode
        #: uses it only for validation and as the DDL template.
        self.engine = Engine(**self._flags)
        self.registry: QueryRegistry | None = (
            QueryRegistry(self.engine) if shared_execution else None
        )
        self._ddl: list[tuple[str, tuple[Any, ...], dict[str, Any]]] = []
        self._naive: list[tuple[Subscription, Engine]] = []
        self._naive_counter = 0
        self.closed = False

    # -- catalog (recorded for naive replay) ----------------------------

    def _ddl_call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        if self.closed:
            raise EslSemanticError("multi-query engine is closed")
        result = getattr(self.engine, method)(*args, **kwargs)
        self._ddl.append((method, args, kwargs))
        for _sub, engine in self._naive:
            getattr(engine, method)(*args, **kwargs)
        return result

    def create_stream(
        self,
        name: str,
        schema: Schema | str | Iterable[str],
        allow_out_of_order: bool = False,
        reorder_slack: float = 0.0,
    ) -> Any:
        return self._ddl_call(
            "create_stream", name, schema, allow_out_of_order, reorder_slack
        )

    def create_table(self, name: str, schema: Schema | str | Iterable[str]) -> Any:
        return self._ddl_call("create_table", name, schema)

    def register_udf(
        self, name: str, fn: Callable[..., Any], strict: bool = True
    ) -> None:
        self._ddl_call("register_udf", name, fn, strict=strict)

    def register_uda(self, name: str, factory: Callable[[], Any]) -> None:
        self._ddl_call("register_uda", name, factory)

    def ddl(self, text: str) -> None:
        """Run a DDL/INSERT program (no SELECT) on the catalog engine."""
        if self.closed:
            raise EslSemanticError("multi-query engine is closed")
        self.engine.query(text)
        self._ddl.append(("query", (text,), {}))
        for _sub, engine in self._naive:
            engine.query(text)

    # -- registration ---------------------------------------------------

    def register(
        self,
        text: str,
        on_answer: Callable[[Tuple], None] | None = None,
    ) -> Subscription:
        """Register one SELECT; answers land on the returned subscription."""
        if self.closed:
            raise EslSemanticError("multi-query engine is closed")
        if self.registry is not None:
            return self.registry.register(text, on_answer)
        # Naive mode: a private engine per query, catalog replayed in.
        _parse_select(text)  # same validation errors as shared mode
        engine = Engine(**self._flags)
        for method, args, kwargs in self._ddl:
            getattr(engine, method)(*args, **kwargs)
        self._naive_counter += 1
        subscription = Subscription(
            self, self._naive_counter, text, on_answer
        )
        collector_box = engine._pending_collector = _SinkCollector(subscription)
        try:
            engine.query(text, name=f"nq{self._naive_counter}")
        finally:
            engine._pending_collector = None
        assert collector_box is not None
        subscription._extra = engine
        self._naive.append((subscription, engine))
        return subscription

    def cancel(self, subscription: Subscription) -> None:
        """Cancel a subscription from either mode.  Idempotent."""
        if self.registry is not None and subscription._owner is self.registry:
            subscription.cancel()
            return
        if not subscription.active:
            return
        subscription.active = False
        self._naive = [
            (sub, eng) for sub, eng in self._naive if sub is not subscription
        ]
        subscription._extra = None

    # -- ingestion ------------------------------------------------------

    def push(
        self,
        stream_name: str,
        values: Mapping[str, Any] | Sequence[Any],
        ts: float,
    ) -> None:
        if self.registry is not None:
            self.engine.push(stream_name, values, ts)
            return
        self.engine.streams.get(stream_name)  # unknown-stream error once
        for _sub, engine in self._naive:
            engine.push(stream_name, values, ts)

    def push_batch(
        self,
        stream_name: str,
        batch: Iterable[tuple[Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        if self.registry is not None:
            return self.engine.push_batch(stream_name, batch)
        self.engine.streams.get(stream_name)
        records = batch if isinstance(batch, (list, ColumnBatch)) else list(batch)
        count = 0
        for _sub, engine in self._naive:
            count = engine.push_batch(stream_name, records)
        return count

    def push_columns(self, stream_name: str, batch: ColumnBatch) -> int:
        if self.registry is not None:
            return self.engine.push_columns(stream_name, batch)
        self.engine.streams.get(stream_name)
        count = 0
        for _sub, engine in self._naive:
            count = engine.push_columns(stream_name, batch)
        return count

    def run_trace(
        self,
        trace: Iterable[tuple[str, Mapping[str, Any] | Sequence[Any], float]],
    ) -> int:
        if self.registry is not None:
            return self.engine.run_trace(trace)
        records = trace if isinstance(trace, list) else list(trace)
        count = 0
        for _sub, engine in self._naive:
            count = engine.run_trace(records)
        return count

    def advance_time(self, ts: float) -> int:
        if self.registry is not None:
            return self.engine.advance_time(ts)
        fired = 0
        for _sub, engine in self._naive:
            fired += engine.advance_time(ts)
        return fired

    def flush(self) -> int:
        if self.registry is not None:
            return self.engine.flush()
        fired = 0
        for _sub, engine in self._naive:
            fired += engine.flush()
        return fired

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        """Cancel every subscription.  Idempotent; live subs detach cleanly."""
        if self.closed:
            return
        if self.registry is not None:
            self.registry.close()
        for subscription, _engine in list(self._naive):
            self.cancel(subscription)
        self.closed = True

    def __enter__(self) -> "MultiQueryEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- introspection --------------------------------------------------

    @property
    def subscription_count(self) -> int:
        if self.registry is not None:
            return self.registry.subscription_count
        return len(self._naive)

    def state_size(self) -> int:
        if self.registry is not None:
            return self.registry.state_size()
        total = 0
        for _sub, engine in self._naive:
            for handle in engine.queries:
                operator = getattr(handle, "operator", None)
                if operator is not None:
                    total += operator.state_size
        return total

    def execution_tier(self) -> dict[str, Any]:
        """Admission execution tier of the underlying engine(s).

        All engines (catalog, shared, per-query naive) are built from the
        same flag set, so the catalog engine's tier report speaks for
        every one of them.
        """
        return self.engine.execution_tier()

    def stats(self) -> dict[str, Any]:
        if self.registry is not None:
            stats = self.registry.stats()
            stats["mode"] = "shared"
            return stats
        return {
            "mode": "naive",
            "subscriptions": len(self._naive),
            "shared_plans": len(self._naive),  # nothing shared, 1 plan each
            "engines": len(self._naive),
            "state_size": self.state_size(),
        }

    def __repr__(self) -> str:
        mode = "shared" if self.registry is not None else "naive"
        return (
            f"MultiQueryEngine(mode={mode}, "
            f"subscriptions={self.subscription_count})"
        )


class _SinkCollector(Collector):
    """Naive-mode collector: deliver straight to the one subscription."""

    def __init__(self, sink: Subscription) -> None:
        super().__init__("naive-sink")
        self._sink = sink

    def __call__(self, tup: Tuple) -> None:
        self._sink(tup)
