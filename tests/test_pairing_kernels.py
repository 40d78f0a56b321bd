"""Differential, mirror-upkeep, and checkpoint tests for the pairing tier.

The pairing tier batches the SEQ match-enumeration hot path: each
partition keeps a columnar mirror of its history, and cross-alias
conjuncts are lowered to per-stage candidate masks (Python columnar
closures over the mirror's object columns).  Masks only prune: every
survivor re-runs the scalar pairing check, so the contract is the
vectorized-admission one, end to end — query output must be
**byte-identical** to the interpreted engine in values, timestamps and
order.

Covered here, all under the ``pairing`` marker:

* every paper example run through all three tiers (interpreted /
  closure / vector), fed both as ``ColumnBatch`` pushes and as
  per-record pushes,
* dense SEQ traces that actually engage the masks (UNRESTRICTED and
  RECENT, two- and four-stage chains), plus NULL-heavy, unicode /
  embedded-NUL, and Kleene-star traces,
* mirror upkeep under window eviction and the checkpoint round trip
  (mirrors are derived state: restore must rebuild them exactly),
* the ``execution_tier()`` pairing report.
"""

import pytest

from repro.core.operators.seq import SeqOperator
from repro.dsms.checkpoint import capture_engine_state, restore_engine_state
from repro.dsms.columns import ColumnBatch
from repro.dsms.engine import Engine

pytestmark = pytest.mark.pairing

TIER_FLAGS = {
    "interpreted": dict(compile_expressions=False, vectorized_admission=False),
    "closure": dict(vectorized_admission=False),
    "vector": dict(),
}


def run_tiers(setup, batches, post=None, columnar=True):
    """Run one workload through all three execution tiers.

    ``setup(engine)`` declares streams/queries and returns a list of
    zero-arg result accessors; ``batches`` is ``[(stream, [(values, ts),
    ...]), ...]`` fed in order, each batch as one ``push_columns`` call
    (or, with *columnar* off, as per-record ``push`` calls), so
    cross-stream interleaving is preserved.  Asserts byte-identical
    results across tiers and returns ``(common_output, vector_engine)``.
    """
    per_tier = {}
    engines = {}
    for tier, flags in TIER_FLAGS.items():
        engine = engines[tier] = Engine(**flags)
        accessors = setup(engine)
        for stream, rows in batches:
            if columnar:
                schema = engine.streams.get(stream).schema
                engine.push_columns(
                    stream, ColumnBatch.from_rows(schema, rows)
                )
            else:
                for values, ts in rows:
                    engine.push(stream, values, ts)
        if post is not None:
            post(engine)
        per_tier[tier] = [accessor() for accessor in accessors]
    baseline = per_tier["interpreted"]
    for tier, output in per_tier.items():
        assert output == baseline, f"tier {tier!r} diverged from interpreted"
    return baseline, engines["vector"]


def results_of(handle):
    return lambda: [(t.values, t.ts, t.stream) for t in handle.results]


def seq_operators(engine):
    return [c for c in engine.checkpointables if isinstance(c, SeqOperator)]


def count_mask_rows(engine, counts):
    """Wrap *engine*'s SEQ stage masks to add the rows they scan to
    ``counts["rows"]`` (and each call to ``counts["calls"]``)."""

    def wrap(stage):
        def counted(bindings, store, n):
            counts["calls"] += 1
            counts["rows"] += n
            return stage(bindings, store, n)

        return counted

    for op in seq_operators(engine):
        if op._pairing_plan is not None:
            op._pairing_plan = [
                None if stage is None else wrap(stage)
                for stage in op._pairing_plan
            ]


def assert_mirrors_exact(op):
    """Every plan-covered mirror matches its history row for row."""
    checked = 0
    for partition in op._partitions.values():
        assert partition.mirrors is not None
        for store, history in zip(
            partition.mirrors, partition.histories
        ):
            if store is None:
                continue
            checked += 1
            assert store.ok
            assert store.timestamps == [t.ts for t in history]
            for j, column in enumerate(store.columns):
                assert column == [t.values[j] for t in history]
    assert checked  # the plan covered at least one stage somewhere


def dense_seq_batches(n=400, tags=8, nulls=False):
    """Interleaved a/b batches dense enough to exceed the mask floor."""
    batches = []
    ts = 0.0
    for start in range(0, n, 100):
        a_rows = []
        b_rows = []
        for i in range(100):
            k = start + i
            v = None if nulls and k % 7 == 0 else ((k * 13) % 100) / 100.0
            w = None if nulls and k % 5 == 0 else ((k * 29) % 100) / 100.0
            a_rows.append(({"tag_id": f"t{k % tags}", "v": v}, ts + i))
            b_rows.append(
                ({"tag_id": f"t{(k * 3) % tags}", "w": w}, ts + 150.0 + i)
            )
        batches.append(("a", a_rows))
        batches.append(("b", b_rows))
        ts += 400.0
    return batches


class TestPaperQueryDifferentials:
    """All eight paper examples, fed as ``ColumnBatch`` pushes."""

    COLUMNAR = True

    def run_tiers(self, setup, batches, post=None):
        return run_tiers(setup, batches, post, columnar=self.COLUMNAR)

    def test_example1_duplicate_filtering(self):
        query = """
        INSERT INTO cleaned_readings
        SELECT * FROM readings AS r1
        WHERE NOT EXISTS
          (SELECT * FROM TABLE( readings OVER
             (RANGE 1 SECONDS PRECEDING CURRENT)) AS r2
           WHERE r2.reader_id = r1.reader_id
             AND r2.tag_id = r1.tag_id)
        """

        def setup(engine):
            engine.create_stream(
                "readings", "reader_id str, tag_id str, read_time float"
            )
            engine.create_stream(
                "cleaned_readings", "reader_id str, tag_id str, read_time float"
            )
            engine.query(query)
            return [results_of(engine.collect("cleaned_readings"))]

        rows = []
        ts = 0.0
        for burst in range(40):
            tag = f"t{burst % 7}"
            reader = f"g{burst % 3}"
            for repeat in range(4):  # in-window duplicates collapse
                rows.append(
                    ({"reader_id": reader, "tag_id": tag, "read_time": ts}, ts)
                )
                ts += 0.2
            ts += 4.0  # gap: next sighting is a fresh reading
        batches = [
            ("readings", rows[start:start + 32])
            for start in range(0, len(rows), 32)
        ]
        (out,), _ = self.run_tiers(setup, batches)
        assert len(out) == 40

    def test_example2_location_tracking(self):
        query = """
        INSERT INTO object_movement
        SELECT tid, loc, tagtime
        FROM tag_locations WHERE NOT EXISTS
          (SELECT tagid FROM object_movement
           WHERE tagid = tid AND location = loc)
        """

        def setup(engine):
            engine.create_stream(
                "tag_locations", "readerid str, tid str, tagtime float, loc str"
            )
            engine.create_table(
                "object_movement", "tagid str, location str, start_time float"
            )
            engine.query(query)
            return [lambda: list(engine.table("object_movement").scan())]

        locations = ("dock", "belt", "yard")
        rows = [
            ({"readerid": "r", "tid": f"t{i % 9}", "tagtime": float(i),
              "loc": locations[(i // 9) % 3]}, float(i))
            for i in range(120)
        ]
        batches = [
            ("tag_locations", rows[start:start + 24])
            for start in range(0, len(rows), 24)
        ]
        (movement,), _ = self.run_tiers(setup, batches)
        assert len(movement) == 27  # 9 tags x 3 locations

    def test_example3_epc_aggregation(self):
        query = """
        SELECT count(tid) FROM readings WHERE tid LIKE '20.%.%'
        AND extract_serial(tid) > 5000
        AND extract_serial(tid) < 9999
        """

        def setup(engine):
            engine.create_stream(
                "readings", "reader_id str, tid str, read_time float"
            )
            return [results_of(engine.query(query))]

        rows = []
        for i in range(200):
            company = "20" if i % 3 else "21"
            serial = 4000 + (i * 53) % 7000
            rows.append(
                ({"reader_id": "r", "tid": f"{company}.{i % 5}.{serial}",
                  "read_time": float(i)}, float(i))
            )
        batches = [
            ("readings", rows[start:start + 50])
            for start in range(0, len(rows), 50)
        ]
        (out,), _ = self.run_tiers(setup, batches)
        assert out

    def test_example5_exception_seq_and_clevel(self):
        exception = """
        SELECT A1.tagid, A2.tagid, A3.tagid
        FROM A1, A2, A3
        WHERE EXCEPTION_SEQ(A1, A2, A3)
        OVER [1 HOURS FOLLOWING A1]
        """
        clevel = """
        SELECT A1.tagid, A2.tagid, A3.tagid
        FROM A1, A2, A3
        WHERE (CLEVEL_SEQ(A1, A2, A3)
        OVER [1 HOURS FOLLOWING A1]) < 3
        """

        def setup(engine):
            for name in ("a1", "a2", "a3"):
                engine.create_stream(name, "tagid str, tagtime float")
            return [
                results_of(engine.query(exception)),
                results_of(engine.query(clevel)),
            ]

        batches = [
            ("a1", [({"tagid": "ok", "tagtime": 0.0}, 0.0)]),
            ("a2", [({"tagid": "ok", "tagtime": 10.0}, 10.0)]),
            ("a3", [({"tagid": "ok", "tagtime": 20.0}, 20.0)]),
            ("a1", [({"tagid": "skip", "tagtime": 100.0}, 100.0)]),
            ("a3", [({"tagid": "skip", "tagtime": 110.0}, 110.0)]),
            ("a2", [({"tagid": "late", "tagtime": 200.0}, 200.0)]),
            ("a1", [({"tagid": "timeout", "tagtime": 300.0}, 300.0)]),
        ]
        (exc, clv), _ = self.run_tiers(
            setup, batches, post=lambda engine: engine.advance_time(10000.0)
        )
        assert len(exc) == 3 and len(clv) == 3

    def test_example6_quality_sequence(self):
        plain = """
        SELECT C1.tagid, C1.tagtime,
               C2.tagtime, C3.tagtime, C4.tagtime
        FROM C1, C2, C3, C4
        WHERE SEQ(C1, C2, C3, C4)
        AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
        AND C1.tagid=C4.tagid
        """
        windowed = """
        SELECT C4.tagid, C1.tagtime
        FROM C1, C2, C3, C4
        WHERE SEQ(C1, C2, C3, C4)
        OVER [30 MINUTES PRECEDING C4]
        AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid
        AND C1.tagid=C4.tagid
        """

        def setup(engine):
            for name in ("c1", "c2", "c3", "c4"):
                engine.create_stream(
                    name, "readerid str, tagid str, tagtime float"
                )
            return [
                results_of(engine.query(plain)),
                results_of(engine.query(windowed)),
            ]

        batches = []
        ts = 0.0
        for wave in range(12):
            for stage, stream in enumerate(("c1", "c2", "c3", "c4")):
                if wave % 4 == 3 and stream == "c3":
                    continue  # broken pass: stage skipped
                # Slow waves span 3 x 700s = 35min > the 30min window.
                step = 700.0 if wave % 4 == 2 else 30.0
                ts += step
                rows = [
                    ({"readerid": stream, "tagid": f"pallet{wave}",
                      "tagtime": ts}, ts)
                ]
                batches.append((stream, rows))
        (full, fast), _ = self.run_tiers(setup, batches)
        assert full and fast and len(fast) < len(full)

    def test_example7_star_containment(self):
        aggregated = """
        SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
        FROM R1, R2
        WHERE SEQ(R1*, R2) MODE CHRONICLE
        AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
        AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
        """
        per_tuple = """
        SELECT R1.tagid, R1.tagtime,
               R2.tagid, R2.tagtime
        FROM R1, R2
        WHERE SEQ(R1*, R2) MODE CHRONICLE
        AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
        AND R1.tagtime - R1.previous.tagtime < 1 SECONDS
        """

        def setup(engine):
            engine.create_stream("r1", "readerid str, tagid str, tagtime float")
            engine.create_stream("r2", "readerid str, tagid str, tagtime float")
            return [
                results_of(engine.query(aggregated)),
                results_of(engine.query(per_tuple)),
            ]

        batches = []
        ts = 0.0
        for case in range(8):
            product_rows = []
            for item in range(3 + case % 3):
                product_rows.append(
                    ({"readerid": "r1", "tagid": f"p{case}_{item}",
                      "tagtime": ts}, ts)
                )
                ts += 0.5
            batches.append(("r1", product_rows))
            ts += 2.0
            batches.append(
                ("r2", [({"readerid": "r2", "tagid": f"case{case}",
                          "tagtime": ts}, ts)])
            )
            ts += 10.0  # gap between cases
        (agg, per), _ = self.run_tiers(setup, batches)
        assert len(agg) == 8 and per

    def test_example8_door(self):
        query = """
        SELECT person.tagid
        FROM tag_readings AS person
        WHERE person.tagtype = 'person' AND NOT EXISTS
          (SELECT * FROM tag_readings AS item
           OVER [1 MINUTES
           PRECEDING AND FOLLOWING person]
           WHERE item.tagtype = 'item')
        """

        def setup(engine):
            engine.create_stream(
                "tag_readings", "tagid str, tagtype str, tagtime float"
            )
            return [results_of(engine.query(query))]

        rows = []
        ts = 0.0
        for episode in range(10):
            if episode % 3 == 0:  # person escorted by an item
                rows.append(({"tagid": f"i{episode}", "tagtype": "item",
                              "tagtime": ts}, ts))
                ts += 20.0
            rows.append(({"tagid": f"p{episode}", "tagtype": "person",
                          "tagtime": ts}, ts))
            ts += 300.0  # past the +-1 minute window
        batches = [("tag_readings", rows[start:start + 4])
                   for start in range(0, len(rows), 4)]
        (out,), _ = self.run_tiers(
            setup, batches, post=lambda engine: engine.advance_time(99999.0)
        )
        assert out  # lonely persons reported


class TestPaperQueriesUnderPairingTiers(TestPaperQueryDifferentials):
    """The same eight paper examples, fed record by record.

    Workloads and assertions are inherited byte-for-byte; only the
    ingestion path differs, so the pairing masks (which also run on the
    record path) are checked without the columnar admission masks.
    """

    COLUMNAR = False


class TestPairingMaskDifferentials:
    AB_DDL = (("a", "tag_id str, v float"), ("b", "tag_id str, w float"))

    def _setup(self, query, counts=None):
        def setup(engine):
            for name, ddl in self.AB_DDL:
                engine.create_stream(name, ddl)
            accessors = [results_of(engine.query(query))]
            if counts is not None:
                count_mask_rows(engine, counts)
            return accessors

        return setup

    def test_unrestricted_masks_engage(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        counts = {"calls": 0, "rows": 0}
        (out,), vector_engine = run_tiers(
            self._setup(query, counts), dense_seq_batches()
        )
        assert out
        (op,) = seq_operators(vector_engine)
        assert op._pairing_plan is not None
        # Only the vector tier has a plan, so every counted call is its.
        assert counts["calls"] > 0 and counts["rows"] > 0

    def test_vector_plan_without_native(self):
        engine = Engine()  # the vector tier is the default
        for name, ddl in self.AB_DDL:
            engine.create_stream(name, ddl)
        engine.query(
            "SELECT X.tag_id FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        (op,) = seq_operators(engine)
        assert op._pairing_plan is not None
        # Stage 0 scans X's history while Y is bound: it must carry the
        # mask; mirrors are built exactly for plan-covered stages.
        assert op._pairing_plan[0] is not None
        assert op._mirror_specs is not None

    def test_recent_mode_masks(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) OVER [300 SECONDS PRECEDING Y] MODE RECENT "
            "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
        )
        counts = {"calls": 0, "rows": 0}
        (out,), vector_engine = run_tiers(
            self._setup(query, counts), dense_seq_batches()
        )
        assert out
        (op,) = seq_operators(vector_engine)
        assert op._use_cuts and op._pairing_plan is not None
        assert counts["calls"] > 0

    def test_four_stage_chain_masks_multiple_stages(self):
        query = """
        SELECT C1.tagid, C1.tagtime, C4.tagtime
        FROM C1, C2, C3, C4
        WHERE SEQ(C1, C2, C3, C4)
        AND C1.tagid=C2.tagid AND C1.tagid=C3.tagid AND C1.tagid=C4.tagid
        AND C4.tagtime - C1.tagtime < 900
        AND C3.tagtime - C2.tagtime < 400
        """

        def setup(engine):
            for name in ("c1", "c2", "c3", "c4"):
                engine.create_stream(
                    name, "readerid str, tagid str, tagtime float"
                )
            return [results_of(engine.query(query))]

        batches = []
        ts = 0.0
        for wave in range(30):
            for stream in ("c1", "c2", "c3", "c4"):
                step = 500.0 if wave % 5 == 2 and stream == "c3" else 25.0
                ts += step
                batches.append((stream, [
                    ({"readerid": stream, "tagid": f"pallet{wave % 6}",
                      "tagtime": ts}, ts)
                ]))
        (out,), vector_engine = run_tiers(setup, batches)
        assert out
        (op,) = seq_operators(vector_engine)
        plan = op._pairing_plan
        assert plan is not None
        # C4.tagtime - C1.tagtime is decidable at stage 0 (scanning C1
        # with C4 bound); C3.tagtime - C2.tagtime at stage 1.
        assert plan[0] is not None and plan[1] is not None

    def test_null_heavy_trace(self):
        query = (
            "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2"
        )
        (out,), _ = run_tiers(
            self._setup(query), dense_seq_batches(nulls=True)
        )
        assert out

    def test_unicode_and_embedded_nul_trace(self):
        """Unicode and embedded-NUL string operands flow through the
        mirrors' object columns unchanged, and every tier agrees
        byte-for-byte."""
        query = (
            "SELECT X.tag_id, Y.tag_id FROM a AS X, b AS Y "
            "WHERE SEQ(X, Y) AND X.loc <> Y.loc AND Y.w - X.v > 0.1"
        )

        def setup(engine):
            engine.create_stream("a", "tag_id str, v float, loc str")
            engine.create_stream("b", "tag_id str, w float, loc str")
            return [results_of(engine.query(query))]

        locs = ("ガ-dock", "café", "yard", "b\x00elt", None)
        batches = []
        ts = 0.0
        for start in range(0, 200, 50):
            a_rows = [({"tag_id": f"t{(start + i) % 4}",
                        "v": ((start + i) * 13 % 100) / 100.0,
                        "loc": locs[(start + i) % 5]}, ts + i)
                      for i in range(50)]
            b_rows = [({"tag_id": f"t{(start + i) % 4}",
                        "w": ((start + i) * 29 % 100) / 100.0,
                        "loc": locs[(start + i) % 3]}, ts + 80.0 + i)
                      for i in range(50)]
            batches.append(("a", a_rows))
            batches.append(("b", b_rows))
            ts += 200.0
        (out,), vector_engine = run_tiers(setup, batches)
        assert out
        (op,) = seq_operators(vector_engine)
        assert_mirrors_exact(op)

    def test_kleene_star_trace(self):
        """Star sequences take the StarSeqOperator path — no mirrors,
        no masks — and must be untouched by the pairing tier."""
        query = """
        SELECT FIRST(R1*).tagtime, COUNT(R1*), R2.tagid, R2.tagtime
        FROM R1, R2
        WHERE SEQ(R1*, R2) MODE CHRONICLE
        AND R2.tagtime - LAST(R1*).tagtime <= 5 SECONDS
        AND R1.tagtime - R1.previous.tagtime <= 1 SECONDS
        """

        def setup(engine):
            engine.create_stream("r1", "readerid str, tagid str, tagtime float")
            engine.create_stream("r2", "readerid str, tagid str, tagtime float")
            return [results_of(engine.query(query))]

        batches = []
        ts = 0.0
        for case in range(10):
            items = [({"readerid": "r1", "tagid": f"p{case}_{item}",
                       "tagtime": ts + item * 0.4}, ts + item * 0.4)
                     for item in range(2 + case % 4)]
            ts += len(items) * 0.4
            batches.append(("r1", items))
            ts += 2.0
            batches.append(
                ("r2", [({"readerid": "r2", "tagid": f"case{case}",
                          "tagtime": ts}, ts)])
            )
            ts += 12.0
        (out,), vector_engine = run_tiers(setup, batches)
        assert len(out) == 10
        assert not seq_operators(vector_engine)  # star path, not SeqOperator


class TestMirrorUpkeep:
    QUERY = (
        "SELECT X.tag_id, X.v, Y.w FROM a AS X, b AS Y "
        "WHERE SEQ(X, Y) OVER [200 SECONDS PRECEDING Y] "
        "AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.2"
    )

    def _build(self, **flags):
        engine = Engine(**flags)
        engine.create_stream("a", "tag_id str, v float")
        engine.create_stream("b", "tag_id str, w float")
        handle = engine.query(self.QUERY)
        return engine, handle

    def test_eviction_keeps_mirrors_in_sync(self):
        engine, _handle = self._build()
        for stream, rows in dense_seq_batches():
            for values, ts in rows:
                engine.push(stream, values, ts=ts)
        (op,) = seq_operators(engine)
        assert op._pairing_plan is not None
        # The 200 s window over a 1600 s trace has evicted from the
        # front of every surviving history; the mirrors must have
        # tracked those evictions row for row.
        assert any(
            partition.removed[0] > 0
            for partition in op._partitions.values()
        )
        assert_mirrors_exact(op)

    @pytest.mark.parametrize(
        "flags",
        [{}, {"vectorized_admission": False}],
        ids=["vector", "closure"],
    )
    def test_checkpoint_roundtrip_rebuilds_mirrors(self, flags):
        """Vector: restore rebuilds the mirrors the plan needs.  Closure:
        no plan, no mirrors, and the restore must not invent any."""
        masked = flags.get("vectorized_admission", True)
        batches = dense_seq_batches()
        half = len(batches) // 2

        source, source_handle = self._build(**flags)
        for stream, rows in batches[:half]:
            for values, ts in rows:
                source.push(stream, values, ts=ts)
        state = capture_engine_state(source)

        restored, restored_handle = self._build(**flags)
        restore_engine_state(restored, state)

        (src_op,) = seq_operators(source)
        (dst_op,) = seq_operators(restored)
        assert set(src_op._partitions) == set(dst_op._partitions)
        if masked:
            assert dst_op._pairing_plan is not None
            assert_mirrors_exact(dst_op)
            # The rebuilt mirrors must equal the source's, column for
            # column.
            for key, src_part in src_op._partitions.items():
                dst_part = dst_op._partitions[key]
                for src_store, dst_store in zip(
                    src_part.mirrors, dst_part.mirrors
                ):
                    if src_store is None:
                        assert dst_store is None
                        continue
                    assert dst_store.columns == src_store.columns
                    assert dst_store.timestamps == src_store.timestamps
        else:
            assert dst_op._pairing_plan is None
            assert all(
                part.mirrors is None for part in dst_op._partitions.values()
            )

        # And the restored engine must keep producing exactly what the
        # uninterrupted source produces.
        seen = len(source_handle.results)
        for stream, rows in batches[half:]:
            for values, ts in rows:
                source.push(stream, values, ts=ts)
                restored.push(stream, values, ts=ts)
        tail = [
            (t.values, t.ts) for t in source_handle.results[seen:]
        ]
        assert [
            (t.values, t.ts) for t in restored_handle.results
        ] == tail
        assert tail  # the continuation actually matched something


class TestFallbackAndReporting:
    QUERY = (
        "SELECT X.tag_id FROM a AS X, b AS Y "
        "WHERE SEQ(X, Y) AND X.tag_id = Y.tag_id AND Y.w - X.v > 0.3"
    )

    def _run(self, **flags):
        engine = Engine(**flags)
        engine.create_stream("a", "tag_id str, v float")
        engine.create_stream("b", "tag_id str, w float")
        handle = engine.query(self.QUERY)
        for stream, rows in dense_seq_batches(n=200):
            for values, ts in rows:
                engine.push(stream, values, ts=ts)
        return engine, [(t.values, t.ts) for t in handle.results]

    def test_interpreted_tier_runs_no_masks(self):
        """Masks run only above the closure tier: with compile_expressions
        off, the vectorized_admission flag (on by default) attaches no
        filter or SEQ mask, and the tier report says interpreted."""
        engine, out = self._run(compile_expressions=False)
        tier = engine.execution_tier()
        assert tier["active"] == "interpreted"
        assert tier["pairing"]["active"] == "interpreted"
        engine.create_stream("r", "x float")
        engine.query("SELECT x FROM r AS R WHERE R.x < 0.5")
        (op,) = seq_operators(engine)
        assert op._pairing_plan is None
        for name in ("a", "b", "r"):
            for callback in engine.streams.get(name)._fanout:
                assert getattr(callback, "vector_admission", None) is None
        _, reference = self._run(vectorized_admission=False)
        assert out == reference

    def test_tier_report_carries_pairing_ladder(self):
        assert Engine().execution_tier()["pairing"] == {
            "requested": "vector", "active": "vector",
        }
        assert Engine(
            compile_expressions=False, vectorized_admission=False
        ).execution_tier()["pairing"] == {
            "requested": "interpreted", "active": "interpreted",
        }

    def test_sharded_tier_report_carries_pairing(self):
        from repro.dsms.sharding import ShardedEngine

        tier = ShardedEngine(n_shards=2).execution_tier()
        assert tier["pairing"] == {"requested": "vector", "active": "vector"}
        tier = ShardedEngine(
            n_shards=2, compile_expressions=False
        ).execution_tier()
        assert tier["pairing"] == {
            "requested": "vector", "active": "interpreted",
        }
