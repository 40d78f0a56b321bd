"""Tier differentials over the paper queries, and the sharded and
multi-query tier reports.

This module used to test the native C codegen tier as well.  That tier
is deleted; what stays here is the part of its suite whose behaviour
survives, under the same test ids: the eight paper queries run through
every execution tier (interpreted / closure / vector) with byte-identical
output, and the wrapper engines reporting the same tier ladder as a
plain ``Engine``.  The paper-query class is defined once, in the
pairing suite, and collected here as well.
"""

from repro.dsms.engine import Engine
from repro.dsms.multi_engine import MultiQueryEngine
from repro.dsms.sharding import ShardedEngine
from tests.test_pairing_kernels import TestPaperQueryDifferentials  # noqa: F401


class TestFallbackChain:
    def test_sharded_and_multi_engine_tier_reports(self):
        for flags in (
            {},
            {"vectorized_admission": False},
            {"compile_expressions": False},
        ):
            expected = Engine(**flags).execution_tier()
            assert ShardedEngine(n_shards=2, **flags).execution_tier() == (
                expected
            )
            assert MultiQueryEngine(**flags).execution_tier() == expected
        assert ShardedEngine(n_shards=2).execution_tier()["active"] == "vector"
        assert MultiQueryEngine().execution_tier()["active"] == "vector"
