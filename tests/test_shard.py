"""SCC-sharded certification (PR 7).

The sharded fixpoint must be *exact* for relational mode: same alarm
set as the sequential engine regardless of worker count or stage
interleaving.  These tests pin the condensation utilities and the
end-to-end equality on branchy and loop-heavy clients.
"""

import pytest

from repro.api import CertifySession
from repro.bench.harness import DictReferenceSession
from repro.bench.synthetic import make_heap_client
from repro.easl.library import cmp_spec
from repro.lang.types import parse_program
from repro.runtime.shard import (
    certify_sharded,
    condense,
    shard_plan,
    tarjan_scc,
)

BRANCHY_CLIENT = """
class Main {
  static void main() {
    Set s = new Set();
    Iterator i = s.iterator();
    if (?) {
      while (?) { i.next(); }
      s.add("x");
    } else {
      if (?) { i.next(); }
      s.add("y");
    }
    if (?) { i.next(); }
  }
}
"""


class TestCondensation:
    def test_tarjan_on_a_cycle(self):
        graph = {0: [1], 1: [2], 2: [0, 3], 3: []}
        components = tarjan_scc(graph, lambda n: graph[n])
        as_sets = [frozenset(c) for c in components]
        assert frozenset({0, 1, 2}) in as_sets
        assert frozenset({3}) in as_sets

    def test_stages_respect_dependencies(self):
        graph = {0: [1, 2], 1: [3], 2: [3], 3: []}
        condensation = condense(graph, lambda n: graph[n])
        stages = condensation.stages()
        position = {}
        for index, stage in enumerate(stages):
            for component in stage:
                for node in condensation.sccs[component]:
                    position[node] = index
        assert position[0] < position[1]
        assert position[0] < position[2]
        assert position[1] < position[3]
        assert position[2] < position[3]

    def test_diamond_has_parallel_width(self):
        graph = {0: [1, 2], 1: [3], 2: [3], 3: []}
        condensation = condense(graph, lambda n: graph[n])
        assert condensation.width >= 2

    def test_shard_plan_covers_every_node(self):
        spec = cmp_spec()
        session = CertifySession(spec, engine="tvla-relational")
        program = parse_program(BRANCHY_CLIENT, spec)
        tvp = session.artifacts(program, "tvla-relational")["tvp"]
        plan = shard_plan(tvp)
        covered = {
            node for members in plan.sccs for node in members
        }
        assert covered == set(tvp.nodes())


def _signature(report):
    return sorted(
        (a.site_id, a.op_key, a.instance, a.definite)
        for a in report.alarms
    )


class TestShardedEquality:
    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_matches_sequential(self, packed, workers):
        """Sharded runs (packed) against the sequential packed engine
        and the sequential dict reference."""
        spec = cmp_spec()
        session_type = CertifySession if packed else DictReferenceSession
        session = session_type(spec, engine="tvla-relational")
        program = parse_program(BRANCHY_CLIENT, spec)
        sequential = session.certify_program(program)
        sharded = certify_sharded(
            spec,
            BRANCHY_CLIENT,
            engine="tvla-relational",
            workers=workers,
        )
        assert _signature(sharded.report) == _signature(sequential)
        assert sharded.shards >= 1
        assert sharded.workers == workers

    def test_loop_heavy_client_matches(self):
        spec = cmp_spec()
        source = make_heap_client(2, 2, 2, 2)
        session = CertifySession(spec, engine="tvla-relational")
        program = parse_program(source, spec)
        sequential = session.certify_program(program)
        sharded = certify_sharded(
            spec,
            source,
            engine="tvla-relational",
            workers=2,
        )
        assert _signature(sharded.report) == _signature(sequential)
        assert sequential.alarms  # the workload genuinely alarms

    def test_rejects_non_tvla_engine(self):
        with pytest.raises(ValueError):
            certify_sharded(
                cmp_spec(), BRANCHY_CLIENT, engine="relational"
            )
