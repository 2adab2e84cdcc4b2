"""SCC-sharded certification across a process pool.

The TVLA fixpoint is sequential over one worklist, so a single large
client uses one core no matter how wide its control-flow graph is.  But
the *condensation* of the CFG — its strongly connected components,
collapsed — is a DAG: once every predecessor component has reached its
fixpoint, a component's entry states are final, and components with no
path between them are independent.  This module exploits that:

1. :func:`tarjan_scc` / :func:`condense` compute the SCC DAG of any
   successor graph (iterative Tarjan, no recursion limit exposure);
2. :func:`shard_plan` layers the condensation of a specialized TVP into
   *stages* — antichains whose members only depend on earlier stages;
3. :func:`certify_sharded` runs each stage's shards concurrently on a
   process pool, shipping boundary structures between stages as
   canonical certificate JSON.  The specialized TVP, the engine (with
   its compiled formulas and transfer memo), and the derived
   abstraction are built once in the parent: a forked pool inherits
   them for free, a spawn pool rebuilds from a pickled recipe in the
   initializer.

Relational mode is exact under sharding: per-node states are sets
unioned by canonical key, so the staged fixpoint computes the same
annotation and the same alarms as the sequential engine regardless of
execution order.  Independent mode is supported but joins boundary
structures in stage order, which can differ from the sequential
engine's join order on programs where join is not order-insensitive.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import multiprocessing

from repro.certifier.report import CertificationReport

# -- SCC / condensation utilities ----------------------------------------------


def tarjan_scc(nodes: Iterable[int], successors) -> List[List[int]]:
    """Strongly connected components, in reverse topological order.

    ``successors(node)`` yields the out-neighbours.  Iterative (explicit
    stack), so deep CFGs cannot hit the recursion limit.
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    counter = [0]
    sccs: List[List[int]] = []

    for root in nodes:
        if root in index:
            continue
        # frames: (node, iterator over successors)
        work = [(root, iter(list(successors(root))))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, succ_iter = work[-1]
            advanced = False
            for succ in succ_iter:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(list(successors(succ)))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


@dataclass
class Condensation:
    """The SCC DAG of a successor graph.

    ``sccs`` is in topological order (every cross edge goes from a lower
    index to a higher one); ``succs[i]`` are the successor components of
    component ``i``.
    """

    sccs: List[List[int]]
    scc_of: Dict[int, int]
    succs: List[List[int]] = field(default_factory=list)

    def stages(self) -> List[List[int]]:
        """Topological layers: stage ``k`` holds the components whose
        longest dependency chain has length ``k``.  Components within a
        stage are mutually unreachable, hence independently solvable."""
        level = [0] * len(self.sccs)
        for i in range(len(self.sccs)):
            for j in self.succs[i]:
                level[j] = max(level[j], level[i] + 1)
        layered: Dict[int, List[int]] = {}
        for i, lvl in enumerate(level):
            layered.setdefault(lvl, []).append(i)
        return [layered[lvl] for lvl in sorted(layered)]

    @property
    def width(self) -> int:
        """The widest stage — the available shard-level parallelism."""
        return max(len(stage) for stage in self.stages())


def condense(nodes: Iterable[int], successors) -> Condensation:
    rev = tarjan_scc(nodes, successors)
    sccs = list(reversed(rev))  # topological order
    scc_of = {
        node: idx for idx, members in enumerate(sccs) for node in members
    }
    succs: List[List[int]] = []
    for idx, members in enumerate(sccs):
        out = set()
        for node in members:
            for succ in successors(node):
                j = scc_of[succ]
                if j != idx:
                    out.add(j)
        succs.append(sorted(out))
    return Condensation(sccs=sccs, scc_of=scc_of, succs=succs)


def shard_plan(tvp) -> Condensation:
    """The condensation of a specialized TVP's control-flow graph."""
    return condense(
        sorted(tvp.nodes()),
        lambda node: [edge.dst for edge in tvp.out_edges(node)],
    )


# -- per-shard fixpoint --------------------------------------------------------


def _solve_shard(engine_obj, members: Sequence[int], seeds):
    """Run the fixpoint restricted to one SCC.

    ``seeds`` maps member nodes to their entry states: a dict
    ``{canonical_key: structure}`` in relational mode, a single
    structure in independent mode.  Returns ``(boundary, alarms,
    iterations, max_structures)`` where ``boundary`` maps *external*
    destination nodes to the structures transferred out of the shard.

    Edges are applied by their source shard, so each edge's checks run
    exactly once per reaching structure — alarms partition cleanly
    across shards.
    """
    from repro.tvla.engine import _CheckContribution  # noqa: F401

    tvp = engine_obj.tvp
    preds = engine_obj.abstraction_preds
    member_set = set(members)
    alarms: Dict[Tuple[int, str], object] = {}
    iterations = 0
    max_structures = 1
    worklist = deque(sorted(seeds))
    queued = set(worklist)
    transfers = engine_obj._transfers if engine_obj.memoize_transfers else None

    if engine_obj.mode == "relational":
        states = {node: dict(bucket) for node, bucket in seeds.items()}
        boundary: Dict[int, Dict[object, object]] = {}
        while worklist:
            node = worklist.popleft()
            queued.discard(node)
            iterations += 1
            if iterations > engine_obj.iteration_budget:
                from repro.tvla.engine import TvlaBudgetExceeded

                raise TvlaBudgetExceeded("iteration budget exceeded")
            here = list(states.get(node, {}).items())
            for edge in tvp.out_edges(node):
                action_id = id(edge.action)
                for skey, structure in here:
                    cached = (
                        transfers.get((action_id, skey))
                        if transfers is not None
                        else None
                    )
                    if cached is None:
                        local: Dict[Tuple[int, str], object] = {}
                        cached = (
                            [
                                (out.canonical_key(preds), out)
                                for out in engine_obj.apply(
                                    structure, edge.action, local
                                )
                            ],
                            local,
                        )
                        if transfers is not None:
                            transfers[(action_id, skey)] = cached
                    outs, contribs = cached
                    _merge_contribs(alarms, contribs)
                    internal = edge.dst in member_set
                    bucket = (
                        states.setdefault(edge.dst, {})
                        if internal
                        else boundary.setdefault(edge.dst, {})
                    )
                    changed = False
                    for okey, out in outs:
                        if okey in bucket:
                            continue
                        bucket[okey] = out
                        changed = True
                        max_structures = max(max_structures, len(bucket))
                        if len(bucket) > engine_obj.structure_budget:
                            from repro.tvla.engine import TvlaBudgetExceeded

                            raise TvlaBudgetExceeded(
                                f"more than {engine_obj.structure_budget} "
                                f"structures at node {edge.dst}",
                                breach="structures",
                            )
                    if internal and changed and edge.dst not in queued:
                        worklist.append(edge.dst)
                        queued.add(edge.dst)
        return boundary, alarms, iterations, max_structures

    single = dict(seeds)
    boundary_single: Dict[int, object] = {}
    while worklist:
        node = worklist.popleft()
        queued.discard(node)
        iterations += 1
        if iterations > engine_obj.iteration_budget:
            from repro.tvla.engine import TvlaBudgetExceeded

            raise TvlaBudgetExceeded("iteration budget exceeded")
        current = single.get(node)
        if current is None:
            continue
        for edge in tvp.out_edges(node):
            for out in engine_obj.apply(current, edge.action, alarms):
                internal = edge.dst in member_set
                store = single if internal else boundary_single
                old = store.get(edge.dst)
                if old is None:
                    merged = out
                else:
                    merged = type(old).join(old, out, preds).canonicalize(
                        preds
                    )
                old_key = None if old is None else old.canonical_key(preds)
                if old_key != merged.canonical_key(preds):
                    store[edge.dst] = merged
                    if internal and edge.dst not in queued:
                        worklist.append(edge.dst)
                        queued.add(edge.dst)
    return boundary_single, alarms, iterations, max_structures


def _merge_contribs(alarms, contribs) -> None:
    from repro.tvla.engine import _CheckContribution

    for key, contrib in contribs.items():
        existing = alarms.get(key)
        if existing is None:
            alarms[key] = _CheckContribution(
                line=contrib.line,
                op_key=contrib.op_key,
                instance=contrib.instance,
                alarmed=contrib.alarmed,
                all_fail=contrib.all_fail,
            )
        else:
            existing.merge(contrib.alarmed, contrib.all_fail)


# -- process-pool plumbing -----------------------------------------------------

#: worker-side shard context: (engine_obj, plan).  With a forked pool
#: the parent assigns this *before* creating the pool and children
#: inherit the warm engine — compiled formulas, transfer memo and all —
#: at zero marshalling cost.  A spawn pool rebuilds it from the pickled
#: recipe in :func:`_init_shard_worker`.
_SHARD_CTX: Optional[tuple] = None


def _init_shard_worker(recipe_blob: Optional[bytes]) -> None:
    global _SHARD_CTX
    if recipe_blob is None:
        return  # fork: context inherited
    from repro.api import CertifySession
    from repro.easl.library import get_spec
    from repro.lang.types import parse_program

    spec_name, source, engine, options = pickle.loads(recipe_blob)
    spec = get_spec(spec_name)
    session = CertifySession(spec, engine, options)
    program = parse_program(source, spec)
    arts = session.artifacts(program, engine, source_key=source)
    _SHARD_CTX = (arts["engine_obj"], shard_plan(arts["tvp"]))


def _decode_structures(entries, preds):
    from repro.cert import model

    return [model.planes_from_json(entry).canonicalize(preds) for entry in entries]


def _worker_solve(item: Tuple[int, List[Tuple[int, List[dict]]]]):
    """Pool entry: solve one shard from serialized seeds.

    Returns ``(scc_index, boundary_json, alarm_rows, iterations,
    max_structures, pid)`` where ``boundary_json`` maps external nodes
    to canonical structure JSON and ``alarm_rows`` flattens the check
    contributions.
    """
    from repro.cert import model

    assert _SHARD_CTX is not None, "shard worker has no context"
    engine_obj, plan = _SHARD_CTX
    scc_index, seeds_json = item
    preds = engine_obj.abstraction_preds
    members = plan.sccs[scc_index]
    if engine_obj.mode == "relational":
        seeds = {
            node: {
                s.canonical_key(preds): s
                for s in _decode_structures(entries, preds)
            }
            for node, entries in seeds_json
        }
    else:
        seeds = {
            node: _decode_structures(entries, preds)[0]
            for node, entries in seeds_json
        }
    boundary, alarms, iterations, max_structures = _solve_shard(
        engine_obj, members, seeds
    )
    if engine_obj.mode == "relational":
        boundary_json = {
            dst: [
                model.planes_to_json(s, preds)
                for s in bucket.values()
            ]
            for dst, bucket in boundary.items()
        }
    else:
        boundary_json = {
            dst: [model.planes_to_json(s, preds)]
            for dst, s in boundary.items()
        }
    alarm_rows = [
        (key, c.line, c.op_key, c.instance, c.alarmed, c.all_fail)
        for key, c in alarms.items()
    ]
    return (
        scc_index,
        boundary_json,
        alarm_rows,
        iterations,
        max_structures,
        os.getpid(),
    )


# -- the sharded certifier -----------------------------------------------------


@dataclass
class ShardedResult:
    """Outcome of one sharded certification."""

    report: CertificationReport
    shards: int
    stages: int
    #: widest stage: how many shards ever ran concurrently
    parallel_shards: int
    workers: int
    seconds: float
    #: distinct worker PIDs that solved at least one shard
    pids: List[int] = field(default_factory=list)


def certify_sharded(
    spec,
    source: str,
    *,
    engine: str = "tvla-relational",
    options=None,
    workers: int = 1,
) -> ShardedResult:
    """Certify one client by fanning its CFG's SCC condensation out
    across a process pool.

    ``workers=1`` solves the shards sequentially in-process (identical
    results, no pool overhead) — the baseline the scaling numbers are
    measured against.  The engine must be a ``tvla-*`` mode; relational
    sharding is exact (see the module docstring).
    """
    from repro.api import CertifyOptions, CertifySession
    from repro.cert import model
    from repro.easl.library import get_spec
    from repro.lang.types import parse_program
    from repro.tvla.engine import _alarm_list

    if not engine.startswith("tvla-"):
        raise ValueError(
            f"sharded certification needs a tvla-* engine, got {engine!r}"
        )
    started = time.perf_counter()
    spec_obj = get_spec(spec) if isinstance(spec, str) else spec
    options = options or CertifyOptions()
    session = CertifySession(spec_obj, engine, options)
    program = parse_program(source, spec_obj)
    arts = session.artifacts(program, engine, source_key=source)
    engine_obj = arts["engine_obj"]
    tvp = arts["tvp"]
    plan = shard_plan(tvp)
    preds = engine_obj.abstraction_preds
    mode = engine_obj.mode

    global _SHARD_CTX
    _SHARD_CTX = (engine_obj, plan)
    workers = max(1, int(workers))
    pool = None
    try:
        if workers > 1 and plan.width > 1:
            context = _mp_context()
            recipe = None
            if context.get_start_method() != "fork":
                recipe = pickle.dumps(
                    (spec_obj.name, source, engine, options)
                )
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=context,
                initializer=_init_shard_worker,
                initargs=(recipe,),
            )

        initial = engine_obj.initial_structure().canonicalize(preds)
        # pending entry states per node, as canonical JSON (the wire
        # format doubles as the cross-producer dedup key)
        pending: Dict[int, Dict[str, dict]] = {
            tvp.entry: {
                model.canonical_text(
                    model.planes_to_json(initial, preds)
                ): model.planes_to_json(initial, preds)
            }
        }
        alarms: Dict[Tuple[int, str], object] = {}
        iterations = 0
        max_structures = 1
        pids = set()
        solved = 0
        for stage in plan.stages():
            items = []
            for scc_index in stage:
                seeds_json = []
                for node in plan.sccs[scc_index]:
                    bucket = pending.pop(node, None)
                    if bucket:
                        seeds_json.append((node, list(bucket.values())))
                if seeds_json:
                    items.append((scc_index, seeds_json))
            if not items:
                continue
            if pool is not None and len(items) > 1:
                outcomes = list(pool.map(_worker_solve, items))
            else:
                outcomes = [_worker_solve(item) for item in items]
            for (
                _scc_index,
                boundary_json,
                alarm_rows,
                its,
                maxs,
                pid,
            ) in outcomes:
                solved += 1
                iterations += its
                max_structures = max(max_structures, maxs)
                pids.add(pid)
                _merge_alarm_rows(alarms, alarm_rows)
                for dst, entries in boundary_json.items():
                    if mode == "relational":
                        bucket = pending.setdefault(dst, {})
                        for entry in entries:
                            bucket.setdefault(
                                model.canonical_text(entry), entry
                            )
                    else:
                        _join_pending_single(
                            pending, dst, entries[0], preds
                        )
    finally:
        if pool is not None:
            pool.shutdown()
        _SHARD_CTX = None

    alarm_list = _alarm_list(alarms)
    seconds = time.perf_counter() - started
    stage_list = plan.stages()
    report = CertificationReport(
        subject=tvp.name,
        engine=f"tvla-{mode}",
        alarms=alarm_list,
        stats={
            "iterations": iterations,
            "max_structures": max_structures,
            "abstraction_preds": len(preds),
            "shards": len(plan.sccs),
            "shards_solved": solved,
            "stages": len(stage_list),
            "parallel_shards": plan.width,
            "workers": workers,
            "seconds": round(seconds, 4),
        },
    )
    return ShardedResult(
        report=report,
        shards=len(plan.sccs),
        stages=len(stage_list),
        parallel_shards=plan.width,
        workers=workers,
        seconds=seconds,
        pids=sorted(pids),
    )


def _merge_alarm_rows(alarms, rows) -> None:
    from repro.tvla.engine import _CheckContribution

    for key, line, op_key, instance, alarmed, all_fail in rows:
        key = tuple(key)
        existing = alarms.get(key)
        if existing is None:
            alarms[key] = _CheckContribution(
                line=line,
                op_key=op_key,
                instance=instance,
                alarmed=alarmed,
                all_fail=all_fail,
            )
        else:
            existing.merge(alarmed, all_fail)


def _join_pending_single(pending, dst, entry, preds) -> None:
    """Independent mode: join one boundary structure into the pending
    entry state for ``dst`` (re-serialized on the way to the consuming
    shard)."""
    from repro.cert import model

    incoming = model.planes_from_json(entry).canonicalize(preds)
    bucket = pending.get(dst)
    if not bucket:
        pending[dst] = {
            model.canonical_text(
                model.planes_to_json(incoming, preds)
            ): model.planes_to_json(incoming, preds)
        }
        return
    (_, existing_json), = list(bucket.items())
    existing = model.planes_from_json(existing_json).canonicalize(preds)
    merged = type(existing).join(existing, incoming, preds).canonicalize(
        preds
    )
    merged_json = model.planes_to_json(merged, preds)
    pending[dst] = {model.canonical_text(merged_json): merged_json}


def _mp_context():
    # fork shares the parent's warm engine (compiled formulas, transfer
    # memo, derived abstraction) with every worker for free
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()
