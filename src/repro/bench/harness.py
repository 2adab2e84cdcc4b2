"""Harness producing the Section 7 evaluation tables.

For every suite program and every applicable engine it reports:

* the ground truth (exhaustive-interpreter failing sites),
* the engine's alarms,
* soundness (no missed error) and false-alarm count,
* wall-clock time.

The headline rows reproduce the paper's findings: the staged certifiers
(fds / relational / interproc / both TVLA modes) are sound with minimal
false alarms, the generic baselines are sound but noisier, and the
relational engines buy no precision over the independent-attribute ones
on this suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import CertifyOptions, CertifySession, _identity_memo
from repro.cert import model
from repro.cert.check import CertificateChecker
from repro.easl.library import cmp_spec
from repro.easl.spec import ComponentSpec
from repro.lang.types import Program, parse_program
from repro.runtime import (
    CollectingTracer,
    ExplorationBudget,
    GroundTruth,
    explore,
    use_tracer,
)
from repro.suite import BenchmarkProgram, all_programs
from repro.tvla.engine import TvlaEngine

#: engines applicable to shallow (SCMP) clients
SHALLOW_ENGINES = (
    "fds",
    "relational",
    "interproc",
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)
#: engines applicable to heap clients
HEAP_ENGINES = (
    "tvla-relational",
    "tvla-independent",
    "allocsite",
    "allocsite-recency",
    "shapegraph",
)


@dataclass
class EngineRun:
    engine: str
    alarms: int
    false_alarms: int
    missed: int
    seconds: float
    alarm_lines: List[int] = field(default_factory=list)
    error: Optional[str] = None
    #: per-phase durations (derive / inline / transform / fixpoint)
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        return self.missed == 0 and self.error is None


@dataclass
class ProgramResult:
    program: BenchmarkProgram
    real_error_lines: List[int]
    truth_truncated: bool
    runs: Dict[str, EngineRun] = field(default_factory=dict)


def ground_truth(
    program: Program, budget: Optional[ExplorationBudget] = None
) -> GroundTruth:
    return explore(
        program,
        budget
        or ExplorationBudget(max_paths=15_000, max_steps_per_path=400),
    )


def run_engine(
    program: Program,
    truth: GroundTruth,
    engine: str,
    session: Optional[CertifySession] = None,
) -> EngineRun:
    """Certify ``program`` with ``engine`` and judge it against ``truth``.

    Runs through the instrumented :class:`CertifySession` path, so each
    row of the precision table also carries per-phase durations.  Pass a
    ``session`` to amortize derivation across rows (as
    :func:`run_precision_table` does).
    """
    session = session or CertifySession(program.spec)
    tracer = CollectingTracer()
    started = time.perf_counter()
    try:
        with use_tracer(tracer):
            report = session.certify_program(program, engine=engine)
    except Exception as error:  # budget blowups etc. count as failures
        return EngineRun(
            engine, 0, 0, 0, time.perf_counter() - started,
            error=f"{type(error).__name__}: {error}",
            phases=tracer.totals(),
        )
    elapsed = time.perf_counter() - started
    summary = truth.compare(report.alarm_sites())
    return EngineRun(
        engine,
        alarms=summary.alarms,
        false_alarms=summary.false_alarms,
        missed=summary.missed_errors,
        seconds=elapsed,
        alarm_lines=sorted(report.alarm_lines()),
        phases=tracer.totals(),
    )


def run_precision_table(
    spec: Optional[ComponentSpec] = None,
    engines: Optional[Sequence[str]] = None,
    programs: Optional[Sequence[BenchmarkProgram]] = None,
    budget: Optional[ExplorationBudget] = None,
    options: Optional[CertifyOptions] = None,
) -> List[ProgramResult]:
    """Run the full E1/E2 experiment (or a filtered slice of it).

    One :class:`CertifySession` serves the whole table, so the derived
    abstraction is computed once and every engine row reuses it — the
    same amortization the batch runtime applies across worker jobs.
    ``options`` may carry a resource-governor budget (deadline / step /
    structure limits, degradation ladder) to benchmark salvage quality.
    """
    spec = spec or cmp_spec()
    session = CertifySession(spec, options=options)
    results: List[ProgramResult] = []
    for bench in programs if programs is not None else all_programs():
        program = parse_program(bench.source, spec)
        truth = ground_truth(program, budget)
        result = ProgramResult(
            bench,
            sorted(truth.failing_lines()),
            truth.truncated,
        )
        applicable = engines or (
            SHALLOW_ENGINES if bench.shallow else HEAP_ENGINES
        )
        for engine in applicable:
            if not bench.shallow and engine not in HEAP_ENGINES:
                continue
            result.runs[engine] = run_engine(
                program, truth, engine, session=session
            )
        results.append(result)
    return results


def results_to_json(results: List[ProgramResult]) -> dict:
    """Serialize a precision table for ``repro bench --json``."""
    programs = []
    for result in results:
        engines = {}
        for engine, run in result.runs.items():
            engines[engine] = {
                "alarms": run.alarms,
                "false_alarms": run.false_alarms,
                "missed": run.missed,
                "seconds": round(run.seconds, 6),
                "sound": run.sound,
                "error": run.error,
                "alarm_lines": run.alarm_lines,
                "phases": {
                    name: round(seconds, 6)
                    for name, seconds in run.phases.items()
                },
            }
        programs.append(
            {
                "program": result.program.name,
                "category": result.program.category,
                "real_error_lines": result.real_error_lines,
                "truth_truncated": result.truth_truncated,
                "engines": engines,
            }
        )
    return {"kind": "precision", "programs": programs}


# -- interpreted-vs-compiled comparison (the PR's perf experiment) ---------------


@dataclass
class ComparisonRow:
    """One suite program timed under both evaluation paths."""

    program: str
    engine: str
    #: steady-state per-certification seconds (mean over ``reps``,
    #: after one warm-up run per path — the staged scenario where one
    #: session certifies many clients)
    optimized_seconds: float
    interpreted_seconds: float
    #: first-certification seconds (cold caches in both paths)
    cold_optimized_seconds: float
    cold_interpreted_seconds: float
    alarms_equal: bool
    alarm_lines: List[int]
    optimized_stats: Dict[str, object] = field(default_factory=dict)
    interpreted_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        if self.optimized_seconds <= 0:
            return float("inf")
        return self.interpreted_seconds / self.optimized_seconds

    @property
    def cold_speedup(self) -> float:
        if self.cold_optimized_seconds <= 0:
            return float("inf")
        return self.cold_interpreted_seconds / self.cold_optimized_seconds


@dataclass
class ComparisonResult:
    engine: str
    reps: int
    rows: List[ComparisonRow]

    @property
    def total_optimized(self) -> float:
        return sum(r.optimized_seconds for r in self.rows)

    @property
    def total_interpreted(self) -> float:
        return sum(r.interpreted_seconds for r in self.rows)

    @property
    def speedup(self) -> float:
        if self.total_optimized <= 0:
            return float("inf")
        return self.total_interpreted / self.total_optimized

    @property
    def cold_speedup(self) -> float:
        cold_opt = sum(r.cold_optimized_seconds for r in self.rows)
        if cold_opt <= 0:
            return float("inf")
        return sum(r.cold_interpreted_seconds for r in self.rows) / cold_opt

    @property
    def alarms_equal(self) -> bool:
        return all(r.alarms_equal for r in self.rows)

    def to_json(self) -> dict:
        return {
            "kind": "comparison",
            "engine": self.engine,
            "reps": self.reps,
            "optimized": {
                "worklist": "rpo",
                "compiled_eval": True,
                "memoize_transfers": True,
            },
            "interpreted": {
                "worklist": "fifo",
                "compiled_eval": False,
                "memoize_transfers": False,
            },
            "rows": [
                {
                    "program": r.program,
                    "optimized_seconds": round(r.optimized_seconds, 6),
                    "interpreted_seconds": round(r.interpreted_seconds, 6),
                    "cold_optimized_seconds": round(
                        r.cold_optimized_seconds, 6
                    ),
                    "cold_interpreted_seconds": round(
                        r.cold_interpreted_seconds, 6
                    ),
                    "speedup": round(r.speedup, 3),
                    "cold_speedup": round(r.cold_speedup, 3),
                    "alarms_equal": r.alarms_equal,
                    "alarm_lines": r.alarm_lines,
                    "optimized_stats": r.optimized_stats,
                    "interpreted_stats": r.interpreted_stats,
                }
                for r in self.rows
            ],
            "total_optimized_seconds": round(self.total_optimized, 6),
            "total_interpreted_seconds": round(self.total_interpreted, 6),
            "speedup": round(self.speedup, 3),
            "cold_speedup": round(self.cold_speedup, 3),
            "alarms_equal": self.alarms_equal,
        }

    def format(self) -> str:
        lines = [
            f"{'program':26s} {'interp':>9s} {'compiled':>9s} "
            f"{'speedup':>8s} {'cold':>7s} {'alarms':>7s}",
        ]
        lines.append("-" * len(lines[0]))
        for r in sorted(
            self.rows, key=lambda r: -r.interpreted_seconds
        ):
            lines.append(
                f"{r.program:26s} {r.interpreted_seconds * 1e3:8.2f}ms "
                f"{r.optimized_seconds * 1e3:8.2f}ms "
                f"x{r.speedup:7.2f} x{r.cold_speedup:6.2f} "
                f"{'equal' if r.alarms_equal else 'DIFFER':>7s}"
            )
        lines.append("-" * len(lines[0]))
        lines.append(
            f"{'TOTAL':26s} {self.total_interpreted * 1e3:8.2f}ms "
            f"{self.total_optimized * 1e3:8.2f}ms "
            f"x{self.speedup:7.2f} x{self.cold_speedup:6.2f} "
            f"{'equal' if self.alarms_equal else 'DIFFER':>7s}"
        )
        return "\n".join(lines)


def _alarm_signature(report) -> List[Tuple]:
    return sorted(
        (a.site_id, a.op_key, a.instance, a.definite)
        for a in report.alarms
    )


def run_comparison(
    spec: Optional[ComponentSpec] = None,
    engine: str = "tvla-relational",
    programs: Optional[Sequence[BenchmarkProgram]] = None,
    reps: int = 5,
    options: Optional[CertifyOptions] = None,
) -> ComparisonResult:
    """Time every suite program under the optimized and the interpreted
    path **in the same run** and check their alarm sets coincide.

    The optimized path is the default configuration (reverse-postorder
    worklist, compiled formula evaluation, transfer memoization); the
    interpreted path is the seed behaviour (FIFO worklist, recursive
    interpreter, no memoization).  Each path runs in its own session:
    the first certification is reported as the *cold* time, the mean of
    the following ``reps`` certifications as the steady-state time.
    """
    spec = spec or cmp_spec()
    base = options or CertifyOptions()
    optimized = CertifySession(spec, engine=engine, options=base)
    interpreted = CertifySession(
        spec,
        engine=engine,
        options=replace(
            base,
            worklist="fifo",
            compiled_eval=False,
            memoize_transfers=False,
        ),
    )
    rows: List[ComparisonRow] = []
    for bench in programs if programs is not None else all_programs():
        program = parse_program(bench.source, spec)
        # warm the per-session derive/inline/specialize caches so the
        # cold times isolate the engine, not the (identical) front half
        for session in (optimized, interpreted):
            abstraction = session.abstraction()
            inlined = session._inline(program)
            if engine.startswith("tvla-"):
                session._specialize_tvp(inlined, abstraction)
        started = time.perf_counter()
        opt_report = optimized.certify_program(program)
        cold_opt = time.perf_counter() - started
        started = time.perf_counter()
        int_report = interpreted.certify_program(program)
        cold_int = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(reps):
            opt_report = optimized.certify_program(program)
        warm_opt = (time.perf_counter() - started) / max(reps, 1)
        started = time.perf_counter()
        for _ in range(reps):
            int_report = interpreted.certify_program(program)
        warm_int = (time.perf_counter() - started) / max(reps, 1)
        rows.append(
            ComparisonRow(
                program=bench.name,
                engine=engine,
                optimized_seconds=warm_opt,
                interpreted_seconds=warm_int,
                cold_optimized_seconds=cold_opt,
                cold_interpreted_seconds=cold_int,
                alarms_equal=(
                    _alarm_signature(opt_report)
                    == _alarm_signature(int_report)
                ),
                alarm_lines=sorted(opt_report.alarm_lines()),
                optimized_stats=dict(opt_report.stats),
                interpreted_stats=dict(int_report.stats),
            )
        )
    return ComparisonResult(engine=engine, reps=reps, rows=rows)


# -- packed-kernel comparison (the E13 perf experiment) --------------------------
#
# Three protocols, because "how much faster is packed?" has three honest
# answers depending on what a deployment amortizes:
#
# * **cold** — first certification in a fresh session (front-half caches
#   warmed so the number isolates the engine, matching ``run_comparison``;
#   specialization precompiles packed formulas only, so the dict
#   reference compiles its own on its first run).
# * **steady** — fresh-engine steady state: the per-session engine cache
#   is dropped before every run, so each rep rebuilds the fixpoint from
#   scratch over warm compiled formulas.  This is the state-kernel-bound
#   protocol: every copy / transfer / canonicalize / key executes.
# * **warm** — engine-reuse replay (the BENCH_pr2 "optimized" protocol):
#   the transfer memo replays recorded outputs, so the run is bound by
#   memo probes, not by the state representation.  Packed helps here only
#   through cheaper key hashing; the protocol exists to show that floor.


@dataclass
class PackedComparisonRow:
    """One loop-heavy synthetic client under both state representations."""

    program: str
    params: Tuple[int, int, int, int]
    dict_cold_seconds: float
    packed_cold_seconds: float
    dict_steady_seconds: float
    packed_steady_seconds: float
    dict_warm_seconds: float
    packed_warm_seconds: float
    alarms_equal: bool
    certificates_identical: bool
    alarm_lines: List[int] = field(default_factory=list)

    def _ratio(self, dict_s: float, packed_s: float) -> float:
        if packed_s <= 0:
            return float("inf")
        return dict_s / packed_s

    @property
    def steady_speedup(self) -> float:
        return self._ratio(
            self.dict_steady_seconds, self.packed_steady_seconds
        )

    @property
    def cold_speedup(self) -> float:
        return self._ratio(self.dict_cold_seconds, self.packed_cold_seconds)

    @property
    def warm_speedup(self) -> float:
        return self._ratio(self.dict_warm_seconds, self.packed_warm_seconds)

    def to_json(self) -> dict:
        return {
            "family": "end_to_end",
            "program": self.program,
            "params": list(self.params),
            "dict_cold_seconds": round(self.dict_cold_seconds, 6),
            "packed_cold_seconds": round(self.packed_cold_seconds, 6),
            "dict_steady_seconds": round(self.dict_steady_seconds, 6),
            "packed_steady_seconds": round(self.packed_steady_seconds, 6),
            "dict_warm_seconds": round(self.dict_warm_seconds, 6),
            "packed_warm_seconds": round(self.packed_warm_seconds, 6),
            "steady_speedup": round(self.steady_speedup, 3),
            "cold_speedup": round(self.cold_speedup, 3),
            "warm_speedup": round(self.warm_speedup, 3),
            "alarms_equal": self.alarms_equal,
            "certificates_identical": self.certificates_identical,
            "alarm_lines": self.alarm_lines,
        }


@dataclass
class KernelOpRow:
    """One state-kernel operation microbenchmarked on engine-visited
    structures (captured from the named program's own fixpoint run, so
    the operand distribution is the real workload, not a synthetic one).

    ``alarms_equal`` is inherited from the end-to-end run of the same
    program: the operands come from runs whose alarm sets were verified
    equal across representations.
    """

    program: str
    op: str
    dict_microseconds: float
    packed_microseconds: float
    alarms_equal: bool

    @property
    def speedup(self) -> float:
        if self.packed_microseconds <= 0:
            return float("inf")
        return self.dict_microseconds / self.packed_microseconds

    def to_json(self) -> dict:
        return {
            "family": "kernel_op",
            "program": self.program,
            "op": self.op,
            "dict_microseconds": round(self.dict_microseconds, 3),
            "packed_microseconds": round(self.packed_microseconds, 3),
            "speedup": round(self.speedup, 3),
            "alarms_equal": self.alarms_equal,
        }


@dataclass
class PackedComparisonResult:
    reps: int
    rows: List[PackedComparisonRow]
    kernel_ops: List[KernelOpRow] = field(default_factory=list)
    checker: Dict[str, object] = field(default_factory=dict)
    batch: Dict[str, object] = field(default_factory=dict)
    vs_bench_pr2: Dict[str, object] = field(default_factory=dict)

    @property
    def steady_speedup(self) -> float:
        """Aggregate end-to-end steady-state speedup (total over rows)."""
        packed = sum(r.packed_steady_seconds for r in self.rows)
        if packed <= 0:
            return float("inf")
        return sum(r.dict_steady_seconds for r in self.rows) / packed

    @property
    def kernel_speedup(self) -> float:
        """Best state-kernel-operation speedup (the ≥10x headline)."""
        if not self.kernel_ops:
            return 0.0
        return max(op.speedup for op in self.kernel_ops)

    @property
    def alarms_equal(self) -> bool:
        rows_ok = all(r.alarms_equal for r in self.rows)
        kernel_ok = all(op.alarms_equal for op in self.kernel_ops)
        batch_ok = bool(self.batch.get("alarms_equal", True))
        checker_ok = bool(self.checker.get("alarms_equal", True))
        return rows_ok and kernel_ok and batch_ok and checker_ok

    @property
    def certificates_identical(self) -> bool:
        return all(r.certificates_identical for r in self.rows)

    def to_json(self) -> dict:
        return {
            "kind": "packed-comparison",
            "reps": self.reps,
            "baseline": {
                "packed": False,
                "worklist": "rpo",
                "compiled_eval": True,
                "memoize_transfers": True,
            },
            "candidate": {"packed": True},
            "protocols": {
                "cold": "first certification, front-half caches warm",
                "steady": "fresh engine per rep (session engine cache "
                "dropped), warm compiled formulas; min over reps",
                "warm": "engine reuse, transfer-memo replay; min over "
                "reps (the BENCH_pr2 optimized protocol)",
                "kernel_op": "microseconds per operation on structures "
                "captured from the program's own fixpoint run",
            },
            "rows": [r.to_json() for r in self.rows]
            + [op.to_json() for op in self.kernel_ops]
            + ([self.checker] if self.checker else [])
            + ([self.batch] if self.batch else []),
            "vs_bench_pr2": self.vs_bench_pr2,
            "steady_speedup": round(self.steady_speedup, 3),
            "kernel_speedup": round(self.kernel_speedup, 3),
            "alarms_equal": self.alarms_equal,
            "certificates_identical": self.certificates_identical,
        }

    def format(self) -> str:
        lines = [
            f"{'program':28s} {'dict':>9s} {'packed':>9s} "
            f"{'steady':>7s} {'cold':>6s} {'warm':>6s} {'alarms':>7s} "
            f"{'certs':>6s}",
        ]
        lines.append("-" * len(lines[0]))
        for r in self.rows:
            lines.append(
                f"{r.program:28s} {r.dict_steady_seconds * 1e3:8.2f}ms "
                f"{r.packed_steady_seconds * 1e3:8.2f}ms "
                f"x{r.steady_speedup:6.2f} x{r.cold_speedup:5.2f} "
                f"x{r.warm_speedup:5.2f} "
                f"{'equal' if r.alarms_equal else 'DIFFER':>7s} "
                f"{'same' if r.certificates_identical else 'DIFF':>6s}"
            )
        for op in self.kernel_ops:
            lines.append(
                f"{op.program + ':' + op.op:28s} "
                f"{op.dict_microseconds:7.2f}us "
                f"{op.packed_microseconds:7.2f}us "
                f"x{op.speedup:6.2f}"
            )
        if self.checker:
            lines.append(
                f"{'checker (replay)':28s} "
                f"{float(self.checker['dict_seconds']) * 1e3:8.2f}ms "
                f"{float(self.checker['packed_seconds']) * 1e3:8.2f}ms "
                f"x{float(self.checker['speedup']):6.2f}"
            )
        if self.batch:
            workers = self.batch["workers_seconds"]
            pairs = " ".join(
                f"{w}w={float(s):.2f}s" for w, s in sorted(workers.items())
            )
            lines.append(
                f"{'batch scaling':28s} {pairs}  "
                f"x{float(self.batch['scaling']):.2f} "
                f"({self.batch['jobs']} jobs)"
            )
        lines.append("-" * len(lines[0]))
        lines.append(
            f"steady-state speedup x{self.steady_speedup:.2f}   "
            f"kernel-op speedup x{self.kernel_speedup:.2f}   "
            f"alarms {'equal' if self.alarms_equal else 'DIFFER'}   "
            f"certificates "
            f"{'identical' if self.certificates_identical else 'DIFFER'}"
        )
        return "\n".join(lines)


class DictReferenceSession(CertifySession):
    """A session whose TVLA engines run the dict reference
    representation (``TvlaEngine(packed=False)``) in place of the packed
    kernel: the other side of every packed-vs-dict equality check.
    Everything else — parsing, derivation, specialization, emission —
    is the production session's."""

    def artifacts(self, program, engine, source_key=None):
        arts = super().artifacts(program, engine, source_key)
        packed = arts.get("engine_obj")
        if packed is not None:
            arts["engine_obj"] = _identity_memo(
                self._engine_by_obj,
                packed,
                "dict-reference",
                lambda: TvlaEngine(
                    packed.tvp,
                    mode=packed.mode,
                    prune_requires=packed.prune_requires,
                    worklist=packed.worklist_order,
                    memoize_transfers=packed.memoize_transfers,
                    packed=False,
                ),
            )
        return arts


class DictReferenceChecker(CertificateChecker):
    """A checker that replays TVLA certificates on the dict reference:
    pools decode through the reference codec and transfers run on
    :class:`DictReferenceSession` engines."""

    session_type = DictReferenceSession
    decode_structure = staticmethod(model.structure_from_json)


def _packed_sessions(spec, options):
    base = options or CertifyOptions()
    dict_session = DictReferenceSession(
        spec, engine="tvla-relational", options=base
    )
    packed_session = CertifySession(
        spec, engine="tvla-relational", options=base
    )
    return dict_session, packed_session


def _warm_front_half(session: CertifySession, program: Program) -> None:
    abstraction = session.abstraction()
    inlined = session._inline(program)
    session._specialize_tvp(inlined, abstraction)


def _time_steady(
    session: CertifySession, program: Program, reps: int, fresh: bool
):
    """Min-over-reps certification time; ``fresh`` drops the engine
    cache before each rep so the fixpoint fully re-executes."""
    best = float("inf")
    report = None
    for _ in range(max(1, reps)):
        if fresh:
            session._engine_by_obj.clear()
        started = time.perf_counter()
        report = session.certify_program(program)
        best = min(best, time.perf_counter() - started)
    return best, report


def _certificate_text(session_type, spec, source: str) -> str:
    session = session_type(
        spec,
        engine="tvla-relational",
        options=CertifyOptions(emit_certificate=True),
    )
    report = session.certify(source)
    return report.certificate.text()


def _capture_structures(session_type, spec, source: str, limit: int = 200):
    """Engine-visited structures (post-transfer outputs) plus the
    abstraction predicates, for the kernel-op microbenchmarks."""
    session = session_type(spec, engine="tvla-relational")
    program = parse_program(source, spec)
    engine = session.artifacts(program, "tvla-relational")["engine_obj"]
    structures: list = []
    original = engine.apply

    def wrapped(structure, action, alarms):
        outs = original(structure, action, alarms)
        if len(structures) < limit:
            structures.extend(outs[: limit - len(structures)])
        return outs

    engine.apply = wrapped
    try:
        engine.run()
    finally:
        engine.apply = original
    return structures, engine.abstraction_preds


def _time_op(fn, reps: int = 2000) -> float:
    fn()  # warm-up
    started = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - started) / reps * 1e6


def _kernel_op_rows(
    spec, program_name: str, source: str, alarms_equal: bool
) -> List[KernelOpRow]:
    from repro.logic.kleene import HALF

    rows: List[KernelOpRow] = []
    dict_structs, preds = _capture_structures(DictReferenceSession, spec, source)
    packed_structs, _ = _capture_structures(CertifySession, spec, source)
    if not dict_structs or not packed_structs:
        return rows

    def cycler(items):
        index = [0]

        def advance():
            value = items[index[0]]
            index[0] = (index[0] + 1) % len(items)
            return value

        return advance

    next_dict = cycler(dict_structs)
    next_packed = cycler(packed_structs)
    rows.append(
        KernelOpRow(
            program=program_name,
            op="copy",
            dict_microseconds=_time_op(lambda: next_dict().copy()),
            packed_microseconds=_time_op(lambda: next_packed().copy()),
            alarms_equal=alarms_equal,
        )
    )

    def canonical(advance):
        def run():
            working = advance().copy()
            working.dirty()
            result = working.canonicalize(preds)
            result._ckey_cache = {}
            return result.canonical_key(preds)

        return run

    rows.append(
        KernelOpRow(
            program=program_name,
            op="canonicalize+key",
            dict_microseconds=_time_op(canonical(next_dict), reps=500),
            packed_microseconds=_time_op(canonical(next_packed), reps=500),
            alarms_equal=alarms_equal,
        )
    )

    pred = preds[0] if preds else None
    if pred is not None:

        def transfer(advance):
            def run():
                working = advance().copy()
                if working.nodes:
                    working.set(pred, (working.nodes[0],), HALF)
                result = working.canonicalize(preds)
                return result.canonical_key(preds)

            return run

        rows.append(
            KernelOpRow(
                program=program_name,
                op="copy+set+canonicalize+key",
                dict_microseconds=_time_op(transfer(next_dict), reps=500),
                packed_microseconds=_time_op(
                    transfer(next_packed), reps=500
                ),
                alarms_equal=alarms_equal,
            )
        )
    return rows


def _checker_row(spec, program_name: str, source: str) -> Dict[str, object]:
    """Time certificate replay over the same certificate with both
    structure representations (the production checker and the dict
    reference checker).  The verdict must be identical — packed only
    changes replay speed — so ``alarms_equal`` here records
    cross-acceptance: the packed-emitted certificate checks clean under
    both replays."""
    text = _certificate_text(CertifySession, spec, source)
    import json as _json

    payload = _json.loads(text)
    timings: Dict[bool, float] = {}
    verdicts: Dict[bool, bool] = {}
    for packed in (False, True):
        checker = CertificateChecker() if packed else DictReferenceChecker()
        checker.check(payload, spec=spec)  # warm the checker's caches
        started = time.perf_counter()
        result = checker.check(payload, spec=spec)
        timings[packed] = time.perf_counter() - started
        verdicts[packed] = result.ok
    speedup = (
        timings[False] / timings[True] if timings[True] > 0 else float("inf")
    )
    return {
        "family": "checker",
        "program": program_name,
        "dict_seconds": round(timings[False], 6),
        "packed_seconds": round(timings[True], 6),
        "speedup": round(speedup, 3),
        "dict_accepts": verdicts[False],
        "packed_accepts": verdicts[True],
        "alarms_equal": verdicts[False] and verdicts[True],
    }


def _batch_row(
    spec_name: str,
    sources: List[Tuple[str, str]],
    workers: Sequence[int],
) -> Dict[str, object]:
    """Wall-clock the same packed job list under each worker count and
    record the parallel scaling plus cross-worker-count alarm equality."""
    from repro.runtime.batch import BatchRunner, JobSpec

    jobs = [
        JobSpec(
            name=name,
            spec=spec_name,
            source=source,
            engine="tvla-relational",
        )
        for name, source in sources
    ]
    seconds: Dict[str, float] = {}
    alarm_sets: Dict[str, List] = {}
    for count in workers:
        runner = BatchRunner(jobs, max_workers=count)
        started = time.perf_counter()
        result = runner.run()
        seconds[str(count)] = time.perf_counter() - started
        alarm_sets[str(count)] = sorted(
            (job.job.name, tuple(sorted(job.alarm_lines or [])))
            for job in result.results
        )
    counts = [str(c) for c in workers]
    scaling = (
        seconds[counts[0]] / seconds[counts[-1]]
        if seconds[counts[-1]] > 0
        else float("inf")
    )
    alarms_equal = all(
        alarm_sets[c] == alarm_sets[counts[0]] for c in counts
    )
    import os as _os

    host_cpus = len(_os.sched_getaffinity(0)) if hasattr(
        _os, "sched_getaffinity"
    ) else (_os.cpu_count() or 1)
    return {
        "family": "multiprocess",
        "jobs": len(jobs),
        "workers_seconds": {
            c: round(s, 6) for c, s in seconds.items()
        },
        "scaling": round(scaling, 3),
        # parallel speedup is bounded by min(workers, host_cpus); a
        # 1-CPU container measures pool overhead, not parallelism, so
        # readers (and CI) must interpret ``scaling`` against this
        "host_cpus": host_cpus,
        "alarms_equal": alarms_equal,
    }


def _vs_bench_pr2(spec, reps: int) -> Dict[str, object]:
    """Current packed steady-state vs the committed BENCH_pr2 optimized
    numbers on the loop-heavy suite programs, when the file is present."""
    import json as _json
    import os as _os

    path = _os.path.join(_os.path.dirname(_os.path.dirname(
        _os.path.dirname(_os.path.dirname(_os.path.abspath(__file__))))),
        "BENCH_pr2.json")
    if not _os.path.exists(path):
        return {}
    with open(path) as handle:
        committed = _json.load(handle)
    by_name = {row["program"]: row for row in committed.get("rows", [])}
    picks = [n for n in ("holders_loop", "interleaved_loops") if n in by_name]
    if not picks:
        return {}
    programs = {p.name: p for p in all_programs() if p.name in picks}
    _, packed_session = _packed_sessions(spec, None)
    rows = []
    for name in picks:
        bench = programs.get(name)
        if bench is None:
            continue
        program = parse_program(bench.source, spec)
        _warm_front_half(packed_session, program)
        packed_session.certify_program(program)  # cold
        warm, _ = _time_steady(packed_session, program, reps, fresh=False)
        committed_seconds = float(by_name[name]["optimized_seconds"])
        rows.append(
            {
                "program": name,
                "bench_pr2_optimized_seconds": committed_seconds,
                "packed_warm_seconds": round(warm, 6),
                "speedup_vs_committed": round(
                    committed_seconds / warm if warm > 0 else float("inf"),
                    3,
                ),
            }
        )
    return {"protocol": "engine-reuse warm replay", "rows": rows}


def run_packed_comparison(
    spec: Optional[ComponentSpec] = None,
    sizes: Sequence[Tuple[int, int, int, int]] = (
        (3, 3, 2, 3),
        (4, 4, 2, 4),
        (4, 4, 3, 4),
    ),
    reps: int = 3,
    options: Optional[CertifyOptions] = None,
    batch_workers: Sequence[int] = (1, 4),
    batch_copies: int = 2,
    spec_name: str = "cmp",
) -> PackedComparisonResult:
    """The E13 experiment: dict-of-tuples vs the packed bitset kernel.

    For each loop-heavy synthetic size: cold / fresh-engine steady /
    warm-replay timings under both representations, alarm-set equality,
    and certificate byte-identity.  The largest size additionally feeds
    the kernel-op microbenchmarks and the checker-replay comparison,
    and the full size list (times ``batch_copies``) is the multiprocess
    batch-scaling workload.
    """
    from repro.bench.synthetic import make_heap_client

    spec = spec or cmp_spec()
    rows: List[PackedComparisonRow] = []
    sources: List[Tuple[str, str]] = []
    for params in sizes:
        num_sets, num_fields, num_loops, reads = params
        name = (
            f"heap_client_{num_sets}x{num_fields}x{num_loops}x{reads}"
        )
        source = make_heap_client(num_sets, num_fields, num_loops, reads)
        sources.append((name, source))
        program = parse_program(source, spec)
        dict_session, packed_session = _packed_sessions(spec, options)
        for session in (dict_session, packed_session):
            _warm_front_half(session, program)
        started = time.perf_counter()
        dict_report = dict_session.certify_program(program)
        dict_cold = time.perf_counter() - started
        started = time.perf_counter()
        packed_report = packed_session.certify_program(program)
        packed_cold = time.perf_counter() - started
        dict_steady, dict_report = _time_steady(
            dict_session, program, reps, fresh=True
        )
        packed_steady, packed_report = _time_steady(
            packed_session, program, reps, fresh=True
        )
        dict_warm, _ = _time_steady(
            dict_session, program, reps, fresh=False
        )
        packed_warm, _ = _time_steady(
            packed_session, program, reps, fresh=False
        )
        alarms_equal = _alarm_signature(dict_report) == _alarm_signature(
            packed_report
        )
        certs_identical = _certificate_text(
            DictReferenceSession, spec, source
        ) == _certificate_text(CertifySession, spec, source)
        rows.append(
            PackedComparisonRow(
                program=name,
                params=params,
                dict_cold_seconds=dict_cold,
                packed_cold_seconds=packed_cold,
                dict_steady_seconds=dict_steady,
                packed_steady_seconds=packed_steady,
                dict_warm_seconds=dict_warm,
                packed_warm_seconds=packed_warm,
                alarms_equal=alarms_equal,
                certificates_identical=certs_identical,
                alarm_lines=sorted(dict_report.alarm_lines()),
            )
        )
    largest_name, largest_source = sources[-1]
    kernel_ops = _kernel_op_rows(
        spec, largest_name, largest_source, rows[-1].alarms_equal
    )
    checker = _checker_row(spec, largest_name, largest_source)
    batch_sources = [
        (f"{name}#{copy}", source)
        for copy in range(max(1, batch_copies))
        for name, source in sources
    ]
    batch = _batch_row(spec_name, batch_sources, batch_workers)
    return PackedComparisonResult(
        reps=reps,
        rows=rows,
        kernel_ops=kernel_ops,
        checker=checker,
        batch=batch,
        vs_bench_pr2=_vs_bench_pr2(spec, reps),
    )


def format_phase_table(results: List[ProgramResult]) -> str:
    """Render summed per-phase seconds per engine (the E2 time view).

    The rows come from the trace events collected by :func:`run_engine`,
    so this is the same data the batch runtime exports as JSONL.
    """
    engines: List[str] = []
    for result in results:
        for engine in result.runs:
            if engine not in engines:
                engines.append(engine)
    phases: List[str] = []
    totals: Dict[str, Dict[str, float]] = {e: {} for e in engines}
    for result in results:
        for engine, run in result.runs.items():
            for phase_name, seconds in run.phases.items():
                if phase_name not in phases:
                    phases.append(phase_name)
                bucket = totals[engine]
                bucket[phase_name] = bucket.get(phase_name, 0.0) + seconds
    header = f"{'engine':>20s}"
    for phase_name in phases:
        header += f" | {phase_name:>10s}"
    lines = [header, "-" * len(header)]
    for engine in engines:
        row = f"{engine:>20s}"
        for phase_name in phases:
            seconds = totals[engine].get(phase_name)
            cell = f"{seconds:.3f}s" if seconds is not None else "—"
            row += f" | {cell:>10s}"
        lines.append(row)
    return "\n".join(lines)


def format_table(results: List[ProgramResult]) -> str:
    """Render the precision table as aligned text."""
    engines: List[str] = []
    for result in results:
        for engine in result.runs:
            if engine not in engines:
                engines.append(engine)
    lines = []
    header = f"{'program':26s} {'errors':>6s}"
    for engine in engines:
        header += f" | {engine:>18s}"
    lines.append(header)
    lines.append("-" * len(header))
    totals: Dict[str, List[int]] = {e: [0, 0, 0] for e in engines}
    for result in results:
        row = (
            f"{result.program.name:26s} "
            f"{len(result.real_error_lines):>6d}"
        )
        for engine in engines:
            run = result.runs.get(engine)
            if run is None:
                row += f" | {'—':>18s}"
                continue
            if run.error is not None:
                row += f" | {'ERR':>18s}"
                continue
            mark = "" if run.sound else " UNSOUND"
            cell = f"a={run.alarms} fa={run.false_alarms}{mark}"
            row += f" | {cell:>18s}"
            totals[engine][0] += run.alarms
            totals[engine][1] += run.false_alarms
            totals[engine][2] += run.missed
        lines.append(row)
    lines.append("-" * len(header))
    total_row = f"{'TOTAL':26s} {sum(len(r.real_error_lines) for r in results):>6d}"
    for engine in engines:
        alarms, false_alarms, missed = totals[engine]
        cell = f"a={alarms} fa={false_alarms}"
        if missed:
            cell += f" MISS={missed}"
        total_row += f" | {cell:>18s}"
    lines.append(total_row)
    return "\n".join(lines)
