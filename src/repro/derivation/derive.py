"""The abstraction-derivation fixpoint (Section 4.1, Rules 1–3).

The procedure iteratively performs a symbolic backward weakest-precondition
computation over every component operation:

* **Rule 1** — for every ``requires φ`` clause, ``¬φ`` is a candidate
  instrumentation formula (these also become the operation's *checks*).
* **Rule 2** — a candidate formula is split into its DNF disjuncts, each a
  candidate instrumentation predicate.  Splitting is what later allows an
  efficient independent-attribute client analysis to match the precision
  of a relational one (Section 4.6); the ``split_disjuncts=False`` ablation
  shows the procedure diverging on CMP without it.
* **Rule 3** — for every candidate predicate ``φ`` and operation ``M``,
  ``WP(M, φ)`` is a candidate instrumentation formula.

Each weakest precondition is minimized under the operation's precondition
(the ``requires`` clauses hold on any execution that survives the call) by
the :mod:`repro.logic.decision` procedures, then each disjunct is matched
against the already-derived families up to variable renaming.  Unmatched
disjuncts found new families; matched ones become the operands of the
update formula ``p0 := p1 ∨ … ∨ pk`` (Section 4.2).

The expensive symbolic work here happens once per *specification*, not per
client — the staging argument of Section 1.3.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.derivation.predicates import (
    ArgRef,
    DerivedAbstraction,
    Family,
    GenArg,
    InstanceRef,
    OpArg,
    OperationAbstraction,
    UpdateCase,
)
from repro.easl.spec import ComponentSpec, Operation
from repro.easl.wp import operation_preconditions, wp_operation
from repro.logic.decision import AliasSolver
from repro.logic.formula import (
    FALSE,
    TRUE,
    EqAtom,
    Formula,
    disj,
    map_atoms,
    neg,
)
from repro.logic.normal import absorb, to_dnf
from repro.logic.terms import Base, Field, Term, root
from repro.runtime.trace import phase as trace_phase


@dataclass
class DerivationStats:
    """Bookkeeping reported by Table E5 of the evaluation."""

    spec_name: str = ""
    families: int = 0
    iterations: int = 0
    wp_calls: int = 0
    equivalence_checks: int = 0
    sat_queries: int = 0
    sat_memo_hits: int = 0
    update_cases: int = 0
    identity_cases: int = 0
    check_instances: int = 0
    elapsed_seconds: float = 0.0
    decision: str = "semantic"
    minimized: bool = True
    split: bool = True


class DerivationDiverged(Exception):
    """The fixpoint exceeded the family budget (Section 4.5 notes that
    termination is not guaranteed in general)."""

    def __init__(self, message: str, partial: Optional[List[Family]] = None):
        super().__init__(message)
        self.partial = partial or []


# -- free-variable utilities ---------------------------------------------------


def free_bases(formula: Formula) -> List[Base]:
    """The :class:`Base` roots occurring in a formula, sorted canonically."""
    found: Set[Base] = set()

    def collect(atom: Formula) -> Formula:
        if isinstance(atom, EqAtom):
            for term in (atom.lhs, atom.rhs):
                base = root(term)
                if isinstance(base, Base) and base.name != "null":
                    found.add(base)
        return atom

    map_atoms(formula, collect)
    return sorted(found, key=lambda b: (b.sort or "", b.name))


def rename_bases(formula: Formula, mapping: Dict[Base, Base]) -> Formula:
    def sub(term: Term) -> Term:
        if isinstance(term, Field):
            return Field(sub(term.base), term.field)
        if isinstance(term, Base) and term in mapping:
            return mapping[term]
        return term

    from repro.logic.formula import eq as make_eq

    def rewrite(atom: Formula) -> Formula:
        if isinstance(atom, EqAtom):
            return make_eq(sub(atom.lhs), sub(atom.rhs))
        return atom

    return map_atoms(formula, rewrite)


def _canonical_dnf_key(formula: Formula) -> frozenset:
    """A syntactic canonical form: the set of sorted-literal disjuncts."""
    return frozenset(
        frozenset(str(lit) for lit in _literals(d)) for d in to_dnf(formula)
    )


def _literals(disjunct: Formula):
    from repro.logic.normal import conjunct_literals

    return conjunct_literals(disjunct)


# -- pattern enumeration --------------------------------------------------------


def _set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of ``items`` into non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        yield [[first]] + [list(block) for block in partition]
        for index in range(len(partition)):
            updated = [list(block) for block in partition]
            updated[index] = [first] + updated[index]
            yield updated


def enumerate_patterns(
    family: Family, op: Operation, spec: ComponentSpec
) -> Iterator[Tuple[Tuple[ArgRef, ...], Dict[Base, ArgRef], Dict[int, Base]]]:
    """All coincidence patterns of ``family`` against ``op``.

    Yields ``(pattern, base_to_ref, slot_to_base)``: the pattern (one
    :class:`ArgRef` per family position), the instantiation of each family
    variable as a :class:`Base` constant, and the generic-slot bases.
    """
    operands = [
        operand
        for operand in op.component_operands(spec)
    ]
    positions = list(range(family.arity))
    sorts = family.sorts
    for partition in _set_partitions(positions):
        partition = sorted(partition, key=min)
        if any(
            len({sorts[p] for p in block}) > 1 for block in partition
        ):
            continue
        yield from _assign_blocks(
            family, partition, operands, sorts
        )


def _assign_blocks(family, partition, operands, sorts):
    def recurse(index: int, used: Set[str], assignment: List[Optional[str]]):
        if index == len(partition):
            yield _build_pattern(family, partition, assignment, sorts)
            return
        block_sort = sorts[partition[index][0]]
        # option: leave the block generic
        assignment.append(None)
        yield from recurse(index + 1, used, assignment)
        assignment.pop()
        # option: bind the block to an unused, type-compatible operand
        for operand in operands:
            if operand.name in used or operand.type != block_sort:
                continue
            assignment.append(operand.name)
            yield from recurse(index + 1, used | {operand.name}, assignment)
            assignment.pop()

    yield from recurse(0, set(), [])


def _build_pattern(family, partition, assignment, sorts):
    refs: List[Optional[ArgRef]] = [None] * family.arity
    bases: List[Optional[Base]] = [None] * family.arity
    slot_to_base: Dict[int, Base] = {}
    next_slot = 0
    # blocks already sorted by min position, so slots number left-to-right
    for block, operand_name in zip(partition, assignment):
        block_sort = sorts[block[0]]
        if operand_name is not None:
            ref: ArgRef = OpArg(operand_name)
            base = Base(operand_name, block_sort)
        else:
            ref = GenArg(next_slot)
            base = Base(f"z{next_slot}", block_sort)
            slot_to_base[next_slot] = base
            next_slot += 1
        for position in block:
            refs[position] = ref
            bases[position] = base
    base_to_ref: Dict[Base, ArgRef] = {}
    for ref, base in zip(refs, bases):
        assert ref is not None and base is not None
        base_to_ref[base] = ref
    pattern = tuple(refs)  # type: ignore[arg-type]
    instance_bases = {
        var: base for var, base in zip(family.vars, bases)
    }
    return pattern, instance_bases, base_to_ref, slot_to_base


# -- the derivation engine --------------------------------------------------------


class _Deriver:
    def __init__(
        self,
        spec: ComponentSpec,
        decision: str,
        minimize: bool,
        split: bool,
        max_families: int,
    ) -> None:
        self.spec = spec
        self.decision = decision
        self.minimize = minimize
        self.split = split
        self.max_families = max_families
        self.families: List[Family] = []
        self.queue: List[Family] = []
        self.stats = DerivationStats(
            spec_name=spec.name,
            decision=decision,
            minimized=minimize,
            split=split,
        )
        self.operations: Dict[str, OperationAbstraction] = {
            op.key: OperationAbstraction(op) for op in spec.operations()
        }
        self._ops = spec.operations()
        self.solver = AliasSolver()

    # -- family management ---------------------------------------------------

    def _equivalent(self, lhs: Formula, rhs: Formula) -> bool:
        self.stats.equivalence_checks += 1
        if self.decision == "syntactic":
            return _canonical_dnf_key(lhs) == _canonical_dnf_key(rhs)
        return self.solver.equivalent(lhs, rhs)

    def match(self, disjunct: Formula) -> Optional[Tuple[Family, Tuple[Base, ...]]]:
        bases = free_bases(disjunct)
        base_set = set(bases)
        for family in self.families:
            if family.arity < len(base_set):
                continue
            for args in itertools.product(bases, repeat=family.arity):
                if set(args) != base_set:
                    continue
                if tuple(a.sort for a in args) != family.sorts:
                    continue
                renamed = rename_bases(
                    family.formula, dict(zip(family.vars, args))
                )
                if self._equivalent(disjunct, renamed):
                    return family, args
        return None

    def match_or_create(
        self, disjunct: Formula
    ) -> Tuple[Family, Tuple[Base, ...]]:
        matched = self.match(disjunct)
        if matched is not None:
            return matched
        bases = tuple(free_bases(disjunct))
        canonical_vars = tuple(
            Base(f"x{i}", b.sort) for i, b in enumerate(bases)
        )
        formula = rename_bases(disjunct, dict(zip(bases, canonical_vars)))
        family = Family(f"P{len(self.families)}", canonical_vars, formula)
        if len(self.families) >= self.max_families:
            raise DerivationDiverged(
                f"derivation for {self.spec.name} exceeded "
                f"{self.max_families} families (Section 4.5: termination "
                f"is not guaranteed in general)",
                partial=list(self.families),
            )
        self.families.append(family)
        self.queue.append(family)
        return family, bases

    # -- Rule 1 seeding --------------------------------------------------------

    def seed(self) -> None:
        for op in self._ops:
            op_abs = self.operations[op.key]
            for precondition in operation_preconditions(self.spec, op):
                violation = neg(precondition)
                disjuncts = self._candidate_disjuncts(violation, TRUE)
                for disjunct in disjuncts:
                    if disjunct is TRUE or disjunct is FALSE:
                        continue
                    family, args = self.match_or_create(disjunct)
                    refs = tuple(OpArg(base.name) for base in args)
                    instance = InstanceRef(family.name, refs)
                    if instance not in op_abs.checks:
                        op_abs.checks.append(instance)
                        self.stats.check_instances += 1

    def _candidate_disjuncts(
        self, formula: Formula, assumption: Formula
    ) -> List[Formula]:
        if self.minimize:
            disjuncts = self.solver.normalize_to_minimal_dnf(
                formula, assumption
            )
        else:
            disjuncts = absorb(to_dnf(formula))
        if not self.split and len(disjuncts) > 1:
            return [disj(*disjuncts)]
        return disjuncts

    # -- Rule 3 closure ----------------------------------------------------------

    def close(self) -> None:
        while self.queue:
            family = self.queue.pop(0)
            self.stats.iterations += 1
            for op in self._ops:
                self._process(family, op)

    def _process(self, family: Family, op: Operation) -> None:
        op_abs = self.operations[op.key]
        for pattern, instance_bases, base_to_ref, slot_to_base in (
            enumerate_patterns(family, op, self.spec)
        ):
            target_formula = rename_bases(family.formula, instance_bases)
            result = wp_operation(self.spec, op, target_formula)
            self.stats.wp_calls += 1
            assumption = result.assumption if self.minimize else TRUE
            disjuncts = self._candidate_disjuncts(result.wp, assumption)
            rhs_refs: List[InstanceRef] = []
            rhs_true = False
            for disjunct in disjuncts:
                if disjunct is TRUE:
                    rhs_true = True
                    continue
                matched_family, args = self.match_or_create(disjunct)
                refs = tuple(
                    self._base_ref(base, base_to_ref) for base in args
                )
                ref = InstanceRef(matched_family.name, refs)
                if ref not in rhs_refs:
                    rhs_refs.append(ref)
            case = UpdateCase(
                InstanceRef(family.name, pattern), tuple(rhs_refs), rhs_true
            )
            op_abs.add_case(case)
            self.stats.update_cases += 1
            if case.identity:
                self.stats.identity_cases += 1

    def _base_ref(self, base: Base, base_to_ref: Dict[Base, ArgRef]) -> ArgRef:
        if base in base_to_ref:
            return base_to_ref[base]
        # A base not bound by the target pattern must be an operand
        # placeholder introduced by the WP (e.g. `this` in Fig. 5's
        # stale_k := stale_k ∨ iterof_{k,v}).
        return OpArg(base.name)


def derive(
    spec: ComponentSpec,
    *,
    decision: str = "semantic",
    minimize: bool = True,
    split_disjuncts: bool = True,
    max_families: int = 64,
    identity_families: bool = False,
) -> DerivedAbstraction:
    """Derive the specialized abstraction of a component specification.

    Parameters
    ----------
    spec:
        The parsed Easl specification.
    decision:
        ``"semantic"`` uses the EUF decision procedure for predicate
        equivalence; ``"syntactic"`` uses canonical-DNF comparison (the
        paper's "simple conservative equality checks", Section 4.5).
    minimize:
        Minimize each weakest precondition under the operation's
        ``requires`` assumptions before splitting.
    split_disjuncts:
        Rule 2.  Disabling it tracks whole candidate formulas as single
        predicates — the A1 ablation (derivation typically diverges).
    max_families:
        Budget after which :class:`DerivationDiverged` is raised.
    identity_families:
        Additionally seed an identity predicate ``x == y`` for every
        component type.  The intraprocedural certifier never needs these,
        but the Section 8 interprocedural certifier uses them to relate
        post-call values of reassignable variables to their entry values;
        the closure rules then derive their updates like any other family.
    """
    if decision not in ("semantic", "syntactic"):
        raise ValueError(f"unknown decision procedure {decision!r}")
    with trace_phase(
        "derive", spec=spec.name, identity_families=identity_families
    ) as trace_meta:
        started = time.perf_counter()
        deriver = _Deriver(
            spec, decision, minimize, split_disjuncts, max_families
        )
        deriver.seed()
        if identity_families:
            from repro.logic.formula import eq as make_eq

            for class_name in spec.classes:
                lhs = Base("x0", class_name)
                rhs = Base("x1", class_name)
                deriver.match_or_create(make_eq(lhs, rhs))
        deriver.close()
        deriver.stats.families = len(deriver.families)
        deriver.stats.sat_queries = deriver.solver.queries
        deriver.stats.sat_memo_hits = deriver.solver.memo_hits
        deriver.stats.elapsed_seconds = time.perf_counter() - started
        trace_meta.update(
            families=deriver.stats.families,
            iterations=deriver.stats.iterations,
            wp_calls=deriver.stats.wp_calls,
            equivalence_checks=deriver.stats.equivalence_checks,
            sat_queries=deriver.stats.sat_queries,
            sat_memo_hits=deriver.stats.sat_memo_hits,
        )
    return DerivedAbstraction(
        spec, deriver.families, deriver.operations, deriver.stats
    )
