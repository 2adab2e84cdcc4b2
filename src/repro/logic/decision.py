"""Decision procedures for the access-path alias logic.

The derivation stage (Section 4.1) needs to decide, at certifier-generation
time, questions like "is this weakest-precondition disjunct equivalent to an
already-derived instrumentation predicate?" and "can this literal be dropped
under the method's precondition?".  The paper notes that simple syntactic
checks suffice for termination on examples like CMP, but that *more powerful
decision procedures reduce the number of generated predicates* (Section
4.5).  Both are provided here:

* :func:`satisfiable` / :func:`entails` / :func:`equivalent` — a small
  DPLL(T) search over the equality atoms of the query.  Each node picks
  one atom, substitutes a truth value for it, and adds the matching
  literal to a :class:`~repro.logic.congruence.CongruenceClosure` (EUF +
  fresh-token distinctness) that is carried down the branch: the first
  branch extends a copy, the second extends the node's own closure.  A
  literal is therefore asserted once per node, the closure reports a
  clash as soon as the literal that causes it is added, and the branch is
  cut there.  Exponential in the atom count of the *query*, which is tiny
  and paid only at certifier-generation time — exactly the staging
  argument of Section 1.3.
* :class:`AliasSolver` — the same procedures with a satisfiability memo
  keyed on the query formula.  A derivation owns one solver for its whole
  run; the module-level functions use a fresh solver per call.
* :func:`minimize_disjunct` / :func:`minimize_dnf` — greedy semantic
  minimization of a DNF under an assumption (the method precondition),
  which is what collapses the exact WP of ``Iterator.remove()`` to the
  paper's ``stale ∨ mutx`` form.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.logic.congruence import CongruenceClosure
from repro.logic.formula import (
    FALSE,
    TRUE,
    EqAtom,
    Formula,
    Truth,
    atoms,
    conj,
    disj,
    neg,
    substitute_atom,
)
from repro.logic.normal import conjunct_literals, to_dnf


def _sat(formula: Formula, closure: CongruenceClosure) -> bool:
    """DPLL over the equality atoms of ``formula`` under ``closure``.

    ``closure`` holds the literals decided on the way down and is
    consistent on entry.  The first branch works on a copy; the last one
    may extend ``closure`` in place because no sibling needs it afterwards.
    """
    if formula is FALSE:
        return False
    if formula is TRUE:
        return True
    atom = _pick_atom(formula)
    if atom is None:
        # No equality atoms left but formula is not a constant: it contains
        # PredAtoms, which are uninterpreted here — treat each consistently.
        return _sat_propositional(formula)
    branch = closure.copy()
    branch.add_equal(atom.lhs, atom.rhs)
    if branch.is_consistent() and _sat(
        substitute_atom(formula, atom, True), branch
    ):
        return True
    closure.add_unequal(atom.lhs, atom.rhs)
    return closure.is_consistent() and _sat(
        substitute_atom(formula, atom, False), closure
    )


def _pick_atom(formula: Formula) -> Optional[EqAtom]:
    for atom in atoms(formula):
        if isinstance(atom, EqAtom):
            return atom
    return None


def _sat_propositional(formula: Formula) -> bool:
    """Pure propositional satisfiability over the remaining PredAtoms."""
    if isinstance(formula, Truth):
        return formula.value
    remaining = list(atoms(formula))
    if not remaining:
        return formula is TRUE
    atom = remaining[0]
    return _sat_propositional(
        substitute_atom(formula, atom, True)
    ) or _sat_propositional(substitute_atom(formula, atom, False))


class AliasSolver:
    """Decision procedures over the alias theory with a satisfiability memo.

    One solver serves one client — :func:`repro.derivation.derive` makes one
    per derivation — and remembers the verdict of every formula it has
    decided.  Derivation asks the same question many times (the same
    candidate is minimized under the same precondition for every matching
    pattern), so most queries are memo hits.  The memo lives and dies with
    the solver: nothing is shared between derivations or processes.
    """

    def __init__(self) -> None:
        self._memo: Dict[Formula, bool] = {}
        #: satisfiability questions asked, memo hits included
        self.queries = 0
        #: questions answered from the memo
        self.memo_hits = 0

    def satisfiable(self, formula: Formula) -> bool:
        """Satisfiability over the access-path alias theory."""
        self.queries += 1
        known = self._memo.get(formula)
        if known is not None:
            self.memo_hits += 1
            return known
        result = _sat(formula, CongruenceClosure())
        self._memo[formula] = result
        return result

    def entails(self, antecedent: Formula, consequent: Formula) -> bool:
        """``antecedent ⊨ consequent`` over the alias theory."""
        return not self.satisfiable(conj(antecedent, neg(consequent)))

    def equivalent(self, lhs: Formula, rhs: Formula) -> bool:
        """Logical equivalence over the alias theory."""
        return self.entails(lhs, rhs) and self.entails(rhs, lhs)

    def valid(self, formula: Formula) -> bool:
        """Validity over the alias theory."""
        return not self.satisfiable(neg(formula))

    def minimize_disjunct(
        self, disjunct: Formula, whole: Formula, assumption: Formula = TRUE
    ) -> Formula:
        """Greedily drop literals from one DNF disjunct.

        A literal ``l`` of ``disjunct`` can be dropped when the weakened
        disjunct stays within the original formula under the assumption::

            assumption ∧ (disjunct − l)  ⊨  whole

        This preserves ``whole``'s meaning under ``assumption`` while
        producing the weakest (hence most reusable) candidate predicates.
        For ``Iterator.remove()`` it is what reduces the exact weakest
        precondition of ``stale(i)`` to ``stale(i) ∨ mutx(i, j)`` under the
        precondition ``¬stale(j)`` (see Section 4.1, Step 3).
        """
        literals = conjunct_literals(disjunct)
        changed = True
        while changed:
            changed = False
            for index in range(len(literals)):
                candidate = literals[:index] + literals[index + 1 :]
                weakened = conj(*candidate) if candidate else TRUE
                if self.entails(conj(assumption, weakened), whole):
                    literals = candidate
                    changed = True
                    break
        return conj(*literals) if literals else TRUE

    def minimize_dnf(
        self, disjuncts: List[Formula], assumption: Formula = TRUE
    ) -> List[Formula]:
        """Minimize a whole DNF under an assumption.

        Drops disjuncts unsatisfiable with the assumption, minimizes each
        remaining disjunct with :meth:`minimize_disjunct`, and finally
        removes disjuncts entailed (under the assumption) by the
        disjunction of the others.
        """
        whole = disj(*disjuncts)
        live = [d for d in disjuncts if self.satisfiable(conj(assumption, d))]
        minimized: List[Formula] = []
        seen = set()
        for disjunct in live:
            reduced = self.minimize_disjunct(disjunct, whole, assumption)
            if reduced not in seen:
                seen.add(reduced)
                minimized.append(reduced)
        if any(d is TRUE for d in minimized):
            return [TRUE]
        result: List[Formula] = []
        for index, disjunct in enumerate(minimized):
            others = result + minimized[index + 1 :]
            if others and self.entails(
                conj(assumption, disjunct), disj(*others)
            ):
                continue
            result.append(disjunct)
        return result

    def normalize_to_minimal_dnf(
        self, formula: Formula, assumption: Formula = TRUE
    ) -> List[Formula]:
        """DNF + minimization in one step; the derivation-stage workhorse."""
        return self.minimize_dnf(to_dnf(formula), assumption)


# ---------------------------------------------------------------------------
# One-shot entry points: each call gets its own solver, so no state is kept
# between calls.
# ---------------------------------------------------------------------------


def satisfiable(formula: Formula) -> bool:
    """Satisfiability over the access-path alias theory."""
    return AliasSolver().satisfiable(formula)


def entails(antecedent: Formula, consequent: Formula) -> bool:
    """``antecedent ⊨ consequent`` over the alias theory."""
    return AliasSolver().entails(antecedent, consequent)


def equivalent(lhs: Formula, rhs: Formula) -> bool:
    """Logical equivalence over the alias theory."""
    return AliasSolver().equivalent(lhs, rhs)


def valid(formula: Formula) -> bool:
    """Validity over the alias theory."""
    return AliasSolver().valid(formula)


def minimize_disjunct(
    disjunct: Formula, whole: Formula, assumption: Formula = TRUE
) -> Formula:
    """See :meth:`AliasSolver.minimize_disjunct`."""
    return AliasSolver().minimize_disjunct(disjunct, whole, assumption)


def minimize_dnf(
    disjuncts: List[Formula], assumption: Formula = TRUE
) -> List[Formula]:
    """See :meth:`AliasSolver.minimize_dnf`."""
    return AliasSolver().minimize_dnf(disjuncts, assumption)


def normalize_to_minimal_dnf(
    formula: Formula, assumption: Formula = TRUE
) -> List[Formula]:
    """See :meth:`AliasSolver.normalize_to_minimal_dnf`."""
    return AliasSolver().normalize_to_minimal_dnf(formula, assumption)
