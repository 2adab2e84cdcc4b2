"""Congruence closure for the ground access-path logic.

The theory is EUF restricted to constants (:class:`~repro.logic.terms.Base`
and :class:`~repro.logic.terms.Fresh`) and unary functions (field
selections), extended with the *fresh-token axioms*: a fresh allocation
token is distinct from every pre-state value (every ``Base``-rooted path)
and from every other fresh token.

The closure is incremental: every class keeps its fresh token, whether it
holds a pre-state value, its disequalities and the field terms over it, so
asserting a literal touches only the classes it merges and the consistency
verdict is always current.  :meth:`CongruenceClosure.copy` is cheap (a
handful of shallow dict copies over tens of terms), which is how the DPLL
search of :mod:`repro.logic.decision` carries one closure down each branch.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.logic.terms import Base, Field, Fresh, Term, root


class Inconsistent(Exception):
    """Raised when an asserted literal contradicts the current closure."""


class CongruenceClosure:
    """Incremental congruence closure over access-path terms.

    All per-class maps are keyed by the class representative and hold
    immutable values, so :meth:`copy` only copies the maps themselves.
    """

    __slots__ = (
        "_parent",
        "_uses",
        "_signatures",
        "_fresh",
        "_prestate",
        "_unequal",
        "_conflict",
    )

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}
        # field terms whose base lies in the class
        self._uses: Dict[Term, Tuple[Field, ...]] = {}
        # (base representative, field) -> one field term with that signature
        self._signatures: Dict[Tuple[Term, str], Field] = {}
        # the fresh token of a class, if it has one
        self._fresh: Dict[Term, Fresh] = {}
        # one pre-state member of a class, if it has any
        self._prestate: Dict[Term, Term] = {}
        # terms asserted unequal to some member of the class
        self._unequal: Dict[Term, Tuple[Term, ...]] = {}
        # the first contradiction found; the closure stays inconsistent
        self._conflict: Optional[str] = None

    def copy(self) -> "CongruenceClosure":
        """An independent closure with the same classes and literals."""
        other = CongruenceClosure.__new__(CongruenceClosure)
        other._parent = self._parent.copy()
        other._uses = self._uses.copy()
        other._signatures = self._signatures.copy()
        other._fresh = self._fresh.copy()
        other._prestate = self._prestate.copy()
        other._unequal = self._unequal.copy()
        other._conflict = self._conflict
        return other

    # -- union-find ---------------------------------------------------------

    def _rep(self, term: Term) -> Term:
        """Representative of an already-registered term."""
        parent = self._parent
        node = parent[term]
        top = parent[node]
        if top is node:
            return node
        while parent[top] is not top:
            top = parent[top]
        while node is not top:
            parent[node], node = top, parent[node]
        return top

    def _add(self, term: Term) -> Term:
        """Register ``term`` and its prefixes; return its representative."""
        if term in self._parent:
            return self._rep(term)
        base_rep = self._add(term.base) if isinstance(term, Field) else None
        self._parent[term] = term
        if isinstance(term, Fresh):
            self._fresh[term] = term
        elif isinstance(root(term), Base):
            self._prestate[term] = term
        if base_rep is not None:
            assert isinstance(term, Field)
            self._uses[base_rep] = self._uses.get(base_rep, ()) + (term,)
            key = (base_rep, term.field)
            existing = self._signatures.get(key)
            if existing is None:
                self._signatures[key] = term
            else:
                self._merge(term, existing)
        return self._rep(term)

    def _merge(self, lhs: Term, rhs: Term) -> None:
        """Union two registered terms and close under congruence."""
        pending = [(lhs, rhs)]
        while pending:
            a, b = pending.pop()
            ra, rb = self._rep(a), self._rep(b)
            if ra is rb:
                continue
            self._parent[ra] = rb
            self._join_axioms(ra, rb)
            self._join_unequal(ra, rb)
            moved = self._uses.pop(ra, ())
            if moved:
                for use in moved:
                    key = (rb, use.field)
                    existing = self._signatures.get(key)
                    if existing is None:
                        self._signatures[key] = use
                    else:
                        pending.append((use, existing))
                self._uses[rb] = self._uses.get(rb, ()) + moved

    def _join_axioms(self, ra: Term, rb: Term) -> None:
        """Move ``ra``'s fresh token and pre-state witness onto ``rb``."""
        fresh_a = self._fresh.pop(ra, None)
        fresh_b = self._fresh.get(rb)
        if fresh_a is not None:
            if fresh_b is not None:
                self._fail(
                    f"distinct fresh tokens identified: {{{fresh_a}, {fresh_b}}}"
                )
            else:
                self._fresh[rb] = fresh_b = fresh_a
        prestate_a = self._prestate.pop(ra, None)
        if prestate_a is not None and rb not in self._prestate:
            self._prestate[rb] = prestate_a
        if fresh_b is not None and rb in self._prestate:
            self._fail(
                f"fresh token {fresh_b} identified with pre-state "
                f"value {self._prestate[rb]}"
            )

    def _join_unequal(self, ra: Term, rb: Term) -> None:
        """Move ``ra``'s disequalities onto ``rb``; fail on a violated one.

        Disequalities are stored on both sides, so checking ``ra``'s
        partners against the merged class finds every violation.
        """
        moved = self._unequal.pop(ra, ())
        if not moved:
            return
        for term in moved:
            if self._rep(term) is rb:
                self._fail(f"{term} == {ra} contradicts {term} != {ra}")
        self._unequal[rb] = self._unequal.get(rb, ()) + moved

    def _fail(self, message: str) -> None:
        if self._conflict is None:
            self._conflict = message

    def find(self, term: Term) -> Term:
        return self._add(term)

    # -- public API ---------------------------------------------------------

    def add_equal(self, lhs: Term, rhs: Term) -> None:
        """Add ``lhs == rhs``; a clash shows in :meth:`is_consistent`."""
        self._add(lhs)
        self._add(rhs)
        self._merge(lhs, rhs)

    def add_unequal(self, lhs: Term, rhs: Term) -> None:
        """Add ``lhs != rhs``; a clash shows in :meth:`is_consistent`."""
        self._add(lhs)
        rhs_rep = self._add(rhs)
        lhs_rep = self._rep(lhs)
        if lhs_rep is rhs_rep:
            self._fail(f"{lhs} == {rhs} contradicts {lhs} != {rhs}")
        else:
            self._unequal[lhs_rep] = self._unequal.get(lhs_rep, ()) + (rhs,)
            self._unequal[rhs_rep] = self._unequal.get(rhs_rep, ()) + (lhs,)

    def assert_equal(self, lhs: Term, rhs: Term) -> None:
        """Assert ``lhs == rhs``; raises :class:`Inconsistent` on clash."""
        self.add_equal(lhs, rhs)
        self.check()

    def assert_unequal(self, lhs: Term, rhs: Term) -> None:
        """Assert ``lhs != rhs``; raises :class:`Inconsistent` on clash."""
        self.add_unequal(lhs, rhs)
        self.check()

    def are_equal(self, lhs: Term, rhs: Term) -> bool:
        """True if the closure entails ``lhs == rhs``."""
        # register both terms first: adding the second may trigger a
        # congruence union that changes the first's representative
        self._add(lhs)
        self._add(rhs)
        return self._rep(lhs) is self._rep(rhs)

    def classes(self) -> Dict[Term, Set[Term]]:
        """The current partition, keyed by representative."""
        partition: Dict[Term, Set[Term]] = {}
        for term in list(self._parent):
            partition.setdefault(self._rep(term), set()).add(term)
        return partition

    def check(self) -> None:
        """Raise :class:`Inconsistent` if the closure violates a
        disequality or a fresh-token axiom."""
        if self._conflict is not None:
            raise Inconsistent(self._conflict)

    def is_consistent(self) -> bool:
        return self._conflict is None


def closure_of(
    equalities: Iterable[Tuple[Term, Term]],
    disequalities: Iterable[Tuple[Term, Term]] = (),
) -> CongruenceClosure:
    """Build a closure from literal lists; raises on inconsistency."""
    cc = CongruenceClosure()
    for lhs, rhs in equalities:
        cc.assert_equal(lhs, rhs)
    for lhs, rhs in disequalities:
        cc.assert_unequal(lhs, rhs)
    return cc
