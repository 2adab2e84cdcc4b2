"""Ground terms of the access-path logic.

The abstraction-derivation stage of the paper (Section 4.1) manipulates
formulae such as ``i.defVer != i.set.ver`` whose atoms compare *access
paths*: a root variable followed by a sequence of field selections.  During
the backward weakest-precondition computation, ``new`` expressions introduce
*fresh allocation tokens*, which are known to be distinct from every
pre-state value.

Terms are immutable and hashable (see :class:`Node`), so they can be used as
dictionary keys by the congruence-closure engine.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import total_ordering
from typing import Any, Iterator, Optional, Tuple, Union


class Node:
    """Immutable tree node with value semantics and a cached hash.

    Terms and formulas are hashed over and over during derivation (every
    ``conj``/``disj`` deduplicates through a set, every congruence-closure
    lookup is a dict probe), so each node computes its structural hash
    once, when it is built, and keeps it in a slot; unequal hashes also
    settle most equality tests at once.  Equality, ordering, ``repr`` and
    the hash value itself are those of the frozen dataclass a node would
    otherwise be: ``hash(astuple(node))``.  A subclass lists its fields in
    ``__slots__`` and sets them and ``_hash`` in ``__init__``.

    The cached hash is a property of one process (``str`` hashes depend on
    ``PYTHONHASHSEED``), so pickling reduces a node to its constructor
    arguments and the unpickling process recomputes it.
    """

    __slots__ = ("_hash",)

    def _astuple(self) -> Tuple[Any, ...]:
        raise NotImplementedError

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self._astuple() == other._astuple()  # type: ignore[attr-defined]
        )

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{self.__class__.__qualname__}({fields})"


@total_ordering
class _OrderedNode(Node):
    """A :class:`Node` ordered by its fields, like ``dataclass(order=True)``."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() < other._astuple()  # type: ignore[attr-defined]


_set = object.__setattr__


class Base(_OrderedNode):
    """A named constant: a specification free variable (``i``, ``v``), a
    client variable, a method parameter, or the distinguished ``null``.

    ``sort`` optionally records the declared type of the variable (e.g.
    ``"Iterator"``); it is used when enumerating variable renamings during
    predicate-family matching.
    """

    __slots__ = ("name", "sort")

    def __init__(self, name: str, sort: Optional[str] = None) -> None:
        _set(self, "name", name)
        _set(self, "sort", sort)
        _set(self, "_hash", hash((name, sort)))

    def _astuple(self) -> Tuple[Any, ...]:
        return (self.name, self.sort)

    def __str__(self) -> str:
        return self.name


class Fresh(_OrderedNode):
    """A fresh allocation token introduced by a ``new`` expression.

    A fresh token denotes an object allocated during the operation whose
    weakest precondition is being computed.  It is therefore distinct from
    every pre-state value (any :class:`Base`-rooted path) and from every
    *other* fresh token.

    ``label`` uniquely identifies the allocation occurrence; ``sort`` is the
    allocated class name.
    """

    __slots__ = ("label", "sort")

    def __init__(self, label: str, sort: Optional[str] = None) -> None:
        _set(self, "label", label)
        _set(self, "sort", sort)
        _set(self, "_hash", hash((label, sort)))

    def _astuple(self) -> Tuple[Any, ...]:
        return (self.label, self.sort)

    def __str__(self) -> str:
        return f"ν<{self.label}>"


class Field(_OrderedNode):
    """A field selection ``base.field``."""

    __slots__ = ("base", "field")

    def __init__(self, base: "Term", field: str) -> None:
        _set(self, "base", base)
        _set(self, "field", field)
        _set(self, "_hash", hash((base, field)))

    def _astuple(self) -> Tuple[Any, ...]:
        return (self.base, self.field)

    def __str__(self) -> str:
        return f"{self.base}.{self.field}"


Term = Union[Base, Fresh, Field]

NULL = Base("null")


def root(term: Term) -> Union[Base, Fresh]:
    """Return the root constant of an access path."""
    while isinstance(term, Field):
        term = term.base
    return term


def fields_of(term: Term) -> Tuple[str, ...]:
    """Return the field sequence of ``term``, outermost last.

    >>> fields_of(Field(Field(Base("i"), "set"), "ver"))
    ('set', 'ver')
    """
    fields = []
    while isinstance(term, Field):
        fields.append(term.field)
        term = term.base
    return tuple(reversed(fields))


def make_path(base: Union[Base, Fresh], fields: Tuple[str, ...]) -> Term:
    """Build an access path from a root and a field sequence."""
    term: Term = base
    for field in fields:
        term = Field(term, field)
    return term


def depth(term: Term) -> int:
    """Number of field selections in ``term``."""
    count = 0
    while isinstance(term, Field):
        count += 1
        term = term.base
    return count


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its prefixes, innermost first."""
    prefixes = []
    while True:
        prefixes.append(term)
        if not isinstance(term, Field):
            break
        term = term.base
    yield from reversed(prefixes)


def rename_roots(term: Term, mapping: dict) -> Term:
    """Replace root :class:`Base` constants of ``term`` per ``mapping``.

    ``mapping`` maps :class:`Base` instances to arbitrary terms, so this
    doubles as the substitution used for parameter binding during method
    inlining.
    """
    if isinstance(term, Field):
        return Field(rename_roots(term.base, mapping), term.field)
    if isinstance(term, Base) and term in mapping:
        return mapping[term]
    return term


def is_prestate(term: Term) -> bool:
    """True if ``term`` denotes a pre-state value (no fresh token root)."""
    return isinstance(root(term), Base)
