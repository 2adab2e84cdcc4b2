"""Property-based tests on the logic substrate (hypothesis).

Random quantifier-free formulas over a small set of access-path atoms are
checked for: NNF/DNF meaning preservation, decision-procedure agreement
with brute-force enumeration of concrete interpretations, and
minimization soundness.  The interpretations are built independently of
the decision procedure, so they check it rather than restate it.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.logic.decision import equivalent, minimize_dnf, satisfiable
from repro.logic.formula import (
    FALSE,
    TRUE,
    Formula,
    conj,
    disj,
    eq,
    neg,
)
from repro.logic.normal import to_dnf, to_nnf
from repro.logic.terms import Base, Field, Fresh

# a tiny vocabulary: two variables, one fresh token, one field, and a
# two-field path, so both congruence and the fresh-token axioms matter
_A = Base("a", "T")
_B = Base("b", "T")
_NU = Fresh("n", "T")
_AF = Field(_A, "f")
_ATOMS = [
    eq(_A, _B),
    eq(_AF, Field(_B, "f")),
    eq(_AF, _B),
    eq(Field(_AF, "f"), _B),
    eq(_NU, _AF),
    eq(Field(_NU, "f"), _A),
]


def _formulas(depth: int = 3) -> st.SearchStrategy:
    leaves = st.sampled_from(_ATOMS + [TRUE, FALSE])
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.builds(lambda x: neg(x), children),
            st.builds(lambda x, y: conj(x, y), children, children),
            st.builds(lambda x, y: disj(x, y), children, children),
        ),
        max_leaves=8,
    )


def _value(term, a, b, fresh, f):
    if isinstance(term, Field):
        return f[_value(term.base, a, b, fresh, f)]
    if isinstance(term, Fresh):
        return fresh
    return {"a": a, "b": b}[term.name]


def _models():
    """The atom valuations of every concrete EUF interpretation.

    The pre-state domain has 1 to 3 elements; ``a`` and ``b`` denote
    pre-state elements.  The fresh token denotes one more element of its
    own, so it differs from every pre-state value.  The field ``f`` is a
    total function: on pre-state elements it yields pre-state elements (a
    field of a pre-state object is a pre-state value), and on the fresh
    element it yields anything.
    """
    models = set()
    for size in (1, 2, 3):
        fresh = size
        for a, b in itertools.product(range(size), repeat=2):
            for prestate_f in itertools.product(range(size), repeat=size):
                for fresh_f in range(size + 1):
                    f = prestate_f + (fresh_f,)
                    models.add(
                        tuple(
                            _value(atom.lhs, a, b, fresh, f)
                            == _value(atom.rhs, a, b, fresh, f)
                            for atom in _ATOMS
                        )
                    )
    return [dict(zip(_ATOMS, values)) for values in sorted(models)]


_MODELS = _models()


def test_models_exercise_every_atom():
    # the fresh token never equals a pre-state path; every other atom
    # is both true and false in some interpretation
    for atom in _ATOMS:
        values = {model[atom] for model in _MODELS}
        assert values == ({False} if atom == eq(_NU, _AF) else {True, False})


def _eval(formula: Formula, model) -> bool:
    from repro.logic.formula import And, EqAtom, Not, Or, Truth

    if isinstance(formula, Truth):
        return formula.value
    if isinstance(formula, EqAtom):
        return model[formula]
    if isinstance(formula, Not):
        return not _eval(formula.body, model)
    if isinstance(formula, And):
        return all(_eval(x, model) for x in formula.args)
    if isinstance(formula, Or):
        return any(_eval(x, model) for x in formula.args)
    raise TypeError(formula)


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_nnf_preserves_meaning(formula):
    nnf = to_nnf(formula)
    for model in _MODELS:
        assert _eval(formula, model) == _eval(nnf, model)


@settings(max_examples=150, deadline=None)
@given(_formulas())
def test_dnf_preserves_meaning(formula):
    dnf = disj(*to_dnf(formula))
    for model in _MODELS:
        assert _eval(formula, model) == _eval(dnf, model)


@settings(max_examples=100, deadline=None)
@given(_formulas())
def test_satisfiable_agrees_with_model_enumeration(formula):
    brute = any(_eval(formula, model) for model in _MODELS)
    assert satisfiable(formula) == brute


def test_satisfiable_agrees_on_every_cube():
    # every conjunction of literals over the vocabulary, in both atom
    # orders, so congruence is exercised whichever side is asserted first
    for choice in itertools.product((None, True, False), repeat=len(_ATOMS)):
        literals = [
            atom if value else neg(atom)
            for atom, value in zip(_ATOMS, choice)
            if value is not None
        ]
        brute = any(
            all(
                model[atom] == value
                for atom, value in zip(_ATOMS, choice)
                if value is not None
            )
            for model in _MODELS
        )
        assert satisfiable(conj(*literals)) == brute, literals
        assert satisfiable(conj(*reversed(literals))) == brute, literals


@settings(max_examples=60, deadline=None)
@given(_formulas(), _formulas())
def test_equivalent_agrees_with_model_enumeration(left, right):
    brute = all(
        _eval(left, model) == _eval(right, model) for model in _MODELS
    )
    assert equivalent(left, right) == brute


@settings(max_examples=60, deadline=None)
@given(_formulas())
def test_minimize_dnf_preserves_meaning(formula):
    disjuncts = to_dnf(formula)
    minimized = disj(*minimize_dnf(list(disjuncts)))
    for model in _MODELS:
        assert _eval(formula, model) == _eval(minimized, model)
