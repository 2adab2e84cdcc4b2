"""Value semantics of terms and formulas, and their cached hashes.

Terms and formulas cache their structural hash.  String hashes differ
between processes with different ``PYTHONHASHSEED`` values, so a cached
hash must never travel inside a pickle: a spawned batch worker that
received one would fail to find an equal term in its own sets and dicts.
"""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import repro
from repro.logic.formula import (
    FALSE,
    TRUE,
    And,
    EqAtom,
    Exists,
    Not,
    PredAtom,
    conj,
    eq,
    neg,
)
from repro.logic.terms import Base, Field, Fresh

_I = Base("i", "Iterator")
_V = Base("v", "Set")


class TestValueSemantics:
    def test_hash_is_the_hash_of_the_fields(self):
        term = Field(_I, "set")
        assert hash(_I) == hash(("i", "Iterator"))
        assert hash(term) == hash((_I, "set"))
        atom = EqAtom(term, _V)
        assert hash(atom) == hash((term, _V))
        assert hash(Not(atom)) == hash((atom,))
        assert hash(PredAtom("p", ("x",))) == hash(("p", ("x",)))

    def test_equality_is_structural_and_per_class(self):
        assert Field(Base("i", "Iterator"), "set") == Field(_I, "set")
        assert Field(_I, "set") != Field(_I, "ver")
        assert Base("n") != Fresh("n")
        assert eq(_I, _V) == eq(Base("v", "Set"), Base("i", "Iterator"))
        assert And((TRUE, FALSE)) != And((FALSE, TRUE))

    def test_terms_are_ordered_within_a_class(self):
        assert sorted([Base("b"), Base("a")]) == [Base("a"), Base("b")]
        assert Field(Base("a"), "f") < Field(Base("a"), "g")
        with pytest.raises(TypeError):
            Base("a") < Fresh("a")

    def test_repr_names_the_fields(self):
        assert repr(_I) == "Base(name='i', sort='Iterator')"
        assert repr(Field(_I, "set")) == (
            "Field(base=Base(name='i', sort='Iterator'), field='set')"
        )
        assert repr(Exists("x", TRUE)) == (
            "Exists(var='x', body=Truth(value=True))"
        )

    def test_nodes_are_frozen_and_have_no_dict(self):
        term = Field(_I, "set")
        with pytest.raises(FrozenInstanceError):
            term.field = "ver"
        with pytest.raises(FrozenInstanceError):
            eq(term, _V).lhs = _I
        assert not hasattr(term, "__dict__")
        assert not hasattr(eq(term, _V), "__dict__")

    def test_pickle_carries_no_cached_hash(self):
        formula = conj(eq(Field(_I, "set"), _V), neg(eq(Fresh("n"), _V)))
        hash(formula)
        assert pickle.loads(pickle.dumps(formula)) == formula
        assert formula.__reduce__() == (And, (formula.args,))


_WRITER = """
import pickle, sys
from repro.cert.model import abstraction_hash
from repro.derivation import derive
from repro.easl.library import get_spec
from repro.logic.formula import conj, eq, neg
from repro.logic.terms import Base, Field, Fresh

term = Field(Base("i", "Iterator"), "set")
formula = conj(eq(term, Base("v", "Set")), neg(eq(Fresh("n", "Set"), term)))
abstraction = derive(get_spec("cmp"))
# fill every cache before pickling
{term, formula}
{family.formula for family in abstraction.families}
payload = (term, formula, abstraction, abstraction_hash(abstraction))
sys.stdout.buffer.write(pickle.dumps(payload))
"""

_READER = """
import json, pickle, sys
from repro.cert.model import abstraction_hash
from repro.derivation import derive
from repro.easl.library import get_spec
from repro.logic.formula import conj, eq, neg
from repro.logic.terms import Base, Field, Fresh

term, formula, abstraction, digest = pickle.loads(sys.stdin.buffer.read())
local_term = Field(Base("i", "Iterator"), "set")
local_formula = conj(
    eq(local_term, Base("v", "Set")), neg(eq(Fresh("n", "Set"), local_term))
)
local = derive(get_spec("cmp"))
local_families = {family.formula for family in local.families}
print(json.dumps({
    "term in set": term in {local_term} and local_term in {term},
    "term as dict key": {local_term: 1}.get(term) == 1,
    "formula in set": formula in {local_formula} and local_formula in {formula},
    "formula as dict key": {formula: 1}.get(local_formula) == 1,
    "families in set": all(
        family.formula in local_families for family in abstraction.families
    ),
    "abstraction_hash": abstraction_hash(abstraction) == digest
        == abstraction_hash(local),
}))
"""


def _run(script, seed, stdin=None):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
    result = subprocess.run(
        [sys.executable, "-c", script],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=120,
        check=True,
    )
    return result.stdout


def test_pickles_cross_a_hash_seed_boundary():
    blob = _run(_WRITER, 1)
    checks = json.loads(_run(_READER, 12345, stdin=blob))
    assert checks == {name: True for name in checks}
    assert len(checks) == 6
