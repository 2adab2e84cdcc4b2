"""Tests for the abstraction-derivation fixpoint (Sections 4.1/4.2).

The CMP tests pin the paper's Fig. 4 (predicate families) and Fig. 5
(method abstractions) exactly; the other specifications check convergence
and Section 2.2 coverage.
"""

import pytest

from repro.cert.model import abstraction_hash
from repro.derivation import (
    DerivationDiverged,
    GenArg,
    InstanceRef,
    OpArg,
    derive,
)
from repro.derivation.predicates import instance_pattern
from repro.easl.library import (
    aop_spec,
    available_specs,
    get_spec,
    grp_spec,
    imp_spec,
)
from repro.runtime.trace import CollectingTracer, use_tracer


def _is_identity(family):
    from repro.logic.formula import EqAtom
    from repro.logic.terms import Base

    return (
        isinstance(family.formula, EqAtom)
        and isinstance(family.formula.lhs, Base)
        and isinstance(family.formula.rhs, Base)
    )


def named(abstraction):
    """Map pretty names back to families."""
    names = abstraction.pretty_names()
    return {names[f.name]: f for f in abstraction.families}


class TestCmpFamilies:
    def test_exactly_four_families(self, cmp_abstraction):
        assert len(cmp_abstraction.families) == 4

    def test_fig4_shapes_found(self, cmp_abstraction):
        assert set(named(cmp_abstraction)) == {
            "stale",
            "iterof",
            "mutx",
            "same",
        }

    def test_family_sorts(self, cmp_abstraction):
        families = named(cmp_abstraction)
        assert families["stale"].sorts == ("Iterator",)
        assert families["iterof"].sorts == ("Iterator", "Set")
        assert families["mutx"].sorts == ("Iterator", "Iterator")
        assert families["same"].sorts == ("Set", "Set")

    def test_derivation_converges_quickly(self, cmp_abstraction):
        stats = cmp_abstraction.stats
        assert stats.iterations == 4  # one pass per family
        assert stats.families == 4


class TestCmpMethodAbstractions:
    def _case(self, abstraction, op_key, family_alias, pattern):
        families = named(abstraction)
        family = families[family_alias]
        op_abs = abstraction.operations[op_key]
        case = op_abs.case_for(family.name, pattern)
        assert case is not None, f"no case for {pattern}"
        return case, families

    def test_add_updates_stale_with_iterof(self, cmp_abstraction):
        case, families = self._case(
            cmp_abstraction, "Set.add", "stale", (GenArg(0),)
        )
        refs = set(case.rhs_instances)
        assert InstanceRef(
            families["stale"].name, (GenArg(0),)
        ) in refs
        assert InstanceRef(
            families["iterof"].name, (GenArg(0), OpArg("this"))
        ) in refs
        assert not case.rhs_true

    def test_iterator_resets_stale_of_result(self, cmp_abstraction):
        case, _ = self._case(
            cmp_abstraction, "Set.iterator", "stale", (OpArg("ret"),)
        )
        assert case.is_constant_false

    def test_iterator_sets_iterof_from_same(self, cmp_abstraction):
        case, families = self._case(
            cmp_abstraction, "Set.iterator", "iterof",
            (OpArg("ret"), GenArg(0)),
        )
        assert case.rhs_instances == (
            InstanceRef(families["same"].name, (OpArg("this"), GenArg(0))),
        )

    def test_iterator_mutx_self_is_false(self, cmp_abstraction):
        case, _ = self._case(
            cmp_abstraction, "Set.iterator", "mutx",
            (OpArg("ret"), OpArg("ret")),
        )
        assert case.is_constant_false

    def test_remove_has_check(self, cmp_abstraction):
        families = named(cmp_abstraction)
        checks = cmp_abstraction.operations["Iterator.remove"].checks
        assert checks == [
            InstanceRef(families["stale"].name, (OpArg("this"),))
        ]

    def test_next_has_check_and_no_heap_effect_on_iterof(
        self, cmp_abstraction
    ):
        families = named(cmp_abstraction)
        op_abs = cmp_abstraction.operations["Iterator.next"]
        assert op_abs.checks
        case = op_abs.case_for(
            families["iterof"].name, (GenArg(0), GenArg(1))
        )
        assert case is not None and case.identity

    def test_copy_iterator_transfers_stale(self, cmp_abstraction):
        case, families = self._case(
            cmp_abstraction, "copy Iterator", "stale", (OpArg("dst"),)
        )
        assert case.rhs_instances == (
            InstanceRef(families["stale"].name, (OpArg("src"),)),
        )

    def test_new_set_clears_iterof(self, cmp_abstraction):
        case, _ = self._case(
            cmp_abstraction, "new Set", "iterof", (GenArg(0), OpArg("r"))
        )
        assert case.is_constant_false

    def test_new_set_reflexive_same_true(self, cmp_abstraction):
        case, _ = self._case(
            cmp_abstraction, "new Set", "same", (OpArg("r"), OpArg("r"))
        )
        assert case.rhs_true and not case.rhs_instances


class TestOtherSpecs:
    @pytest.mark.parametrize(
        "factory,max_expected",
        [(grp_spec, 6), (imp_spec, 8), (aop_spec, 6)],
    )
    def test_derivation_converges(self, factory, max_expected):
        abstraction = derive(factory())
        assert 1 <= len(abstraction.families) <= max_expected

    def test_grp_families_mirror_cmp_shapes(self):
        abstraction = derive(grp_spec())
        names = set(abstraction.pretty_names().values())
        assert "stale" in names  # the traversal-validity family

    def test_aop_checks_both_arguments(self):
        abstraction = derive(aop_spec())
        checks = abstraction.operations["Graph.addEdge"].checks
        assert len(checks) == 2
        argsets = {
            frozenset(a.name for a in c.args)  # type: ignore[union-attr]
            for c in checks
        }
        assert argsets == {
            frozenset({"a", "this"}),
            frozenset({"b", "this"}),
        }


class TestOptionsAndAblations:
    def test_identity_families_added(self, cmp_abstraction_id):
        # identity per component class; Set identity (`same`) is already
        # one of the four Fig. 4 families, so two more appear
        assert len(cmp_abstraction_id.families) == 4 + 2
        sorts = {
            f.sorts
            for f in cmp_abstraction_id.families
            if _is_identity(f)
        }
        assert sorts == {
            ("Set", "Set"),
            ("Iterator", "Iterator"),
            ("Version", "Version"),
        }

    def test_syntactic_decision_still_converges_on_cmp(
        self, cmp_specification
    ):
        abstraction = derive(cmp_specification, decision="syntactic")
        # the paper: simple conservative checks suffice for CMP, but may
        # create more (equivalent) families than the semantic procedure
        assert len(abstraction.families) >= 4

    def test_rule2_splitting_disabled_diverges(self, cmp_specification):
        # A1 ablation: without Rule 2, candidate formulas are tracked
        # whole and the fixpoint blows through its family budget
        with pytest.raises(DerivationDiverged):
            derive(
                cmp_specification, split_disjuncts=False, max_families=24
            )

    def test_unknown_decision_rejected(self, cmp_specification):
        with pytest.raises(ValueError):
            derive(cmp_specification, decision="oracle")


class TestInstancePattern:
    def test_operand_coincidence_detected(self, cmp_specification):
        op = cmp_specification.operation("Set.iterator")
        pattern, slots = instance_pattern(
            op, cmp_specification, {"this": "v", "ret": "i"}, ["i", "i"]
        )
        assert pattern == (OpArg("ret"), OpArg("ret"))
        assert slots == {}

    def test_generic_slots_numbered_by_first_use(self, cmp_specification):
        op = cmp_specification.operation("Set.add")
        pattern, slots = instance_pattern(
            op, cmp_specification, {"this": "v"}, ["a", "b", "a"]
        )
        assert pattern == (GenArg(0), GenArg(1), GenArg(0))
        assert slots == {0: "a", 1: "b"}


# (spec, identity_families) -> (abstraction_hash, families, wp_calls,
# equivalence_checks).  Any change to the decision procedures, the
# weakest-precondition calculus or the fixpoint that alters what is derived
# shows up here; a faster procedure must reproduce these exactly.
GOLDEN_DERIVATIONS = {
    ("aop", False): (
        "4607732980d280e9cf6867fb6e112c6c6a1dbf9b99f60e418d81c1e761911dec",
        2, 54, 33,
    ),
    ("aop", True): (
        "bed4718f234ffc2ce3b8b33c2178e08e6b75afb56f65ef952d2af9b3f4a1fa7d",
        4, 120, 101,
    ),
    ("cmp", False): (
        "a03064f2cb4efe6df63fed0096d3f9697692573084b7e2fc12edfe9b1b5ed846",
        4, 131, 83,
    ),
    ("cmp", True): (
        "b24dfb0ccead9f36e0af93146938e1ab950df729aeaecd98f454d7458e51fd3d",
        6, 209, 164,
    ),
    ("grp", False): (
        "57f2c630ef91f7ea5d406d55822efcc7aa44e5fed58c68d02c49e56a42d4be7b",
        3, 66, 42,
    ),
    ("grp", True): (
        "3436695c5734ae8480c298040cc1ebb500ee2e5cd87a8609e09ea7d77905b812",
        5, 126, 69,
    ),
    ("imp", False): (
        "e67b148c42cc615392b28f6ec314bef7391d8bd824557526be5de4fdda0235d3",
        4, 114, 82,
    ),
    ("imp", True): (
        "3591233c5d388db9a19b96c2960d99304efe054c2666da3cbf283d2546a9e896",
        7, 228, 189,
    ),
}


class TestGoldenDerivations:
    def test_every_registered_spec_is_pinned(self):
        assert {name for name, _ in GOLDEN_DERIVATIONS} == set(
            available_specs()
        )

    @pytest.mark.parametrize("key", sorted(GOLDEN_DERIVATIONS))
    def test_derivation_matches_golden(self, key):
        name, identity = key
        abstraction = derive(get_spec(name), identity_families=identity)
        stats = abstraction.stats
        assert (
            abstraction_hash(abstraction),
            stats.families,
            stats.wp_calls,
            stats.equivalence_checks,
        ) == GOLDEN_DERIVATIONS[key]


class TestSatisfiabilityCounters:
    @pytest.mark.parametrize("name", ["cmp", "imp"])
    def test_counters_repeat_exactly(self, name):
        first = derive(get_spec(name)).stats
        second = derive(get_spec(name)).stats
        assert (first.sat_queries, first.sat_memo_hits) == (
            second.sat_queries,
            second.sat_memo_hits,
        )
        # the memo belongs to one derivation: a second run starts cold
        # and so repeats the same hits instead of answering everything
        assert 0 < first.sat_memo_hits < first.sat_queries

    def test_counters_in_trace_meta(self, cmp_specification):
        tracer = CollectingTracer()
        with use_tracer(tracer):
            abstraction = derive(cmp_specification)
        (event,) = [e for e in tracer.events if e.phase == "derive"]
        assert event.meta["sat_queries"] == abstraction.stats.sat_queries
        assert event.meta["sat_memo_hits"] == abstraction.stats.sat_memo_hits

    def test_counters_in_cli_summary(self, capsys):
        from repro.cli import main

        assert main(["--show-abstraction", "--spec", "cmp"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        stats = derive(get_spec("cmp")).stats
        assert (
            f"{stats.sat_queries} satisfiability queries "
            f"({stats.sat_memo_hits} memo hits)"
        ) in summary
