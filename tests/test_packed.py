"""The packed bitset state kernel.

Differential property tests: a :class:`PackedStructure` built from any
dense :class:`ThreeValuedStructure` must be observationally identical —
same ``get`` tables, same formula valuations, same join, and the same
canonical-abstraction partition.  The packed kernel is the only runtime
representation; the dict structure and ``TvlaEngine(packed=False)`` are
the reference it is compared against, and every downstream artifact
(alarms, certificates, checker verdicts) must be identical either way.
The plane certificate codec is compared against the reference codec
byte for byte.
"""

import pickle
import random

import pytest

from repro.api import CertifyOptions, CertifySession
from repro.bench.harness import DictReferenceChecker, DictReferenceSession
from repro.bench.synthetic import make_heap_client
from repro.cert import model
from repro.cert.check import CertificateChecker
from repro.easl.library import cmp_spec
from repro.lang.types import parse_program
from repro.logic.formula import (
    And,
    Exists,
    Forall,
    Not,
    Or,
    PredAtom,
)
from repro.logic.kleene import FALSE3, HALF, TRUE3
from repro.logic.packed import (
    PackedKey,
    PackedStructure,
    compile_update_plane,
    evaluate_update_plane,
)
from repro.tvla.three_valued import ThreeValuedStructure

VALUES = (FALSE3, HALF, TRUE3)
UNARY_PREDS = ("a", "b", "c")
BINARY_PREDS = ("r", "s")
NULLARY_PREDS = ("p", "q")


def random_dense(rng, max_nodes=6):
    """A random dense structure with mixed arities and summary nodes."""
    structure = ThreeValuedStructure()
    nodes = [
        structure.new_node(summary=rng.random() < 0.3)
        for _ in range(rng.randrange(0, max_nodes + 1))
    ]
    for pred in NULLARY_PREDS:
        structure.set(pred, (), rng.choice(VALUES))
    for pred in UNARY_PREDS:
        for node in nodes:
            structure.set(pred, (node,), rng.choice(VALUES))
    for pred in BINARY_PREDS:
        for left in nodes:
            for right in nodes:
                if rng.random() < 0.4:
                    structure.set(
                        pred, (left, right), rng.choice(VALUES)
                    )
    return structure


def random_formula(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return PredAtom(rng.choice(NULLARY_PREDS), ())
        if kind == 1:
            return PredAtom(rng.choice(UNARY_PREDS), (rng.choice("vw"),))
        return PredAtom(
            rng.choice(BINARY_PREDS), (rng.choice("vw"), rng.choice("vw"))
        )
    kind = rng.randrange(5)
    if kind == 0:
        return Not(random_formula(rng, depth - 1))
    if kind == 1:
        return And(
            (random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        )
    if kind == 2:
        return Or(
            (random_formula(rng, depth - 1), random_formula(rng, depth - 1))
        )
    if kind == 3:
        return Exists(rng.choice("vw"), random_formula(rng, depth - 1))
    return Forall(rng.choice("vw"), random_formula(rng, depth - 1))


def assert_same_tables(dense, packed):
    assert list(packed.nodes) == list(dense.nodes)
    assert {n: bool(packed.summary[n]) for n in packed.nodes} == {
        n: bool(dense.summary[n]) for n in dense.nodes
    }
    for pred in NULLARY_PREDS:
        assert packed.get(pred, ()) is dense.get(pred, ())
    for pred in UNARY_PREDS:
        for node in dense.nodes:
            assert packed.get(pred, (node,)) is dense.get(pred, (node,))
    for pred in BINARY_PREDS:
        for left in dense.nodes:
            for right in dense.nodes:
                assert packed.get(pred, (left, right)) is dense.get(
                    pred, (left, right)
                )


class TestPackedDifferential:
    def test_from_dense_preserves_every_valuation(self):
        rng = random.Random(7)
        for _ in range(40):
            dense = random_dense(rng)
            assert_same_tables(dense, PackedStructure.from_dense(dense))

    def test_set_matches_dense_set(self):
        rng = random.Random(11)
        for _ in range(25):
            dense = random_dense(rng)
            packed = PackedStructure.from_dense(dense)
            for _ in range(30):
                value = rng.choice(VALUES)
                arity = rng.randrange(3)
                if arity == 0 or not dense.nodes:
                    pred, args = rng.choice(NULLARY_PREDS), ()
                elif arity == 1:
                    pred = rng.choice(UNARY_PREDS)
                    args = (rng.choice(dense.nodes),)
                else:
                    pred = rng.choice(BINARY_PREDS)
                    args = (
                        rng.choice(dense.nodes),
                        rng.choice(dense.nodes),
                    )
                dense.set(pred, args, value)
                packed.set(pred, args, value)
            assert_same_tables(dense, packed)

    def test_eval_agrees_on_random_formulas(self):
        rng = random.Random(13)
        for _ in range(30):
            dense = random_dense(rng, max_nodes=4)
            if not dense.nodes:
                continue  # free variables need a nonempty universe
            packed = PackedStructure.from_dense(dense)
            for _ in range(15):
                formula = random_formula(rng)
                env = {
                    "v": rng.choice(dense.nodes),
                    "w": rng.choice(dense.nodes),
                }
                assert packed.eval(formula, dict(env)) is dense.eval(
                    formula, dict(env)
                ), f"disagree on {formula}"

    def test_new_node_past_stride_preserves_binary_planes(self):
        """Growing the universe past the binary stride re-spreads every
        binary plane row by row (regression: rows were cut to
        ``shift`` bits, corrupting structures of more than 16 nodes)."""
        rng = random.Random(41)
        for _ in range(30):
            dense = random_dense(rng, max_nodes=16)
            packed = PackedStructure.from_dense(dense).copy()
            for _ in range(rng.randrange(1, 20)):
                summary = rng.random() < 0.5
                dense.new_node(summary)
                packed.new_node(summary)
            assert_same_tables(dense, packed)

    def test_join_agrees(self):
        rng = random.Random(17)
        preds = list(UNARY_PREDS)
        for _ in range(20):
            dense_a = random_dense(rng, max_nodes=4)
            dense_b = dense_a.copy()
            for _ in range(10):  # perturb b so the join is nontrivial
                if dense_b.nodes:
                    dense_b.set(
                        rng.choice(UNARY_PREDS),
                        (rng.choice(dense_b.nodes),),
                        rng.choice(VALUES),
                    )
            packed_a = PackedStructure.from_dense(dense_a)
            packed_b = PackedStructure.from_dense(dense_b)
            dense_join = ThreeValuedStructure.join(dense_a, dense_b, preds)
            packed_join = PackedStructure.join(packed_a, packed_b, preds)
            for pred in NULLARY_PREDS:
                assert packed_join.get(pred, ()) is dense_join.get(pred, ())
            for pred in UNARY_PREDS:
                for node in dense_join.nodes:
                    assert packed_join.get(pred, (node,)) is dense_join.get(
                        pred, (node,)
                    )

    def test_canonical_key_partitions_identically(self):
        """Two structures share a dict canonical key iff they share a
        packed canonical key — the memo/state-set partition is the
        representation-independent contract the engine relies on."""
        rng = random.Random(19)
        preds = list(UNARY_PREDS)
        denses = [random_dense(rng, max_nodes=4) for _ in range(30)]
        dict_keys = [
            d.canonicalize(preds).canonical_key(preds) for d in denses
        ]
        packed_keys = [
            PackedStructure.from_dense(d)
            .canonicalize(preds)
            .canonical_key(preds)
            for d in denses
        ]
        for i in range(len(denses)):
            for j in range(len(denses)):
                assert (dict_keys[i] == dict_keys[j]) == (
                    packed_keys[i] == packed_keys[j]
                ), f"partition differs on pair ({i}, {j})"

    def test_canonicalize_preserves_valuations(self):
        rng = random.Random(23)
        preds = list(UNARY_PREDS)
        for _ in range(20):
            dense = random_dense(rng, max_nodes=5)
            canonical_dense = dense.canonicalize(preds)
            canonical_packed = PackedStructure.from_dense(
                dense
            ).canonicalize(preds)
            assert len(canonical_packed.nodes) == len(canonical_dense.nodes)
            assert canonical_packed.canonical_key(
                preds
            ) == PackedStructure.from_dense(
                canonical_dense
            ).canonical_key(preds)


class TestCanonicalKeyFastPath:
    def test_fast_path_equals_recomputed_key(self):
        """The ``_vec_ordered`` fast path must produce the same key as a
        from-scratch blocks walk (the invariant the renumbering
        canonicalize maintains)."""
        rng = random.Random(29)
        preds = list(UNARY_PREDS)
        for _ in range(25):
            packed = PackedStructure.from_dense(
                random_dense(rng, max_nodes=5)
            ).canonicalize(preds)
            fast = packed.canonical_key(preds)
            packed._vec_ordered = None
            packed._ckey_cache = {}
            slow = packed.canonical_key(preds)
            assert fast == slow

    def test_copy_propagates_ordering(self):
        rng = random.Random(31)
        preds = list(UNARY_PREDS)
        packed = PackedStructure.from_dense(
            random_dense(rng, max_nodes=5)
        ).canonicalize(preds)
        clone = packed.copy()
        assert clone._vec_ordered == packed._vec_ordered
        clone.dirty()
        assert clone._vec_ordered is None
        assert packed._vec_ordered is not None


class TestPackedKey:
    def test_equal_keys_hash_equal(self):
        key_a = PackedKey((1, (2, 3), 4))
        key_b = PackedKey((1, (2, 3), 4))
        assert key_a == key_b
        assert hash(key_a) == hash(key_b)
        assert len({key_a, key_b}) == 1

    def test_distinct_keys_differ(self):
        assert PackedKey((1,)) != PackedKey((2,))

    def test_pickle_roundtrip(self):
        key = PackedKey((1, (2, 3), 4))
        assert pickle.loads(pickle.dumps(key)) == key


class TestUpdatePlane:
    def test_plane_evaluation_matches_per_tuple(self):
        """Bulk plane evaluation of an update rhs must agree with
        per-tuple formula evaluation at every argument tuple."""
        rng = random.Random(37)
        checked = 0
        for _ in range(60):
            arity = rng.choice((1, 2))
            variables = ("v",) if arity == 1 else ("v", "w")
            formula = random_formula(rng, depth=2)
            plane = compile_update_plane(formula, variables)
            if plane is None:
                continue
            if any(name not in variables for name in plane.free_vars):
                continue  # outer bindings are covered by engine tests
            dense = random_dense(rng, max_nodes=4)
            packed = PackedStructure.from_dense(dense)
            slots = [0] * plane.num_slots
            t_plane, h_plane = evaluate_update_plane(packed, plane, slots)
            shift = packed._shift
            for v_node in dense.nodes:
                tuples = (
                    [(v_node,)]
                    if arity == 1
                    else [(v_node, w_node) for w_node in dense.nodes]
                )
                for args in tuples:
                    env = dict(zip(variables, args))
                    expected = dense.eval(formula, env)
                    bit = (
                        1 << args[0]
                        if arity == 1
                        else 1 << ((args[0] << shift) | args[1])
                    )
                    if expected is TRUE3:
                        assert t_plane & bit and not h_plane & bit
                    elif expected is HALF:
                        assert h_plane & bit and not t_plane & bit
                    else:
                        assert not (t_plane | h_plane) & bit
                    checked += 1
        assert checked > 100  # the compiler accepted enough formulas


LOOP_CLIENT = """
class Holder { Iterator it; Holder() { } }
class Main {
  static void main() {
    Set s = new Set();
    Set t = new Set();
    Holder last = new Holder();
    while (?) {
      Holder h = new Holder();
      h.it = s.iterator();
      last = h;
    }
    Iterator j = last.it;
    if (?) { j.next(); }
    s.add("x");
    if (?) { j.next(); }
  }
}
"""


def _signature(report):
    return sorted(
        (a.site_id, a.op_key, a.instance, a.definite)
        for a in report.alarms
    )


class TestEngineEquivalence:
    """The production session against the dict reference session
    (``TvlaEngine(packed=False)`` behind the same front end)."""

    @pytest.mark.parametrize("engine", ["tvla-relational", "tvla-independent"])
    def test_alarms_identical_across_representations(self, engine):
        spec = cmp_spec()
        reports = {}
        for session_type in (DictReferenceSession, CertifySession):
            session = session_type(spec, engine=engine)
            program = parse_program(LOOP_CLIENT, spec)
            reports[session_type] = session.certify_program(program)
        assert _signature(reports[DictReferenceSession]) == _signature(
            reports[CertifySession]
        )
        assert reports[CertifySession].alarms  # the client genuinely alarms

    @staticmethod
    def _certificate_texts(engine, source):
        spec = cmp_spec()
        return [
            session_type(
                spec,
                engine=engine,
                options=CertifyOptions(emit_certificate=True),
            ).certify(source).certificate.text()
            for session_type in (DictReferenceSession, CertifySession)
        ]

    def test_certificates_byte_identical(self):
        reference, packed = self._certificate_texts(
            "tvla-relational", LOOP_CLIENT
        )
        assert reference == packed

    def test_certificates_byte_identical_past_binary_stride(self):
        """Focus and allocation grow this client's structures past 16
        nodes, where the packed binary planes re-spread to a wider
        stride."""
        reference, packed = self._certificate_texts(
            "tvla-independent", make_heap_client(4, 4, 2, 2)
        )
        assert reference == packed

    def test_checker_cross_accepts_packed_certificate(self):
        """Certificates emitted by either representation check clean
        under either replay."""
        spec = cmp_spec()
        certificates = [
            session_type(
                spec,
                engine="tvla-relational",
                options=CertifyOptions(emit_certificate=True),
            ).certify(LOOP_CLIENT).certificate
            for session_type in (DictReferenceSession, CertifySession)
        ]
        for checker in (DictReferenceChecker(), CertificateChecker()):
            for certificate in certificates:
                result = checker.check(certificate, spec=spec)
                assert result.ok, result.detail

    def test_engine_structures_are_packed(self):
        spec = cmp_spec()
        program = parse_program(LOOP_CLIENT, spec)
        engine = CertifySession(spec, engine="tvla-relational").artifacts(
            program, "tvla-relational"
        )["engine_obj"]
        assert engine.packed
        assert engine.initial_structure().packed
        reference = DictReferenceSession(
            spec, engine="tvla-relational"
        ).artifacts(program, "tvla-relational")["engine_obj"]
        assert not reference.packed
        assert not reference.initial_structure().packed


def _assert_plane_codec_matches_reference(packed, dense, preds):
    """(a) the plane encoder writes the reference encoder's bytes for
    the dict form; (b) plane decoding rebuilds the same tables as the
    reference decoder, and its canonical key round-trips."""
    entry = model.planes_to_json(packed, preds)
    assert model.canonical_text(entry) == model.canonical_text(
        model.structure_to_json(dense, preds)
    )
    decoded = model.planes_from_json(entry)
    assert model.canonical_text(
        model.planes_to_json(decoded, preds)
    ) == model.canonical_text(entry)
    reference = PackedStructure.from_dense(model.structure_from_json(entry))
    assert list(decoded.nodes) == list(reference.nodes)
    assert decoded.canonical_key(preds) == reference.canonical_key(preds)
    assert decoded.canonicalize(preds).canonical_key(
        preds
    ) == packed.canonicalize(preds).canonical_key(preds)


class TestPlaneCodec:
    def test_random_canonicalized_structures(self):
        rng = random.Random(43)
        preds = list(UNARY_PREDS)
        for _ in range(60):
            # up to 20 nodes: exercises the grown binary stride too
            dense = random_dense(rng, max_nodes=20).canonicalize(preds)
            packed = PackedStructure.from_dense(dense).canonicalize(preds)
            _assert_plane_codec_matches_reference(packed, dense, preds)

    def test_random_uncanonicalized_structures(self):
        """Structures off the vector order are renumbered first."""
        rng = random.Random(47)
        preds = list(UNARY_PREDS)
        for _ in range(40):
            dense = random_dense(rng, max_nodes=8)
            packed = PackedStructure.from_dense(dense)
            entry = model.planes_to_json(packed, preds)
            assert model.canonical_text(entry) == model.canonical_text(
                model.structure_to_json(dense, preds)
            )

    def test_heap_design_pools(self):
        """Every pool entry of the benchmark's heap clients: the plane
        codec and the reference codec agree byte for byte."""
        from perfbench.config import HEAP_DESIGN

        spec = cmp_spec()
        session = CertifySession(
            spec,
            engine="tvla-relational",
            options=CertifyOptions(emit_certificate=True),
        )
        entries = 0
        for params in HEAP_DESIGN:
            source = make_heap_client(*params)
            program = parse_program(source, spec)
            preds = session.artifacts(program, "tvla-relational")[
                "engine_obj"
            ].abstraction_preds
            pool = session.certify(source).certificate.payload["annotation"][
                "pool"
            ]
            for entry in pool:
                dense = model.structure_from_json(entry)
                packed = model.planes_from_json(entry).canonicalize(preds)
                _assert_plane_codec_matches_reference(packed, dense, preds)
                assert model.canonical_text(
                    model.planes_to_json(packed, preds)
                ) == model.canonical_text(entry)
            entries += len(pool)
        assert entries > len(HEAP_DESIGN)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda e: e.update(nodes=e["nodes"] + 1),
            lambda e: e["unary"].append(["a", 99, 1]),
            lambda e: e["binary"].append(["r", 0, 99, 2]),
            lambda e: e["unary"].append(["a", 0, 3]),
            lambda e: e["nullary"].append(["p", "1"]),
            lambda e: e.pop("binary"),
        ],
    )
    def test_malformed_entries_rejected_like_reference(self, mutate):
        dense = ThreeValuedStructure()
        for _ in range(2):
            dense.new_node()
        entry = model.structure_to_json(dense, list(UNARY_PREDS))
        mutate(entry)
        with pytest.raises(model.CertificateError):
            model.structure_from_json(entry)
        with pytest.raises(model.CertificateError):
            model.planes_from_json(entry)

    def test_later_entries_overwrite_earlier_like_reference(self):
        entry = {
            "nodes": 2,
            "summary": [0, 1],
            "nullary": [["p", 1], ["p", 0], ["q", 2]],
            "unary": [["a", 0, 1], ["a", 0, 2], ["b", 1, 1], ["b", 1, 0]],
            "binary": [["r", 0, 1, 2], ["r", 0, 1, 1], ["r", -1, 0, 1]],
        }
        reference = model.structure_from_json(entry)
        decoded = model.planes_from_json(entry)
        for pred in NULLARY_PREDS:
            assert decoded.get(pred, ()) is reference.get(pred, ())
        assert_same_tables(reference, decoded)
