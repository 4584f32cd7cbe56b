"""Data model: constants, facts, merge pairs, equivalence relations, and the
record semantics of the model's, matcher's, engine's and explain's records."""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entres.engine import DerivStep, MergeSets, Solution
from entres.errors import NonEntityMerge, UnknownConstant
from entres.explain import NodeKind, ProofNode, ProofTree, SimEdge
from entres.matcher import Context
from entres.model import NULL, Constant, Database, EqRel, Fact, Kind, MergePair
from entres.rules import parse_spec

from conftest import check_record, e, v
from oracles import close_pairs


class TestConstant:
    def test_kinds(self):
        assert e("x").is_entity() and not v("x").is_entity()
        assert NULL.is_null() and not e("x").is_null()

    def test_equality_is_kind_and_text(self):
        assert e("a") == e("a")
        assert e("a") != v("a")
        assert len({e("a"), e("a"), v("a")}) == 2

    def test_single_null(self):
        assert NULL == Constant(Kind.NULL, "")
        assert NULL != v("")


class TestMergePair:
    def test_canonical_order(self):
        p = MergePair.of(e("zeta"), e("alpha"))
        assert (p.left.text, p.right.text) == ("alpha", "zeta")
        assert p == MergePair.of(e("alpha"), e("zeta"))

    def test_reflexive_rejected(self):
        with pytest.raises(ValueError):
            MergePair.of(e("a"), e("a"))

    def test_iteration(self):
        assert list(MergePair.of(e("b"), e("a"))) == [e("a"), e("b")]


class TestDatabase:
    def test_dedup_and_deterministic_order(self):
        facts = [
            Fact("R", (e("r1"), v("x"))),
            Fact("R", (e("r0"), v("y"))),
            Fact("R", (e("r1"), v("x"))),
        ]
        db1 = Database(facts)
        db2 = Database(reversed(facts))
        assert len(db1) == 2
        assert db1 == db2
        assert db1.facts == db2.facts

    def test_grouping_and_domain(self):
        db = Database(
            [Fact("R", (e("r0"), v("x"))), Fact("S", (e("s0"), NULL))]
        )
        assert db.relations() == ("R", "S")
        assert len(db.by_relation["R"]) == 1
        assert db.entity_refs() == {e("r0"), e("s0")}
        # entity references take the lowest ids
        assert set(db.consts[:db.entities]) == db.entity_refs()
        assert NULL in db.domain
        assert Fact("R", (e("r0"), v("x"))) in db
        assert Fact("R", (e("r0"), v("z"))) not in db

    def test_index_lists_rows_per_position_and_id(self):
        db = Database([
            Fact("R", (e("r1"), v("x"))),
            Fact("R", (e("r2"), v("y"))),
            Fact("R", (e("r0"), v("x"))),
            Fact("T", (e("r0"), e("r0"))),
        ])
        i = db.ids
        # R's rows in database order: (r0, x), (r1, x), (r2, y)
        assert db.rows["R"] == (
            (i[e("r0")], i[v("x")]),
            (i[e("r1")], i[v("x")]),
            (i[e("r2")], i[v("y")]),
        )
        assert db.index["R"] == [
            {i[e("r0")]: [0], i[e("r1")]: [1], i[e("r2")]: [2]},
            {i[v("x")]: [0, 1], i[v("y")]: [2]},
        ]
        # an id repeated in one row is listed once per position
        assert db.index["T"] == [{i[e("r0")]: [0]}, {i[e("r0")]: [0]}]

    def test_membership(self):
        facts = [
            Fact("R", (e("r0"), v("x"))),
            Fact("R", (e("r1"), v("x"))),
            Fact("R", (e("r1"), v("y"))),
            Fact("S", (e("r0"),)),
        ]
        db = Database(facts)
        assert all(f in db for f in facts)
        assert Fact("R", (e("r0"), v("y"))) not in db  # both ids, no row
        assert Fact("S", (e("r1"),)) not in db
        assert Fact("R", (e("r0"),)) not in db  # another arity
        assert Fact("R", (e("r0"), v("x"), v("x"))) not in db
        assert Fact("T", (e("r0"),)) not in db  # no such relation
        # a constant outside the domain is no error
        assert Fact("R", (e("r9"), v("x"))) not in db
        assert Fact("R", (v("r0"), v("x"))) not in db
        assert Fact("S", (NULL,)) not in db


DOM = [e(f"c{i}") for i in range(8)] + [v("val"), NULL]


class TestEqRel:
    def test_identity(self):
        eq = EqRel(DOM)
        assert eq.nontrivial_pairs() == frozenset()
        assert eq.rep(e("c3")) == e("c3")

    def test_merge_and_rep_is_least_text(self):
        eq = EqRel(DOM)
        assert eq.merge(e("c5"), e("c2")) is True
        assert eq.merge(e("c2"), e("c5")) is False
        assert eq.rep(e("c5")) == e("c2")
        assert eq.same(e("c2"), e("c5"))
        assert not eq.same(e("c2"), e("c1"))

    def test_members_and_classes_sorted(self):
        eq = EqRel(DOM)
        eq.merge(e("c5"), e("c2"))
        eq.merge(e("c5"), e("c7"))
        assert eq.members(e("c7")) == [e("c2"), e("c5"), e("c7")]
        assert all(cls == sorted(cls, key=lambda c: c.text) for cls in eq.classes())

    def test_non_entity_merge_rejected(self):
        eq = EqRel(DOM)
        with pytest.raises(NonEntityMerge):
            eq.merge(e("c0"), v("val"))
        with pytest.raises(NonEntityMerge):
            eq.merge(e("c0"), NULL)

    def test_unknown_constant(self):
        eq = EqRel(DOM)
        with pytest.raises(UnknownConstant):
            eq.id_of(e("stranger"))
        assert eq.try_id(e("stranger")) is None

    def test_clone_is_independent(self):
        eq = EqRel(DOM)
        eq.merge(e("c0"), e("c1"))
        cl = eq.clone()
        cl.merge(e("c2"), e("c3"))
        assert eq.same(e("c0"), e("c1")) and cl.same(e("c0"), e("c1"))
        assert cl.same(e("c2"), e("c3")) and not eq.same(e("c2"), e("c3"))

    def test_signature_ignores_merge_order(self):
        a = EqRel(DOM)
        b = EqRel(DOM)
        a.merge(e("c0"), e("c1"))
        a.merge(e("c1"), e("c2"))
        b.merge(e("c2"), e("c1"))
        b.merge(e("c0"), e("c2"))
        assert a.signature() == b.signature()
        assert a == b
        b.merge(e("c3"), e("c4"))
        assert a.signature() != b.signature()

    def test_pair_membership(self):
        eq = EqRel(DOM)
        eq.merge(e("c0"), e("c1"))
        assert MergePair.of(e("c0"), e("c1")) in eq
        assert MergePair.of(e("c0"), e("c2")) not in eq

    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_naive_set_fusion(self, raw):
        eq = EqRel(DOM)
        pairs = []
        for i, j in raw:
            if i != j:
                eq.merge(e(f"c{i}"), e(f"c{j}"))
                pairs.append((e(f"c{i}"), e(f"c{j}")))
        assert eq.nontrivial_pairs() == close_pairs(pairs, DOM)

    def test_closure_matches_naive_on_random_batches(self):
        rng = random.Random(7)
        for _ in range(50):
            eq = EqRel(DOM)
            pairs = []
            for _ in range(rng.randrange(10)):
                i, j = rng.randrange(8), rng.randrange(8)
                if i != j:
                    eq.merge(e(f"c{i}"), e(f"c{j}"))
                    pairs.append((e(f"c{i}"), e(f"c{j}")))
            assert eq.nontrivial_pairs() == close_pairs(pairs, DOM)


AB = MergePair(e("a"), e("b"))
R_AX = Fact("R", (e("a"), v("x")))
SPEC = parse_spec(
    "relation R(rid: id, a: val) merge [rid];\n"
    "hard h: R(x, a), R(y, a) => eq(x, y);\n"
)
DB = Database([R_AX, Fact("R", (e("b"), v("x")))])

#: one record per class: (make, a field, another value for it)
RECORDS = {
    "Constant": (lambda: Constant(Kind.ENTITY, "a"), "text", "b"),
    "Fact": (lambda: Fact("R", (e("a"), v("x"))), "relation", "S"),
    "MergePair": (lambda: MergePair(e("a"), e("b")), "right", e("c")),
    "DerivStep": (lambda: DerivStep("h", AB), "label", "transitive"),
    "Solution": (lambda: Solution(EqRel(DB.domain)), "derivation", (
        DerivStep("h", AB),
    )),
    "MergeSets": (
        lambda: MergeSets(frozenset(), frozenset({AB}), frozenset(),
                          frozenset(), True),
        "consistent", False,
    ),
    "Context": (lambda: Context(DB, SPEC), "null_inequality", "fail"),
    "SimEdge": (lambda: SimEdge("jw", v("x"), v("y"), 9000), "score", 100),
    "ProofNode": (
        lambda: ProofNode(NodeKind.FACT, fact=R_AX), "rule_label", "h"
    ),
    "ProofTree": (
        lambda: ProofTree(ProofNode(NodeKind.RULE, pair=AB), AB),
        "pair", MergePair(e("a"), e("c")),
    ),
}


class TestRecords:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_value_semantics(self, name):
        check_record(*RECORDS[name])

    def test_repr(self):
        assert [repr(c) for c in (e("a"), v("x"), NULL)] == ["@a", "x", "<null>"]
        assert repr(AB) == "(a, b)"
        assert repr(Fact("R", (e("a"), v("x"), NULL))) == "R(@a, x, <null>)"
        assert repr(DerivStep("h", AB)) == "DerivStep(label='h', pair=(a, b))"

    def test_pickle_round_trip(self):
        for make, _, _ in RECORDS.values():
            rec = make()
            assert pickle.loads(pickle.dumps(rec)) == rec

    def test_generic_init_binds_arguments_like_a_signature(self):
        # ProofNode: kind, then five fields with defaults
        node = ProofNode(NodeKind.FACT, fact=R_AX)
        assert node == ProofNode(NodeKind.FACT, None, R_AX, None, None, ())
        assert node == ProofNode(fact=R_AX, kind=NodeKind.FACT)
        assert (node.pair, node.children) == (None, ())
        assert DerivStep(label="h", pair=AB) == DerivStep("h", AB)
        for bad in (
            lambda: DerivStep("h"),  # missing
            lambda: DerivStep("h", AB, 1),  # too many
            lambda: DerivStep("h", AB, label="t"),  # repeated
            lambda: DerivStep("h", AB, no_such_field=1),  # unknown
        ):
            with pytest.raises(TypeError):
                bad()

    def test_context_rejects_an_unknown_null_policy(self):
        with pytest.raises(ValueError, match="null inequality"):
            Context(DB, SPEC, null_inequality="x")
        ctx = Context(DB, SPEC, null_inequality="fail")
        with pytest.raises(ValueError, match="null inequality"):
            ctx.replace(null_inequality="x")
        assert ctx.replace(null_inequality="distinct").null_inequality == "distinct"
