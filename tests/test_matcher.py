"""Query answering over the induced database, differentially tested against
a brute-force evaluator."""

import random

import pytest

from entres.matcher import (
    Context,
    answers,
    dc_satisfied,
    merge_candidates,
    rule_satisfied,
)
from entres.model import NULL, Constant, Database, EqRel, Fact, Kind, MergePair
from entres.rules import Var, parse_spec

from conftest import e, v
from instances import generate
from oracles import (
    close_classes,
    naive_candidates,
    naive_dc_satisfied,
    naive_query,
    naive_rule_satisfied,
    simfn_of,
)


def spec_db(text, facts):
    return parse_spec(text), Database(facts)


JOIN = (
    "relation R(rid: id, k: val) merge [rid];\n"
    "hard h: R(x, k), R(y, k) => eq(x, y);\n"
)


class TestAnswerBasics:
    def test_identity_join(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
        )
        assert (e("r1"), e("r2")) in ans.rep_tuples
        assert (e("r1"), e("r1")) in ans.rep_tuples  # reflexive matches too

    def test_identity_shares_the_database_numbering(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        ident = Context(db, spec).identity()
        assert ident.domain is db.consts
        assert ident == EqRel(db.domain)

    def test_relation_over_another_domain_rejected(self):
        # rows are read as ids numbered over the database's own domain, so
        # an equivalence relation numbering a different domain cannot apply
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        wider = EqRel(db.domain | {e("r0")})
        with pytest.raises(ValueError, match="domain"):
            answers(
                spec.hard[0].body, spec.hard[0].head, Context(db, spec), wider
            )

    def test_preimage_expansion(self):
        spec, db = spec_db(
            JOIN,
            [
                Fact("R", (e("r1"), v("u"))),
                Fact("R", (e("r2"), v("w"))),
                Fact("R", (e("r3"), v("w"))),
            ],
        )
        eq = EqRel(db.domain)
        eq.merge(e("r1"), e("r2"))  # rep r1 now carries the w-row of r2
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec), eq
        )
        assert (e("r1"), e("r3")) in ans.rep_tuples
        # every member of r3's and r1's classes appears in the expansion
        assert (e("r2"), e("r3")) in ans.tuples
        assert (e("r1"), e("r3")) in ans.tuples
        unexpanded = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec), eq,
            expand=False,
        )
        assert unexpanded.tuples is None

    def test_constants_in_body_match_through_classes(self):
        spec = parse_spec(
            "relation P(pid: id, q: id) merge [pid];\n"
            "hard h: P(x, @m1), P(y, @m2) => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("P", (e("p1"), e("m1"))),
                Fact("P", (e("p2"), e("m3"))),
                Fact("P", (e("p9"), e("m2"))),
            ]
        )
        eq = EqRel(db.domain)
        body, head = spec.hard[0].body, spec.hard[0].head
        before = answers(body, head, Context(db, spec), eq).rep_tuples
        assert (e("p1"), e("p9")) in before
        assert (e("p1"), e("p2")) not in before
        eq.merge(e("m2"), e("m3"))  # the m3 row now satisfies @m2
        after = answers(body, head, Context(db, spec), eq).rep_tuples
        assert (e("p1"), e("p2")) in after

    def test_constant_absent_from_data_matches_nothing(self):
        spec = parse_spec(
            "relation P(pid: id, q: id) merge [pid];\n"
            "hard h: P(x, @m1), P(y, @ghost) => eq(x, y);\n"
        )
        db = Database(
            [Fact("P", (e("p1"), e("m1"))), Fact("P", (e("p2"), e("m3")))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
        )
        assert ans.rep_tuples == frozenset()

    def test_witnesses_instantiate_the_body(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
            witnesses=True,
        )
        wits = ans.witnesses[(e("r1"), e("r2"))]
        assert wits
        w = wits[0]
        assert len(w.facts) == 2
        assert {f.relation for f in w.facts} == {"R"}
        assert w.binding[Var("x")] == e("r1")
        assert w.binding[Var("y")] == e("r2")


class TestNullJoins:
    def test_null_never_joins_by_default(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r2"), NULL))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
        )
        assert (e("r1"), e("r2")) not in ans.rep_tuples

    def test_guard_disabled_lets_nulls_join(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r2"), NULL))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head,
            Context(db, spec, null_join_guard=False), EqRel(db.domain),
        )
        assert (e("r1"), e("r2")) in ans.rep_tuples

    def test_single_occurrence_may_bind_null(self):
        spec = parse_spec(
            "relation R(rid: id, k: val, z: val) merge [rid];\n"
            "hard h: R(x, k, z), R(y, k, z2) => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("R", (e("r1"), v("u"), NULL)),
                Fact("R", (e("r2"), v("u"), v("q"))),
            ]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
        )
        assert (e("r1"), e("r2")) in ans.rep_tuples


NEQ = (
    "relation R(rid: id, k: val) merge [rid];\n"
    "deny d: R(x, k), R(x, k2), k != k2;\n"
)


class TestInequalityPolicies:
    def test_null_is_distinct_by_default(self):
        spec, db = spec_db(
            NEQ, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r1"), v("u")))]
        )
        assert not dc_satisfied(
            spec.dcs[0], Context(db, spec), EqRel(db.domain)
        )

    def test_fail_policy_drops_null_comparisons(self):
        spec, db = spec_db(
            NEQ, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r1"), v("u")))]
        )
        assert dc_satisfied(
            spec.dcs[0], Context(db, spec, null_inequality="fail"),
            EqRel(db.domain),
        )

    def test_null_equals_itself_under_both_policies(self):
        spec, db = spec_db(
            NEQ, [Fact("R", (e("r1"), NULL))]
        )
        for policy in ("distinct", "fail"):
            assert dc_satisfied(
                spec.dcs[0], Context(db, spec, null_inequality=policy),
                EqRel(db.domain),
            )

    def test_unknown_policy_rejected(self):
        spec, db = spec_db(NEQ, [Fact("R", (e("r1"), NULL))])
        with pytest.raises(ValueError, match="null inequality policy"):
            Context(db, spec, null_inequality="Fail")

    def test_inequality_reads_representatives(self):
        spec = parse_spec(
            "relation P(pid: id, q: id) merge [pid];\n"
            "deny d: P(x, q), P(x, q2), q != q2;\n"
        )
        db = Database(
            [Fact("P", (e("p1"), e("m1"))), Fact("P", (e("p1"), e("m2")))]
        )
        eq = EqRel(db.domain)
        assert not dc_satisfied(spec.dcs[0], Context(db, spec), eq)
        eq.merge(e("m1"), e("m2"))  # the two references collapse
        assert dc_satisfied(spec.dcs[0], Context(db, spec), eq)


class TestOriginalConstantScoring:
    """Similarity atoms score the constants as written in the data, not the
    class representatives, so scores never drift as classes grow."""

    SPEC = (
        "relation P(pid: id, q: id) merge [pid];\n"
        "hard h: P(x, q), P(y, q2), sim:tab(q, q2) >= 60 => eq(x, y);\n"
        "sim tab : table;\n"
    )

    class Resolver:
        def __init__(self):
            self.probes = []

        def score(self, func, a, b):
            self.probes.append((a.text, b.text))
            if {a.text, b.text} == {"m1", "m2"}:
                return 7000
            return 10000 if a == b else 0

    def test_probes_stay_original_after_merges(self):
        spec = parse_spec(self.SPEC)
        db = Database(
            [Fact("P", (e("p1"), e("m1"))), Fact("P", (e("p2"), e("m2")))]
        )
        eq = EqRel(db.domain)
        eq.merge(e("m1"), e("m2"))
        r = self.Resolver()
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec, r), eq
        )
        assert (e("p1"), e("p2")) in ans.rep_tuples
        texts = {frozenset(p) for p in r.probes}
        assert frozenset({"m1", "m2"}) in texts
        # the representative pair (m1, m1) never replaces the original one
        assert all("m3" not in p for p in texts)


class TestMergeCandidates:
    def test_entity_distinct_class_canonical_ids(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        eq = EqRel(db.domain)
        cands = merge_candidates(spec.hard[0], Context(db, spec), eq)
        pairs = {
            MergePair.of(eq.const(i), eq.const(j)) for i, j in cands
        }
        assert pairs == {MergePair.of(e("r1"), e("r2"))}
        eq.merge(e("r1"), e("r2"))
        assert merge_candidates(spec.hard[0], Context(db, spec), eq) == set()

    def test_delta_evaluation_matches_full_scan(self):
        for seed in range(25):
            inst = generate(seed)
            eq = EqRel(inst.db.domain)
            ents = sorted(inst.db.entity_refs(), key=lambda c: c.text)
            rng = random.Random(seed)
            for _ in range(rng.randrange(3)):
                a, b = rng.sample(ents, 2)
                eq.merge(a, b)
            dirty = frozenset(range(len(eq.domain)))
            for rule in inst.spec.all_rules():
                full = merge_candidates(rule, inst.ctx, eq)
                delta = merge_candidates(rule, inst.ctx, eq, dirty)
                assert delta == full


class TestDifferential:
    """answers / rule_satisfied / dc_satisfied / merge_candidates against the
    brute-force evaluator, over random instances and random states."""

    @pytest.mark.parametrize("seed", range(30))
    def test_agreement(self, seed):
        inst = generate(seed)
        simfn = simfn_of(inst.sims)
        rng = random.Random(1000 + seed)
        ents = sorted(inst.db.entity_refs(), key=lambda c: c.text)
        eq = EqRel(inst.db.domain)
        merged = []
        for _ in range(rng.randrange(4)):
            a, b = rng.sample(ents, 2)
            eq.merge(a, b)
            merged.append((a, b))
        classes = close_classes(merged, inst.db.domain)

        for rule in inst.spec.all_rules():
            got = answers(rule.body, rule.head, inst.ctx, eq)
            want_reps, want_exp = naive_query(
                rule.body, rule.head, inst.db, classes, simfn, **inst.knobs
            )
            assert got.rep_tuples == want_reps, (seed, rule.label)
            assert got.tuples == want_exp, (seed, rule.label)
            assert rule_satisfied(rule, inst.ctx, eq) == naive_rule_satisfied(
                rule, inst.db, classes, simfn, **inst.knobs
            )
            got_cands = {
                MergePair.of(eq.const(i), eq.const(j))
                for i, j in merge_candidates(rule, inst.ctx, eq)
            }
            assert got_cands == naive_candidates(
                rule, inst.db, classes, simfn, **inst.knobs
            )
        for dc in inst.spec.dcs:
            assert dc_satisfied(dc, inst.ctx, eq) == naive_dc_satisfied(
                dc, inst.db, classes, **inst.knobs
            )
