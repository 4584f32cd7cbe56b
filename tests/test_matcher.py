"""Query answering over the induced database, differentially tested against
a brute-force evaluator."""

import random

import pytest

from entres.matcher import (
    Context,
    _Eval,
    _layout,
    answers,
    dc_satisfied,
    merge_candidates,
    rule_satisfied,
)
from entres.engine import DerivStep, _rounds, hard_root, lb, solve_one
from entres.model import NULL, Database, EqRel, Fact, MergePair
from entres.rules import Var, analyse, parse_spec

from conftest import MUSIC, e, v
from instances import chain_instance, generate, generate_neq, generate_parts
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
        assert (e("r1"), e("r2")) in ans
        assert (e("r1"), e("r1")) in ans  # reflexive matches too

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

    def test_representative_reads_its_class_rows(self):
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
        # answers name class representatives only
        assert set(ans) == {
            (e("r1"), e("r1")), (e("r1"), e("r3")), (e("r3"), e("r1")),
            (e("r3"), e("r3")),
        }

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
        before = answers(body, head, Context(db, spec), eq)
        assert (e("p1"), e("p9")) in before
        assert (e("p1"), e("p2")) not in before
        eq.merge(e("m2"), e("m3"))  # the m3 row now satisfies @m2
        after = answers(body, head, Context(db, spec), eq)
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
        assert ans == {}

    @pytest.mark.parametrize("const, shown", [
        (v("ghost"), v("ghost")),  # absent from the data: as written
        (e("ghost"), e("ghost")),
        (e("r2"), e("r1")),  # present: its class representative
    ])
    def test_head_constant(self, const, shown):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        eq = EqRel(db.domain)
        eq.merge(e("r1"), e("r2"))
        rule = spec.hard[0]
        head = (rule.head[0], const)
        ans = answers(rule.body, head, Context(db, spec), eq, witnesses=True)
        assert set(ans) == {(e("r1"), shown)}
        assert all(ans.values())
        # as in the brute-force evaluator
        classes = close_classes([(e("r1"), e("r2"))], db.domain)
        assert set(ans) == naive_query(rule.body, head, db, classes)

    def test_witnesses_instantiate_the_body(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), v("u"))), Fact("R", (e("r2"), v("u")))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
            witnesses=True,
        )
        wits = ans[(e("r1"), e("r2"))]
        assert wits
        w = wits[0]
        assert len(w) == 2
        assert {f.relation for f in w} == {"R"}
        assert w[0].args[0] == e("r1")
        assert w[1].args[0] == e("r2")


class TestNullJoins:
    def test_null_never_joins_by_default(self):
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r2"), NULL))]
        )
        ans = answers(
            spec.hard[0].body, spec.hard[0].head, Context(db, spec),
            EqRel(db.domain),
        )
        assert (e("r1"), e("r2")) not in ans

    def test_guard_disabled_lets_nulls_join(self):
        # the oracle without the guard joins the shared null, so this
        # instance tells the engine's guarded answer from the unguarded one
        spec, db = spec_db(
            JOIN, [Fact("R", (e("r1"), NULL)), Fact("R", (e("r2"), NULL))]
        )
        rule, classes = spec.hard[0], close_classes((), db.domain)
        unguarded = naive_query(
            rule.body, rule.head, db, classes, null_join_guard=False
        )
        assert (e("r1"), e("r2")) in unguarded
        ctx = Context(db, spec)
        ans = answers(rule.body, rule.head, ctx, EqRel(db.domain))
        assert set(ans) == naive_query(rule.body, rule.head, db, classes)
        assert set(ans) != unguarded

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
        assert (e("r1"), e("r2")) in ans


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

    @pytest.mark.parametrize("policy", ["distinct", "fail"])
    @pytest.mark.parametrize("neq, satisfied", [
        # constants absent from the data differ from every other constant,
        # a null included unless the policy fails null operands
        ('k != "ghost"', {"distinct": False, "fail": True}),
        ("k != @ghost", {"distinct": False, "fail": True}),
        ("x != @ghost", {"distinct": False, "fail": False}),
        ('"ghost" != "other"', {"distinct": False, "fail": False}),
        ("@ghost != @ghost", {"distinct": True, "fail": True}),
        ("@r1 != @r1", {"distinct": True, "fail": True}),
        ("x != @r1", {"distinct": True, "fail": True}),
    ])
    def test_constant_operands(self, policy, neq, satisfied):
        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            f"deny d: R(x, k), {neq};\n"
        )
        db = Database([Fact("R", (e("r1"), NULL))])
        got = dc_satisfied(
            spec.dcs[0], Context(db, spec, null_inequality=policy),
            EqRel(db.domain),
        )
        assert got == satisfied[policy]
        assert got == naive_dc_satisfied(
            spec.dcs[0], db, close_classes((), db.domain),
            null_inequality=policy,
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
            self.probes.append((a, b))
            if {a, b} == {"m1", "m2"}:
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
        assert (e("p1"), e("p2")) in ans
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


class TestClassLookup:
    """An atom whose constant or bound variable names a merged class reads
    the rows of every member of that class, in database order."""

    SPEC = (
        "relation P(pid: id, m: id) merge [pid];\n"
        "relation M(mid: id, n: val) merge [mid];\n"
        "hard h: P(x, m), P(y, m) => eq(x, y);\n"
        "soft s: P(x, @m1), M(m, n), P(y, m) ~> eq(x, y);\n"
        'deny d: P(x, @m4), M(m, "k"), P(y, m), x != y;\n'
    )

    def test_witnesses_in_database_order_through_a_merged_class(self):
        # P's m column interleaves the three members of one class, so their
        # rows must be merged back into database order
        ms = ["m2", "m1", "m3", "m1", "m2"]
        facts = [Fact("P", (e(f"p{k}"), e(m))) for k, m in enumerate(ms, 1)]
        spec, db = spec_db(self.SPEC, facts)
        merged = [(e("m1"), e("m2")), (e("m2"), e("m3"))]
        eq = EqRel(db.domain)
        for a, b in merged:
            eq.merge(a, b)
        rule = spec.hard[0]
        head = rule.head[:1]
        got = answers(rule.body, head, Context(db, spec), eq, witnesses=True)
        # every two rows join; the first atom is scanned, the second read
        # through m's class, both in database order
        rows = db.by_relation["P"]
        assert got == {(f.args[0],): [(f, g) for g in rows] for f in rows}
        assert set(got) == naive_query(
            rule.body, head, db, close_classes(merged, db.domain)
        )

    @pytest.mark.parametrize("merged, soft_pairs, dc_ok", [
        ([], 0, True),
        ([("m1", "m2")], 1, True),
        ([("m2", "m4"), ("m1", "m5")], 0, True),
        ([("m1", "m2"), ("m3", "m4")], 3, False),
        ([("m1", "m2"), ("m3", "m4"), ("m4", "m5")], 3, False),
        ([("m2", "m4"), ("m3", "m5")], 0, False),
        ([("m1", "m3"), ("m2", "m4"), ("m4", "m5")], 2, False),
    ])
    def test_classes_with_members_missing_from_a_column(
        self, merged, soft_pairs, dc_ok
    ):
        # m1 and m4 (the body constants) and m5 have no row in P's m column;
        # m2 and m3 have no row in M's mid column
        facts = [
            Fact("P", (e("p1"), e("m2"))),
            Fact("P", (e("p2"), e("m3"))),
            Fact("P", (e("p3"), e("m2"))),
            Fact("M", (e("m1"), v("k"))),
            Fact("M", (e("m4"), v("j"))),
            Fact("M", (e("m5"), v("k"))),
        ]
        spec, db = spec_db(self.SPEC, facts)
        pairs = [(e(a), e(b)) for a, b in merged]
        eq = EqRel(db.domain)
        for a, b in pairs:
            eq.merge(a, b)
        classes = close_classes(pairs, db.domain)
        ctx = Context(db, spec)
        everything = frozenset(range(len(db.consts)))
        for rule in spec.all_rules():
            want = naive_candidates(rule, db, classes, None)
            for dirty in (None, everything):
                got = {
                    MergePair.of(eq.const(i), eq.const(j))
                    for i, j in merge_candidates(rule, ctx, eq, dirty)
                }
                assert got == want, (rule.label, dirty is None)
        assert len(naive_candidates(spec.soft[0], db, classes, None)) == soft_pairs
        assert naive_dc_satisfied(spec.dcs[0], db, classes) == dc_ok
        for dirty in (None, everything):
            assert dc_satisfied(spec.dcs[0], ctx, eq, dirty) == dc_ok


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
            want_reps = naive_query(
                rule.body, rule.head, inst.db, classes, simfn, **inst.knobs
            )
            assert set(got) == want_reps, (seed, rule.label)
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


class TestJoinPlans:
    """Edge cases of the compiled join plan: which argument selects an
    atom's rows, which binds a slot and which checks one, under full and
    semi-naive evaluation."""

    REPEAT = (
        "relation R(rid: id, a: val, b: val) merge [rid];\n"
        "hard h: R(x, k, k), R(y, k, k2) => eq(x, y);\n"
    )

    @pytest.mark.parametrize("guard", [True, False])
    def test_variable_repeated_inside_one_atom(self, guard):
        # k binds at R(x, k, k)'s a column and is checked at its b column in
        # the same row; a null never binds k (a join variable), which only
        # the oracle without the guard lets r4 do. The engine always runs
        # guarded; `guard` picks the oracle semantics it is set against.
        facts = [
            Fact("R", (e("r1"), v("u"), v("u"))),
            Fact("R", (e("r2"), v("u"), v("w"))),
            Fact("R", (e("r3"), v("w"), v("u"))),
            Fact("R", (e("r4"), NULL, NULL)),
            Fact("R", (e("r5"), NULL, v("u"))),
        ]
        spec, db = spec_db(self.REPEAT, facts)
        rule = spec.hard[0]
        ctx = Context(db, spec)
        got = answers(rule.body, rule.head, ctx, EqRel(db.domain))
        want = {(e("r1"), e("r1")), (e("r1"), e("r2"))}
        assert set(got) == want
        classes = close_classes((), db.domain)
        oracle = naive_query(
            rule.body, rule.head, db, classes, null_join_guard=guard
        )
        if guard:
            assert oracle == want
        else:
            assert oracle == want | {(e("r4"), e("r4")), (e("r4"), e("r5"))}
        everything = frozenset(range(len(db.consts)))
        delta = answers(
            rule.body, rule.head, ctx, EqRel(db.domain), dirty=everything
        )
        assert set(delta) == want

    def test_atoms_sharing_no_variable_scan_every_row(self):
        spec, db = spec_db(
            "relation P(pid: id, a: val) merge [pid];\n"
            "relation Q(qid: id, b: val) merge [qid];\n"
            "soft s: P(x, a), Q(y, b) ~> eq(x, y);\n",
            [
                Fact("P", (e("p1"), v("u"))),
                Fact("P", (e("p2"), NULL)),
                Fact("Q", (e("q1"), v("w"))),
                Fact("Q", (e("q2"), v("u"))),
                Fact("Q", (e("q3"), NULL)),
            ],
        )
        rule = spec.soft[0]
        got = answers(
            rule.body, rule.head, Context(db, spec), EqRel(db.domain),
            witnesses=True,
        )
        ps, qs = db.by_relation["P"], db.by_relation["Q"]
        # the whole product, nulls included (neither a nor b is a join
        # variable), each pair witnessed by its two rows
        assert got == {
            (p.args[0], q.args[0]): [(p, q)] for p in ps for q in qs
        }
        assert list(got) == [
            (p.args[0], q.args[0]) for p in ps for q in qs
        ]

    def test_body_constant_absent_from_data_under_every_pin(self):
        spec, db = spec_db(
            "relation P(pid: id, m: id) merge [pid];\n"
            "soft s: P(x, m), P(y, @ghost), P(y, m) ~> eq(x, y);\n"
            "deny d: P(x, m), P(x, @ghost);\n",
            [
                Fact("P", (e("p1"), e("m1"))),
                Fact("P", (e("p2"), e("m1"))),
            ],
        )
        ctx, eq = Context(db, spec), EqRel(db.domain)
        everything = frozenset(range(len(db.consts)))
        for dirty in (None, everything):
            # the constant's slot holds an id no row carries: as a probe it
            # selects no row, as a check on a pinned row it fails
            assert merge_candidates(spec.soft[0], ctx, eq, dirty) == set()
            assert dc_satisfied(spec.dcs[0], ctx, eq, dirty)
        rule = spec.soft[0]
        assert answers(rule.body, rule.head, ctx, eq) == {}

    CHAIN = (
        "relation P(pid: id, m: id) merge [pid];\n"
        "relation M(mid: id, n: val) merge [mid];\n"
        "relation Q(qid: id, n: val) merge [qid];\n"
        "soft s: P(x, m), M(m, n), Q(y, n) ~> eq(x, y);\n"
    )
    CHAIN_FACTS = [
        Fact("P", (e("p1"), e("m1"))),
        Fact("P", (e("p2"), e("m2"))),
        Fact("P", (e("p3"), e("m3"))),
        Fact("M", (e("m1"), v("a"))),
        Fact("M", (e("m3"), v("b"))),
        Fact("Q", (e("q1"), v("a"))),
        Fact("Q", (e("q2"), v("b"))),
        Fact("Q", (e("q3"), v("a"))),
    ]

    @pytest.mark.parametrize("merged", [[], [("m1", "m2")]])
    def test_semi_naive_pins_each_atom_of_a_chain(self, merged):
        # pinned on Q, the plan runs Q, then M (n is known), then P through
        # m, a variable that only M, later in body order, binds
        spec, db = spec_db(self.CHAIN, self.CHAIN_FACTS)
        rule, ctx = spec.soft[0], Context(db, spec)
        lay = _layout(rule.body)
        sizes = (3, 2, 3)
        slot = lay.slot
        assert [(ai, probe) for ai, probe, _ in lay.plan(2, sizes)] == [
            (2, None), (1, (1, slot[Var("n")])), (0, (1, slot[Var("m")])),
        ]
        pairs = [(e(a), e(b)) for a, b in merged]
        eq = EqRel(db.domain)
        for a, b in pairs:
            eq.merge(a, b)
        full = answers(rule.body, rule.head, ctx, eq, witnesses=True)
        want_reps = naive_query(
            rule.body, rule.head, db, close_classes(pairs, db.domain)
        )
        assert set(full) == want_reps
        matches = {w for ws in full.values() for w in ws}
        for i, c in enumerate(db.consts):
            # only the matches on a row carrying raw id i, each once
            got = answers(
                rule.body, rule.head, ctx, eq, witnesses=True,
                dirty=frozenset({i}),
            )
            found = {w for ws in got.values() for w in ws}
            assert found == {
                m for m in matches if any(c in f.args for f in m)
            }, c

    def test_witness_facts_through_a_merged_class(self):
        spec, db = spec_db(self.CHAIN, self.CHAIN_FACTS)
        eq = EqRel(db.domain)
        eq.merge(e("m1"), e("m2"))
        rule = spec.soft[0]
        got = answers(
            rule.body, rule.head, Context(db, spec), eq, witnesses=True
        )
        p1, p2, p3, m1, m3, q1, q2, q3 = self.CHAIN_FACTS
        matches = [w for ws in got.values() for w in ws]
        assert len(matches) == 5
        assert set(matches) == {
            # P(p2, m2) joins M(m1, a) through m1's class
            (p1, m1, q1), (p1, m1, q3), (p2, m1, q1), (p2, m1, q3),
            (p3, m3, q2),
        }


class TestLayouts:
    """Each equal body is laid out once, whatever object carries it."""

    TEXT = (MUSIC / "music.er").read_text(encoding="utf-8")

    def test_equal_bodies_share_one_layout(self):
        a, b = parse_spec(self.TEXT), parse_spec(self.TEXT)
        for x, y in zip(a.all_rules() + a.dcs, b.all_rules() + b.dcs):
            assert x.body is not y.body
            assert _layout(x.body) is _layout(y.body)

    def test_reparsing_an_equal_spec_adds_no_layout(
        self, music_db, music_sims
    ):
        def cycle():
            ctx = Context(music_db, parse_spec(self.TEXT), music_sims)
            return solve_one(ctx).pairs()

        want = cycle()
        held = _layout.cache_info().currsize
        for _ in range(1000):
            assert cycle() == want
        assert _layout.cache_info().currsize == held

    def test_plans_stop_growing_with_relation_sizes(self):
        # a plan reads the relation sizes only through comparisons, so a
        # body keeps one plan per pin and order of sizes, not one per size
        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            "relation S(sid: id, k: val) merge [sid];\n"
            "hard h: R(x, k), S(s, k), R(y, k) => eq(x, y);\n"
        )
        plans = _layout(spec.hard[0].body).plans
        held = []
        for n in range(1, 41):
            db = Database(
                [Fact("R", (e(f"r{i}"), v(f"k{i % 3}"))) for i in range(n)]
                + [Fact("S", (e(f"s{i}"), v(f"k{i}"))) for i in range(2)]
            )
            lb(Context(db, spec))
            held.append(len(plans))
        # from three R rows on, R has more rows than S in every database
        assert held[10:] == [held[10]] * 30
        assert held[-1] <= 4 * 3  # (atoms + 1) pins times three orders


class TestReusedEvaluator:
    """A chain builds each rule's evaluator once and refreshes it after
    each round's merges: the probe memo forgets the grown classes, and the
    body's and head's constants get their new canonical ids."""

    STAR = (
        "relation A(aid: id, m: id) merge [aid];\n"
        "relation B(bid: id, m: id) merge [bid];\n"
        "hard h: A(x, m), B(y, m) => eq(x, y);\n"
    )

    def test_a_grown_class_is_probed_through_its_new_members(self):
        # a1's A row reaches m1's class through m2, b1's B row through m3:
        # once m2 and m3 join m1's class, whose rows both memos hold under
        # the canonical id m1, a1 and b1 match under either pin only
        # through the members the memos did not list
        spec, db = spec_db(self.STAR, [
            Fact("A", (e("a0"), e("m1"))), Fact("B", (e("b0"), e("m1"))),
            Fact("A", (e("a1"), e("m2"))), Fact("B", (e("b1"), e("m3"))),
        ])
        rule, ctx, eq = spec.hard[0], Context(db, spec), EqRel(db.domain)
        ev = _Eval(rule.body, ctx, eq, rule.head)
        m1 = eq.id_of(e("m1"))
        # pinned to m1, each atom's rows probe the other's memo for m1
        got = merge_candidates(rule, ctx, eq, {m1}, ev)
        assert {len(memo) for memo in ev.lookups.values()} == {1}

        def pair(a, b):
            return tuple(sorted((eq.id_of(e(a)), eq.id_of(e(b)))))

        assert got == {pair("a0", "b0")}
        eq.merge(e("m1"), e("m2"))
        eq.merge(e("m1"), e("m3"))
        dirty = eq.class_ids((m1,))
        ev.refresh(dirty)
        got = merge_candidates(rule, ctx, eq, dirty, ev)
        assert pair("a1", "b1") in got
        assert got == merge_candidates(rule, ctx, eq, dirty)
        assert got == {
            pair(a, b) for a in ("a0", "a1") for b in ("b0", "b1")
        }

    CONST = (
        "relation P(pid: id, m: id) merge [pid];\n"
        "relation M(mid: id, k: val) merge [mid];\n"
        "hard hm: M(a, k), M(b, k) => eq(a, b);\n"
        "hard hp: P(x, @m2), P(y, @m2) => eq(x, y);\n"
    )

    def test_a_body_constant_merged_mid_chain(self):
        # round 1 merges m2 into m1's class, so @m2's canonical id becomes
        # m1's; only in round 2 can hp read p1's row through it
        spec, db = spec_db(self.CONST, [
            Fact("M", (e("m1"), v("u"))), Fact("M", (e("m2"), v("u"))),
            Fact("P", (e("p1"), e("m1"))), Fact("P", (e("p2"), e("m2"))),
        ])
        ctx = Context(db, spec)
        eq = ctx.identity()
        steps = []
        grown = list(_rounds(ctx, spec.hard, eq, record=steps))
        assert [s.label for s in steps] == ["hm", "hp"]
        assert len(grown) == 2
        assert eq.same(e("p1"), e("p2"))
        assert lb(ctx) == eq
        # and through one evaluator, refreshed by hand
        rule = spec.hard[1]
        eq = ctx.identity()
        ev = _Eval(rule.body, ctx, eq, rule.head)
        assert merge_candidates(rule, ctx, eq, None, ev) == set()
        eq.merge(e("m1"), e("m2"))
        dirty = eq.class_ids((eq.id_of(e("m1")),))
        ev.refresh(dirty)
        p1, p2 = eq.id_of(e("p1")), eq.id_of(e("p2"))
        assert merge_candidates(rule, ctx, eq, dirty, ev) == {(p1, p2)}

    def test_a_head_constant_gets_one_slot_per_evaluator(self):
        spec, db = spec_db(self.CONST, [
            Fact("M", (e("m1"), v("u"))), Fact("M", (e("m2"), v("u"))),
            Fact("P", (e("p1"), e("m1"))), Fact("P", (e("p2"), e("m2"))),
        ])
        ctx, rule = Context(db, spec), spec.hard[1]
        eq = ctx.identity()
        head = (Var("x"), e("m2"))
        ev = _Eval(rule.body, ctx, eq, head)
        held = len(ev.ids)
        for _ in range(3):
            got = answers(rule.body, head, ctx, eq, ev=ev)
            assert got == {(e("p2"), e("m2")): []}
        assert len(ev.ids) == held
        eq.merge(e("m1"), e("m2"))
        ev.refresh(eq.class_ids((eq.id_of(e("m1")),)))
        got = answers(rule.body, head, ctx, eq, ev=ev)
        assert got == answers(rule.body, head, ctx, eq)
        # the head's @m2 now reads as its class representative, m1
        assert set(got) == {(e("p1"), e("m1")), (e("p2"), e("m1"))}


def _reference_rounds(ctx, rules, e, dirty=None, within=None, record=None):
    """engine._rounds with a fresh evaluator for every rule in every
    round, as each round built before evaluators were kept for a chain."""
    while True:
        found = set()
        for rule in rules:
            for i, j in merge_candidates(rule, ctx, e, dirty):
                if within is None or within.canon_id(i) == within.canon_id(j):
                    found.add((rule.label, i, j))
        merged = []
        for label, i, j in sorted(found):
            if e.merge_ids(i, j):
                merged.append(i)
                if record is not None:
                    record.append(
                        DerivStep(label, MergePair.of(e.const(i), e.const(j)))
                    )
        if not merged:
            return
        dirty = e.class_ids(merged)
        yield dirty


def _witness_key(w):
    """A witness's facts in the order of their (kind, text) keys."""
    return tuple(
        (f.relation,) + tuple((c.kind.value, c.text) for c in f.args)
        for f in w
    )


_MAKERS = {
    "generate": generate,
    "hard-only": lambda seed: generate(seed, hard_only=True),
    "neq": generate_neq,
    "parts": generate_parts,
    "hub": lambda seed: generate_parts(seed, hub=True),
    "ladder": chain_instance,
}
_FAMILIES = (
    [("generate", seed) for seed in range(40)]
    + [("hard-only", seed) for seed in range(40, 55)]
    + [("neq", seed) for seed in range(25)]
    + [("parts", seed) for seed in range(4)]
    + [("hub", seed) for seed in range(4)]
    + [("ladder", depth) for depth in (1, 3, 6)]
)


class TestChainFamilies:
    """Properties of the reused evaluators over the instance families."""

    @pytest.mark.parametrize("family, seed", _FAMILIES)
    def test_rounds_match_fresh_evaluators_every_round(self, family, seed):
        inst = _MAKERS[family](seed)
        ctx, an = inst.ctx, analyse(inst.spec)
        sol = solve_one(ctx)
        rng = random.Random(inst.seed)
        # the chains of lb, ub, levels (with and without a solution to stay
        # within) and hard_root, from the identity
        runs = [
            (rules, None, None, None)
            for rules in (an.lb, an.ub, an.promoted, inst.spec.hard)
        ]
        if sol is not None:
            runs.append((an.promoted, None, None, sol.eq))
        # and the search's: a hard-saturated state with one more merge,
        # saturated from its class
        root, _ = hard_root(ctx)
        ents = list(range(ctx.db.entities))
        for _ in range(3):
            if len(ents) > 1:
                i, j = rng.sample(ents, 2)
                start = root.clone()
                start.merge_ids(i, j)
                dirty = start.class_ids((i,))
                runs.append((inst.spec.hard, start, dirty, None))
        for rules, start, dirty, within in runs:
            e1 = ctx.identity() if start is None else start.clone()
            e2 = ctx.identity() if start is None else start.clone()
            got, want = [], []
            grown = list(_rounds(ctx, rules, e1, dirty, within, got))
            assert grown == list(
                _reference_rounds(ctx, rules, e2, dirty, within, want)
            )
            assert got == want
            assert e1 == e2

    @pytest.mark.parametrize("family, seed", _FAMILIES)
    def test_witnesses_come_in_fact_key_order(self, family, seed):
        inst = _MAKERS[family](seed)
        ctx = inst.ctx
        rng = random.Random(inst.seed)
        eq = ctx.identity()
        ents = list(range(ctx.db.entities))
        for _ in range(rng.randrange(4)):
            if len(ents) > 1:
                eq.merge_ids(*rng.sample(ents, 2))
        some = frozenset(rng.sample(range(len(eq)), min(3, len(eq))))
        for rule in analyse(inst.spec).promoted:
            for dirty in (None, some):
                got = answers(
                    rule.body, rule.head, ctx, eq, witnesses=True, dirty=dirty
                )
                for ws in got.values():
                    assert ws == sorted(set(ws), key=_witness_key)
