"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they print. Each criterion is a single test; its `[acceptance]` line
reports PASS or FAIL, and the test fails loudly alongside the line.
"""

import time
from fractions import Fraction

import pytest

from entres.cli import evaluate, ingest
from entres.engine import (
    enumerate_solutions,
    is_possible,
    lb,
    levels,
    maximal_solutions,
    merge_sets,
    solve_one,
    ub,
)
from entres.explain import proof_tree, rule_depth
from entres.matcher import Context
from entres.model import MergePair
from entres.rules import load_spec
from entres.simkit import SimTable, StrictResolver, TableResolver, sim_cs, sim_opt

from conftest import MUSIC, e
from instances import chain_instance, generate
from oracles import (
    bruteforce_solutions,
    class_pairs,
    close_classes,
    maximal_sets,
    min_rule_depth,
    naive_lb,
    naive_solutions,
    naive_ub,
    pm_cm,
    simfn_of,
    validate_proof_tree,
)

P = MergePair.of


class _report:
    """Prints the criterion verdict line whether the body passed or not."""

    def __init__(self, n: int, name: str):
        self.n, self.name = n, name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] criterion {self.n} ({self.name}): {verdict}")
        return False


@pytest.fixture(scope="module")
def bundle():
    """At least 500 consistent random instances with solution sets computed
    once, shared by the sandwich and agreement criteria."""
    t0 = time.perf_counter()
    records = []
    consistent = 0
    seed = 0
    while consistent < 500 and seed < 3000:
        inst = generate(seed)
        seed += 1
        esols = [
            s.pairs()
            for s in enumerate_solutions(inst.ctx)
        ]
        osols = naive_solutions(
            inst.db, inst.spec, simfn_of(inst.sims), **inst.knobs
        )
        if esols:
            consistent += 1
        records.append((inst, esols, osols))
    build = time.perf_counter() - t0
    assert consistent >= 500, f"only {consistent} consistent instances"
    return {"records": records, "build_seconds": build, "consistent": consistent}


def test_criterion_1_golden_walkthrough():
    with _report(1, "golden walkthrough"):
        t0 = time.perf_counter()
        spec = load_spec(str(MUSIC / "music.er"))
        db = ingest(str(MUSIC), spec.schema)
        sims = TableResolver(SimTable.load(str(MUSIC / "simtable.tsv")))
        ctx = Context(db, spec, sims)

        bb = P(e("b1"), e("b2"))
        s12 = P(e("s1"), e("s2"))
        s13 = P(e("s1"), e("s3"))
        s23 = P(e("s2"), e("s3"))

        assert lb(ctx).nontrivial_pairs() == {bb}
        assert ub(ctx).nontrivial_pairs() == {bb, s12, s13, s23}
        maxima = {s.pairs() for s in maximal_solutions(ctx)}
        assert maxima == {
            frozenset({bb, s12}),
            frozenset({bb, s23}),
        }
        ms = merge_sets(ctx)
        assert ms.pm == {bb, s12, s23}
        assert ms.cm == {bb}
        assert not is_possible(ctx, (e("s1"), e("s3")))

        e1 = next(
            s
            for s in maximal_solutions(ctx)
            if s.pairs() == {bb, s12}
        )
        lm = levels(ctx, e1)
        assert lm[s12] == 2 and lm[bb] == 1
        tree = proof_tree(ctx, e1, s12)
        assert validate_proof_tree(tree, db, spec, sims) == []
        assert rule_depth(tree) == 2

        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"golden walkthrough took {elapsed:.3f}s"


def test_criterion_2_bound_sandwich(bundle):
    with _report(2, "bound sandwich"):
        t0 = time.perf_counter()
        checked = 0
        for inst, esols, _ in bundle["records"]:
            if not esols:
                continue
            checked += 1
            floor = lb(inst.ctx).nontrivial_pairs()
            ceil = ub(inst.ctx).nontrivial_pairs()
            maxima = maximal_sets(set(esols))
            pm = frozenset().union(*esols)
            cm = frozenset.intersection(*maxima)
            assert floor <= cm <= pm <= ceil, inst.seed
            for m in maxima:
                assert cm <= m <= pm, inst.seed
        elapsed = bundle["build_seconds"] + (time.perf_counter() - t0)
        assert checked >= 500
        assert elapsed < 120, f"sandwich suite took {elapsed:.1f}s"


def test_criterion_3_exhaustive_agreement(bundle):
    with _report(3, "exhaustive agreement"):
        import random

        for inst, esols, osols in bundle["records"]:
            assert set(esols) == osols, inst.seed
            assert osols == bruteforce_solutions(
                inst.db, inst.spec, inst.sims, **inst.knobs
            ), inst.seed
            engine_maxima = {
                s.pairs()
                for s in maximal_solutions(inst.ctx)
            }
            assert engine_maxima == maximal_sets(osols), inst.seed
            ms = merge_sets(inst.ctx)
            opm, ocm = pm_cm(osols)
            assert (ms.pm, ms.cm, ms.consistent) == (
                opm,
                ocm,
                bool(osols),
            ), inst.seed

            rng = random.Random(inst.seed)
            ents = sorted(inst.db.entity_refs(), key=lambda c: c.text)
            probe = list(opm)[:2]
            for _ in range(3):
                a, b = rng.sample(ents, 2)
                probe.append(P(a, b))
            for pair in probe:
                assert is_possible(inst.ctx, pair) == (pair in opm), (
                    inst.seed, pair,
                )


def test_criterion_4_probe_thrift(bundle):
    with _report(4, "probe thrift"):
        checked = 0
        for inst, esols, _ in bundle["records"]:
            if inst.store is None:
                continue
            checked += 1
            store_cs = sim_cs(inst.db, inst.spec)
            store_opt, _ = sim_opt(inst.ctx)
            assert store_opt.calls <= store_cs.calls, inst.seed
            thrifty = {
                s.pairs()
                for s in enumerate_solutions(inst.ctx.replace(
                    sims=StrictResolver(store_opt)
                ))
            }
            assert thrifty == set(esols), inst.seed
            if checked >= 200:
                break
        assert checked >= 200, f"only {checked} instances carry similarity atoms"


def test_criterion_5_recursion_levels():
    with _report(5, "recursion levels"):
        # the three-relation walkthrough, constraint dropped so that all
        # three songs merge through the band merge
        spec = load_spec(str(MUSIC / "music.er"))
        free = spec.replace(dcs=())
        db = ingest(str(MUSIC), spec.schema)
        sims = TableResolver(SimTable.load(str(MUSIC / "simtable.tsv")))
        ctx = Context(db, free, sims)
        sol = maximal_solutions(ctx)[0]
        lm = levels(ctx, sol)
        assert max(lv for _, lv in lm.items()) >= 2
        assert dict(lm.items()) == dict(
            levels(ctx, sol).items()
        )  # the chain is stable across reruns
        classes = close_classes(sol.pairs(), db.domain)
        assert dict(lm.items()) == min_rule_depth(
            db, free, simfn_of(sims), classes
        )

        # reference ladders: one level per rung, equal to the tree minimum
        for depth in (2, 3, 4):
            inst = chain_instance(depth)
            sol = solve_one(inst.ctx)
            lm = levels(inst.ctx, sol)
            assert max(lv for _, lv in lm.items()) == depth
            classes = close_classes(sol.pairs(), inst.db.domain)
            assert dict(lm.items()) == min_rule_depth(
                inst.db, inst.spec, simfn_of(inst.sims), classes
            )

        # random instances stay at or under twelve entity references, so the
        # exhaustive minimum-depth oracle is feasible on all of them
        compared = 0
        for seed in range(150):
            inst = generate(seed)
            assert len(inst.db.entity_refs()) <= 12
            sols = enumerate_solutions(inst.ctx)
            for sol in sols[:3]:
                lm = levels(inst.ctx, sol)
                classes = close_classes(sol.pairs(), inst.db.domain)
                want = min_rule_depth(
                    inst.db, inst.spec, simfn_of(inst.sims), classes
                )
                assert dict(lm.items()) == want, inst.seed
                compared += 1
        assert compared >= 100


def test_criterion_6_null_joins():
    with _report(6, "null joins"):
        from entres.model import NULL, Database, Fact
        from entres.rules import parse_spec

        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("R", (e("r1"), NULL)),
                Fact("R", (e("r2"), NULL)),
                Fact("R", (e("r3"), NULL)),
            ]
        )
        pair_rows = lambda eq: eq.nontrivial_pairs()

        # guarded: the shared missing value never links anything
        ctx = Context(db, spec)
        assert pair_rows(lb(ctx)) == frozenset()
        assert pair_rows(ub(ctx)) == frozenset()
        sols = enumerate_solutions(ctx)
        assert [s.pairs() for s in sols] == [frozenset()]

        # mutation probe: the oracle without the guard must visibly differ
        # here, otherwise the guard is dead code and these tests prove
        # nothing
        unguarded = class_pairs(
            naive_lb(db, spec, None, null_join_guard=False)
        )
        assert P(e("r1"), e("r2")) in unguarded
        assert len(unguarded) == 3

        # and on the random family: the guard only ever removes merges
        # (the brute-force agreement of criterion 3 checks the same states
        # against an independent implementation of the guard)
        def unguarded_ub(inst):
            return class_pairs(naive_ub(
                inst.db, inst.spec, simfn_of(inst.sims),
                null_join_guard=False, **inst.knobs,
            ))

        for seed in range(120):
            inst = generate(seed)
            assert ub(inst.ctx).nontrivial_pairs() <= unguarded_ub(inst)

        # a family member whose null cells land in a join column: the
        # guard must surface there too, not just in the crafted case
        inst = generate(154)
        assert ub(inst.ctx).nontrivial_pairs() < unguarded_ub(inst)


def test_criterion_7_hard_determinism():
    with _report(7, "hard determinism"):
        for seed in range(200):
            inst = generate(seed, hard_only=True)
            assert inst.spec.soft == () and inst.spec.dcs == ()
            sols = enumerate_solutions(inst.ctx)
            assert len(sols) == 1, inst.seed
            floor = lb(inst.ctx)
            assert sols[0].pairs() == floor.nontrivial_pairs(), inst.seed


def test_criterion_8_metric_identities():
    with _report(8, "metric identities"):
        F = Fraction
        ab, cd, ef, gh, ij, kl, mn = (
            P(e(x), e(y))
            for x, y in ("ab", "cd", "ef", "gh", "ij", "kl", "mn")
        )
        fixtures = [
            ({ab}, {ab}, F(1), F(1), F(1)),
            ({ab, cd}, {ab}, F(1, 2), F(1), F(2, 3)),
            ({ab}, {ab, cd}, F(1), F(1, 2), F(2, 3)),
            (set(), set(), F(1), F(1), F(1)),
            (set(), {ab}, F(1), F(0), F(0)),
            ({ab}, set(), F(0), F(1), F(0)),
            ({ab, cd}, {ab, cd}, F(1), F(1), F(1)),
            ({ab, cd, ef}, {ab, cd}, F(2, 3), F(1), F(4, 5)),
            ({ab}, {cd}, F(0), F(0), F(0)),
            ({ab, cd}, {cd, ef}, F(1, 2), F(1, 2), F(1, 2)),
            ({ab, cd, ef, gh}, {ab}, F(1, 4), F(1), F(2, 5)),
            ({ab}, {ab, cd, ef, gh}, F(1), F(1, 4), F(2, 5)),
            ({ab, cd, ef}, {ab, cd, ef, gh, ij}, F(1), F(3, 5), F(3, 4)),
            ({ab, cd, ef, gh, ij}, {ab, cd, ef}, F(3, 5), F(1), F(3, 4)),
            ({ab, cd, ef}, {cd, ef, gh}, F(2, 3), F(2, 3), F(2, 3)),
            ({ab, cd}, {ab, cd, ef}, F(1), F(2, 3), F(4, 5)),
            ({ab, cd, ef, gh}, {cd, ef}, F(1, 2), F(1), F(2, 3)),
            ({ab, cd, ef, gh, ij, kl}, {ab, kl, mn}, F(1, 3), F(2, 3), F(4, 9)),
            ({ab, cd, ef}, {ab, ef, ij, kl}, F(2, 3), F(1, 2), F(4, 7)),
            ({ab, cd, ef, gh, ij}, {ab, cd}, F(2, 5), F(1), F(4, 7)),
        ]
        assert len(fixtures) == 20
        for i, (result, truth, p, r, f1) in enumerate(fixtures, 1):
            got = evaluate(frozenset(result), frozenset(truth))
            assert got["precision"] == p, f"fixture {i} precision"
            assert got["recall"] == r, f"fixture {i} recall"
            assert got["f1"] == f1, f"fixture {i} f1"
            # the harmonic identity itself, on the exact rationals
            if p + r:
                assert got["f1"] == 2 * p * r / (p + r), f"fixture {i}"
