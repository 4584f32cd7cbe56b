"""Solution search, merge sets, levels; golden values on the music bundle
and differential checks against the brute-force oracles."""

import sys

import pytest

from entres.engine import (
    _rounds,
    certain_merges,
    enumerate_solutions,
    is_possible,
    is_solution,
    lb,
    levels,
    loose_ub,
    maximal_solutions,
    merge_sets,
    possible_merges,
    solve_one,
    ub,
)
from entres.errors import NotASolution
from entres.matcher import Context, dc_satisfied, merge_candidates
from entres.model import Database, EqRel, Fact, MergePair
from entres.rules import analyse, parse_spec

from conftest import e, v
from instances import chain_instance, generate, generate_neq
from oracles import (
    bruteforce_solutions,
    class_pairs,
    close_classes,
    min_rule_depth,
    naive_lb,
    naive_loose_ub,
    naive_solutions,
    naive_ub,
    pm_cm,
    simfn_of,
    verify_solution,
)

P = MergePair.of
BB = P(e("b1"), e("b2"))
S12 = P(e("s1"), e("s2"))
S13 = P(e("s1"), e("s3"))
S23 = P(e("s2"), e("s3"))

E1 = frozenset({BB, S12})
E2 = frozenset({BB, S23})
E_PRIME = frozenset({BB})


@pytest.fixture(scope="module")
def music(music_db, music_spec, music_sims):
    return Context(music_db, music_spec, music_sims)


class TestMusicGolden:
    def test_bounds(self, music):
        ctx = music
        assert lb(ctx).nontrivial_pairs() == {BB}
        assert ub(ctx).nontrivial_pairs() == {BB, S12, S13, S23}
        assert loose_ub(ctx).nontrivial_pairs() >= ub(ctx).nontrivial_pairs()

    def test_solutions(self, music):
        ctx = music
        sols = {s.pairs() for s in enumerate_solutions(ctx)}
        assert sols == {E1, E2, E_PRIME}

    def test_maximal(self, music):
        ctx = music
        maxima = {s.pairs() for s in maximal_solutions(ctx)}
        assert maxima == {E1, E2}

    def test_merge_sets(self, music):
        ctx = music
        ms = merge_sets(ctx)
        assert ms.consistent
        assert ms.lb == {BB}
        assert ms.ub == {BB, S12, S13, S23}
        assert ms.pm == {BB, S12, S23}
        assert ms.cm == {BB}
        assert possible_merges(ctx) == ms.pm
        assert certain_merges(ctx) == ms.cm

    def test_the_two_close_songs_never_merge_together(self, music):
        ctx = music
        assert not is_possible(ctx, (e("s1"), e("s3")))
        assert is_possible(ctx, (e("s1"), e("s2")))
        assert is_possible(ctx, (e("b1"), e("b2")))

    def test_reflexive_and_foreign_possibility(self, music):
        ctx = music
        assert is_possible(ctx, (e("b1"), e("b1")))
        assert not is_possible(ctx, (e("b1"), e("zz")))

    def test_levels_inside_each_maximal_solution(self, music):
        ctx = music
        for sol in maximal_solutions(ctx):
            lm = levels(ctx, sol)
            want = {BB: 1, S12: 2} if sol.pairs() == E1 else {BB: 1, S23: 2}
            assert dict(lm.items()) == want

    def test_derivations_replay(self, music):
        ctx = music
        for sol in enumerate_solutions(ctx):
            assert verify_solution(ctx, sol)

    def test_tampered_derivation_fails_replay(self, music):
        ctx = music
        sol = next(
            s for s in enumerate_solutions(ctx) if s.pairs() == E1
        )
        assert len(sol.derivation) >= 2
        clipped = sol.replace(derivation=sol.derivation[1:])
        assert not verify_solution(ctx, clipped)
        relabeled = sol.replace(
            derivation=(
                sol.derivation[0].replace(label="delta"),
            )
            + sol.derivation[1:],
        )
        assert not verify_solution(ctx, relabeled)

    def test_without_the_constraint_everything_merges(self, music):
        ctx = music
        free = ctx.replace(spec=ctx.spec.replace(dcs=()))
        maxima = maximal_solutions(free)
        assert len(maxima) == 1
        assert maxima[0].pairs() == {BB, S12, S13, S23}
        lm = levels(free, maxima[0])
        assert dict(lm.items()) == {BB: 1, S12: 2, S13: 2, S23: 2}


class TestSearchContract:
    def test_enumeration_is_deterministic(self, music):
        ctx = music
        once = [s.pairs() for s in enumerate_solutions(ctx)]
        again = [s.pairs() for s in enumerate_solutions(ctx)]
        assert once == again

    def test_limit_is_a_prefix(self, music):
        ctx = music
        full = [s.pairs() for s in enumerate_solutions(ctx)]
        two = [s.pairs() for s in enumerate_solutions(ctx, n=2)]
        assert two == full[:2]

    def test_maximal_sorted_largest_first(self, music):
        ctx = music
        maxima = maximal_solutions(ctx)
        sizes = [len(s.pairs()) for s in maxima]
        assert sizes == sorted(sizes, reverse=True)
        assert maximal_solutions(ctx, n=0) == []

    def test_solve_one_returns_some_solution(self, music):
        ctx = music
        sol = solve_one(ctx)
        assert sol is not None
        assert is_solution(ctx, sol.eq)

    def test_inconsistent_instance_has_no_solutions(self):
        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
            "deny d: R(x, u), R(x, w), u != w;\n"
        )
        db = Database(
            [
                Fact("R", (e("a"), v("same"))),
                Fact("R", (e("b"), v("same"))),
                Fact("R", (e("a"), v("other"))),
            ]
        )
        assert enumerate_solutions(Context(db, spec)) == []
        assert solve_one(Context(db, spec)) is None
        ms = merge_sets(Context(db, spec))
        assert not ms.consistent and ms.pm == ms.cm == frozenset()


class TestLevelsContract:
    def test_requires_a_solution(self, music):
        ctx = music
        from entres.engine import Solution

        with pytest.raises(NotASolution):
            levels(ctx, Solution(EqRel(ctx.db.domain)))

    def test_scope_validation(self, music):
        ctx = music
        sol = solve_one(ctx)
        with pytest.raises(ValueError):
            levels(ctx, sol, scope="everything")

    def test_round_chain_rejects_a_relation_over_another_domain(self):
        # the chain compares within's canonical ids with the database's
        inst = chain_instance(3)
        wider = EqRel(inst.db.domain | {e("a0")})
        chain = _rounds(
            inst.ctx, inst.spec.hard, inst.ctx.identity(), within=wider
        )
        with pytest.raises(ValueError, match="domain"):
            next(chain)

    def test_unrestricted_scope_never_reports_later(self, music):
        ctx = music
        for sol in enumerate_solutions(ctx):
            sol_lm = dict(levels(ctx, sol).items())
            ub_lm = dict(levels(ctx, sol, scope="ub").items())
            assert set(ub_lm) == set(sol_lm)
            assert all(ub_lm[p] <= sol_lm[p] for p in sol_lm)

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_reference_ladder_climbs_one_level_per_rung(self, depth):
        inst = chain_instance(depth)
        sol = solve_one(inst.ctx)
        lm = levels(inst.ctx, sol)
        assert max(lv for _, lv in lm.items()) == depth
        top = P(e(f"e{depth}l"), e(f"e{depth}r")) if depth > 1 else P(
            e("a1"), e("a2")
        )
        assert lm[top] == depth

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_ladder_levels_equal_min_rule_depth(self, depth):
        inst = chain_instance(depth)
        sol = solve_one(inst.ctx)
        lm = dict(levels(inst.ctx, sol).items())
        classes = close_classes(sol.pairs(), inst.db.domain)
        assert lm == min_rule_depth(
            inst.db, inst.spec, simfn_of(inst.sims), classes
        )


class TestGuards:
    def test_bruteforce_refuses_large_domains(self):
        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
        )
        db = Database(
            [Fact("R", (e(f"r{i:02}"), v(f"k{i:02}"))) for i in range(21)]
        )
        with pytest.raises(ValueError, match="exceeds the 20 limit"):
            bruteforce_solutions(db, spec, None)
        # distinct values everywhere: raising the cap explores one state
        assert bruteforce_solutions(db, spec, None, max_entities=30) == {
            frozenset()
        }


class TestFamilyDifferential:
    @pytest.mark.parametrize("seed", range(30))
    def test_solutions_and_bounds_match_oracles(self, seed):
        inst = generate(seed)
        simfn = simfn_of(inst.sims)
        want = naive_solutions(inst.db, inst.spec, simfn, **inst.knobs)
        got = {
            s.pairs()
            for s in enumerate_solutions(inst.ctx)
        }
        assert got == want
        assert got == bruteforce_solutions(
            inst.db, inst.spec, inst.sims, **inst.knobs
        )
        assert lb(inst.ctx).nontrivial_pairs() == class_pairs(
            naive_lb(inst.db, inst.spec, simfn, **inst.knobs)
        )
        assert ub(inst.ctx).nontrivial_pairs() == class_pairs(
            naive_ub(inst.db, inst.spec, simfn, **inst.knobs)
        )
        assert loose_ub(inst.ctx).nontrivial_pairs() == class_pairs(
            naive_loose_ub(inst.db, inst.spec, **inst.knobs)
        )
        ms = merge_sets(inst.ctx)
        opm, ocm = pm_cm(want)
        assert ms.consistent == bool(want)
        assert (ms.pm, ms.cm) == (opm, ocm)

    @pytest.mark.parametrize("seed", range(30))
    def test_every_enumerated_solution_replays(self, seed):
        inst = generate(seed)
        for sol in enumerate_solutions(inst.ctx):
            assert verify_solution(inst.ctx, sol)


class TestHardOnly:
    @pytest.mark.parametrize("seed", range(25))
    def test_single_solution_equal_to_the_floor(self, seed):
        inst = generate(seed, hard_only=True)
        assert inst.spec.soft == () and inst.spec.dcs == ()
        sols = enumerate_solutions(inst.ctx)
        assert len(sols) == 1
        floor = lb(inst.ctx)
        assert sols[0].pairs() == floor.nontrivial_pairs()


class TestDeltaSearch:
    """The search derives each child from its parent: hard saturation pinned
    to the classes the merges grew, soft candidates carried over and
    re-canonicalised, monotone constraints checked on the delta only. Each
    shortcut must equal the full evaluation at every reachable state."""

    @staticmethod
    def _check_walk(ctx, max_states=40):
        spec = ctx.spec
        breaks = analyse(spec).breaks
        soft = [r for r in spec.soft if r.label not in breaks]
        pruning = analyse(spec).pruning
        start = EqRel(ctx.db.domain)
        for _ in _rounds(ctx, spec.hard, start):
            pass
        todo, seen, checked = [start], {start.signature()}, 0
        while todo and len(seen) <= max_states:
            parent = todo.pop()
            if not all(dc_satisfied(dc, ctx, parent) for dc in pruning):
                continue  # the search expands no child of such a state
            before = {
                r.label: merge_candidates(r, ctx, parent)
                for r in soft
            }
            for rule in spec.soft:
                for i, j in merge_candidates(rule, ctx, parent):
                    child = parent.clone()
                    child.merge_ids(i, j)
                    full = child.clone()
                    dirty = child.class_ids((i,))
                    dirty = dirty.union(*_rounds(ctx, spec.hard, child, dirty))
                    for _ in _rounds(ctx, spec.hard, full):
                        pass
                    assert child.signature() == full.signature()
                    for r in soft:
                        carried = {
                            tuple(sorted((child.canon_id(a), child.canon_id(b))))
                            for a, b in before[r.label]
                        }
                        carried = {(a, b) for a, b in carried if a != b}
                        delta = merge_candidates(r, ctx, child, dirty)
                        assert carried | delta == merge_candidates(
                            r, ctx, child
                        )
                    for dc in pruning:
                        assert dc_satisfied(
                            dc, ctx, child, dirty
                        ) == dc_satisfied(dc, ctx, child)
                    checked += 1
                    if child.signature() not in seen:
                        seen.add(child.signature())
                        todo.append(child)
        return checked

    def test_music_bundle(self, music):
        ctx = music
        assert self._check_walk(ctx) >= 3

    def test_family(self):
        checked = 0
        for seed in range(60):
            inst = generate(seed)
            checked += self._check_walk(inst.ctx)
        for seed in range(20):
            inst = generate_neq(seed)
            checked += self._check_walk(inst.ctx)
        assert checked >= 200

    def test_entity_constant_in_a_body_atom(self):
        # merging a and b moves @b's representative to a, so rows that only
        # mention a start to match T(x, @b): saturation must pin every member
        # of a grown class, not only the ids whose representative changed
        spec = parse_spec(
            "relation R(rid: id, k: val) merge [rid];\n"
            "relation T(tid: id, r: id) merge [tid];\n"
            "hard h1: R(x, k), R(y, k) => eq(x, y);\n"
            "hard h2: T(x, @b), T(y, @b) => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("R", (e("a"), v("k1"))),
                Fact("R", (e("b"), v("k1"))),
                Fact("T", (e("t1"), e("a"))),
                Fact("T", (e("t3"), e("a"))),
            ]
        )
        want = {P(e("a"), e("b")), P(e("t1"), e("t3"))}
        assert lb(Context(db, spec)).nontrivial_pairs() == want
        assert class_pairs(naive_lb(db, spec, None)) == want
        sols = enumerate_solutions(Context(db, spec))
        assert [s.pairs() for s in sols] == [want]

    def test_deep_chain_needs_no_recursion(self):
        n = 300
        spec = parse_spec(
            "relation C(cid: id, k: val) merge [cid];\n"
            "soft c1: C(x, k), C(y, k) ~> eq(x, y);\n"
        )
        db = Database(
            [Fact("C", (e(f"a{i:03}"), v(f"k{i:03}"))) for i in range(n)]
            + [Fact("C", (e(f"b{i:03}"), v(f"k{i:03}"))) for i in range(n)]
        )
        ctx = Context(db, spec)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            sol = solve_one(ctx)
            # solve_one searches one part per rung; the whole-instance
            # search goes n nodes deep, one merge each, before it accepts
            sols = enumerate_solutions(ctx, 2)
        finally:
            sys.setrecursionlimit(limit)
        assert sol is not None
        assert sol.pairs() == {
            P(e(f"a{i:03}"), e(f"b{i:03}")) for i in range(n)
        }
        assert [len(s.pairs()) for s in sols] == [n, n - 1]
        assert sols[0].pairs() == sol.pairs()
        assert all(verify_solution(ctx, s) for s in sols)


class TestInequalityFamily:
    """generate_neq's soft rules read inequalities on value columns (carried
    from parent to child), on a reference column and against an entity
    constant (evaluated in full, with hard answers searched as branches)."""

    def test_engine_agrees_with_both_oracles(self):
        consistent = 0
        for seed in range(300):
            inst = generate_neq(seed)
            sols = enumerate_solutions(inst.ctx)
            got = {s.pairs() for s in sols}
            assert got == naive_solutions(
                inst.db, inst.spec, simfn_of(inst.sims), **inst.knobs
            ), seed
            assert got == bruteforce_solutions(
                inst.db, inst.spec, inst.sims, **inst.knobs
            ), seed
            assert all(
                verify_solution(inst.ctx, s)
                for s in sols
            ), seed
            consistent += bool(got)
            if consistent >= 200:
                break
        assert consistent >= 200

    def test_bounds_bracket_every_solution(self):
        # the instances of test_engine_agrees_with_both_oracles; the
        # oracle's solutions check the bounds independently of the search
        consistent = 0
        for seed in range(300):
            inst = generate_neq(seed)
            ms = merge_sets(inst.ctx)
            if not ms.consistent:
                continue
            assert ms.lb <= ms.cm <= ms.pm <= ms.ub, seed
            assert ms.ub <= loose_ub(inst.ctx).nontrivial_pairs(), seed
            for s in naive_solutions(
                inst.db, inst.spec, simfn_of(inst.sims), **inst.knobs
            ):
                assert ms.lb <= s <= ms.ub, seed
            consistent += 1
            if consistent >= 200:
                break
        assert consistent >= 200

    def test_lb_leaves_out_a_hard_rule_an_earlier_merge_disables(self):
        # applying h1 first falsifies h2's inequality, so {p1~p2} alone is a
        # solution and x1~x2 is not certain
        spec = parse_spec(
            "relation P(pid: id, k: val) merge [pid];\n"
            "relation R(rid: id, a: val, r: id) merge [rid];\n"
            "hard h1: P(x, k), P(y, k) => eq(x, y);\n"
            "hard h2: R(x, a, r), R(y, a, r2), r != r2 => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("P", (e("p1"), v("k"))),
                Fact("P", (e("p2"), v("k"))),
                Fact("R", (e("x1"), v("a"), e("p1"))),
                Fact("R", (e("x2"), v("a"), e("p2"))),
            ]
        )
        pp = P(e("p1"), e("p2"))
        assert frozenset({pp}) in naive_solutions(db, spec, None)
        assert [r.label for r in analyse(spec).lb] == ["h1"]
        assert lb(Context(db, spec)).nontrivial_pairs() == {pp}

    def test_ub_keeps_an_answer_a_later_merge_disables(self):
        # c1~c2 then t1~t2 is a solution while d1 and d2 still differ; the
        # all-rules fixpoint merges d1~d2 in the same round as c1~c2, which
        # falsifies sb's inequality before sb can fire
        spec = parse_spec(
            "relation D(did: id, k: val) merge [did];\n"
            "relation C(cid: id, k: val) merge [cid];\n"
            "relation T(tid: id, c: id, d: id) merge [tid];\n"
            "soft sd: D(x, k), D(y, k) ~> eq(x, y);\n"
            "soft sc: C(x, k), C(y, k) ~> eq(x, y);\n"
            "soft sb: T(x, c, d), T(y, c, d2), d != d2 ~> eq(x, y);\n"
        )
        db = Database(
            [
                Fact("D", (e("d1"), v("k"))),
                Fact("D", (e("d2"), v("k"))),
                Fact("C", (e("c1"), v("k"))),
                Fact("C", (e("c2"), v("k"))),
                Fact("T", (e("t1"), e("c1"), e("d1"))),
                Fact("T", (e("t2"), e("c2"), e("d2"))),
            ]
        )
        found = frozenset({P(e("c1"), e("c2")), P(e("t1"), e("t2"))})
        assert found in naive_solutions(db, spec, None)
        an = analyse(spec)
        assert list(an.breaks) == ["sb"] and not an.eager
        assert [len(r.body.neq_atoms) for r in an.ub] == [0, 0, 0]
        ctx = Context(db, spec)
        assert found <= ub(ctx).nontrivial_pairs()
        assert found <= loose_ub(ctx).nontrivial_pairs()

    def test_hard_merge_does_not_hide_a_soft_answer(self):
        # r0 and r1 must merge; s1 and s3 may merge only while their
        # references still differ, that is before the hard merge
        spec = parse_spec(
            "relation R(rid: id, a: val) merge [rid];\n"
            "relation S(sid: id, t: val, r: id) merge [sid];\n"
            "hard h: R(x, a), R(y, a) => eq(x, y);\n"
            "soft s: S(x, t, r), S(y, t, r2), r != r2 ~> eq(x, y);\n"
        )
        db = Database(
            [
                Fact("R", (e("r0"), v("same"))),
                Fact("R", (e("r1"), v("same"))),
                Fact("S", (e("s1"), v("t"), e("r1"))),
                Fact("S", (e("s3"), v("t"), e("r0"))),
            ]
        )
        rr, ss = P(e("r0"), e("r1")), P(e("s1"), e("s3"))
        an = analyse(spec)
        assert an.breaks["s"][1] == "reads reference column S.r"
        assert not an.eager and [r.label for r in an.branching] == ["s", "h"]
        want = {frozenset({rr}), frozenset({rr, ss})}
        assert naive_solutions(db, spec, None) == want
        sols = enumerate_solutions(Context(db, spec))
        assert {s.pairs() for s in sols} == want

    def test_hard_rule_with_an_id_inequality_replays(self):
        # applying h1 first falsifies h2's inequality, so {p1~p2} alone is a
        # solution; saturating both hard rules in one round would also
        # record an h2 step that is no answer at its point of the derivation
        spec = parse_spec(
            "relation P(pid: id, k: val) merge [pid];\n"
            "relation R(rid: id, a: val, r: id) merge [rid];\n"
            "hard h1: P(x, k), P(y, k) => eq(x, y);\n"
            "hard h2: R(x, a, r), R(y, a, r2), r != r2 => eq(x, y);\n"
        )
        db = Database(
            [
                Fact("P", (e("p1"), v("k"))),
                Fact("P", (e("p2"), v("k"))),
                Fact("R", (e("x1"), v("a"), e("p1"))),
                Fact("R", (e("x2"), v("a"), e("p2"))),
            ]
        )
        pp, xx = P(e("p1"), e("p2")), P(e("x1"), e("x2"))
        want = {frozenset({pp}), frozenset({pp, xx})}
        assert naive_solutions(db, spec, None) == want
        sols = enumerate_solutions(Context(db, spec))
        assert {s.pairs() for s in sols} == want
        assert all(verify_solution(Context(db, spec), s) for s in sols)
