"""Similarity machinery: kernels, models, stores, resolvers, strategies."""

import dataclasses
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entres._kernels_py as pure_kernels
from entres import kernels
from entres.engine import enumerate_solutions, ub
from entres.errors import DataError, MissingSimScore
from entres.matcher import Context
from entres.model import NULL, Database, Fact, Kind, MergePair
from entres.rules import parse_spec
from entres.simkit import (
    SimStore,
    SimTable,
    StrictResolver,
    OnDemandResolver,
    TableResolver,
    TfidfModel,
    build_registry,
    sim_all,
    sim_cs,
    sim_functions,
    sim_opt,
)

from conftest import e, v
from instances import generate
from oracles import jw_score as jw_reference
from oracles import levenshtein_dp

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=382), max_size=12
)
# a small alphabet with a repeated letter forces repeated characters, taken
# window positions and transpositions in Jaro's matching
jaro_text = st.text(alphabet="abcab é", max_size=16)


class TestKernels:
    @pytest.mark.parametrize(
        "a,b,score",
        [
            ("MARTHA", "MARHTA", 9611),
            ("DIXON", "DICKSONX", 8133),
            ("DWAYNE", "DUANE", 8400),
            ("same", "same", 10000),
            ("", "", 10000),
            ("a", "", 0),
        ],
    )
    def test_prefix_boosted_jaro(self, a, b, score):
        assert kernels.jw_score(a, b) == score

    @pytest.mark.parametrize(
        "a,b,dist",
        [("kitten", "sitting", 3), ("", "abc", 3), ("flaw", "lawn", 2)],
    )
    def test_edit_distance(self, a, b, dist):
        assert kernels.levenshtein(a, b) == dist

    def test_scaled_edit_similarity(self):
        assert kernels.lev_score("1965", "1966") == 7500
        assert kernels.lev_score("", "") == 10000
        assert kernels.lev_score("a", "") == 0

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_edit_distance_matches_full_matrix(self, a, b):
        assert kernels.levenshtein(a, b) == levenshtein_dp(a, b)

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_kernel_invariants(self, a, b):
        jw = kernels.jw_score(a, b)
        lv = kernels.lev_score(a, b)
        assert 0 <= jw <= 10000 and 0 <= lv <= 10000
        assert jw == kernels.jw_score(b, a)
        assert lv == kernels.lev_score(b, a)
        assert kernels.jw_score(a, a) == 10000

    @given(short_text, short_text)
    @settings(max_examples=150, deadline=None)
    def test_python_fallback_agrees_with_active_backend(self, a, b):
        assert kernels.jw_score(a, b) == pure_kernels.jw_score(a, b)
        assert kernels.lev_score(a, b) == pure_kernels.lev_score(a, b)
        assert kernels.levenshtein(a, b) == pure_kernels.levenshtein(a, b)

    @given(jaro_text, jaro_text)
    @example("", "")
    @example("", "ab")
    @example("é", "")
    @settings(max_examples=400, deadline=None)
    def test_jaro_winkler_matches_window_scan(self, a, b):
        want = jw_reference(a, b)
        assert kernels.jw_score(a, b) == want
        assert pure_kernels.jw_score(a, b) == want

    def test_jaro_winkler_on_every_music_value_pair(self, music_db):
        values = sorted(c.text for c in music_db.domain if c.kind is Kind.VALUE)
        assert len(values) > 10
        for a in values:
            for b in values:
                want = jw_reference(a, b)
                assert kernels.jw_score(a, b) == want, (a, b)
                assert pure_kernels.jw_score(a, b) == want, (a, b)

    def test_backend_is_reported(self):
        assert kernels.BACKEND in ("c", "python")


class TestTfidf:
    CORPUS = ["red door", "red dor", "green gate", "red door red"]

    def expected(self, a: str, b: str) -> int:
        """Independent recomputation: smoothed idf, tf weighting, unit
        vectors, cosine via the dot product."""
        docs = sorted(set(self.CORPUS))
        tok = lambda s: [t for t in re.split(r"[^0-9a-z]+", s.lower()) if t]
        n = len(docs)
        df = {}
        for d in docs:
            for t in set(tok(d)):
                df[t] = df.get(t, 0) + 1

        def vec(s):
            counts = {}
            for t in tok(s):
                counts[t] = counts.get(t, 0) + 1
            w = {
                t: c * (math.log((1 + n) / (1 + df.get(t, 0))) + 1)
                for t, c in counts.items()
            }
            norm = math.sqrt(sum(x * x for x in w.values()))
            return {t: x / norm for t, x in w.items()} if norm else {}

        if a == b:
            return 10000
        va, vb = vec(a), vec(b)
        dot = sum(va[t] * vb.get(t, 0.0) for t in va)
        return int(dot * 10000.0 + 0.5)

    def test_matches_independent_computation(self):
        m = TfidfModel(self.CORPUS)
        vals = self.CORPUS + ["red", "blue wall", ""]
        for a in vals:
            for b in vals:
                assert m.score(a, b) == self.expected(a, b), (a, b)

    def test_identical_strings_max_out(self):
        m = TfidfModel(self.CORPUS)
        assert m.score("red door", "red door") == 10000

    def test_disjoint_vocabulary_scores_zero(self):
        m = TfidfModel(self.CORPUS)
        assert m.score("red door", "blue wall") == 0

    def test_unknown_tokens_still_compare(self):
        m = TfidfModel(self.CORPUS)
        assert m.score("mystery word", "mystery word") == 10000
        assert 0 < m.score("red mystery", "red door") < 10000


class TestSimTable:
    def test_music_table(self, music_table):
        assert music_table.score("Pink Floyd", "The Pink Floyd") == 10000
        assert music_table.score("The Pink Floyd", "Pink Floyd") == 10000
        assert music_table.score("anything", "anything") == 10000
        assert music_table.score("Pink Floyd", "Prog. rock") == 0

    def test_load_rejects_bad_rows(self, tmp_path):
        cases = {
            "two-cells": "a\tb\n",
            "three-decimals": "a\tb\t50.555\n",
            "out-of-range": "a\tb\t101\n",
            "not-a-number": "a\tb\tfifty\n",
        }
        for name, content in cases.items():
            p = tmp_path / f"{name}.tsv"
            p.write_text(content)
            with pytest.raises(DataError, match=rf"{name}\.tsv:1"):
                SimTable.load(str(p))

    def test_two_decimal_scores_accepted(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tb\t99.99\nc\td\t0\n")
        t = SimTable.load(str(p))
        assert t.score("a", "b") == 9999
        assert t.score("b", "a") == 9999
        assert t.score("c", "d") == 0


class TestSimStore:
    def test_canonical_keying(self):
        s = SimStore()
        s.put("f", v("b"), v("a"), 123)
        assert s.get("f", v("a"), v("b")) == 123
        assert s.get("f", v("b"), v("a")) == 123
        assert s.get("f", v("a"), v("z")) is None
        assert s.get("g", v("a"), v("b")) is None

    def test_sorted_views(self):
        s = SimStore()
        s.put("f", v("z"), v("y"), 1)
        s.put("f", v("a"), v("b"), 2)
        s.put("g", v("m"), v("m"), 3)
        assert s.funcs() == ["f", "g"]
        assert [(a.text, b.text, sc) for a, b, sc in s.rows("f")] == [
            ("a", "b", 2),
            ("y", "z", 1),
        ]
        assert len(list(s)) == 3
        assert len(s.key_set()) == 3


class TestResolvers:
    def test_strict_serves_and_refuses(self):
        s = SimStore()
        s.put("f", v("a"), v("b"), 42)
        r = StrictResolver(s)
        assert r.score("f", v("a"), v("b")) == 42
        assert r.score("f", v("q"), v("q")) == 10000  # no store lookup
        assert r.score("f", v("a"), NULL) == 0
        with pytest.raises(MissingSimScore):
            r.score("f", v("a"), v("z"))

    def test_on_demand_computes_once(self):
        s = SimStore()
        r = OnDemandResolver(s, {"jw": kernels.jw_score})
        assert r.score("jw", v("MARTHA"), v("MARHTA")) == 9611
        assert s.calls == 1
        assert r.score("jw", v("MARHTA"), v("MARTHA")) == 9611
        assert s.calls == 1  # cache hit, no second kernel call
        assert r.score("jw", v("x"), v("x")) == 10000
        assert r.score("jw", v("x"), NULL) == 0
        assert s.calls == 1

    def test_table_resolver_is_total(self, music_table):
        r = TableResolver(music_table)
        assert r.score("approx", v("Pink Floyd"), v("The Pink Floyd")) == 10000
        assert r.score("approx", v("no"), v("entry")) == 0
        assert r.score("approx", v("no"), NULL) == 0


class TestRegistryAndPositions:
    def test_music_function_inventory(self, music_spec):
        funcs = sim_functions(music_spec)
        assert set(funcs) == {"approx"}
        backend, positions = funcs["approx"]
        assert backend == "table"
        assert positions == frozenset(
            {("Band", 1), ("Band", 2), ("Song", 1)}
        )

    def test_table_backend_requires_a_table(self, music_spec, music_db):
        with pytest.raises(MissingSimScore, match="approx"):
            build_registry(music_spec, music_db)

    def test_registry_with_table(self, music_spec, music_db, music_table):
        reg = build_registry(music_spec, music_db, table=music_table)
        assert reg["approx"]("Pink Floyd", "The Pink Floyd") == 10000


class TestStrategies:
    def test_exhaustive_count_on_music(self, music_spec, music_db, music_table):
        # 7 distinct values across the three similarity-read columns.
        reg = build_registry(music_spec, music_db, table=music_table)
        store = sim_all(music_db, music_spec, registry=reg)
        n = 7
        assert store.calls == n * (n - 1) // 2 + n == 28
        assert len(store.key_set()) == 28

    def test_rule_crossproduct_count_on_music(
        self, music_spec, music_db, music_table
    ):
        reg = build_registry(music_spec, music_db, table=music_table)
        store = sim_cs(music_db, music_spec, registry=reg)
        # names x names (3 unordered incl. reflexive), genres x genres (3),
        # titles x titles (6)
        assert store.calls == 12
        assert len(store.key_set()) == 12

    def test_value_constant_operand_is_scored_by_every_strategy(self):
        spec = parse_spec(
            "relation Band(bid: id, name: short) merge [bid];\n"
            'soft s: Band(x, n), Band(y, m), sim(n, "the beatles") >= 85,\n'
            '  sim(m, "the beatles") >= 85 ~> eq(x, y);\n'
        )
        db = Database([
            Fact("Band", (e("b1"), v("teh beatles"))),
            Fact("Band", (e("b2"), v("the beetles"))),
        ])
        ctx = Context(db, spec)
        found = {}
        for name, store in (
            ("all", sim_all(db, spec)),
            ("cs", sim_cs(db, spec)),
            ("opt", sim_opt(ctx)[0]),
        ):
            sols = enumerate_solutions(
                dataclasses.replace(ctx, sims=StrictResolver(store))
            )
            found[name] = {s.pairs() for s in sols}
        assert found["all"] == found["cs"] == found["opt"]
        assert frozenset({MergePair.of(e("b1"), e("b2"))}) in found["all"]

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_probe_containment_and_call_budget(self, seed):
        inst = generate(seed)
        if inst.store is None:
            pytest.skip("this seed has no similarity atoms")
        store_all = inst.store
        store_cs = sim_cs(inst.db, inst.spec)
        store_opt, _ = sim_opt(inst.ctx)
        assert store_opt.key_set() <= store_cs.key_set() <= store_all.key_set()
        assert store_opt.calls <= store_cs.calls <= store_all.calls

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_optimized_probing_preserves_solutions(self, seed):
        inst = generate(seed)
        if inst.store is None:
            pytest.skip("this seed has no similarity atoms")
        store_opt, opt_ub = sim_opt(inst.ctx)
        full = {
            s.pairs()
            for s in enumerate_solutions(
                dataclasses.replace(inst.ctx, sims=StrictResolver(inst.store))
            )
        }
        thrifty = {
            s.pairs()
            for s in enumerate_solutions(
                dataclasses.replace(inst.ctx, sims=StrictResolver(store_opt))
            )
        }
        assert full == thrifty
        assert opt_ub == ub(
            dataclasses.replace(inst.ctx, sims=StrictResolver(inst.store))
        ).nontrivial_pairs()
