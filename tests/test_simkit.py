"""Similarity machinery: kernels, models, stores, resolvers, strategies."""

import math
import os
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entres import kernels, matcher, simkit
from entres.cli import ingest
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

from conftest import MUSIC, ROOT, e, v
from instances import generate
from oracles import jw_score as jw_reference
from oracles import levenshtein_dp

short_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=382), max_size=12
)
# a small alphabet with a repeated letter forces repeated characters, taken
# window positions and transpositions in Jaro's matching
jaro_text = st.text(alphabet="abcab é", max_size=16)
# texts for every lane width of the bit-parallel `jw_rows`: 16, 32 and 64
# bits, and the multiples of 64 above
lane_text = st.one_of(
    jaro_text,
    st.text(alphabet="ab é☃", min_size=16, max_size=63),
    st.text(alphabet="ab é☃", min_size=64, max_size=140),
)

SIMS = ROOT / "tests" / "golden" / "sims" / "data"


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
    def test_edit_similarity_matches_full_matrix(self, a, b):
        want = 10000
        if a != b:
            m = max(len(a), len(b))
            want = int((1 - levenshtein_dp(a, b) / m) * 10000 + 0.5)
        assert kernels.lev_score(a, b) == want

    @given(jaro_text, jaro_text)
    @example("", "")
    @example("", "ab")
    @example("é", "")
    @settings(max_examples=400, deadline=None)
    def test_jaro_winkler_matches_window_scan(self, a, b):
        want = jw_reference(a, b)
        assert kernels.jw_score(a, b) == want

    @given(st.lists(jaro_text, max_size=6))
    @example([])
    @example(["", "a", "a", "", "aba", "baa"])
    @settings(max_examples=200, deadline=None)
    def test_jaro_winkler_rows_match_window_scan(self, texts):
        rows = kernels.jw_rows(texts)
        assert [len(row) for row in rows] == list(range(len(texts), 0, -1))
        for k, (a, row) in enumerate(zip(texts, rows)):
            want = [jw_reference(a, b) for b in texts[k:]]
            assert row.tolist() == want
            assert [kernels.jw_score(a, b) for b in texts[k:]] == want

    @given(st.lists(lane_text, min_size=1, max_size=6))
    @example(["ab", "x" * 100, "ba", "a", "", "xx"])
    @example(["abcabcabcabcab", "a" * 60 + "b", "ba"])
    @settings(max_examples=100, deadline=None)
    def test_jaro_winkler_rows_in_every_lane_width(self, texts):
        """Texts of up to 140 characters in any order, some repeated and
        some sharing a prefix of up to six characters with another; the
        examples put one 100-character text among short ones, and a row
        whose window passes the top of a 16-bit lane."""
        texts = texts + texts[1::3] + [t[:6] + t[:1:-1] for t in texts[::2]]
        want = [
            [jw_reference(a, b) for b in texts[k:]]
            for k, a in enumerate(texts)
        ]
        rows = kernels.jw_rows(texts)
        assert [row.tolist() for row in rows] == want

    def test_jaro_winkler_on_every_music_value_pair(self, music_db):
        values = sorted(c.text for c in music_db.domain if c.kind is Kind.VALUE)
        assert len(values) > 10
        for a in values:
            for b in values:
                want = jw_reference(a, b)
                assert kernels.jw_score(a, b) == want, (a, b)
        want = [
            [jw_reference(a, b) for b in values[i:]]
            for i, a in enumerate(values)
        ]
        assert [row.tolist() for row in kernels.jw_rows(values)] == want

    def test_map_rows_scores_pair_by_pair(self):
        texts = _words(30)  # 465 pairs
        rows = kernels.map_rows(kernels.lev_score, texts)
        assert [row.tolist() for row in rows] == [
            [kernels.lev_score(a, b) for b in texts[i:]]
            for i, a in enumerate(texts)
        ]

    def test_backend_is_reported(self):
        assert kernels.BACKEND == "python"


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

    def test_sim_all_builds_one_vector_per_distinct_text(self, monkeypatch):
        rng = random.Random(5)
        docs = sorted({" ".join(rng.sample(_words(40), 8)) for _ in range(30)})
        spec = parse_spec(
            "relation D(did: id, body: long) merge [did];\n"
            "soft s: D(x, a), D(y, b), sim(a, b) >= 50 ~> eq(x, y);\n"
        )
        db = Database([
            Fact("D", (e(f"d{i}"), v(doc))) for i, doc in enumerate(docs)
        ])
        registry = build_registry(spec, db)
        tokenize, seen = simkit._tokenize, []

        def counted(text):
            seen.append(text)
            return tokenize(text)

        monkeypatch.setattr(simkit, "_tokenize", counted)
        store = sim_all(db, spec, registry)
        assert sorted(seen) == docs
        monkeypatch.setattr(simkit, "_tokenize", tokenize)
        (func,) = store.funcs()
        rows = store.rows(func)
        assert len(rows) == len(docs) * (len(docs) + 1) // 2
        # a new model per pair has no vector memoised
        assert rows == [
            (a, b, TfidfModel(docs).score(a, b)) for a, b, _ in rows
        ]


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
            "nan": "a\tb\tNaN\n",
            "snan": "a\tb\tsNaN\n",
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
        s.put("f", "b", "a", 123)
        assert s.get("f", "a", "b") == 123
        assert s.get("f", "b", "a") == 123
        assert s.get("f", "a", "z") is None
        assert s.get("g", "a", "b") is None
        assert s.key_set() == {("f", "a", "b")}

    def test_sorted_views(self):
        s = SimStore()
        s.put("f", "z", "y", 1)
        s.put("f", "a", "b", 2)
        s.put("g", "m", "m", 3)
        assert s.funcs() == ["f", "g"]
        assert s.rows("f") == [("a", "b", 2), ("y", "z", 1)]
        assert list(s) == [("f", "a", "b"), ("f", "y", "z"), ("g", "m", "m")]
        assert len(s.key_set()) == 3

    @staticmethod
    def table_and_dict_stores():
        """A two-function `sim_all` store, and a store that holds the same
        scores through `put`, one pair at a time."""
        spec = parse_spec(
            "relation R(rid: id, a: short, n: num) merge [rid];\n"
            "soft s: R(x, a, n), R(y, a2, n2), sim(a, a2) >= 90,\n"
            "  sim(n, n2) >= 75 ~> eq(x, y);\n"
        )
        db = Database([
            Fact("R", (e("r1"), v("martha"), v("1961"))),
            Fact("R", (e("r2"), v("marhta"), v("1960"))),
            Fact("R", (e("r3"), v("quartz"), NULL)),
        ])
        table = sim_all(db, spec)
        loose = SimStore()
        for func, scorer, texts in (
            ("jw", kernels.jw_score, ["quartz", "martha", "marhta"]),
            ("lev", kernels.lev_score, ["1961", "1960"]),
        ):
            for i, a in enumerate(texts):
                for b in texts[i:]:
                    loose.put(func, b, a, scorer(a, b))
                    loose.calls += 1
        return table, loose

    def test_sim_all_table_answers_as_the_pair_dict(self):
        table, loose = self.table_and_dict_stores()
        texts = ["marhta", "martha", "quartz", "1960", "1961"]
        for func in ("jw", "lev", "tfidf"):
            for a in texts:
                for b in texts:
                    got = table.get(func, a, b)
                    assert got == table.get(func, b, a)
                    assert got == loose.get(func, a, b), (func, a, b)
        assert table.get("jw", "martha", "marhta") == 9611
        assert table.get("jw", "martha", "zzz") is None
        assert (len(table), table.calls) == (len(loose), loose.calls) == (9, 9)
        assert table.funcs() == loose.funcs() == ["jw", "lev"]
        for func in ("jw", "lev", "tfidf"):
            assert table.rows(func) == loose.rows(func)
        assert table.key_set() == loose.key_set()
        assert list(table) == list(loose)

    def test_pairs_put_outside_the_table_merge_into_its_rows(self):
        table, loose = self.table_and_dict_stores()
        for store in (table, loose):
            store.put("jw", "zz", "a", 5)
            store.put("jw", "martha", "n", 6)
            store.put("lev", "1", "2", 7)
        assert table.get("jw", "a", "zz") == 5
        assert len(table) == len(loose) == 12
        assert table.funcs() == loose.funcs()
        for func in ("jw", "lev"):
            assert table.rows(func) == loose.rows(func)
        assert list(table) == list(loose)


class TestResolvers:
    def test_strict_serves_and_refuses(self):
        s = SimStore()
        s.put("f", "a", "b", 42)
        r = StrictResolver(s)
        assert r.score("f", "a", "b") == 42
        assert r.score("f", "q", "q") == 10000  # no store lookup
        with pytest.raises(MissingSimScore, match=r"f\('a', 'z'\)"):
            r.score("f", "a", "z")

    def test_on_demand_computes_once(self):
        s = SimStore()
        r = OnDemandResolver(s, {"jw": kernels.jw_score})
        assert r.score("jw", "MARTHA", "MARHTA") == 9611
        assert s.calls == 1
        assert r.score("jw", "MARHTA", "MARTHA") == 9611
        assert s.calls == 1  # cache hit, no second kernel call
        assert r.score("jw", "x", "x") == 10000
        assert s.calls == 1
        assert len(s) == 1

    def test_table_resolver_is_total(self, music_table):
        r = TableResolver(music_table)
        assert r.score("approx", "Pink Floyd", "The Pink Floyd") == 10000
        assert r.score("approx", "no", "entry") == 0
        assert r.score("approx", "no", "no") == 10000


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

    @pytest.mark.parametrize("bundle", ["music", "sims"])
    def test_sim_all_scores_a_jaro_winkler_triangle_as_pair_by_pair(
        self, bundle
    ):
        # the music spec's table function is scored as Jaro-Winkler here; a
        # scorer that is not kernels.jw_score itself takes the per-pair path
        spec_file, data = {
            "music": (MUSIC / "music.er", MUSIC),
            "sims": (SIMS / "sims.er", SIMS),
        }[bundle]
        text = spec_file.read_text(encoding="utf-8")
        spec = parse_spec(text.replace("approx : table;", "approx : jw;"))
        db = ingest(str(data), spec.schema)
        registry = build_registry(spec, db)
        per_pair = {
            func: (lambda a, b: kernels.jw_score(a, b))
            if scorer is kernels.jw_score else scorer
            for func, scorer in registry.items()
        }
        assert per_pair != registry
        rows = sim_all(db, spec, registry)
        pairwise = sim_all(db, spec, per_pair)
        assert rows.funcs() == pairwise.funcs()
        for func in rows.funcs():
            assert rows.rows(func) == pairwise.rows(func)
        assert rows.calls == pairwise.calls == len(rows) > 0

    def test_sim_all_scores_a_large_triangle_in_this_process(
        self, monkeypatch
    ):
        # more than 2 x 65,536 pairs: a triangle this large is scored here
        # too, with no process forked and no CPU pinned
        n = 512
        texts = _words(n)
        assert n * (n + 1) // 2 > 2 * 65536
        spec = parse_spec(
            "relation R(rid: id, a: short) merge [rid];\n"
            "soft s: R(x, a), R(y, b), sim(a, b) >= 90 ~> eq(x, y);\n"
        )
        db = Database([
            Fact("R", (e(f"r{i}"), v(text))) for i, text in enumerate(texts)
        ])

        def refuse(*args):
            raise AssertionError("a triangle left this process")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        store = sim_all(db, spec)
        assert store.calls == len(store) == n * (n + 1) // 2
        assert [r.tolist() for r in store._tables["jw"].rows] == [
            r.tolist() for r in kernels.jw_rows(texts)
        ]

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
                ctx.replace(sims=StrictResolver(store))
            )
            found[name] = {s.pairs() for s in sols}
        assert found["all"] == found["cs"] == found["opt"]
        assert frozenset({MergePair.of(e("b1"), e("b2"))}) in found["all"]

    def test_repeated_sim_opt_lays_out_no_new_body(
        self, music_spec, music_db, music_table
    ):
        # the matcher keeps one layout per equal body for good, so each
        # call must evaluate bodies equal to the last call's
        reg = build_registry(music_spec, music_db, table=music_table)
        ctx = Context(music_db, music_spec)
        sim_opt(ctx, reg)
        held = matcher._layout.cache_info().currsize
        sim_opt(ctx, reg)
        assert matcher._layout.cache_info().currsize == held

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
        store_opt, _ = sim_opt(inst.ctx)
        full = {
            s.pairs()
            for s in enumerate_solutions(
                inst.ctx.replace(sims=StrictResolver(inst.store))
            )
        }
        thrifty = {
            s.pairs()
            for s in enumerate_solutions(
                inst.ctx.replace(sims=StrictResolver(store_opt))
            )
        }
        assert full == thrifty
        # the strict resolver raises on any pair the ub probes that
        # store_opt lacks
        assert ub(
            inst.ctx.replace(sims=StrictResolver(store_opt))
        ).nontrivial_pairs() == ub(
            inst.ctx.replace(sims=StrictResolver(inst.store))
        ).nontrivial_pairs()


def _words(n: int) -> list[str]:
    """n distinct words, sorted, as `sim_all` orders a triangle's texts."""
    rng = random.Random(n)
    words: set[str] = set()
    while len(words) < n:
        words.add("".join(rng.choices("abcdefghij", k=rng.randint(3, 12))))
    return sorted(words)
