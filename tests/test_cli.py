"""Command line surface: ingestion, truth files, metrics, every mode, exit
codes, and rerun determinism."""

import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entres import cli, engine, errors
from entres.cli import evaluate, ingest, load_truth, main, write_pairs
from entres.errors import HeaderMismatch, MissingFile, RaggedRow
from entres.explain import proof_tree, to_dot, to_json
from entres.matcher import Context
from entres.model import NULL, Database, Fact, MergePair
from entres.rules import load_spec
from entres.simkit import sim_all, sim_cs

from conftest import MUSIC, ROOT, e, v
from oracles import database_fields

P = MergePair.of
SIM_ARG = f"table:{MUSIC / 'simtable.tsv'}"


def run(*args):
    return main([str(a) for a in args])


def bundle(tmp_path, spec_text, **tables):
    """Write a spec and one TSV per relation; returns (spec path, data dir)."""
    spec = tmp_path / "spec.er"
    spec.write_text(spec_text)
    d = tmp_path / "data"
    d.mkdir()
    for rel, text in tables.items():
        (d / f"{rel}.tsv").write_text(text)
    return spec, d


def expected_pairs(pairs):
    return ["left\tright"] + sorted(
        f"{p.left.text}\t{p.right.text}" for p in pairs
    )


def music_args(mode, out, *extra):
    return (
        "--spec", MUSIC / "music.er",
        "--data", MUSIC,
        "--sim", SIM_ARG,
        "--mode", mode,
        "--out", out,
        *extra,
    )


class TestIngest:
    def test_music_bundle(self, music_spec, music_db):
        assert len(music_db) == 8
        assert music_db.relations() == ("Appear", "Band", "Song")
        assert e("b1") in music_db.domain
        assert v("Pink Floyd") in music_db.domain
        song = music_db.by_relation["Song"][0]
        assert song.args[0].is_entity() and song.args[3].is_entity()
        assert not song.args[1].is_entity()

    def test_duplicate_rows_collapse(self, music_spec, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        rows = "rid\ta\nr1\tx\nr1\tx\nr2\ty\n"
        (d / "R.tsv").write_text(rows)
        from entres.rules import parse_spec

        spec = parse_spec("relation R(rid: id, a: val) merge [rid];")
        db = ingest(str(d), spec.schema)
        assert len(db) == 2

    def test_null_token(self, tmp_path):
        from entres.rules import parse_spec

        spec = parse_spec("relation R(rid: id, a: val) merge [rid];")
        d = tmp_path / "data"
        d.mkdir()
        (d / "R.tsv").write_text("rid\ta\nr1\t\nr2\tNA\n")
        db = ingest(str(d), spec.schema)
        assert Fact("R", (e("r1"), NULL)) in db
        assert Fact("R", (e("r2"), v("NA"))) in db
        db2 = ingest(str(d), spec.schema, null_token="NA")
        assert Fact("R", (e("r2"), NULL)) in db2
        assert Fact("R", (e("r1"), v(""))) in db2

    def test_csv_fallback(self, tmp_path):
        from entres.rules import parse_spec

        spec = parse_spec("relation R(rid: id, a: val) merge [rid];")
        d = tmp_path / "data"
        d.mkdir()
        (d / "R.csv").write_text("rid,a\nr1,hello\n")
        db = ingest(str(d), spec.schema)
        assert Fact("R", (e("r1"), v("hello"))) in db

    def test_errors(self, music_spec, tmp_path):
        d = tmp_path / "data"
        d.mkdir()
        with pytest.raises(MissingFile, match="Band.tsv or Band.csv"):
            ingest(str(d), music_spec.schema)
        (d / "Band.tsv").write_text("wrong\theader\n")
        with pytest.raises(HeaderMismatch, match="Band.tsv"):
            ingest(str(d), music_spec.schema)
        (d / "Band.tsv").write_text(
            "bid\tname\tgenre\tyear\tfounder\nb1\tshort\trow\n"
        )
        with pytest.raises(RaggedRow, match=r"Band\.tsv:2"):
            ingest(str(d), music_spec.schema)


#: a schema whose relations read a text as an entity in one column and as a
#: value in another, and one (T) that may have a header and no row
_INTERN_SPEC = (
    "relation R(rid: id, a: val, b: id) merge [rid];\n"
    "relation S(sid: id, t: val) merge [sid];\n"
    "relation T(x: id) merge [x];\n"
)
_INTERN_FIELDS = (
    "facts", "by_relation", "domain", "consts", "ids", "entities", "rows",
    "index",
)


def _interned_facts(spec, tables, token):
    """The facts ingest reads from the tables: a null token cell is the
    null constant, an id column's cell an entity, any other a value."""
    facts = []
    for decl in spec.schema.relations:
        for row in tables.get(decl.name, ()):
            facts.append(Fact(decl.name, tuple(
                NULL if c == token else e(c) if h == "id" else v(c)
                for c, h in zip(row, decl.hints)
            )))
    return facts


def _same_as_reference(db, facts):
    """db's every field equals the sort-based construction's, relations in
    the same order, and its facts share one Constant per constant."""
    want = database_fields(facts)
    for field in _INTERN_FIELDS:
        assert getattr(db, field) == want[field], field
    assert list(db.rows) == list(want["rows"]) == list(db.by_relation)
    assert len(db) == len(want["facts"]) and all(f in db for f in facts)
    args = [a for f in db.facts for a in f.args]
    assert len({id(a) for a in args}) == len(db.domain)
    assert all(a is db.consts[db.ids[a]] for a in args)


def _check_interned(tables, exts, token):
    """ingest of the tables, each written as a CSV or a TSV file, and
    Database of the facts it should read, against the reference."""
    from entres.rules import parse_spec

    spec = parse_spec(_INTERN_SPEC)
    with tempfile.TemporaryDirectory() as tmp:
        for decl, ext in zip(spec.schema.relations, exts):
            path = Path(tmp) / f"{decl.name}.{ext}"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh, delimiter="\t" if ext == "tsv" else ",")
                w.writerow(decl.attributes)
                w.writerows(tables.get(decl.name, ()))
        db = ingest(tmp, spec.schema, null_token=token)
    facts = _interned_facts(spec, tables, token)
    _same_as_reference(db, facts)
    _same_as_reference(Database(facts), facts)
    _same_as_reference(Database(reversed(facts)), facts)
    return db


_cell = st.sampled_from(["a", "b", "ab", "", "NA", "b a", "\u00e9"])


class TestInternedDatabase:
    """ingest and Database(facts) share one interning routine: one Constant
    per constant, rows as sorted id tuples. Each field must equal the
    construction that sorts Fact records (oracles.database_fields)."""

    def test_named_cases(self):
        tables = {
            # a duplicate row, a null cell, a text both entity and value
            "R": [("a", "b", "a"), ("a", "b", "a"), ("b", "", "NA")],
            "S": [("NA", "a"), ("b a", "\u00e9")],
        }
        for exts in (("tsv",) * 3, ("csv",) * 3, ("csv", "tsv", "csv")):
            for token in ("", "NA"):
                db = _check_interned(tables, exts, token)
                assert "T" not in db.rows  # a header and no row: no entry
                assert {e("a"), v("a"), NULL} <= db.domain
        db = _check_interned({}, ("tsv",) * 3, "")
        assert db.rows == {} and db.consts == () and len(db) == 0

    @settings(max_examples=150, deadline=None)
    @given(
        st.fixed_dictionaries({
            "R": st.lists(st.tuples(_cell, _cell, _cell), max_size=6),
            "S": st.lists(st.tuples(_cell, _cell), max_size=4),
            "T": st.lists(st.tuples(_cell), max_size=3),
        }),
        st.tuples(*[st.sampled_from(["tsv", "csv"])] * 3),
        st.sampled_from(["", "NA", "b"]),
    )
    def test_generated_tables(self, tables, exts, token):
        _check_interned(tables, exts, token)


class TestTruthFiles:
    def test_pair_format_round_trip(self, tmp_path):
        pairs = frozenset({P(e("a"), e("b")), P(e("c"), e("d"))})
        p = tmp_path / "pairs.tsv"
        write_pairs(p, pairs)
        lines = p.read_text().splitlines()
        assert lines[0] == "left\tright"
        assert lines[1:] == sorted(lines[1:])
        assert load_truth(str(p)) == pairs

    def test_cluster_format_expands(self, tmp_path):
        p = tmp_path / "clusters.tsv"
        p.write_text(
            "constant\tcluster\na\t1\nb\t1\nc\t1\nd\t2\n"
        )
        got = load_truth(str(p))
        assert got == {
            P(e("a"), e("b")),
            P(e("a"), e("c")),
            P(e("b"), e("c")),
        }

    def test_cluster_header_documented_in_readme_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        found = re.search(
            r"clustering with header\s+`(\w+)`/`(\w+)`", readme
        )
        assert found, "README no longer documents the clustering header"
        p = tmp_path / "clusters.tsv"
        p.write_text("{}\t{}\na\t1\nb\t1\n".format(*found.groups()))
        assert load_truth(str(p)) == {P(e("a"), e("b"))}

    def test_unknown_header_rejected(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("foo\tbar\nx\ty\n")
        with pytest.raises(HeaderMismatch):
            load_truth(str(p))


class TestMetrics:
    def test_exact_fractions(self):
        result = frozenset({P(e("a"), e("b")), P(e("a"), e("c"))})
        truth = frozenset({P(e("a"), e("b"))})
        m = evaluate(result, truth)
        assert m == {
            "precision": Fraction(1, 2),
            "recall": Fraction(1, 1),
            "f1": Fraction(2, 3),
        }

    def test_empty_conventions(self):
        some = frozenset({P(e("a"), e("b"))})
        assert evaluate(frozenset(), frozenset())["f1"] == 1
        assert evaluate(frozenset(), some) == {
            "precision": Fraction(1),
            "recall": Fraction(0),
            "f1": Fraction(0),
        }
        assert evaluate(some, frozenset()) == {
            "precision": Fraction(0),
            "recall": Fraction(1),
            "f1": Fraction(0),
        }


class TestModes:
    def test_validate_prints_safety_line(self, capsys):
        assert run("--spec", MUSIC / "music.er", "--mode", "validate") == 0
        out = capsys.readouterr().out
        assert out == "sim-safe: yes; 1 hard, 1 soft, 1 DC\n"

    def test_validate_names_each_non_monotone_body(self, tmp_path, capsys):
        spec = tmp_path / "neq.er"
        spec.write_text(
            "relation R(rid: id, a: val, r: id) merge [rid];\n"
            "hard h: R(x, a, r), R(y, a, r2), r != r2 => eq(x, y);\n"
            "soft s: R(x, a, r), R(y, a, r), x != @r0 ~> eq(x, y);\n"
            "soft v: R(x, a, r), R(y, a2, r), a != a2 ~> eq(x, y);\n"
            "deny d: R(x, a, r), R(x, a2, r2), r != r2;\n"
        )
        assert run("--spec", spec, "--mode", "validate") == 0
        assert capsys.readouterr().out.splitlines() == [
            "sim-safe: yes; 1 hard, 2 soft, 1 DC",
            "  hard rule h: r != r2 reads reference column R.r: left out of "
            "lb; the search is not eager and does not split",
            "  soft rule s: x != @r0 compares with entity constant @r0: the "
            "search is not eager and does not split",
            "  constraint d: r != r2 reads reference column R.r: checked once "
            "a state is done; the search does not split",
        ]

    def test_bounds_files(self, tmp_path, capsys):
        for mode, pairs in [
            ("lb", {("b1", "b2")}),
            ("ub", {("b1", "b2"), ("s1", "s2"), ("s1", "s3"), ("s2", "s3")}),
        ]:
            out = tmp_path / mode
            assert run(*music_args(mode, out)) == 0
            lines = (out / f"{mode}.tsv").read_text().splitlines()
            assert lines[0] == "left\tright"
            assert {tuple(l.split("\t")) for l in lines[1:]} == pairs
        text = capsys.readouterr().out
        assert re.search(
            r"timing: preprocess=\d+\.\d{3}s fixpoint=\d+\.\d{3}s solve=\d+\.\d{3}s",
            text,
        )

    def test_loose_ub_contains_ub(self, tmp_path):
        for mode in ("ub", "loose-ub"):
            assert run(*music_args(mode, tmp_path / mode)) == 0
        ub_rows = set(
            (tmp_path / "ub" / "ub.tsv").read_text().splitlines()[1:]
        )
        loose_rows = set(
            (tmp_path / "loose-ub" / "loose-ub.tsv").read_text().splitlines()[1:]
        )
        assert ub_rows <= loose_rows

    def test_loose_ub_under_every_strategy(self, tmp_path):
        # loose-ub drops every similarity atom, so no strategy scores a pair
        # and the table-backed function needs no table
        def loose_ub(strategy, out):
            return run(
                "--spec", MUSIC / "music.er", "--data", MUSIC,
                "--sim", strategy, "--mode", "loose-ub", "--out", out,
            )

        want = (GOLDEN / "music" / "loose-ub" / "loose-ub.tsv").read_text()
        for k, strategy in enumerate(("all", "cs", "opt", SIM_ARG)):
            assert loose_ub(strategy, tmp_path / str(k)) == 0
            assert (tmp_path / str(k) / "loose-ub.tsv").read_text() == want
        # a table is still read, so a missing one is still a data error
        missing = f"table:{tmp_path / 'missing.tsv'}"
        assert loose_ub(missing, tmp_path / "t") == 3

    def test_enumerate_and_maximal_files(self, tmp_path):
        out = tmp_path / "enum"
        assert run(*music_args("enumerate", out)) == 0
        files = sorted(p.name for p in out.glob("enumerate_*.tsv"))
        assert files == ["enumerate_1.tsv", "enumerate_2.tsv", "enumerate_3.tsv"]
        out2 = tmp_path / "max"
        assert run(*music_args("maximal:2", out2)) == 0
        sets = []
        for k in (1, 2):
            rows = (out2 / f"maximal_{k}.tsv").read_text().splitlines()[1:]
            sets.append({tuple(r.split("\t")) for r in rows})
        assert {("b1", "b2")} <= sets[0] and {("b1", "b2")} <= sets[1]
        assert {frozenset(s) for s in sets} == {
            frozenset({("b1", "b2"), ("s1", "s2")}),
            frozenset({("b1", "b2"), ("s2", "s3")}),
        }

    def test_pm_with_truth_metrics(self, tmp_path, capsys):
        out = tmp_path / "pm"
        code = run(
            *music_args("pm", out, "--truth", MUSIC / "truth_pairs.tsv")
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "metrics: P=0.6667 R=1.0000 F1=0.8000" in text
        data = json.loads((out / "metrics.json").read_text())
        assert data["precision_exact"] == "2/3"
        assert data["recall_exact"] == "1"
        assert data["f1_exact"] == "4/5"
        assert abs(data["f1"] - 0.8) < 1e-12

    def test_cm_matches_floor_here(self, tmp_path):
        out = tmp_path / "cm"
        assert run(*music_args("cm", out)) == 0
        rows = (out / "cm.tsv").read_text().splitlines()
        assert rows == ["left\tright", "b1\tb2"]

    def test_data_file_of_an_undeclared_relation_is_ignored(self, tmp_path):
        spec_text = (
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
        )
        outputs = []
        for extra in ({}, {"Stray": "a\tb\nx\ty\n"}):
            case = tmp_path / f"case{len(outputs)}"
            case.mkdir()
            spec, data = bundle(
                case, spec_text, R="rid\tk\nr1\tu\nr2\tu\n", **extra
            )
            assert run("--spec", spec, "--data", data, "--mode", "pm",
                       "--out", case / "o") == 0
            outputs.append((case / "o" / "pm.tsv").read_text())
        assert outputs[0] == outputs[1] == "left\tright\nr1\tr2\n"

    def test_empty_spec_pm_writes_only_the_header(self, tmp_path):
        spec, data = bundle(tmp_path, "", R="rid\tk\nr1\tu\n")
        assert run("--spec", spec, "--data", data, "--mode", "pm",
                   "--out", tmp_path / "o") == 0
        assert (tmp_path / "o" / "pm.tsv").read_text() == "left\tright\n"

    def test_levels_file(self, tmp_path):
        out = tmp_path / "lv"
        assert run(*music_args("levels", out)) == 0
        rows = (out / "levels.tsv").read_text().splitlines()
        assert rows[0] == "left\tright\tlevel"
        assert set(rows[1:]) == {"b1\tb2\t1", "s1\ts2\t2"}

    def test_explain_outputs(self, tmp_path, capsys):
        out = tmp_path / "ex"
        assert run(*music_args("explain:s1,s2", out)) == 0
        text = capsys.readouterr().out
        assert "explain (s1, s2): rule-depth 2" in text
        dot = (out / "explain.dot").read_text()
        assert dot.startswith("digraph proof {")
        tree = json.loads((out / "explain.json").read_text())
        assert tree["rule"] == "sigma"

    def test_eval_mode(self, tmp_path, capsys):
        out = tmp_path / "ev"
        code = run(
            *music_args("eval", out, "--truth", MUSIC / "truth_pairs.tsv")
        )
        assert code == 0
        assert (out / "metrics.json").exists()
        assert "metrics: P=" in capsys.readouterr().out

    def test_eval_requires_truth(self, tmp_path, capsys):
        assert run(*music_args("eval", tmp_path / "ev2")) == 1
        assert "truth" in capsys.readouterr().err

    def test_sim_export_for_computed_functions(self, tmp_path, capsys):
        d = tmp_path / "data"
        d.mkdir()
        (d / "R.tsv").write_text("rid\ta\nr1\tmartha\nr2\tmarhta\nr3\tquartz\n")
        spec = tmp_path / "jw.er"
        spec.write_text(
            "relation R(rid: id, a: val) merge [rid];\n"
            "soft s1: R(x, a), R(y, a2), sim(a, a2) >= 90 ~> eq(x, y);\n"
        )
        out = tmp_path / "sim"
        code = run(
            "--spec", spec, "--data", d, "--sim", "all", "--mode", "sim",
            "--out", out,
        )
        assert code == 0
        rows = (out / "sim_jw.tsv").read_text().splitlines()
        assert rows[0] == "left\tright\tscore"
        assert "marhta\tmartha\t96.11" in rows
        assert len(rows) == 7  # header + C(3,2) + 3 reflexive

    @pytest.mark.parametrize("strategy", ["all", "cs", "opt"])
    def test_two_functions_of_one_sim_file_are_a_spec_error(
        self, tmp_path, capsys, strategy
    ):
        # the auto-routed tfidf@Doc.body and the declared tfidf_Doc_body
        # both map to sim_tfidf_Doc_body.tsv
        spec, d = bundle(
            tmp_path,
            "relation Doc(did: id, body: long) merge [did];\n"
            "sim tfidf_Doc_body : jw;\n"
            "soft s1: Doc(x, b), Doc(y, c), sim(b, c) >= 50 ~> eq(x, y);\n"
            "soft s2: Doc(x, b), Doc(y, c), sim:tfidf_Doc_body(b, c) >= 90"
            " ~> eq(x, y);\n",
            Doc="did\tbody\nd1\tthe quick brown fox\n"
                "d2\tthe quick brown fix\nd3\tlazy dogs sleep\n",
        )
        out = tmp_path / "sim"
        assert run("--spec", spec, "--data", d, "--sim", strategy,
                   "--mode", "sim", "--out", out) == 2
        assert capsys.readouterr().err == (
            "specification error: similarity functions 'tfidf@Doc.body' and "
            "'tfidf_Doc_body' would both write sim_tfidf_Doc_body.tsv; "
            "rename one\n"
        )
        assert not out.exists()

    def test_entity_constant_operand_under_every_strategy(self, tmp_path):
        # rho compares a name with @zz, an entity constant no row carries;
        # every strategy scores a constant operand as written, so all three
        # run and agree
        text = (MUSIC / "music.er").read_text(encoding="utf-8")
        for old, new in [
            ("sim approx : table;\n", ""),
            ("sim:approx(n, n2) >= 50, sim:approx(g, g2) >= 50",
             "sim(n, n2) >= 50, sim(n, @zz) >= 0"),
            ("sim:approx(t, t2) >= 50", "sim(t, t2) >= 50"),
        ]:
            assert old in text
            text = text.replace(old, new)
        spec = tmp_path / "zz.er"
        spec.write_text(text)
        outs = {}
        for strategy in ("all", "cs", "opt"):
            out = tmp_path / strategy
            for mode in ("lb", "pm"):
                assert run("--spec", spec, "--data", MUSIC, "--sim", strategy,
                           "--mode", mode, "--out", out) == 0
            outs[strategy] = [
                (out / f"{mode}.tsv").read_text() for mode in ("lb", "pm")
            ]
        assert outs["all"] == outs["cs"] == outs["opt"]
        parsed = load_spec(str(spec))
        db = ingest(str(MUSIC), parsed.schema)
        every, crossed = sim_all(db, parsed), sim_cs(db, parsed)
        assert any("zz" in k[1:] for k in crossed.key_set())
        assert crossed.key_set() <= every.key_set()
        for func, a, b in crossed.key_set():
            assert every.get(func, a, b) == crossed.get(func, a, b)

    def test_sim_files_hold_one_row_per_text_pair(self, tmp_path, capsys):
        # the entity constant @zz and the name zz have one text, so they
        # make one pair: each strategy scores it once and writes one row
        spec, d = bundle(
            tmp_path,
            "relation Band(bid: id, name: short) merge [bid];\n"
            "soft s: Band(x, n), Band(y, m), sim(n, m) >= 90,\n"
            "  sim(n, @zz) >= 0 ~> eq(x, y);\n",
            Band="bid\tname\nb1\tzz\nb2\tzy\n",
        )
        scores = {}
        for strategy in ("all", "cs", "opt"):
            out = tmp_path / strategy
            assert run("--spec", spec, "--data", d, "--sim", strategy,
                       "--mode", "sim", "--out", out) == 0
            lines = (out / "sim_jw.tsv").read_text().splitlines()
            assert lines[0] == "left\tright\tscore"
            rows = [line.split("\t") for line in lines[1:]]
            assert all(a <= b for a, b, _ in rows)
            assert rows == sorted(rows)
            pairs = [(a, b) for a, b, _ in rows]
            assert len(set(pairs)) == len(pairs)
            n = len(rows)
            assert f"sim: {n} scores from {n} calls" in capsys.readouterr().out
            scores[strategy] = {(a, b): s for a, b, s in rows}
        assert set(scores["all"]) == {("zy", "zy"), ("zy", "zz"), ("zz", "zz")}
        assert set(scores["opt"]) <= set(scores["cs"]) <= set(scores["all"])
        for found in (scores["cs"], scores["opt"]):
            assert all(scores["all"][p] == s for p, s in found.items())

    def test_table_strategy_has_nothing_to_export(self, tmp_path, capsys):
        out = tmp_path / "simtab"
        assert run(*music_args("sim", out)) == 0
        assert "nothing to materialize" in capsys.readouterr().out
        assert list(out.glob("*.tsv")) == []


#: each exception class of entres.errors -> (the exit code cli.main returns
#: when a run raises it, the start of its stderr line); None for the
#: classes no input can cause, which main lets through as the bug they are
ERROR_EXITS = {
    "EntresError": None,
    "NonEntityMerge": None,
    "NotASolution": None,
    "SpecError": (2, "specification error: "),
    "SpecSyntaxError": (2, "specification error: "),
    "UnknownRelation": (2, "specification error: "),
    "ArityMismatch": (2, "specification error: "),
    "UnsafeHeadVariable": (2, "specification error: "),
    "SpecValidationError": (2, "specification error: "),
    "UnknownSimFunction": (2, "specification error: "),
    "DataError": (3, "data error: "),
    "MissingFile": (3, "data error: "),
    "HeaderMismatch": (3, "data error: "),
    "RaggedRow": (3, "data error: "),
    "MissingSimScore": (3, "data error: "),
    "UnknownConstant": (3, "data error: "),
    "NotInSolution": (4, "no solution contains the pair: "),
}


class TestExitCodes:
    def test_each_error_class_has_its_exit_code(self, monkeypatch, capsys):
        classes = {
            name: cls for name, cls in vars(errors).items()
            if isinstance(cls, type) and issubclass(cls, errors.EntresError)
        }
        assert set(classes) == set(ERROR_EXITS)
        for name, cls in classes.items():
            exc = cls("m", 1, 2) if cls is errors.SpecSyntaxError else cls("m")

            def fail(args, parser, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "run", fail)
            argv = ["--spec", "s.er", "--mode", "validate"]
            if ERROR_EXITS[name] is None:
                with pytest.raises(cls):
                    main(argv)
                continue
            code, prefix = ERROR_EXITS[name]
            assert main(argv) == code, name
            assert capsys.readouterr().err == f"{prefix}{exc}\n", name

    def test_usage_error(self, capsys):
        assert run("--spec", MUSIC / "music.er", "--mode", "bogus") == 1

    @pytest.mark.parametrize("mode", [
        "bogus", "lb:1", "maximal:x", "maximal:0", "explain:s1",
        "explain:s1,s1",
        # a bound is written in ASCII digits only, as a spec number is
        "maximal:\u0663", "maximal:+2", "maximal:1_0", "maximal: 2",
    ])
    def test_mode_parse_errors_exit_before_ingest(self, tmp_path, capsys, mode):
        # the data directory is missing, so reading it would exit 3
        args = music_args(mode, tmp_path / "o")
        args = args[:3] + (tmp_path / "nope",) + args[4:]
        assert run(*args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "error:" in line]) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bundle", ["music", "ladder"])
    def test_unknown_similarity_strategy_is_a_usage_error(
        self, tmp_path, capsys, bundle
    ):
        # the ladder spec has no similarity atom, so no strategy would run
        spec, data = {
            "music": (MUSIC / "music.er", MUSIC),
            "ladder": (LADDER / "ladder.er", LADDER),
        }[bundle]
        out = tmp_path / "o"
        assert run("--spec", spec, "--data", data, "--sim", "bogus",
                   "--mode", "lb", "--out", out) == 1
        assert capsys.readouterr().err.endswith(
            "error: unknown similarity strategy 'bogus'; "
            "expected all, cs, opt or table:FILE\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("under_file", [False, True])
    def test_out_that_cannot_be_a_directory(self, tmp_path, capsys, under_file):
        # the data directory is missing, so reading it would exit 3
        taken = tmp_path / "taken.tsv"
        taken.write_text("left\tright\n")
        out = taken / "o" if under_file else taken
        args = music_args("lb", out)
        args = args[:3] + (tmp_path / "nope",) + args[4:]
        assert run(*args) == 1
        reason = "Not a directory" if under_file else "File exists"
        assert capsys.readouterr().err == (
            f"entres: error: cannot create output directory {out}: {reason}\n"
        )
        assert taken.read_text() == "left\tright\n"

    def test_spec_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.er"
        bad.write_text("relation Broken(")
        assert run("--spec", bad, "--mode", "validate") == 2
        assert "specification error:" in capsys.readouterr().err

    def test_non_ascii_digits_are_a_spec_error(self, tmp_path, capsys):
        # a threshold of Arabic-Indic digits, 0.8 if \d took any digit
        spec = tmp_path / "spec.er"
        spec.write_text(
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k2), sim(k, k2) >= \u0660.\u0668"
            " => eq(x, y);\n",
            encoding="utf-8",
        )
        assert run("--spec", spec, "--mode", "validate") == 2
        assert "unexpected character" in capsys.readouterr().err

    def test_data_error(self, tmp_path, capsys):
        assert (
            run(
                "--spec", MUSIC / "music.er",
                "--data", tmp_path / "nope",
                "--sim", SIM_ARG,
                "--mode", "lb",
                "--out", tmp_path / "o",
            )
            == 3
        )
        assert "data error:" in capsys.readouterr().err

    def test_missing_input_files_name_their_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        cases = (
            (("--spec", missing, "--mode", "validate"), 2, "specification"),
            (music_args("lb", tmp_path / "o", "--truth", missing), 3, "data"),
            (
                ("--spec", MUSIC / "music.er", "--data", MUSIC,
                 "--sim", f"table:{missing}", "--mode", "lb",
                 "--out", tmp_path / "o"),
                3, "data",
            ),
            (  # a spec without similarity atoms reads the table all the same
                ("--spec", LADDER / "ladder.er", "--data", LADDER,
                 "--sim", f"table:{missing}", "--mode", "lb",
                 "--out", tmp_path / "o"),
                3, "data",
            ),
        )
        for args, code, kind in cases:
            assert run(*args) == code
            err = capsys.readouterr().err
            assert err == f"{kind} error: {missing}: No such file or directory\n"

    @pytest.mark.parametrize("which", ["spec", "data", "table", "truth"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys, which):
        d = tmp_path / "music"
        shutil.copytree(MUSIC, d)
        target = d / {
            "spec": "music.er", "data": "Band.tsv",
            "table": "simtable.tsv", "truth": "truth_pairs.tsv",
        }[which]
        line = target.read_bytes().count(b"\n") + 1
        with open(target, "ab") as fh:
            fh.write(b"\xff\n")
        code = run(
            "--spec", d / "music.er", "--data", d,
            "--sim", f"table:{d / 'simtable.tsv'}", "--mode", "lb",
            "--out", tmp_path / "o", "--truth", d / "truth_pairs.tsv",
        )
        kind = "specification" if which == "spec" else "data"
        assert code == (2 if which == "spec" else 3)
        assert capsys.readouterr().err == (
            f"{kind} error: {target}:{line}: byte 0xff is not UTF-8\n"
        )

    @pytest.mark.parametrize("cell", ["a\tb", "c\nd", "e\rf"])
    def test_tab_or_line_break_in_an_id_cell(self, tmp_path, capsys, cell):
        # csv quoting lets a cell hold one, and the pair files would then
        # have rows with the wrong number of cells
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n",
        )
        (d / "R.csv").write_text(f'rid,k\nc,same\n"{cell}",same\n')
        out = tmp_path / "o"
        assert run(
            "--spec", spec, "--data", d, "--mode", "lb", "--out", out
        ) == 3
        assert capsys.readouterr().err == (
            f"data error: {d / 'R.csv'}:3: cell {cell!r} holds a tab or a "
            f"line break, which tab-separated output cannot hold\n"
        )
        assert not (out / "lb.tsv").exists()

    def test_tab_in_a_value_cell(self, tmp_path, capsys):
        d = tmp_path / "sims"
        shutil.copytree(GOLDEN / "sims" / "data", d)
        artists = d / "Artist.tsv"
        text = artists.read_text(encoding="utf-8")
        artists.write_text(
            text.replace("a2\tBeatles", 'a2\t"Beat\tles"'), encoding="utf-8"
        )
        out = tmp_path / "o"
        assert run(
            "--spec", d / "sims.er", "--data", d, "--sim", "all",
            "--mode", "sim", "--out", out,
        ) == 3
        assert capsys.readouterr().err == (
            f"data error: {artists}:3: cell 'Beat\\tles' holds a tab or a "
            f"line break, which tab-separated output cannot hold\n"
        )
        assert not (out / "sim_jw.tsv").exists()

    @pytest.mark.parametrize("strategy", ["all", "cs", "opt"])
    def test_tab_in_a_quoted_spec_constant(self, tmp_path, capsys, strategy):
        # the scores of "fo<TAB>o" would be sim_jw.tsv rows of four cells
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, a: short) merge [rid];\n"
            'soft s: R(x, a), sim(a, "fo\\to") >= 10 ~> eq(x, x);\n',
            R="rid\ta\nr1\tfob\n",
        )
        out = tmp_path / "o"
        assert run(
            "--spec", spec, "--data", d, "--sim", strategy,
            "--mode", "sim", "--out", out,
        ) == 2
        assert capsys.readouterr().err == (
            "specification error: 2:25: quoted constant holds a tab or a "
            "line break, which tab-separated output cannot hold "
            "(found '\"fo\\\\to\"')\n"
        )
        assert not out.exists()

    def test_truth_is_read_before_the_search(self, tmp_path, capsys):
        out = tmp_path / "o"
        missing = tmp_path / "missing.tsv"
        assert run(*music_args("pm", out, "--truth", missing)) == 3
        captured = capsys.readouterr()
        assert not (out / "pm.tsv").exists()
        assert "pm:" not in captured.out
        assert captured.err == (
            f"data error: {missing}: No such file or directory\n"
        )

    def test_nan_table_score_is_a_data_error(self, tmp_path, capsys):
        table = tmp_path / "nan.tsv"
        table.write_text("a\tb\tNaN\n")
        assert run(
            "--spec", MUSIC / "music.er", "--data", MUSIC,
            "--sim", f"table:{table}", "--mode", "lb", "--out", tmp_path / "o",
        ) == 3
        assert f"data error: {table}:1: bad score 'NaN'" in capsys.readouterr().err

    def test_unknown_constant_in_explain_is_a_data_error(self, tmp_path, capsys):
        assert run(*music_args("explain:zz,s2", tmp_path / "o")) == 3
        assert "data error:" in capsys.readouterr().err

    @staticmethod
    def inconsistent(tmp_path, mode, *extra):
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
            "deny d: R(x, u), R(x, w), u != w;\n",
            R="rid\tk\na\tsame\nb\tsame\na\tother\n",
        )
        return run(
            "--spec", spec, "--data", d, "--mode", mode,
            "--out", tmp_path / "o", *extra,
        )

    @pytest.mark.parametrize("mode", [
        "solve-one", "enumerate", "maximal", "pm", "cm", "levels",
        "explain:a,b", "eval",
    ])
    def test_no_solution(self, tmp_path, capsys, mode):
        truth = tmp_path / "truth.tsv"
        truth.write_text("left\tright\na\tb\n")
        assert self.inconsistent(tmp_path, mode, "--truth", truth) == 4
        assert "no solution exists" in capsys.readouterr().err
        assert list((tmp_path / "o").iterdir()) == []

    def test_eval_without_truth_fails_before_search(self, tmp_path, capsys):
        assert self.inconsistent(tmp_path, "eval") == 1
        assert "requires --truth" in capsys.readouterr().err

    def test_unknown_explain_constant_fails_before_search(
        self, tmp_path, capsys
    ):
        assert self.inconsistent(tmp_path, "explain:zz,a") == 3
        err = capsys.readouterr().err
        assert "data error:" in err and "'zz'" in err


class TestOptionValues:
    """Each option value's output file equals the API call it stands for."""

    def test_levels_scope_ub(self, tmp_path):
        # x shares a title with s1 and with s2, so the unrestricted chain
        # relates s1 and s2 in round 1; d keeps x out of every solution,
        # where s1 and s2 merge only after their bands do, in round 2
        spec, d = bundle(
            tmp_path,
            "relation B(bid: id, k: val) merge [bid];\n"
            "relation S(sid: id, t: val, bid: id) merge [sid];\n"
            "relation Q(sid: id, v: val);\n"
            "hard h: B(x, k), B(y, k) => eq(x, y);\n"
            "soft band: S(x, t, b), S(y, t2, b) ~> eq(x, y);\n"
            "soft title: S(x, t, b), S(y, t, b2) ~> eq(x, y);\n"
            "deny d: Q(s, v), Q(s, w), v != w;\n",
            B="bid\tk\na\t1\nb\t1\n",
            S="sid\tt\tbid\ns1\tt1\ta\ns2\tt2\tb\nx\tt1\tz\nx\tt2\tz\n",
            Q="sid\tv\ns1\tq\ns2\tq\nx\tp\n",
        )
        lspec = load_spec(str(spec))
        db = ingest(str(d), lspec.schema)
        sol = engine.solve_one(Context(db, lspec))
        files = {}
        for scope in ("solution", "ub"):
            out = tmp_path / scope
            assert run(
                "--spec", spec, "--data", d, "--mode", "levels",
                "--levels-scope", scope, "--out", out,
            ) == 0
            lm = engine.levels(Context(db, lspec), sol, scope=scope)
            files[scope] = (out / "levels.tsv").read_text().splitlines()
            assert files[scope] == ["left\tright\tlevel"] + [
                f"{p.left.text}\t{p.right.text}\t{lv}" for p, lv in lm.items()
            ]
        assert "s1\ts2\t2" in files["solution"]
        assert "s1\ts2\t1" in files["ub"]

    def test_null_inequality_fail(self, tmp_path):
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, k: val, u: val) merge [rid];\n"
            "soft s: R(x, k, u), R(y, k, w), u != w ~> eq(x, y);\n",
            R="rid\tk\tu\na\t1\tp\nb\t1\t\nc\t2\tp\nc2\t2\tq\n",
        )
        lspec = load_spec(str(spec))
        db = ingest(str(d), lspec.schema)
        files = {}
        for policy in ("distinct", "fail"):
            out = tmp_path / policy
            assert run(
                "--spec", spec, "--data", d, "--mode", "ub",
                "--null-inequality", policy, "--out", out,
            ) == 0
            e_ub = engine.ub(Context(db, lspec, null_inequality=policy))
            files[policy] = (out / "ub.tsv").read_text().splitlines()
            assert files[policy] == expected_pairs(e_ub.nontrivial_pairs())
        assert files["distinct"] == ["left\tright", "a\tb", "c\tc2"]
        assert files["fail"] == ["left\tright", "c\tc2"]

    def test_null_token(self, tmp_path):
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n",
            R="rid\tk\na\tNA\nb\tNA\nc\t1\nd\t1\n",
        )
        lspec = load_spec(str(spec))
        files = {}
        for token in ("", "NA"):
            out = tmp_path / f"tok{token}"
            assert run(
                "--spec", spec, "--data", d, "--mode", "lb",
                "--null-token", token, "--out", out,
            ) == 0
            db = ingest(str(d), lspec.schema, null_token=token)
            files[token] = (out / "lb.tsv").read_text().splitlines()
            assert files[token] == expected_pairs(
                engine.lb(Context(db, lspec)).nontrivial_pairs()
            )
        assert files[""] == ["left\tright", "a\tb", "c\td"]
        assert files["NA"] == ["left\tright", "c\td"]

    def test_sim_cs(self, tmp_path):
        # c is short-hinted but read by no similarity atom: sim all scores
        # its values, sim cs does not
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, a: short, c: short) merge [rid];\n"
            "soft s: R(x, a, c), R(y, a2, c2), sim(a, a2) >= 90 ~> eq(x, y);\n",
            R="rid\ta\tc\nr1\tmartha\tzzz\nr2\tmarhta\tyyy\n",
        )
        lspec = load_spec(str(spec))
        db = ingest(str(d), lspec.schema)
        files = {}
        for strategy, materialize in (("cs", sim_cs), ("all", sim_all)):
            out = tmp_path / strategy
            assert run(
                "--spec", spec, "--data", d, "--sim", strategy,
                "--mode", "sim", "--out", out,
            ) == 0
            store = materialize(db, lspec)
            files[strategy] = (out / "sim_jw.tsv").read_text().splitlines()
            assert files[strategy] == ["left\tright\tscore"] + [
                f"{a}\t{b}\t{sc / 100:.2f}" for a, b, sc in store.rows("jw")
            ]
        assert len(files["cs"]) < len(files["all"])
        assert "marhta\tmartha\t96.11" in files["cs"]


GOLDEN = ROOT / "tests" / "golden"
LADDER = GOLDEN / "ladder" / "data"

#: golden case -> arguments after the shared music bundle arguments
GOLDEN_CASES = {
    "lb": ("--mode", "lb"),
    "ub": ("--mode", "ub"),
    "loose-ub": ("--mode", "loose-ub"),
    "solve-one": ("--mode", "solve-one"),
    "enumerate": ("--mode", "enumerate"),
    "maximal": ("--mode", "maximal"),
    "pm": ("--mode", "pm"),
    "cm": ("--mode", "cm"),
    "levels": ("--mode", "levels"),
    "levels-scope-ub": ("--mode", "levels", "--levels-scope", "ub"),
    "explain": ("--mode", "explain:s1,s2"),
    "eval": ("--mode", "eval", "--truth", MUSIC / "truth_pairs.tsv"),
    "ub-null-fail": ("--mode", "ub", "--null-inequality", "fail"),
}

#: golden case -> arguments after the ladder bundle arguments; the bundle
#: is tests/instances.chain_instance(6) written out as files
LADDER_CASES = {
    "levels": ("--mode", "levels"),
    "explain": ("--mode", "explain:e6l,e6r"),
}

#: golden case -> arguments after the sims bundle arguments; the bundle has
#: one Jaro-Winkler and one edit-distance function, and `pm-all` reads the
#: `--sim all` store through the strict resolver
SIMS = GOLDEN / "sims" / "data"
SIM_CASES = {
    "sim-all": ("--sim", "all", "--mode", "sim"),
    "sim-cs": ("--sim", "cs", "--mode", "sim"),
    "sim-opt": ("--sim", "opt", "--mode", "sim"),
    "pm-all": ("--sim", "all", "--mode", "pm"),
}

#: bundle -> (its spec, data and similarity arguments, its cases)
GOLDEN_BUNDLES = {
    "music": (
        ("--spec", MUSIC / "music.er", "--data", MUSIC, "--sim", SIM_ARG),
        GOLDEN_CASES,
    ),
    "ladder": (
        ("--spec", LADDER / "ladder.er", "--data", LADDER),
        LADDER_CASES,
    ),
    "sims": (("--spec", SIMS / "sims.er", "--data", SIMS), SIM_CASES),
}


@contextlib.contextmanager
def _chdir(path):
    """contextlib.chdir, which Python 3.10 lacks."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def golden_outputs(case, workdir, bundle="music"):
    """Run one golden case from workdir with `--out out`, so printed paths
    do not depend on where it runs. Returns file name -> bytes for every
    file written, plus `stdout.txt`: the stdout without its timing line."""
    common, cases = GOLDEN_BUNDLES[bundle]
    args = [*common, *cases[case], "--out", "out"]
    buf = io.StringIO()
    with _chdir(workdir), contextlib.redirect_stdout(buf):
        assert main([str(a) for a in args]) == 0
    got = {
        p.name: p.read_bytes() for p in sorted((workdir / "out").iterdir())
    }
    lines = buf.getvalue().splitlines(keepends=True)
    got["stdout.txt"] = "".join(
        line for line in lines if not line.startswith("timing:")
    ).encode()
    return got


def _golden_files(bundle, case):
    return {
        p.name: p.read_bytes()
        for p in sorted((GOLDEN / bundle / case).iterdir())
    }


class TestGolden:
    """Every music mode's files and stdout, the levels and proof tree of a
    depth-6 ladder, and the score files of each computed similarity
    strategy, match the committed outputs byte for byte. Regenerate
    a case by writing golden_outputs() into tests/golden/<bundle>/<case>/
    (only when an output change is intended)."""

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_outputs_match(self, case, tmp_path):
        assert golden_outputs(case, tmp_path) == _golden_files("music", case)

    @pytest.mark.parametrize("case", sorted(LADDER_CASES))
    def test_ladder_outputs_match(self, case, tmp_path):
        assert (
            golden_outputs(case, tmp_path, "ladder")
            == _golden_files("ladder", case)
        )

    @pytest.mark.parametrize("case", sorted(SIM_CASES))
    def test_sim_outputs_match(self, case, tmp_path):
        assert (
            golden_outputs(case, tmp_path, "sims")
            == _golden_files("sims", case)
        )


#: bundle -> (its directory, the files a mutation may pick, its spec, data
#: and similarity arguments given the copy's directory and a strategy)
MUTABLE = {
    "music": (
        MUSIC, ("music.er", "Appear.tsv", "Band.tsv", "Song.tsv", "simtable.tsv"),
        lambda d, strategy: (
            "--spec", d / "music.er", "--data", d,
            "--sim", f"table:{d / 'simtable.tsv'}",
        ),
    ),
    "sims": (
        SIMS, ("sims.er", "Album.tsv", "Artist.tsv", "Label.tsv"),
        lambda d, strategy: (
            "--spec", d / "sims.er", "--data", d, "--sim", strategy,
        ),
    ),
}


def mutate(data, text: bytes) -> bytes:
    """One random edit of a file: flip a bit, insert or delete bytes,
    duplicate, drop or shuffle lines, or add or remove a cell."""
    kind = data.draw(st.sampled_from((
        "flip", "insert", "delete", "duplicate", "drop", "shuffle",
        "add cell", "remove cell",
    )))
    buf = bytearray(text)
    if kind in ("flip", "insert", "delete"):
        at = data.draw(st.integers(0, len(buf) - 1))
        if kind == "flip":
            buf[at] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "insert":
            buf[at:at] = data.draw(st.binary(min_size=1, max_size=4))
        else:
            del buf[at:at + data.draw(st.integers(1, 4))]
        return bytes(buf)
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    if kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "drop":
        del lines[i]
    elif kind == "shuffle":
        lines = data.draw(st.permutations(lines))
    else:
        body = lines[i].rstrip(b"\n")
        if kind == "add cell":
            body += b"\t" + data.draw(st.sampled_from((b"", b"x", b"b1")))
        else:
            body = body.rpartition(b"\t")[0]
        lines[i] = body + b"\n"
    return b"".join(lines)


class TestMutatedInputs:
    """Any one edit of one input file of the music or sims bundle ends in
    a clean exit: success, a specification or data error, or no solution.
    An uncaught exception fails the test."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_run_exits_cleanly(self, data):
        name = data.draw(st.sampled_from(sorted(MUTABLE)))
        src, files, common = MUTABLE[name]
        target = data.draw(st.sampled_from(files))
        mode = data.draw(st.sampled_from(("validate", "lb", "pm", "sim")))
        strategy = data.draw(st.sampled_from(("all", "cs", "opt")))
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp) / name
            shutil.copytree(src, d)
            path = d / target
            path.write_bytes(mutate(data, path.read_bytes()))
            args = [*common(d, strategy), "--mode", mode, "--out", d / "out"]
            with (
                contextlib.redirect_stdout(io.StringIO()),
                contextlib.redirect_stderr(io.StringIO()),
            ):
                code = main([str(a) for a in args])
            for tsv in (d / "out").glob("*.tsv"):
                lines = tsv.read_bytes().split(b"\n")
                assert lines.pop() == b"", tsv.name
                cells = lines[0].count(b"\t")
                assert all(line.count(b"\t") == cells for line in lines), (
                    tsv.name
                )
        assert code in (0, 2, 3, 4)


def write_ladder(tmp_path, depth):
    """The ladder bundle's data over `depth` rungs; returns the data
    directory and the top pair, whose rule-depth is `depth`."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "P.tsv").write_text("pid\tn\na1\tn0\na2\tn0\n")
    rows, prev = ["qid\tm\tp"], ("a1", "a2")
    for d in range(2, depth + 1):
        rows += [f"e{d}l\tk{d}\t{prev[0]}", f"e{d}r\tk{d}\t{prev[1]}"]
        prev = (f"e{d}l", f"e{d}r")
    (data / "Q.tsv").write_text("\n".join(rows) + "\n")
    return data, prev


class TestDeepLadder:
    def test_explain_at_depth_2000(self, tmp_path, capsys):
        # its indented JSON tree alone is about 120 MB
        depth = 2000
        data, (left, right) = write_ladder(tmp_path, depth)
        assert run(
            "--spec", LADDER / "ladder.er", "--data", data,
            "--mode", f"explain:{left},{right}", "--out", tmp_path / "out",
        ) == 0
        assert f"rule-depth {depth} ->" in capsys.readouterr().out

    def test_explain_files_equal_the_api(self, tmp_path):
        data, (left, right) = write_ladder(tmp_path, 300)
        out = tmp_path / "out"
        assert run(
            "--spec", LADDER / "ladder.er", "--data", data,
            "--mode", f"explain:{left},{right}", "--out", out,
        ) == 0
        spec = load_spec(LADDER / "ladder.er")
        ctx = Context(ingest(data, spec.schema), spec)
        tree = proof_tree(ctx, engine.solve_one(ctx), (e(left), e(right)))
        text = (out / "explain.json").read_bytes()
        assert text == (to_json(tree) + "\n").encode("utf-8")
        assert json.loads(text)["rule"] == "q1"
        assert (out / "explain.dot").read_bytes() == (
            to_dot(tree, spec).encode("utf-8")
        )


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            base = tmp_path / name
            for mode in ("lb", "ub", "enumerate", "levels", "pm"):
                assert run(*music_args(mode, base / mode)) == 0
            outs.append(base)
        first = sorted(p for p in outs[0].rglob("*.tsv"))
        second = sorted(p for p in outs[1].rglob("*.tsv"))
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name


class TestReadme:
    def test_python_api_block_prints_what_it_says(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        want = [
            line[2:] for line in block.splitlines() if line.startswith("# ")
        ]
        buf = io.StringIO()
        with _chdir(ROOT), contextlib.redirect_stdout(buf):
            exec(compile(block, "README.md", "exec"), {})
        assert want and buf.getvalue().splitlines() == want


def python(*args):
    """A new interpreter on the source tree, run with args."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True, text=True, env=env, timeout=60,
    )


def cli_imports(*args):
    """The modules loaded when an `entres.cli` call run as `__main__`, as
    `python -m` runs it, exits; the call must succeed. (`-X importtime`
    does not log `importlib.import_module`.)"""
    done = python(
        "-c",
        "import atexit, runpy, sys; "
        "atexit.register(lambda: print(*sorted(sys.modules), file=sys.stderr)); "
        "runpy.run_module('entres.cli', run_name='__main__', alter_sys=True)",
        *args,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stderr.split())


class TestPackageImport:
    def test_module_run_writes_nothing_to_stderr(self):
        done = python("-m", "entres.cli", "--help")
        assert done.returncode == 0
        assert "usage:" in done.stdout
        assert done.stderr == ""

    def test_a_call_imports_only_what_its_mode_runs(self, tmp_path):
        # no call pays for code generation and its helpers
        machinery = {"dataclasses", "inspect"}
        ladder = ("--spec", LADDER / "ladder.er", "--data", LADDER)
        got = cli_imports(*ladder, "--mode", "lb", "--out", tmp_path / "lb")
        assert "entres.engine" in got
        assert not got & (machinery | {
            "entres.explain", "entres.simkit", "entres.kernels",
            "json", "fractions", "decimal",
        })
        # a --sim table: call scores nothing, so it loads no string kernel
        got = cli_imports(*music_args("pm", tmp_path / "pm"))
        assert SIM_ARG.startswith("table:")
        assert "entres.simkit" in got
        assert not got & (machinery | {"entres.explain", "entres.kernels"})
        got = cli_imports(
            *ladder, "--mode", "explain:e6l,e6r", "--out", tmp_path / "ex"
        )
        assert "entres.explain" in got and not got & machinery
        out = tmp_path / "truth"
        got = cli_imports(
            *music_args("pm", out, "--truth", MUSIC / "truth_pairs.tsv")
        )
        assert "fractions" in got and not got & machinery
        assert json.loads((out / "metrics.json").read_text())["f1"] > 0

    def test_import_entres_imports_no_submodule(self):
        done = python(
            "-c",
            "import sys, entres; "
            "print(sorted(m for m in sys.modules if m.startswith('entres.')))",
        )
        assert (done.returncode, done.stdout) == (0, "[]\n")

    def test_every_public_name_resolves_to_its_module(self):
        import entres

        star = {}
        exec("from entres import *", star)
        for name in entres.__all__:
            module = import_module(f"entres.{entres._EXPORTS[name]}")
            assert getattr(entres, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name
        assert set(entres.__all__) == set(entres._EXPORTS)

    def test_cli_names_still_import_from_the_package(self):
        import entres
        from entres import evaluate as ev, ingest as ing, load_truth as lt

        assert (ev, ing, lt) == (evaluate, ingest, load_truth)
        assert {"evaluate", "ingest", "load_truth"} <= set(entres.__all__)
        with pytest.raises(AttributeError):
            entres.no_such_name
