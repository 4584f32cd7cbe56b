"""Command line surface: ingestion, truth files, metrics, every mode, exit
codes, and rerun determinism."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from entres import engine
from entres.cli import evaluate, ingest, load_truth, main, write_pairs
from entres.errors import HeaderMismatch, MissingFile, RaggedRow
from entres.model import NULL, Fact, MergePair
from entres.rules import load_spec
from entres.simkit import sim_all, sim_cs

from conftest import MUSIC, ROOT, e, v

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
        assert "sim-safe: yes; 1 hard, 1 soft, 1 DC" in out

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

    def test_table_strategy_has_nothing_to_export(self, tmp_path, capsys):
        out = tmp_path / "simtab"
        assert run(*music_args("sim", out)) == 0
        assert "nothing to materialize" in capsys.readouterr().out
        assert list(out.glob("*.tsv")) == []


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run("--spec", MUSIC / "music.er", "--mode", "bogus") == 1

    def test_spec_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.er"
        bad.write_text("relation Broken(")
        assert run("--spec", bad, "--mode", "validate") == 2
        assert "specification error:" in capsys.readouterr().err

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

    def test_unknown_constant_in_explain_is_a_data_error(self, tmp_path, capsys):
        assert run(*music_args("explain:zz,s2", tmp_path / "o")) == 3
        assert "data error:" in capsys.readouterr().err

    @staticmethod
    def inconsistent(tmp_path, mode):
        spec, d = bundle(
            tmp_path,
            "relation R(rid: id, k: val) merge [rid];\n"
            "hard h: R(x, k), R(y, k) => eq(x, y);\n"
            "deny d: R(x, u), R(x, w), u != w;\n",
            R="rid\tk\na\tsame\nb\tsame\na\tother\n",
        )
        return run(
            "--spec", spec, "--data", d, "--mode", mode,
            "--out", tmp_path / "o",
        )

    def test_no_solution(self, tmp_path, capsys):
        assert self.inconsistent(tmp_path, "solve-one") == 4
        assert "no solution exists" in capsys.readouterr().err

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
        sol = engine.solve_one(db, lspec)
        files = {}
        for scope in ("solution", "ub"):
            out = tmp_path / scope
            assert run(
                "--spec", spec, "--data", d, "--mode", "levels",
                "--levels-scope", scope, "--out", out,
            ) == 0
            lm = engine.levels(db, lspec, None, sol, scope=scope)
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
            e_ub = engine.ub(db, lspec, null_inequality=policy)
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
                engine.lb(db, lspec).nontrivial_pairs()
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
                f"{a.text}\t{b.text}\t{sc / 100:.2f}"
                for a, b, sc in store.rows("jw")
            ]
        assert len(files["cs"]) < len(files["all"])
        assert "marhta\tmartha\t96.11" in files["cs"]


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


class TestPackageImport:
    def test_module_run_writes_nothing_to_stderr(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-m", "entres.cli", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0
        assert "usage:" in done.stdout
        assert done.stderr == ""

    def test_cli_names_still_import_from_the_package(self):
        import entres
        from entres import evaluate as ev, ingest as ing, load_truth as lt

        assert (ev, ing, lt) == (evaluate, ingest, load_truth)
        assert {"evaluate", "ingest", "load_truth"} <= set(entres.__all__)
        with pytest.raises(AttributeError):
            entres.no_such_name
