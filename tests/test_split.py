"""pm, cm, maximal, merge_sets and is_possible search an instance one
independent part at a time: several parts when the search is eager and
every constraint prunes, and one part, the whole instance, otherwise.
Their answers must equal the brute force and the whole-instance
enumeration, with one part as with several."""

import importlib.util
import sys
import time

import pytest

from entres import cli
from entres.engine import (
    _parts,
    _Search,
    certain_merges,
    enumerate_solutions,
    is_possible,
    maximal_solutions,
    merge_sets,
    possible_merges,
    ub,
)
from entres.matcher import Context
from entres.model import Database, Fact, MergePair
from entres.rules import analyse, parse_spec

from conftest import ROOT, e, v
from instances import generate_parts
from oracles import bruteforce_solutions, maximal_sets, pm_cm, verify_solution

P = MergePair.of


def _text(pair):
    return (pair.left.text, pair.right.text)


def _largest_first(pairs):
    return (-len(pairs), sorted(map(_text, pairs)))


def _check(ctx, want):
    """Every part-by-part answer on ctx against the oracle's solution sets
    and against the whole-instance enumeration."""
    opm, ocm = pm_cm(want)
    assert {s.pairs() for s in enumerate_solutions(ctx)} == want
    assert possible_merges(ctx) == opm
    assert certain_merges(ctx) == ocm
    ms = merge_sets(ctx)
    assert (ms.pm, ms.cm, ms.consistent) == (opm, ocm, bool(want))
    maxima = maximal_solutions(ctx)
    assert [s.pairs() for s in maxima] == sorted(
        maximal_sets(want), key=_largest_first
    )
    assert all(verify_solution(ctx, s) for s in maxima)
    assert [s.pairs() for s in maximal_solutions(ctx, n=1)] == [
        s.pairs() for s in maxima[:1]
    ]
    # every possible pair, as many impossible ones within ub, and the
    # first entity with the next two
    ents = ctx.db.consts[:ctx.db.entities]
    within = sorted(ub(ctx).nontrivial_pairs() - opm, key=_text)[:len(opm)]
    asked = sorted(opm, key=_text) + within + [P(ents[0], b) for b in ents[1:3]]
    for pair in asked:
        assert is_possible(ctx, pair) == (pair in opm), pair
    assert is_possible(ctx, (ents[0], ents[0])) == bool(want)


class TestPartsFamily:
    @pytest.mark.parametrize("hub", [False, True], ids=["disjoint", "hub"])
    def test_answers_match_the_oracle_and_the_unsplit_search(self, hub):
        parts = []
        for seed in range(25):
            inst = generate_parts(seed, hub)
            want = bruteforce_solutions(
                inst.db, inst.spec, inst.sims, **inst.knobs
            )
            _check(inst.ctx, want)
            if analyse(inst.spec).splits:
                root = _Search(inst.ctx).root()
                parts.append(len(_parts(inst.ctx, root.e)) if root else 0)
        # the family exercises the split, with two and three parts
        assert len(parts) >= 15
        assert 2 in parts and 3 in parts

    def test_a_shared_decided_class_links_no_parts(self):
        # both parts read the hub's class, which the hard rule settles at
        # the start: one part per song pair
        spec = parse_spec(
            "relation H(hid: id, k: val) merge [hid];\n"
            "relation S(sid: id, t: val, h: id) merge [sid];\n"
            "hard hub: H(x, k), H(y, k) => eq(x, y);\n"
            "soft s: S(x, t, h), S(y, t, h) ~> eq(x, y);\n"
        )
        db = Database(
            [Fact("H", (e("h1"), v("k"))), Fact("H", (e("h2"), v("k")))]
            + [
                Fact("S", (e(f"{t}{i}"), v(t), e(f"h{i}")))
                for t in ("a", "b") for i in (1, 2)
            ]
        )
        ctx = Context(db, spec)
        assert analyse(spec).splits
        assert len(_parts(ctx, _Search(ctx).root().e)) == 2
        _check(ctx, bruteforce_solutions(db, spec, None))

    def test_an_inconsistent_root_answers_empty(self):
        # the hard merge of a and b violates d at the root
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
        ctx = Context(db, spec)
        assert analyse(spec).splits
        _check(ctx, set())
        assert maximal_solutions(ctx) == []
        # one part: the root passes the pruning constraints, but every
        # state that merges a and b breaks the checked d
        spec = parse_spec(
            "relation R(rid: id, k: val, g: id) merge [rid];\n"
            "hard h: R(x, k, g), R(y, k, g2) => eq(x, y);\n"
            "deny d: R(x, k, g), R(x, k2, g2), g != g2;\n"
        )
        db = Database(
            [
                Fact("R", (e("a"), v("same"), e("g1"))),
                Fact("R", (e("b"), v("same"), e("g2"))),
            ]
        )
        ctx = Context(db, spec)
        assert not analyse(spec).splits
        _check(ctx, set())
        assert maximal_solutions(ctx) == []


class TestUnsplitPath:
    """Specifications that do not split are searched as one part."""

    @pytest.mark.parametrize("extra", [
        # a checked constraint: its inequality reads a reference column
        "deny dx: S0(x, t, r), S0(x, t2, r2), r != r2;",
        # a rule inequality against an entity constant: non-eager search
        "soft sx: S0(x, t, r), S0(y, t2, r), x != @s0_0 ~> eq(x, y);",
    ], ids=["checked-dc", "id-inequality"])
    def test_answers_do_not_change(self, extra):
        for seed in range(10):
            inst = generate_parts(seed, hub=True)
            spec = parse_spec(inst.text + extra + "\n")
            ctx = Context(inst.db, spec, inst.sims, **inst.knobs)
            assert not analyse(spec).splits
            _check(ctx, bruteforce_solutions(
                inst.db, spec, inst.sims, **inst.knobs
            ))


def _gen():
    """The benchmark's instance generator, loaded from its file."""
    path = ROOT / "resbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("resbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class is built
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _tsv(pairs) -> str:
    rows = ["left\tright"] + [f"{a}\t{b}" for a, b in sorted(pairs)]
    return "\n".join(rows) + "\n"


def test_forty_free_pairs_finish(tmp_path, capsys):
    # a music-like instance of 45 bands with 40 freely mergeable song pairs
    # and 3 conflict triples: 2**40 * 3**3 solutions, 2**3 maximal ones
    inst = _gen().music(1, bands=45, band_copies=2, pairs=40, triples=3)
    inst.write(tmp_path / "in")
    argv = ["--spec", str(tmp_path / "in" / "spec.er"),
            "--data", str(tmp_path / "in")]
    start = time.perf_counter()
    for mode in ("pm", "cm", "maximal"):
        out = tmp_path / mode
        assert cli.main(argv + ["--mode", mode, "--out", str(out)]) == 0
        if mode == "maximal":
            got = sorted(p.name for p in out.glob("maximal_*.tsv"))
            assert len(got) == len(inst.maximal) == 8
            for k, sol in enumerate(inst.maximal, start=1):
                assert (out / f"maximal_{k}.tsv").read_text() == _tsv(sol)
        else:
            want = _tsv(getattr(inst, mode))
            assert (out / f"{mode}.tsv").read_text() == want
    capsys.readouterr()
    # about 1 s on a 2-core x86 container with the pure-Python kernels;
    # the unsplit search does not finish
    assert time.perf_counter() - start < 30
