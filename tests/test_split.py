"""pm, cm, maximal, merge_sets, is_possible and solve_one search an
instance one independent part at a time: several parts when the search is
eager and every constraint prunes, and one part, the whole instance,
otherwise. Their answers must equal the brute force and the whole-instance
search, with one part as with several. The parts are cut under the ub
fixpoint, which `sim_opt` hands over with the context it was computed in."""

import importlib.util
import sys
import time
import tracemalloc
from itertools import islice

import pytest

from entres import cli, engine
from entres.engine import (
    _parts,
    _Search,
    certain_merges,
    enumerate_solutions,
    is_possible,
    maximal_solutions,
    merge_sets,
    possible_merges,
    solve_one,
    ub,
)
from entres.matcher import Context
from entres.model import Database, EqRel, Fact, MergePair
from entres.rules import analyse, load_spec, parse_spec
from entres.simkit import StrictResolver, build_registry, sim_opt

from conftest import ROOT, e, v
from instances import (
    chain_instance,
    generate,
    generate_neq,
    generate_parts,
)
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
    sols = enumerate_solutions(ctx)
    assert {s.pairs() for s in sols} == want
    assert all(verify_solution(ctx, s) for s in sols)
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

    def test_a_part_with_no_solution_ends_the_search(self, monkeypatch):
        # no split instance has one (each part's root is a solution), so the
        # first of two parts is made empty: the second is never searched
        ctx = generate_parts(0, hub=False).ctx
        root = _Search(ctx).root()
        searched = []

        def second():
            searched.append(True)
            yield (), frozenset()

        monkeypatch.setattr(_Search, "split", lambda self: (
            root, iter([(range(0), iter(())), (range(0), second())])
        ))
        assert enumerate_solutions(ctx, 1) == [] and solve_one(ctx) is None
        assert maximal_solutions(ctx) == []
        assert merge_sets(ctx).consistent is False
        assert possible_merges(ctx) == certain_merges(ctx) == frozenset()
        assert not searched


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


def test_solve_one_memory_grows_linearly(tmp_path):
    # a relation kept per part solution made the peak grow with parts
    # times domain (x3.8 from 100 to 200 bands)
    peaks = {}
    for bands in (100, 200):
        inst = _gen().music(1, bands, 2, pairs=8 * bands // 9, triples=3)
        inst.write(tmp_path / str(bands))
        spec = load_spec(str(tmp_path / str(bands) / "spec.er"))
        ctx = Context(cli.ingest(str(tmp_path / str(bands)), spec.schema), spec)
        store, handed = sim_opt(ctx)
        ctx = ctx.replace(sims=StrictResolver(store), ub=handed)
        tracemalloc.start()
        try:
            sol = solve_one(ctx)
            peaks[bands] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(map(_text, sol.pairs())) == inst.solve_one
    assert peaks[200] <= 2.5 * peaks[100], peaks


def _whole_first(ctx):
    """The node of the whole-instance search's first solution, or None."""
    search = _Search(ctx)
    root = search.root()
    found = () if root is None else search.run(root)
    return next((node for node, _ in found), None)


def _first_matches_the_whole_search(ctx):
    """solve_one, searched part by part, merges what the whole-instance
    search's first solution merges, and its derivation replays."""
    whole = _whole_first(ctx)
    sol = solve_one(ctx)
    assert (sol is None) == (whole is None)
    if sol is not None:
        assert sol.pairs() == whole.e.nontrivial_pairs()
        assert verify_solution(ctx, sol)


class TestFirstSolution:
    """The first solution joined from each part's first solution equals
    the whole-instance search's first solution on every family."""

    @pytest.mark.parametrize("family, seeds", [
        (generate, 50),
        (lambda seed: generate(seed, hard_only=True), 50),
        (generate_neq, 50),
        (generate_parts, 25),
        (lambda seed: generate_parts(seed, hub=True), 25),
    ], ids=["generate", "hard-only", "neq", "disjoint", "hub"])
    def test_split_first_equals_whole_first(self, family, seeds):
        for seed in range(seeds):
            _first_matches_the_whole_search(family(seed).ctx)

    def test_chain_instances(self):
        for depth in (1, 2, 5, 40):
            _first_matches_the_whole_search(chain_instance(depth).ctx)

    def test_parts_with_equal_keys_each_get_a_memo(self):
        # merging a1 with a2, or b1 with b2, breaks d, so each part's first
        # state is the root's: it merges no pair in the part, so both
        # part-local keys are empty, and a memo the parts shared would drop
        # the second part
        spec = parse_spec(
            "relation R(rid: id, k: val, p: val) merge [rid];\n"
            "soft s: R(x, k, p), R(y, k, p2) ~> eq(x, y);\n"
            "deny d: R(x, k, p), R(x, k2, p2), p != p2;\n"
        )
        db = Database([
            Fact("R", (e(f"{k}{i}"), v(k), v(f"p{i}")))
            for k in ("a", "b") for i in (1, 2)
        ])
        ctx = Context(db, spec)
        assert analyse(spec).splits
        root, parts = _Search(ctx).split()
        parts = list(parts)
        assert [ids for ids, _ in parts] == _parts(ctx, root.e)
        assert len(parts) == 2
        assert [next(sols)[1] for _, sols in parts] == [frozenset()] * 2
        _first_matches_the_whole_search(ctx)
        assert solve_one(ctx).pairs() == frozenset()

    @pytest.mark.parametrize("hub", [False, True], ids=["disjoint", "hub"])
    def test_part_runs_keep_their_own_memos(self, hub):
        # two part iterators of one search, advanced in turn, yield what
        # each yields alone: neither run keys its memo by the other's ids
        checked = 0
        for seed in range(25):
            ctx = generate_parts(seed, hub).ctx
            split = _Search(ctx).split()
            alone = [] if split is None else [list(sols) for _, sols in split[1]]
            if len(alone) < 2:
                continue
            _, parts = _Search(ctx).split()
            (_, first), (_, second), *_ = parts
            got = [[], []]
            for _ in range(max(map(len, alone[:2]))):
                for out, sols in zip(got, (first, second)):
                    out.extend(islice(sols, 1))
            assert got == alone[:2], seed
            checked += 1
        assert checked >= 10

    def test_a_root_with_nothing_to_branch_on_is_answered_as_it_is(
        self, monkeypatch
    ):
        # a hard-only ladder: the root is the one solution, found with no
        # parts and no ub fixpoint
        ctx = chain_instance(30).ctx
        want = _whole_first(ctx).e.nontrivial_pairs()

        def unused(*args):
            raise AssertionError("searched parts of a root with no candidate")

        monkeypatch.setattr(engine, "_parts", unused)
        monkeypatch.setattr(engine, "ub", unused)
        assert not any(_Search(ctx).root().cands)
        assert solve_one(ctx).pairs() == want
        assert possible_merges(ctx) == certain_merges(ctx) == want
        assert [s.pairs() for s in maximal_solutions(ctx)] == [want]
        top = P(e("e30l"), e("e30r"))
        assert is_possible(ctx, top) and top in want


def test_the_root_reads_no_signature(
    monkeypatch, music_db, music_spec, music_sims
):
    # only a run's memo reads a key, and no run is keyed by the root's
    calls = []
    signature = EqRel.signature

    def counted(self, ids=None):
        calls.append(ids)
        return signature(self, ids)

    monkeypatch.setattr(EqRel, "signature", counted)
    root = _Search(Context(music_db, music_spec, music_sims)).root()
    assert root is not None and root.cands
    assert calls == []


def _handed_ub_is_the_strict_ub(ctx, registry=None):
    store, handed = sim_opt(ctx, registry)
    strict = ctx.replace(sims=StrictResolver(store))
    assert handed == ub(strict)
    with_ub = strict.replace(ub=handed)
    assert with_ub.ub is handed and ub(with_ub) == handed
    assert ub(with_ub) is not handed  # a copy, which the caller may change
    # a context that changes anything else drops the ub it was handed
    assert with_ub.replace(sims=None).ub is None
    return with_ub


def test_sim_opt_hands_over_the_ub_of_its_context(
    tmp_path, capsys, music_spec, music_db, music_table
):
    reg = build_registry(music_spec, music_db, table=music_table)
    ctx = _handed_ub_is_the_strict_ub(Context(music_db, music_spec), reg)
    assert possible_merges(ctx) == possible_merges(ctx.replace(sims=ctx.sims))
    for make in (generate, generate_neq, generate_parts):
        for seed in range(12):
            inst = make(seed)
            if inst.store is not None:
                _handed_ub_is_the_strict_ub(inst.ctx)
    # two databases in one process: each run computes the ub of its own
    small = _gen().music(1, bands=4, band_copies=2, pairs=3, triples=2)
    large = _gen().music(2, bands=9, band_copies=3, pairs=8, triples=1)
    for inst, name in ((small, "small"), (large, "large"), (small, "again")):
        inst.write(tmp_path / name)
        argv = ["--spec", str(tmp_path / name / "spec.er"),
                "--data", str(tmp_path / name)]
        for mode in ("ub", "pm", "cm", "solve-one"):
            out = tmp_path / name / mode
            assert cli.main(argv + ["--mode", mode, "--out", str(out)]) == 0
            attr = mode.replace("-", "_")
            got = (out / f"{mode}.tsv").read_text()
            assert got == _tsv(getattr(inst, attr)), (name, mode)
    capsys.readouterr()
