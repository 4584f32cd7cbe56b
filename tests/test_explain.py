"""Proof trees: construction, validation, minimal depth, rendering."""

import hashlib
import io
import json
import os
import re
import sys
import tracemalloc

import pytest

from entres.engine import (
    Solution, enumerate_solutions, levels, maximal_solutions, solve_one,
)
from entres.errors import NotInSolution
from entres.explain import (
    NodeKind,
    ProofNode,
    ProofTree,
    proof_tree,
    rule_depth,
    to_dot,
    to_json,
)
from entres.matcher import Context
from entres.model import EqRel, Fact, MergePair

from conftest import e, v
from instances import chain_instance, generate, generate_neq
from oracles import validate_proof_tree

P = MergePair.of


@pytest.fixture(scope="module")
def music(music_db, music_spec, music_sims):
    return music_db, music_spec, music_sims


@pytest.fixture(scope="module")
def music_e1(music):
    db, spec, sims = music
    return next(
        s
        for s in enumerate_solutions(Context(db, spec, sims))
        if s.pairs() == {P(e("b1"), e("b2")), P(e("s1"), e("s2"))}
    )


@pytest.fixture(scope="module")
def golden_tree(music, music_e1):
    db, spec, sims = music
    return proof_tree(Context(db, spec, sims), music_e1, (e("s1"), e("s2")))


@pytest.fixture(scope="module")
def music_free(music):
    """The bundle without its constraint: all three songs merge."""
    db, spec, sims = music
    free = spec.replace(dcs=())
    sol = maximal_solutions(Context(db, free, sims))[0]
    return db, free, sims, sol


class TestGoldenTree:
    def test_root_is_the_soft_rule(self, golden_tree):
        root = golden_tree.root
        assert root.kind is NodeKind.RULE
        assert root.rule_label == "sigma"
        assert root.pair == P(e("s1"), e("s2"))

    def test_children_layout(self, golden_tree):
        kinds = [c.kind for c in golden_tree.root.children]
        assert kinds == [
            NodeKind.FACT,
            NodeKind.FACT,
            NodeKind.RULE,
            NodeKind.SIM,
        ]
        f1, f2, band, sim = golden_tree.root.children
        assert f1.fact.relation == f2.fact.relation == "Song"
        assert {f1.fact.args[0], f2.fact.args[0]} == {e("s1"), e("s2")}
        assert sim.sim.func == "approx" and sim.sim.score == 10000

    def test_nested_band_node(self, golden_tree):
        band = golden_tree.root.children[2]
        assert band.rule_label == "rho"
        assert band.pair == P(e("b1"), e("b2"))
        kinds = [c.kind for c in band.children]
        assert kinds == [
            NodeKind.FACT,
            NodeKind.FACT,
            NodeKind.SIM,
            NodeKind.SIM,
        ]
        texts = {
            frozenset({c.sim.left.text, c.sim.right.text})
            for c in band.children
            if c.kind is NodeKind.SIM
        }
        assert frozenset({"Pink Floyd", "The Pink Floyd"}) in texts
        assert frozenset({"Psy. rock", "Prog. rock"}) in texts

    def test_depth_counts_rule_nodes_on_deepest_path(self, golden_tree):
        assert rule_depth(golden_tree) == 2

    def test_validates_cleanly(self, music, golden_tree):
        db, spec, sims = music
        assert validate_proof_tree(golden_tree, db, spec, sims) == []
        assert validate_proof_tree(golden_tree, db, spec) == []

    def test_depth_equals_reported_level(self, music, music_e1, golden_tree):
        db, spec, sims = music
        lm = levels(Context(db, spec, sims), music_e1)
        assert rule_depth(golden_tree) == lm[P(e("s1"), e("s2"))]


class TestTransitiveTrees:
    def test_closure_pair_gets_a_transitive_root(self, music_free):
        db, free, sims, sol = music_free
        t = proof_tree(Context(db, free, sims), sol, (e("s1"), e("s3")))
        assert t.root.kind is NodeKind.TRANSITIVE
        assert len(t.root.children) == 2
        assert {c.kind for c in t.root.children} == {NodeKind.RULE}
        assert rule_depth(t) == 2
        assert validate_proof_tree(t, db, free, sims) == []

    def test_every_merge_in_the_free_variant_is_explained(self, music_free):
        db, free, sims, sol = music_free
        lm = levels(Context(db, free, sims), sol)
        for pair in sol.pairs():
            t = proof_tree(Context(db, free, sims), sol, pair)
            assert validate_proof_tree(t, db, free, sims) == []
            assert rule_depth(t) == lm[pair]


class TestRequestValidation:
    def test_reflexive_request_rejected(self, music, music_e1):
        db, spec, sims = music
        with pytest.raises(ValueError):
            proof_tree(Context(db, spec, sims), music_e1, (e("s1"), e("s1")))

    def test_pair_outside_the_solution_rejected(self, music, music_e1):
        db, spec, sims = music
        with pytest.raises(NotInSolution):
            proof_tree(Context(db, spec, sims), music_e1, (e("s1"), e("s3")))

    def test_pair_the_chain_never_reaches_rejected(self, music):
        # a hand-built relation: no rule answer relates s1 and s3
        db, spec, sims = music
        ctx = Context(db, spec, sims)
        eq = ctx.identity()
        eq.merge(e("b1"), e("b2"))
        eq.merge(e("s1"), e("s3"))
        with pytest.raises(NotInSolution, match="not reached by the rule"):
            proof_tree(ctx, Solution(eq), (e("s1"), e("s3")))

    def test_solution_over_another_domain_rejected(self, music):
        db, spec, sims = music
        wider = EqRel(db.domain | {e("a0")})
        wider.merge(e("b1"), e("b2"))
        with pytest.raises(ValueError, match="domain"):
            proof_tree(
                Context(db, spec, sims), Solution(wider), (e("b1"), e("b2"))
            )


def _swap_children(node: ProofNode, children) -> ProofNode:
    return node.replace(children=tuple(children))


class TestValidatorCatchesCorruption:
    def test_missing_merge_child(self, music, golden_tree):
        db, spec, sims = music
        root = golden_tree.root
        clipped = _swap_children(
            root, [c for c in root.children if c.kind is not NodeKind.RULE]
        )
        bad = golden_tree.replace(root=clipped)
        assert validate_proof_tree(bad, db, spec, sims)

    def test_tampered_similarity_score(self, music, golden_tree):
        db, spec, sims = music
        root = golden_tree.root
        children = list(root.children)
        leaf = children[3]
        children[3] = leaf.replace(sim=leaf.sim.replace(score=100))
        bad = golden_tree.replace(root=_swap_children(root, children))
        assert validate_proof_tree(bad, db, spec, sims)
        assert validate_proof_tree(bad, db, spec)  # threshold check suffices

    def test_foreign_fact(self, music, golden_tree):
        db, spec, sims = music
        root = golden_tree.root
        children = list(root.children)
        fake = children[0].replace(
            fact=children[0].fact.replace(
                args=children[0].fact.args[:-1] + (e("b9"),),
            ),
        )
        children[0] = fake
        bad = golden_tree.replace(root=_swap_children(root, children))
        assert any("fact" in msg for msg in validate_proof_tree(bad, db, spec, sims))

    def test_broken_transitive_chain(self, music_free):
        db, free, sims, sol = music_free
        t = proof_tree(Context(db, free, sims), sol, (e("s1"), e("s3")))
        left = t.root.children[0]
        bad_root = _swap_children(t.root, [left, left])
        bad = t.replace(root=bad_root)
        assert validate_proof_tree(bad, db, free, sims)

    def test_unjustified_extra_merge_child(self, music, golden_tree):
        db, spec, sims = music
        root = golden_tree.root
        stray = ProofNode(
            kind=NodeKind.RULE,
            pair=P(e("s2"), e("s3")),
            rule_label="sigma",
            children=(),
        )
        bad = golden_tree.replace(
            root=_swap_children(root, list(root.children) + [stray])
        )
        assert validate_proof_tree(bad, db, spec, sims)


class TestRenderings:
    def test_dot_structure(self, music, golden_tree):
        _, spec, _ = music
        dot = to_dot(golden_tree, spec)
        assert dot.startswith("digraph proof {")
        nodes = re.findall(r'^\s*n(\d+) \[label="', dot, re.M)
        edges = re.findall(r"^\s*n(\d+) -> n(\d+);", dot, re.M)
        assert len(nodes) == 9  # root + 2 facts + band node + its 4 + title sim
        assert len(edges) == len(nodes) - 1
        assert dot.count("shape=ellipse") == 2  # the two rule nodes
        assert dot.count("shape=box") == 7
        assert "[sigma: " in dot  # rule description annotation

    def test_dot_without_spec_has_no_descriptions(self, golden_tree):
        dot = to_dot(golden_tree)
        assert "[sigma: " not in dot
        assert "digraph proof {" in dot

    def test_json_round_structure(self, golden_tree):
        data = json.loads(to_json(golden_tree))
        assert data["kind"] == "rule"
        assert data["rule"] == "sigma"
        assert len(data["children"]) == 4
        assert data["children"][0]["kind"] == "fact"
        assert data["children"][2]["rule"] == "rho"
        assert data["children"][3]["kind"] == "sim"


#: (family, seed) inputs; the generate_neq members carry inequalities that
#: turn false as classes grow
FAMILY_INPUTS = [
    pytest.param(generate, seed, id=str(seed)) for seed in range(20)
] + [
    pytest.param(generate_neq, seed, id=f"neq-{seed}") for seed in range(20)
]


class TestFamilyProperty:
    """On random instances every merged pair is explained by a tree that
    validates and whose rule depth equals the reported level."""

    @pytest.mark.parametrize("make, seed", FAMILY_INPUTS)
    def test_trees_validate_and_match_levels(self, make, seed):
        inst = make(seed)
        sols = enumerate_solutions(inst.ctx)
        for sol in sols[:4]:
            lm = levels(inst.ctx, sol)
            for pair in sorted(
                sol.pairs(), key=lambda p: (p.left.text, p.right.text)
            ):
                t = proof_tree(inst.ctx, sol, pair)
                assert (
                    validate_proof_tree(t, inst.db, inst.spec, inst.sims) == []
                ), (seed, pair)
                assert rule_depth(t) == lm[pair], (seed, pair)

    @pytest.mark.parametrize("depth", [2, 3])
    def test_ladder_trees(self, depth):
        inst = chain_instance(depth)
        sol = solve_one(inst.ctx)
        top = P(e(f"e{depth}l"), e(f"e{depth}r"))
        t = proof_tree(inst.ctx, sol, top)
        assert rule_depth(t) == depth
        assert validate_proof_tree(t, inst.db, inst.spec, inst.sims) == []

    def test_deep_ladder_tree_needs_no_deep_recursion(self):
        # one rule node per rung: a recursive build would nest three Python
        # frames per level and overflow the default stack limit
        inst = chain_instance(400)
        sol = solve_one(inst.ctx)
        t = proof_tree(inst.ctx, sol, P(e("e400l"), e("e400r")))
        assert rule_depth(t) == 400
        assert validate_proof_tree(t, inst.db, inst.spec, inst.sims) == []

    def test_ladder_tree_memory_grows_linearly(self):
        # a relation copy per round made the peak quadratic in depth
        # (3.6x from 250 to 500 levels)
        peaks = {}
        for depth in (250, 500):
            inst = chain_instance(depth)
            sol = solve_one(inst.ctx)
            top = P(e(f"e{depth}l"), e(f"e{depth}r"))
            tracemalloc.start()
            try:
                proof_tree(inst.ctx, sol, top)
                peaks[depth] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[500] <= 2.5 * peaks[250], peaks

    def test_tree_set_is_pinned(self):
        # the JSON text of every merged pair's tree (pairs sorted by text)
        # in the first three solutions of each instance, concatenated: a
        # change to tree choice, child order or rendering changes the hash
        insts = (
            [generate(seed) for seed in range(150)]
            + [generate_neq(seed) for seed in range(150)]
            + [chain_instance(depth) for depth in (2, 5, 9, 40)]
        )
        digest = hashlib.sha256()
        trees = 0
        for inst in insts:
            ctx = inst.ctx
            for sol in enumerate_solutions(ctx, 3):
                for pair in sorted(
                    sol.pairs(), key=lambda p: (p.left.text, p.right.text)
                ):
                    digest.update(to_json(proof_tree(ctx, sol, pair)).encode())
                    trees += 1
        assert trees == 1280
        assert digest.hexdigest() == (
            "b8d2664a13dc18914c81eaa26f0611e14f633086f9327001ab70d63d64166d68"
        )


def _written(writer, *args) -> str:
    """The text a writer sends to an output file."""
    buf = io.StringIO()
    assert writer(*args, fh=buf) is None
    return buf.getvalue()


def _ladder_tree(depth: int) -> ProofTree:
    """The proof tree of chain_instance(depth)'s top pair, built directly:
    the p1 node of the base pair under one q1 node per rung."""
    def fact(rel, *args):
        return ProofNode(kind=NodeKind.FACT, fact=Fact(rel, args))

    node = ProofNode(
        kind=NodeKind.RULE, pair=P(e("a1"), e("a2")), rule_label="p1",
        children=(fact("P", e("a1"), v("n0")), fact("P", e("a2"), v("n0"))),
    )
    prev = ("a1", "a2")
    for d in range(2, depth + 1):
        left, right = f"e{d}l", f"e{d}r"
        node = ProofNode(
            kind=NodeKind.RULE, pair=P(e(left), e(right)), rule_label="q1",
            children=(
                fact("Q", e(left), v(f"k{d}"), e(prev[0])),
                fact("Q", e(right), v(f"k{d}"), e(prev[1])),
                node,
            ),
        )
        prev = (left, right)
    return ProofTree(root=node, pair=node.pair)


def _as_dict(node: ProofNode) -> dict:
    """The recursive reading of to_json's nesting (recurses per level)."""
    out: dict = {"kind": node.kind.value, "label": node.label()}
    if node.rule_label is not None:
        out["rule"] = node.rule_label
    if node.sim is not None:
        out["func"] = node.sim.func
        out["score"] = node.sim.score
    if node.children:
        out["children"] = [_as_dict(ch) for ch in node.children]
    return out


class TestDeepOutput:
    """Proof-tree output walks explicit stacks: no Python frame per tree
    level, so depth is bounded by memory, not by the recursion limit."""

    def test_synthetic_ladder_is_the_built_tree(self):
        inst = chain_instance(6)
        built = proof_tree(inst.ctx, solve_one(inst.ctx), P(e("e6l"), e("e6r")))
        assert _ladder_tree(6) == built

    def test_json_matches_json_dumps(self, golden_tree, music_free):
        db, free, sims, sol = music_free
        closure = proof_tree(Context(db, free, sims), sol, (e("s1"), e("s3")))
        for tree in (golden_tree, closure, _ladder_tree(5)):
            want = json.dumps(_as_dict(tree.root), indent=2, sort_keys=True)
            assert to_json(tree) == want
            assert _written(to_json, tree) == want

    def test_deep_json_matches_json_dumps(self):
        # the indented text grows with depth squared (270 MB at 3,000
        # levels), so this depth stays at about twice where json's encoder fails
        tree = _ladder_tree(1000)
        got = to_json(tree)
        assert _written(to_json, tree) == got
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        try:
            want = json.dumps(_as_dict(tree.root), indent=2, sort_keys=True)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want

    def test_deep_dot_and_validation(self):
        depth = 3000
        tree = _ladder_tree(depth)
        inst = chain_instance(depth)
        assert rule_depth(tree) == depth
        assert validate_proof_tree(tree, inst.db, inst.spec) == []
        text = to_dot(tree, inst.spec)
        assert _written(to_dot, tree, inst.spec) == text
        lines = text.splitlines()
        nodes = 3 * depth  # a rule node and two fact leaves per level
        assert len(lines) == 2 + nodes + (nodes - 1) + 1
        # preorder numbering; an edge is listed after its child's subtree
        edges = lines[2 + nodes:-1]
        assert edges[:3] == ["  n0 -> n1;", "  n0 -> n2;", "  n3 -> n4;"]
        assert edges[-3:] == ["  n6 -> n9;", "  n3 -> n6;", "  n0 -> n3;"]

    def test_writers_memory_grows_linearly(self):
        # the indented text grows with depth squared (9.9 to 59 MiB from
        # 400 to 1,000 levels), so a writer that held it could not pass
        spec = chain_instance(2).spec
        for writer, args in ((to_json, ()), (to_dot, (spec,))):
            peaks = {}
            for depth in (500, 1000):
                tree = _ladder_tree(depth)
                with open(os.devnull, "w", encoding="utf-8") as fh:
                    tracemalloc.start()
                    try:
                        assert writer(tree, *args, fh=fh) is None
                        peaks[depth] = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
            assert peaks[1000] <= 2.5 * peaks[500], peaks

    def test_deep_validation_reports_in_preorder(self):
        tree = _ladder_tree(3000)
        inst = chain_instance(2)  # only the two lowest rungs' facts exist
        issues = validate_proof_tree(tree, inst.db, inst.spec)
        assert len(issues) == 2 * (3000 - 2)
        assert issues[0].startswith("root.children[0]: Q(e3000l")
        assert issues[-1].startswith(
            "root" + ".children[2]" * 2997 + ".children[1]: Q(e3r"
        )
