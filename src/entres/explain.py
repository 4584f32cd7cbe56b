"""Proof trees: minimal-depth justifications for merges within a solution.

A proof tree for a merge (a, b) is a node-labelled tree whose root is
labelled (a, b), whose leaves are database facts or similarity facts, and
whose internal nodes are either

  transitive  exactly two children labelled (d, f) and (f, e) for the
              node's label (d, e);
  rule        one child per relational body atom labelled with the matched
              fact, one child per similarity atom labelled with the scored
              pair, and one merge child for every two body occurrences of
              the same variable (or a body constant and its fact
              counterpart) carrying distinct constants. The node's label is
              the pair of constants the head variables were read from.

The rule-depth of a tree is the maximum number of rule nodes on any
root-to-leaf path; the level of a merge is the minimum rule-depth over its
proof trees. proof_tree() builds a tree realizing that minimum by replaying
the engine's rule-application chain (engine._rounds, which `levels` reads
too): round i rule answers, with their witnesses, become depth-i rule
nodes, and pairs that only arise by closing a round are decomposed into
transitive nodes over that round's direct edges. Like the chain, a round
evaluates only the matches touching a class the round before grew. Trees
are assembled, validated and rendered on explicit stacks, so depth does not
grow the Python stack.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Generator

from .engine import Solution, _rounds
from .errors import NotInSolution
from .matcher import Context, SimResolver, Witness, answers
from .model import Constant, Database, EqRel, Fact, Kind, MergePair
from .rules import Rule, RuleBody, Specification, Var, transform


class NodeKind(Enum):
    RULE = "rule"
    TRANSITIVE = "transitive"
    FACT = "fact"
    SIM = "sim"


@dataclass(frozen=True, slots=True)
class SimEdge:
    """A scored similarity fact: func(a, b) = score."""

    func: str
    left: Constant
    right: Constant
    score: int


@dataclass(frozen=True, slots=True)
class ProofNode:
    kind: NodeKind
    pair: MergePair | None = None
    fact: Fact | None = None
    sim: SimEdge | None = None
    rule_label: str | None = None
    children: tuple["ProofNode", ...] = ()

    def label(self) -> str:
        if self.kind in (NodeKind.RULE, NodeKind.TRANSITIVE):
            assert self.pair is not None
            return f"({_text(self.pair.left)}, {_text(self.pair.right)})"
        if self.kind is NodeKind.FACT:
            assert self.fact is not None
            args = ", ".join(_text(c) for c in self.fact.args)
            return f"{self.fact.relation}({args})"
        assert self.sim is not None
        s = self.sim
        return (
            f"{_text(s.left)} ≈ {_text(s.right)} "
            f"[{s.func} {s.score / 100:.2f}]"
        )


@dataclass(frozen=True, slots=True)
class ProofTree:
    root: ProofNode
    pair: MergePair


def _text(c: Constant) -> str:
    return "<null>" if c.kind is Kind.NULL else c.text


def rule_depth(tree: ProofTree | ProofNode) -> int:
    """Maximum number of rule nodes on any root-to-leaf path."""
    deepest = 0
    todo = [(tree.root if isinstance(tree, ProofTree) else tree, 0)]
    while todo:
        node, depth = todo.pop()
        depth += node.kind is NodeKind.RULE
        deepest = max(deepest, depth)
        todo.extend((ch, depth) for ch in node.children)
    return deepest


# ------------------------------------------------------------ construction


@dataclass(slots=True)
class _Edge:
    """One round's rule answer, as the canonical ids of its two classes
    under the relation the round started from, with its witnesses."""

    rule: Rule
    u: int
    v: int
    witnesses: list[Witness]


def _occurrences(body: RuleBody) -> dict[Var, list[tuple[int, int]]]:
    occ: dict[Var, list[tuple[int, int]]] = {}
    for ai, atom in enumerate(body.rel_atoms):
        for pi, term in enumerate(atom.args):
            if isinstance(term, Var):
                occ.setdefault(term, []).append((ai, pi))
    return occ


def _witness_key(w: Witness):
    return tuple(
        (f.relation,) + tuple((c.kind.value, c.text) for c in f.args)
        for f in w.facts
    )


class _Builder:
    def __init__(self, ctx: Context, sol: Solution):
        self.ctx = ctx
        self.cache: dict[MergePair, ProofNode] = {}
        # per round: the relation it started from and the answers it
        # admitted, with their witnesses, evaluated as the round evaluated
        # them (on the matches touching a class the round before grew)
        self.starts: list[EqRel] = []
        self.edges: list[list[_Edge]] = []
        rules = transform(ctx.spec, "ub").hard
        e = ctx.identity()
        start, dirty = e.clone(), None
        for grown in _rounds(ctx, rules, e, within=sol.eq):
            edges: list[_Edge] = []
            for rule in rules:
                ans = answers(
                    rule.body, rule.head, ctx, start,
                    expand=False, witnesses=True, dirty=dirty,
                )
                assert ans.witnesses is not None
                for u, v in sorted(
                    ans.rep_tuples, key=lambda t: (t[0].text, t[1].text)
                ):
                    if u != v and sol.eq.same(u, v):  # so both are entities
                        wits = sorted(ans.witnesses[(u, v)], key=_witness_key)
                        edges.append(
                            _Edge(rule, start.id_of(u), start.id_of(v), wits)
                        )
            self.starts.append(start)
            self.edges.append(edges)
            start, dirty = e.clone(), grown
        self.ends = self.starts[1:] + [start]  # the relation after each round

    # -- tree assembly

    def build(self, a: Constant, b: Constant) -> ProofNode:
        """The tree for (a, b), built once per pair. Each tree under
        construction waits on an explicit stack for the trees it asks for,
        so tree depth does not grow the Python stack."""
        stack = [(MergePair.of(a, b), self._chain_pair(a, b))]
        node: ProofNode | None = None
        while True:
            pair, tree = stack[-1]
            try:
                x, y = tree.send(node)  # type: ignore[arg-type]
            except StopIteration as done:
                node = self.cache[pair] = done.value
                stack.pop()
                if not stack:
                    return node
                continue
            node = self.cache.get(MergePair.of(x, y))
            if node is None:
                stack.append((MergePair.of(x, y), self._chain_pair(x, y)))

    def _chain_pair(
        self, a: Constant, b: Constant
    ) -> Generator[tuple[Constant, Constant], ProofNode, ProofNode]:
        """Tree for (a, b), which first holds after round k + 1: a path of
        that round's rule answers and of pairs holding before it, folded
        into right-nested transitive nodes. Yields each pair whose tree it
        needs and is sent that tree back."""
        k = bisect_left(self.ends, True, key=lambda rel: rel.same(a, b))
        if k == len(self.ends):
            raise NotInSolution(
                f"({a.text}, {b.text}) was not reached by the rule "
                f"application chain"
            )
        hops = self._class_path(a, b, k)
        parts: list[tuple[Constant, Constant, ProofNode | None]] = []
        pos = a
        for hop, (edge, forward) in enumerate(hops):
            want_right = b if hop == len(hops) - 1 else None
            node, o_left, o_right = yield from self._rule_node(
                edge, forward, pos, want_right
            )
            if o_left != pos:
                parts.append((pos, o_left, None))
            parts.append((o_left, o_right, node))
            pos = o_right
        if pos != b:
            parts.append((pos, b, None))
        built: list[ProofNode] = []
        for x, y, node in parts:
            built.append(node if node is not None else (yield x, y))
        tree = built[-1]
        right = parts[-1][1]
        for (x, _y, _n), node in zip(reversed(parts[:-1]), reversed(built[:-1])):
            tree = ProofNode(
                kind=NodeKind.TRANSITIVE,
                pair=MergePair.of(x, right),
                children=(node, tree),
            )
        return tree

    def _class_path(
        self, a: Constant, b: Constant, k: int
    ) -> list[tuple[_Edge, bool]]:
        """Shortest chain of round k + 1's rule edges from a's class to b's
        class under the relation the round started from, each with its
        traversal direction (True = the edge's u side is entered first)."""
        prev = self.starts[k]
        adj: dict[int, list[tuple[int, int, tuple[_Edge, bool]]]] = {}
        for rank, edge in enumerate(self.edges[k]):
            adj.setdefault(edge.u, []).append((edge.v, rank, (edge, True)))
            adj.setdefault(edge.v, []).append((edge.u, rank, (edge, False)))
        start = prev.canon_id(prev.id_of(a))
        goal = prev.canon_id(prev.id_of(b))
        if start == goal:
            raise NotInSolution(
                f"({a.text}, {b.text}) already holds before its level round"
            )
        parent: dict[int, tuple[int, tuple[_Edge, bool]]] = {start: (start, None)}  # type: ignore[dict-item]
        frontier = [start]
        while frontier and goal not in parent:
            nxt: list[int] = []
            for cls in frontier:
                for other, _rank, step in sorted(
                    adj.get(cls, ()), key=lambda t: (t[0], t[1])
                ):
                    if other not in parent:
                        parent[other] = (cls, step)
                        nxt.append(other)
            frontier = sorted(set(nxt))
        if goal not in parent:
            raise NotInSolution(
                f"no rule-answer path connects {a.text} and {b.text}"
            )
        hops: list[tuple[_Edge, bool]] = []
        at = goal
        while at != start:
            at, step = parent[at]
            hops.append(step)
        hops.reverse()
        return hops

    def _rule_node(
        self,
        edge: _Edge,
        forward: bool,
        want_left: Constant,
        want_right: Constant | None,
    ) -> Generator[
        tuple[Constant, Constant],
        ProofNode,
        tuple[ProofNode, Constant, Constant],
    ]:
        """Rule node for one answer edge, plus the original constants its
        label carries on each side. Prefers a witness whose head variables
        were read from the wanted constants, then the least witness."""
        rule = edge.rule
        lvar, rvar = rule.head if forward else (rule.head[1], rule.head[0])
        occ = _occurrences(rule.body)

        def side_consts(w: Witness, var) -> list[Constant]:
            return [w.facts[ai].args[pi] for ai, pi in occ[var]]

        def choice(w: Witness) -> tuple[Constant, Constant]:
            ls = side_consts(w, lvar)
            rs = side_consts(w, rvar)
            ol = want_left if want_left in ls else min(ls, key=lambda c: c.text)
            if want_right is not None and want_right in rs:
                orr = want_right
            else:
                orr = min(rs, key=lambda c: c.text)
            return ol, orr

        def rank(w: Witness):
            ol, orr = choice(w)
            return (
                ol != want_left,
                want_right is not None and orr != want_right,
                _witness_key(w),
            )

        wit = min(edge.witnesses, key=rank)
        o_left, o_right = choice(wit)

        children: list[ProofNode] = [
            ProofNode(kind=NodeKind.FACT, fact=f) for f in wit.facts
        ]
        need: set[MergePair] = set()
        for ai, atom in enumerate(rule.body.rel_atoms):
            for pi, term in enumerate(atom.args):
                if not isinstance(term, Var):
                    got = wit.facts[ai].args[pi]
                    if got != term:
                        need.add(MergePair.of(term, got))
        for var, places in occ.items():
            consts = [wit.facts[ai].args[pi] for ai, pi in places]
            for i, c1 in enumerate(consts):
                for c2 in consts[i + 1:]:
                    if c1 != c2:
                        need.add(MergePair.of(c1, c2))
        for sub in sorted(need, key=lambda p: (p.left.text, p.right.text)):
            children.append((yield sub.left, sub.right))
        for satom in rule.body.sim_atoms:
            sa = self._sim_const(satom.left, occ, wit)
            sb = self._sim_const(satom.right, occ, wit)
            assert self.ctx.sims is not None
            score = self.ctx.sims.score(satom.func_id, sa, sb)
            children.append(
                ProofNode(
                    kind=NodeKind.SIM,
                    sim=SimEdge(satom.func_id, sa, sb, score),
                )
            )
        node = ProofNode(
            kind=NodeKind.RULE,
            pair=MergePair.of(o_left, o_right),
            rule_label=rule.label,
            children=tuple(children),
        )
        return node, o_left, o_right

    @staticmethod
    def _sim_const(term, occ, wit: Witness) -> Constant:
        if isinstance(term, Var):
            ai, pi = occ[term][0]
            return wit.facts[ai].args[pi]
        return term


def proof_tree(
    ctx: Context,
    sol: Solution,
    pair: MergePair | tuple[Constant, Constant],
) -> ProofTree:
    """A proof tree for the pair in the solution, of minimal rule-depth
    (equal to the pair's level)."""
    a, b = (pair.left, pair.right) if isinstance(pair, MergePair) else pair
    if a == b:
        raise ValueError("reflexive merges need no proof tree")
    target = MergePair.of(a, b)
    if target not in sol.eq:
        raise NotInSolution(f"({a.text}, {b.text}) is not merged in the solution")
    builder = _Builder(ctx, sol)
    return ProofTree(root=builder.build(a, b), pair=target)


# -------------------------------------------------------------- validation


def validate_proof_tree(
    tree: ProofTree,
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
) -> list[str]:
    """Check the proof tree definition clause by clause, independently of
    how the tree was built. Returns human-readable violations; an empty
    list means the tree is valid."""
    issues: list[str] = []
    facts = set(db.facts)
    if tree.root.pair != tree.pair:
        issues.append("root: label differs from the explained merge")

    def visit(node: ProofNode, path: str) -> bool:
        """Check one node; True when its children are to be checked too."""
        if node.kind is NodeKind.FACT:
            if node.children:
                issues.append(f"{path}: fact leaf has children")
            if node.fact not in facts:
                issues.append(f"{path}: {node.label()} is not a database fact")
            return False
        if node.kind is NodeKind.SIM:
            if node.children:
                issues.append(f"{path}: similarity leaf has children")
            assert node.sim is not None
            if sims is not None:
                actual = sims.score(node.sim.func, node.sim.left, node.sim.right)
                if actual != node.sim.score:
                    issues.append(
                        f"{path}: recorded score {node.sim.score} but the "
                        f"resolver says {actual}"
                    )
            return False
        if node.pair is None:
            issues.append(f"{path}: internal node without a pair label")
            return False
        if node.kind is NodeKind.TRANSITIVE:
            _check_transitive(node, path)
        else:
            _check_rule(node, path)
        return True

    def _check_transitive(node: ProofNode, path: str) -> None:
        if len(node.children) != 2:
            issues.append(f"{path}: transitive node with "
                          f"{len(node.children)} children")
            return
        kinds = {ch.kind for ch in node.children}
        if not kinds <= {NodeKind.RULE, NodeKind.TRANSITIVE}:
            issues.append(f"{path}: transitive children must be merge nodes")
            return
        aset = {node.children[0].pair.left, node.children[0].pair.right}  # type: ignore[union-attr]
        bset = {node.children[1].pair.left, node.children[1].pair.right}  # type: ignore[union-attr]
        nset = {node.pair.left, node.pair.right}  # type: ignore[union-attr]
        if aset ^ bset != nset or len(aset & bset) != 1:
            issues.append(
                f"{path}: children labels do not chain through a shared "
                f"constant to the node label"
            )

    def _check_rule(node: ProofNode, path: str) -> None:
        rule = spec.rule_by_label(node.rule_label or "")
        if rule is None:
            issues.append(f"{path}: unknown rule {node.rule_label!r}")
            return
        fact_children = [c for c in node.children if c.kind is NodeKind.FACT]
        sim_children = [c for c in node.children if c.kind is NodeKind.SIM]
        merge_children = [
            c for c in node.children
            if c.kind in (NodeKind.RULE, NodeKind.TRANSITIVE)
        ]
        atoms = rule.body.rel_atoms
        if len(fact_children) != len(atoms):
            issues.append(
                f"{path}: {len(fact_children)} fact children for "
                f"{len(atoms)} body atoms"
            )
            return
        bound: dict[Var, list[Constant]] = {}
        need: set[MergePair] = set()
        for i, (atom, child) in enumerate(zip(atoms, fact_children)):
            f = child.fact
            assert f is not None
            if f.relation != atom.relation or len(f.args) != len(atom.args):
                issues.append(
                    f"{path}: fact child {i} does not instantiate "
                    f"{atom.relation}/{len(atom.args)}"
                )
                return
            for term, got in zip(atom.args, f.args):
                if isinstance(term, Var):
                    bound.setdefault(term, []).append(got)
                elif term != got:
                    need.add(MergePair.of(term, got))
        for var, consts in bound.items():
            for i, c1 in enumerate(consts):
                for c2 in consts[i + 1:]:
                    if c1 != c2:
                        need.add(MergePair.of(c1, c2))
        have = {c.pair for c in merge_children}
        for pair in need - have:
            issues.append(
                f"{path}: missing merge child "
                f"({pair.left.text}, {pair.right.text})"
            )
        for pair in have - need:
            issues.append(
                f"{path}: merge child ({pair.left.text}, {pair.right.text}) "
                f"is not required by the body instantiation"
            )
        x, y = rule.head
        xs = set(bound.get(x, ()))
        ys = set(bound.get(y, ()))
        nset = {node.pair.left, node.pair.right}  # type: ignore[union-attr]
        if not any(
            {ox, oy} == nset for ox in xs for oy in ys
        ):
            issues.append(
                f"{path}: head variables were never read from the node "
                f"label constants"
            )
        unused = list(sim_children)
        for satom in rule.body.sim_atoms:
            expect_left = _term_consts(satom.left, bound)
            expect_right = _term_consts(satom.right, bound)
            found = None
            for ch in unused:
                se = ch.sim
                assert se is not None
                if se.func != satom.func_id:
                    continue
                ok = (se.left in expect_left and se.right in expect_right) or (
                    se.right in expect_left and se.left in expect_right
                )
                if ok and se.score >= satom.threshold:
                    found = ch
                    break
            if found is None:
                issues.append(
                    f"{path}: no similarity child satisfies "
                    f"{satom.func_id} >= {satom.threshold / 100:.2f}"
                )
            else:
                unused.remove(found)
        for ch in unused:
            issues.append(f"{path}: extra similarity child {ch.label()}")

    def _term_consts(term, bound: dict[Var, list[Constant]]) -> set[Constant]:
        if isinstance(term, Var):
            return set(bound.get(term, ()))
        return {term}

    # preorder on an explicit stack, so tree depth does not grow the
    # Python stack
    todo = [(tree.root, "root")]
    while todo:
        node, path = todo.pop()
        if visit(node, path):
            todo.extend(
                (ch, f"{path}.children[{i}]")
                for i, ch in reversed(list(enumerate(node.children)))
            )
    return issues


# ----------------------------------------------------------------- export


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(tree: ProofTree, spec: Specification | None = None) -> str:
    """Deterministic DOT rendering: merge nodes as ellipses, fact and
    similarity leaves as boxes, rule nodes annotated with their rule label
    and optional description. Nodes are numbered in preorder, and each edge
    is listed once its child's subtree has been."""
    lines = ["digraph proof {", "  rankdir=TB;"]
    edges: list[str] = []
    counter = 0
    # a node to number, with its parent's name, or an edge to list
    todo: list[tuple[ProofNode, str | None] | str] = [(tree.root, None)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            edges.append(item)
            continue
        node, parent = item
        name = f"n{counter}"
        counter += 1
        label = _dot_escape(node.label())
        shape = "box"
        if node.kind in (NodeKind.RULE, NodeKind.TRANSITIVE):
            shape = "ellipse"
        if node.kind is NodeKind.RULE and node.rule_label:
            note = node.rule_label
            rule = spec.rule_by_label(node.rule_label) if spec else None
            if rule is not None and rule.description:
                note += f": {rule.description}"
            label += f"\\n[{_dot_escape(note)}]"
        elif node.kind is NodeKind.TRANSITIVE:
            label += "\\n[transitive]"
        lines.append(f'  {name} [label="{label}", shape={shape}];')
        if parent is not None:
            todo.append(f"  {parent} -> {name};")
        todo.extend((ch, name) for ch in reversed(node.children))
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(tree: ProofTree) -> str:
    """Nested JSON rendering of the tree (kind, label, children, plus the
    rule label and similarity score where they apply): exactly the text of
    json.dumps(..., indent=2, sort_keys=True), written from an explicit
    stack so tree depth does not grow the Python stack."""
    out: list[str] = []
    # text to write, or a node to open at its indentation depth
    todo: list[str | tuple[ProofNode, int]] = [(tree.root, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, depth = item
        pad = "\n" + "  " * (depth + 1)
        fields: dict = {"kind": node.kind.value, "label": node.label()}
        if node.rule_label is not None:
            fields["rule"] = node.rule_label
        if node.sim is not None:
            fields["func"] = node.sim.func
            fields["score"] = node.sim.score
        # "children" sorts before every other key
        parts: list[str | tuple[ProofNode, int]] = ["{"]
        if node.children:
            parts.append(pad + '"children": [')
            for i, ch in enumerate(node.children):
                parts += ["," * (i > 0) + pad + "  ", (ch, depth + 2)]
            parts.append(pad + "],")
        parts.append(",".join(
            f"{pad}{json.dumps(key)}: {json.dumps(val)}"
            for key, val in sorted(fields.items())
        ) + "\n" + "  " * depth + "}")
        todo.extend(reversed(parts))
    return "".join(out)
