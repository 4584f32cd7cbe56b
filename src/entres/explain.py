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
proof trees. proof_tree() builds a tree realizing that minimum by running
the rule-application chain `levels` reads on one relation, with witnesses:
round i rule answers become depth-i rule nodes, and pairs that only arise
by closing a round are decomposed into transitive nodes over that round's
direct edges. A round evaluates only the matches touching a class the round
before grew; each grown id's history of (round, canonical id) gives, by
binary search, the classes any round started from. Trees are assembled
and rendered on explicit stacks, so depth does not grow the Python stack.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from enum import Enum
from typing import Generator

from .engine import Solution
from .errors import NotInSolution
from .matcher import Context, answers
from .model import Constant, Fact, Kind, MergePair, Record
from .rules import Rule, Specification, Var, analyse, occurrences


class NodeKind(Enum):
    RULE = "rule"
    TRANSITIVE = "transitive"
    FACT = "fact"
    SIM = "sim"


class SimEdge(Record):
    """A scored similarity fact: func(a, b) = score."""

    __slots__ = ("func", "left", "right", "score")


class ProofNode(Record):
    __slots__ = ("kind", "pair", "fact", "sim", "rule_label", "children")
    _defaults = {
        "pair": None, "fact": None, "sim": None, "rule_label": None,
        "children": (),
    }

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


class ProofTree(Record):
    __slots__ = ("root", "pair")


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


class _Edge:
    """One round's rule answer, as the canonical ids of its two classes
    under the relation the round started from, with its witnesses (each
    the tuple of facts one match read, in body order)."""

    __slots__ = ("rule", "u", "v", "witnesses")

    def __init__(
        self, rule: Rule, u: int, v: int, witnesses: list[tuple[Fact, ...]]
    ):
        self.rule = rule
        self.u = u
        self.v = v
        self.witnesses = witnesses


def _witness_key(w: tuple[Fact, ...]):
    return tuple(
        (f.relation,) + tuple((c.kind.value, c.text) for c in f.args)
        for f in w
    )


class _Builder:
    def __init__(self, ctx: Context, sol: Solution):
        ctx.require_domain(sol.eq)
        self.ctx = ctx
        self.cache: dict[MergePair, ProofNode] = {}
        # per round of the chain on e: the answers the solution relates, with
        # their witnesses; merging them all gives the next round's relation
        self.edges: list[list[_Edge]] = []
        # per id whose class grew: (rounds merged, canonical id from then
        # on), ascending; any other id is its own canonical id
        self.history: dict[int, list[tuple[int, int]]] = {}
        rules = analyse(ctx.spec).promoted
        self.e = e = ctx.identity()
        dirty = None
        while True:
            edges: list[_Edge] = []
            for rule in rules:
                found = answers(
                    rule.body, rule.head, ctx, e, witnesses=True, dirty=dirty
                )
                for (u, v), ws in sorted(
                    found.items(), key=lambda t: (t[0][0].text, t[0][1].text)
                ):
                    if u != v and sol.eq.same(u, v):  # so both are entities
                        wits = sorted(ws, key=_witness_key)
                        edges.append(_Edge(rule, e.id_of(u), e.id_of(v), wits))
            merged = [ed.u for ed in edges if e.merge_ids(ed.u, ed.v)]
            if not merged:
                break
            self.edges.append(edges)
            dirty = e.class_ids(merged)
            for i in dirty:
                h = self.history.setdefault(i, [])
                h.append((len(self.edges), e.canon_id(i)))

    def _canon(self, i: int, k: int) -> int:
        """i's canonical id once k rounds have merged (before edges[k])."""
        h = self.history.get(i, ())
        at = bisect_right(h, k, key=lambda t: t[0])
        return h[at - 1][1] if at else i

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
        ia, ib = self.e.id_of(a), self.e.id_of(b)
        k = bisect_left(
            range(1, len(self.edges) + 1), True,
            key=lambda r: self._canon(ia, r) == self._canon(ib, r),
        )
        if k == len(self.edges):
            raise NotInSolution(
                f"({a.text}, {b.text}) was not reached by the rule "
                f"application chain"
            )
        hops = self._class_path(self._canon(ia, k), self._canon(ib, k), k)
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
        self, start: int, goal: int, k: int
    ) -> list[tuple[_Edge, bool]]:
        """Shortest chain of round k + 1's rule edges from class start to
        class goal (canonical ids at the round's start), each with its
        traversal direction (True = the edge's u side is entered first)."""
        adj: dict[int, list[tuple[int, int, tuple[_Edge, bool]]]] = {}
        for rank, edge in enumerate(self.edges[k]):
            adj.setdefault(edge.u, []).append((edge.v, rank, (edge, True)))
            adj.setdefault(edge.v, []).append((edge.u, rank, (edge, False)))
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
        occ = occurrences(rule.body)

        def side_consts(w: tuple[Fact, ...], var) -> list[Constant]:
            return [w[ai].args[pi] for ai, pi in occ[var]]

        def choice(w: tuple[Fact, ...]) -> tuple[Constant, Constant]:
            ls = side_consts(w, lvar)
            rs = side_consts(w, rvar)
            ol = want_left if want_left in ls else min(ls, key=lambda c: c.text)
            if want_right is not None and want_right in rs:
                orr = want_right
            else:
                orr = min(rs, key=lambda c: c.text)
            return ol, orr

        def rank(w: tuple[Fact, ...]):
            ol, orr = choice(w)
            return (
                ol != want_left,
                want_right is not None and orr != want_right,
                _witness_key(w),
            )

        wit = min(edge.witnesses, key=rank)
        o_left, o_right = choice(wit)

        children: list[ProofNode] = [
            ProofNode(kind=NodeKind.FACT, fact=f) for f in wit
        ]
        need: set[MergePair] = set()
        for ai, atom in enumerate(rule.body.rel_atoms):
            for pi, term in enumerate(atom.args):
                if not isinstance(term, Var):
                    got = wit[ai].args[pi]
                    if got != term:
                        need.add(MergePair.of(term, got))
        for var, places in occ.items():
            consts = [wit[ai].args[pi] for ai, pi in places]
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
            score = self.ctx.sims.score(satom.func_id, sa.text, sb.text)
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
    def _sim_const(term, occ, wit: tuple[Fact, ...]) -> Constant:
        if isinstance(term, Var):
            ai, pi = occ[term][0]
            return wit[ai].args[pi]
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
