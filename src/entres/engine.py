"""Solution-space computations over a database and specification.

A candidate solution is any equivalence relation reachable from identity by
repeatedly applying one rule answer and closing. A solution additionally
satisfies every hard rule and denial constraint. Which rules and
constraints are merge-monotone, and so which rules each computation runs
and which search path it takes, is decided once per specification by
rules.analyse. This module computes:

  - lb / ub:     fixpoints of the merge-monotone hard rules and of every
                 rule as hard with its non-monotone inequalities dropped,
                 bounding every solution from below and above;
  - loose_ub:    the ub fixpoint with similarity atoms dropped (needs no
                 similarity scores at all);
  - solve_one, enumerate_solutions, maximal_solutions: depth-first search
                 over soft-rule applications with hard saturation after
                 every step (when the analysis finds it eager) and
                 memoization on partition signatures. The search runs on
                 an explicit stack and is delta-driven: a child
                 re-evaluates rules and constraints only on rows that
                 touch the classes its merges grew (see _Search);
  - possible_merges / certain_merges / is_possible: union over all
                 solutions and intersection over maximal solutions.
                 These, maximal_solutions, merge_sets and solve_one
                 search one independent part at a time from the start,
                 and every solution is one choice per part (see
                 _Search.split). When the analysis finds that the
                 specification splits, the parts are the classes the
                 hard-saturated start leaves undecided, grouped so that no
                 body match under ub reads two parts; otherwise the whole
                 instance is one part. A start with nothing to branch on
                 is answered as it is, with no parts and no ub fixpoint.
                 enumerate_solutions for more than one solution searches
                 the whole instance;
  - levels:      recursion depth of each merge (the round of the
                 rule-application chain that first produces it).
"""

from __future__ import annotations

from itertools import combinations, product
from typing import AbstractSet, Collection, Iterable, Iterator

from .errors import NotASolution
from .matcher import (
    Context,
    dc_satisfied,
    matched_ids,
    merge_candidates,
    rule_satisfied,
)
from .model import Constant, EqRel, MergePair, Record
from .rules import Rule, analyse


class DerivStep(Record):
    """One applied merge: the label of the rule whose answer it was and the
    pair, as canonical representatives at application time."""

    __slots__ = ("label", "pair")


class Solution(Record):
    """A solution with the derivation that proves it is a candidate."""

    __slots__ = ("eq", "derivation")
    _defaults = {"derivation": ()}

    def pairs(self) -> frozenset[MergePair]:
        return self.eq.nontrivial_pairs()


class MergeSets(Record):
    """The four merge sets; consistent is False when no solution exists,
    in which case pm and cm are empty by convention."""

    __slots__ = ("lb", "ub", "pm", "cm", "consistent")


# ------------------------------------------------------------- fixpoints


def _rounds(
    ctx: Context,
    rules: tuple[Rule, ...],
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
    within: EqRel | None = None,
    record: list[DerivStep] | None = None,
) -> Iterator[set[int]]:
    """The rule-application chain from e: each round evaluates the rules,
    merges every answer and yields the ids of the classes it grew, until a
    round merges nothing. Mutates e. Round i's answers have level i.

    Rounds after the first evaluate semi-naively, each relational atom in
    turn pinned to rows touching a class the previous round grew: any other
    match held a round earlier with the same canonical ids, so its answer
    was merged then or left out then too. The first round does so as well
    given dirty ids, for which e must be closed under the rules but for
    matches on a row touching one (as a saturated state is after merges
    whose classes dirty covers), and evaluates in full otherwise.

    within, when given, admits only answers that relation relates (it must
    be over the database's domain, as e is); record, when given, receives a
    DerivStep for every applied merge."""
    if within is not None:
        ctx.require_domain(within)
    while True:
        found: set[tuple[str, int, int]] = set()
        for rule in rules:
            for i, j in merge_candidates(rule, ctx, e, dirty):
                if within is None or within.canon_id(i) == within.canon_id(j):
                    found.add((rule.label, i, j))
        merged: list[int] = []
        for label, i, j in sorted(found):
            if e.merge_ids(i, j):
                merged.append(i)
                if record is not None:
                    record.append(
                        DerivStep(label, MergePair.of(e.const(i), e.const(j)))
                    )
        if not merged:
            return
        dirty = e.class_ids(merged)
        yield dirty


def _fixpoint(ctx: Context, rules: tuple[Rule, ...]) -> EqRel:
    """The identity closed under the rules."""
    e = ctx.identity()
    for _ in _rounds(ctx, rules, e):
        pass
    return e


def lb(ctx: Context) -> EqRel:
    """Least fixpoint of the merge-monotone hard rules (Analysis.lb):
    merges present in every solution."""
    return _fixpoint(ctx, analyse(ctx.spec).lb)


def ub(ctx: Context) -> EqRel:
    """Fixpoint of every rule as hard, non-monotone inequalities dropped
    (Analysis.ub): no solution merges more. A copy of the context's own
    ub when it holds one (see Context)."""
    if ctx.ub is not None:
        return ctx.ub.clone()
    return _fixpoint(ctx, analyse(ctx.spec).ub)


def loose_ub(ctx: Context) -> EqRel:
    """The ub fixpoint with similarity atoms dropped; a similarity-free
    overapproximation that needs no scores."""
    return _fixpoint(ctx, analyse(ctx.spec).loose_ub)


# ------------------------------------------------------------------ search


class _Node:
    """A search state on the DFS stack: its candidates per branching rule
    (as canonical id pairs) and the sorted answers not yet tried."""

    __slots__ = ("e", "deriv", "cands", "todo")

    def __init__(
        self,
        e: EqRel,
        deriv: tuple[DerivStep, ...],
        cands: list[set[tuple[int, int]]],
        todo: Iterator[tuple[str, int, int]],
    ):
        self.e = e
        self.deriv = deriv
        self.cands = cands
        self.todo = todo


class _Search:
    """Depth-first exploration of hard-saturated candidate states.

    Children (one extra soft answer, then hard saturation) are explored
    before the state itself is recorded, so solutions arrive biased toward
    larger merge sets; memoization on partition signatures collapses
    permuted application orders. The DFS keeps its states on an explicit
    stack, so search depth does not grow the Python stack.

    The search is delta-driven (semi-naive evaluation between nodes). A
    child differs from its parent, which passed the pruning constraints and
    is hard-saturated, only in the classes its merges grew; their members
    are the child's dirty ids, and every body match that is new at the
    child uses a row touching one. So at a child:

      - hard saturation starts pinned to the dirty ids;
      - a rule's candidates are the parent's, re-canonicalised and without
        pairs now in one class, plus the answers of matches pinned to the
        dirty ids. That needs the parent's matches to persist, so a rule
        with a break (see Analysis) is evaluated in full instead;
      - pruning constraints are checked only on matches pinned to the
        dirty ids, the checked ones in full once a state's subtree is done.

    Unless saturation is eager, the search starts at the identity, hard
    answers are branches like soft ones (no state is hard-saturated), and
    a state counts only once it has no hard answer left."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.an = analyse(ctx.spec)
        self.memo: set[frozenset[frozenset[int]]] = set()
        #: the ids whose classes key the memo, or None for every id
        self.ids: Collection[int] | None = None

    def root(self) -> _Node | None:
        """The node of the start state, hard-saturated when saturation is
        eager, or None when it fails a pruning constraint. Starts a new
        memo keyed by every class."""
        self.memo, self.ids = set(), None
        start = self.ctx.identity()
        steps: list[DerivStep] = []
        if self.an.eager:
            hard = self.ctx.spec.hard
            for _ in _rounds(self.ctx, hard, start, record=steps):
                pass
        return self._enter(start, tuple(steps))

    def run(
        self,
        limit: int | None = None,
        stop_pair: MergePair | None = None,
        root: _Node | None = None,
    ) -> list[Solution]:
        """Solutions in search order, from the given root node or else
        from the start state, up to limit of them or to the first that
        merges stop_pair."""
        results: list[Solution] = []
        if limit is not None and limit <= 0:
            return results
        if root is None:
            root = self.root()
        stack = [root] if root is not None else []
        while stack:
            node = stack[-1]
            step = next(node.todo, None)
            if step is not None:
                child = self._child(node, *step)
                if child is not None:
                    stack.append(child)
                continue
            stack.pop()
            if self._accepts(node):
                results.append(Solution(node.e, node.deriv))
                if len(results) == limit or (
                    stop_pair is not None and stop_pair in node.e
                ):
                    break
        return results

    def split(
        self, stop_pair: MergePair | None = None, limit: int | None = None
    ) -> tuple[Solution, list[list[_PartSolution]]] | None:
        """The root's state and, per independent part, the solutions that
        differ from the root only within that part (up to limit of them),
        each with the pairs it merges there, searched from the root with
        its candidates cut down to the part; None when the root fails a
        pruning constraint or a part it searched has no solution. Given
        stop_pair, only the part holding both its ids is searched, up to a
        solution that merges them. A root with no candidate to branch on
        has no part: it is the one solution or there is none.

        When the specification splits (Analysis.splits), the parts are
        _parts': a state between the root and ub is a solution iff its
        restriction to each part (the root elsewhere) is, as every body
        match reads the classes of one part only, besides classes no
        solution grows. For the same reason a child's new candidates lie in
        its root's part, so only the root's are cut down, and every state a
        part's search reaches differs from the root only in classes of the
        part's ids, so each part has its own memo keyed by those classes.
        Otherwise the whole instance is one part: the search might break a
        checked constraint in every state, or (unless eager) start below a
        hard answer, so the root's pairs count only once the part has a
        solution."""
        root = self.root()
        if root is None:
            return None
        start = Solution(root.e, root.deriv)
        if not any(root.cands):
            return (start, []) if self._accepts(root) else None
        if self.an.splits:
            parts = _parts(self.ctx, root.e)
        else:
            parts = [range(self.ctx.db.entities)]
        if stop_pair is not None:
            pair = {root.e.id_of(c) for c in stop_pair}
            parts = [ids for ids in parts if pair.issubset(ids)]
        found = []
        for ids in parts:
            cands = [{p for p in got if p[0] in ids} for got in root.cands]
            node = self._node(root.e, root.deriv, cands)
            self.memo, self.ids = set(), ids
            sols = self.run(limit, stop_pair, node)
            if not sols:
                return None
            found.append([(sol, _pairs_within(sol.eq, ids)) for sol in sols])
        return start, found

    def _child(self, parent: _Node, label: str, i: int, j: int) -> _Node | None:
        """Apply one answer to the parent's state, hard-saturate from the
        merged class when saturation is eager, and enter the result."""
        e = parent.e.clone()
        steps = [DerivStep(label, MergePair.of(e.const(i), e.const(j)))]
        e.merge_ids(i, j)
        dirty = e.class_ids((i,))
        if self.an.eager:
            dirty = dirty.union(
                *_rounds(self.ctx, self.ctx.spec.hard, e, dirty, record=steps)
            )
        return self._enter(e, parent.deriv + tuple(steps), parent.cands, dirty)

    def _enter(
        self,
        e: EqRel,
        deriv: tuple[DerivStep, ...],
        parent_cands: list[set[tuple[int, int]]] | None = None,
        dirty: set[int] | None = None,
    ) -> _Node | None:
        """The node for a new state, or None when the memo already holds
        it or a pruning constraint fails. The root passes no parent
        candidates and no dirty ids, and is evaluated in full."""
        sig = e.signature(self.ids)
        if sig in self.memo:
            return None
        self.memo.add(sig)
        for dc in self.an.pruning:
            if not dc_satisfied(dc, self.ctx, e, dirty):
                return None  # violation persists in the whole subtree
        cands: list[set[tuple[int, int]]] = []
        for k, rule in enumerate(self.an.branching):
            if parent_cands is None or rule.label in self.an.breaks:
                got = merge_candidates(rule, self.ctx, e)
            else:
                got = merge_candidates(rule, self.ctx, e, dirty)
                for a, b in parent_cands[k]:
                    a, b = e.canon_id(a), e.canon_id(b)
                    if a != b:
                        got.add((a, b) if a < b else (b, a))
            cands.append(got)
        return self._node(e, deriv, cands)

    def _node(
        self,
        e: EqRel,
        deriv: tuple[DerivStep, ...],
        cands: list[set[tuple[int, int]]],
    ) -> _Node:
        todo = sorted({
            (rule.label, i, j)
            for rule, got in zip(self.an.branching, cands)
            for i, j in got
        })
        return _Node(e, deriv, cands, iter(todo))

    def _accepts(self, node: _Node) -> bool:
        """Whether a state whose subtree is done is a solution: it has no
        hard answer left and passes the constraints that were not checked
        on the way down."""
        if any(node.cands[len(self.ctx.spec.soft):]):
            return False
        return all(
            dc_satisfied(dc, self.ctx, node.e) for dc in self.an.checked
        )


#: a solution of one part, with the pairs it merges within the part
_PartSolution = tuple[Solution, frozenset[MergePair]]


def _pairs_within(e: EqRel, ids: Iterable[int]) -> frozenset[MergePair]:
    """The pairs e merges among ids, which must be whole classes of e, at
    a cost in the number of ids rather than in the domain's size."""
    groups: dict[int, list[int]] = {}
    for i in sorted(ids):
        groups.setdefault(e.canon_id(i), []).append(i)
    return frozenset(
        MergePair.of(e.const(i), e.const(j))
        for members in groups.values() for i, j in combinations(members, 2)
    )


def _parts(ctx: Context, root: EqRel) -> list[set[int]]:
    """The ids in the classes root leaves undecided, as independent parts.

    A class is undecided when its ub class is larger; every other class is
    the same in every solution. Two undecided ub classes are linked when
    one body match under ub, of a rule or a constraint, reads both; a part
    is the members of a connected group of them, and the parts come in the
    order of their least id. Matches at ub cover those at every state
    between root and ub, as the specification is merge-monotone, and each
    merge within a ub class came from one of them, so no match of any such
    state reads two parts. Only the matches on a row touching an undecided
    class can link two, so only those are evaluated."""
    u = ub(ctx)
    canon = u.canon_id
    undecided = {
        canon(i) for i in range(ctx.db.entities)
        if root.canon_id(i) != canon(i)
    }
    members = u.class_ids(undecided)
    links = ctx.identity()
    spec = ctx.spec
    bodies = [r.body for r in spec.all_rules()] + [d.body for d in spec.dcs]
    for body in bodies:
        for ids in matched_ids(body, ctx, u, members):
            read = [c for c in map(canon, ids) if c in undecided]
            for c in read[1:]:
                links.merge_ids(read[0], c)
    parts: dict[int, set[int]] = {}
    for c in sorted(undecided):
        parts.setdefault(links.canon_id(c), set()).update(u.class_ids((c,)))
    return list(parts.values())


def enumerate_solutions(ctx: Context, n: int | None = None) -> list[Solution]:
    """Up to n solutions with pairwise distinct merge sets (all of them
    when n is None), in deterministic search order. The first alone
    (n == 1) is searched part by part, see solve_one."""
    if n != 1:
        return _Search(ctx).run(limit=n)
    split = _Search(ctx).split(limit=1)
    if split is None:
        return []
    root, parts = split
    return [_joined(root, (found[0][0] for found in parts))]


def solve_one(ctx: Context) -> Solution | None:
    """Some solution, or None when the specification is inconsistent with
    the data. Biased toward a subset-maximal one by the search order.

    It merges what the whole-instance search's first solution merges, but
    is searched one part at a time: each part's first solution, joined
    (_Search.split), so its derivation lists the root's steps and then
    each part's. When the specification splits, a state's children, its
    pruning checks and its acceptance each read the classes of one part
    only, besides classes no solution grows. So the whole search,
    restricted to one part, visits that part's states in the part's own
    search order, and its first accepted state, restricted to a part, is
    that part's first accepted state. Otherwise the whole instance is the
    one part."""
    found = enumerate_solutions(ctx, n=1)
    return found[0] if found else None


def _largest_first(sol: Solution):
    ps = sorted((p.left.text, p.right.text) for p in sol.pairs())
    return (-len(ps), ps)


def _maximal(found: list[_PartSolution]) -> list[_PartSolution]:
    """The entries whose pairs no other entry's strictly contain."""
    return [
        (sol, ps) for sol, ps in found if not any(ps < qs for _, qs in found)
    ]


def _joined(root: Solution, sols: Iterable[Solution]) -> Solution:
    """The state of solutions from disjoint parts, each extending root:
    root's derivation followed by each one's own steps."""
    e = root.eq.clone()
    deriv = list(root.derivation)
    for sol in sols:
        for step in sol.derivation[len(root.derivation):]:
            e.merge(step.pair.left, step.pair.right)
            deriv.append(step)
    return Solution(e, tuple(deriv))


def maximal_solutions(ctx: Context, n: int | None = None) -> list[Solution]:
    """Up to n solutions whose merge sets are subset-maximal among all
    solutions, largest first: the product of each part's maximal states
    (see _Search.split)."""
    if n is not None and n <= 0:
        return []
    split = _Search(ctx).split()
    if split is None:
        return []
    root, parts = split
    per_part = [[sol for sol, _ in _maximal(found)] for found in parts]
    maxima = [_joined(root, pick) for pick in product(*per_part)]
    maxima.sort(key=_largest_first)
    return maxima if n is None else maxima[:n]


def _pm_cm(
    ctx: Context,
) -> tuple[frozenset[MergePair], frozenset[MergePair], bool]:
    """Possible and certain merges, and whether a solution exists: pm is
    the root's pairs and those of every part's solutions, and cm the root's
    pairs and each part's certain ones (see _Search.split)."""
    split = _Search(ctx).split()
    if split is None:
        return frozenset(), frozenset(), False
    root, parts = split
    pm = root.pairs().union(*(ps for found in parts for _, ps in found))
    cm = root.pairs().union(*(
        frozenset.intersection(*(ps for _, ps in _maximal(found)))
        for found in parts
    ))
    return pm, cm, True


def possible_merges(ctx: Context) -> frozenset[MergePair]:
    """Pairs merged in at least one solution."""
    return _pm_cm(ctx)[0]


def certain_merges(ctx: Context) -> frozenset[MergePair]:
    """Pairs merged in every maximal solution; empty when no solution
    exists."""
    return _pm_cm(ctx)[1]


def is_possible(
    ctx: Context, pair: MergePair | tuple[Constant, Constant]
) -> bool:
    """True iff some solution merges the pair. Reflexive pairs are possible
    exactly when a solution exists at all. Only the part holding the pair
    is searched (see _Search.split), up to a solution that merges it."""
    a, b = pair
    if a == b:
        return solve_one(ctx) is not None
    if a not in ctx.db.domain or b not in ctx.db.domain:
        return False
    target = MergePair.of(a, b)
    split = _Search(ctx).split(stop_pair=target)
    if split is None:
        return False
    root, parts = split
    return target in root.eq or any(
        target in sol.eq for found in parts for sol, _ in found
    )


def merge_sets(ctx: Context) -> MergeSets:
    """lb, ub, pm and cm in one call."""
    pm, cm, consistent = _pm_cm(ctx)
    return MergeSets(
        lb(ctx).nontrivial_pairs(),
        ub(ctx).nontrivial_pairs(),
        pm,
        cm,
        consistent,
    )


# ------------------------------------------------------------------ levels


def is_solution(ctx: Context, e: EqRel) -> bool:
    """Check the solution conditions directly: every hard rule and every
    denial constraint satisfied at e."""
    return all(
        rule_satisfied(r, ctx, e) for r in ctx.spec.hard
    ) and all(
        dc_satisfied(dc, ctx, e) for dc in ctx.spec.dcs
    )


def levels(
    ctx: Context, sol: Solution, scope: str = "solution"
) -> dict[MergePair, int]:
    """Level of each merge in the solution: the first round of the
    rule-application chain (_rounds, over every rule as hard) that relates
    the pair, counting rule applications but not transitive closure. The
    dict is ordered by level, then by left and right text.

    scope="solution" (default) admits only rule answers already merged in
    the solution; scope="ub" runs the unrestricted chain and then reports
    the pairs the solution contains. A round's new pairs are read off the
    classes it grew: those of their members that sat in different classes
    before it."""
    if scope not in ("solution", "ub"):
        raise ValueError(f"unknown levels scope {scope!r}")
    if not is_solution(ctx, sol.eq):
        raise NotASolution("levels() requires a valid solution")
    e = ctx.identity()
    chain = _rounds(
        ctx, analyse(ctx.spec).promoted, e,
        within=sol.eq if scope == "solution" else None,
    )
    found: dict[MergePair, int] = {}
    was: dict[int, int] = {}  # id -> its class's canonical id before a round
    for level, grown in enumerate(chain, 1):
        # each grown class's members, grouped by their class before the round
        parts: dict[int, dict[int, list[int]]] = {}
        for i in grown:
            old = was.get(i, i)
            was[i] = e.canon_id(i)
            parts.setdefault(was[i], {}).setdefault(old, []).append(i)
        for groups in parts.values():
            for left, right in combinations(groups.values(), 2):
                for i, j in product(left, right):
                    found[MergePair.of(e.const(i), e.const(j))] = level
    order = sorted(found, key=lambda p: (found[p], p.left.text, p.right.text))
    return {p: found[p] for p in order if scope == "solution" or p in sol.eq}
