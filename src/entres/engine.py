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
                 touch the classes its merges grew, and holds only its
                 own steps (see _Search);
  - possible_merges / certain_merges / is_possible: union over all
                 solutions and intersection over maximal solutions.
                 These, maximal_solutions, merge_sets and solve_one
                 search one independent part at a time from the start,
                 and every solution is one choice per part (see
                 _Search.split). When the analysis finds that the
                 specification splits, the parts are the classes the
                 hard-saturated start leaves undecided, grouped so that no
                 body match under ub reads two parts; otherwise the whole
                 instance is one part. A part's search is a lazy run that
                 keeps of each state it accepts only the steps after the
                 start's and the pairs merged within the part; pm, cm and
                 maximal_solutions read each part's maximal ones. A start
                 with nothing to branch on is answered as it is, with no
                 parts and no ub fixpoint. enumerate_solutions for more
                 than one solution searches the whole instance;
  - levels:      recursion depth of each merge (the round of the
                 rule-application chain that first produces it).
"""

from __future__ import annotations

from itertools import combinations, islice, product
from typing import AbstractSet, Callable, Collection, Iterable, Iterator

from .errors import NotASolution
from .matcher import (
    Context,
    _Eval,
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


#: the search's start when saturation is eager: the identity closed under
#: the hard rules, and the steps that close it, in order
Root = tuple[EqRel, tuple[DerivStep, ...]]


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

    Each rule's evaluator (matcher._Eval) is built once, at the start of
    the chain, and refreshed with the grown classes' ids after each round,
    so a round pays for its matches, not for the evaluators' set-up.

    within, when given, admits only answers that relation relates (it must
    be over the database's domain, as e is); record, when given, receives a
    DerivStep for every applied merge."""
    if within is not None:
        ctx.require_domain(within)
    evs = [_Eval(rule.body, ctx, e, rule.head) for rule in rules]
    while True:
        found: set[tuple[str, int, int]] = set()
        for rule, ev in zip(rules, evs):
            for i, j in merge_candidates(rule, ctx, e, dirty, ev):
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
        for ev in evs:
            ev.refresh(dirty)
        yield dirty


def _fixpoint(
    ctx: Context, rules: tuple[Rule, ...], e: EqRel | None = None
) -> EqRel:
    """e, the identity when None, closed under the rules."""
    e = ctx.identity() if e is None else e
    for _ in _rounds(ctx, rules, e):
        pass
    return e


def lb(ctx: Context) -> EqRel:
    """Least fixpoint of the merge-monotone hard rules (Analysis.lb):
    merges present in every solution. A copy of the relation of the
    context's root when it holds one (see Context): a root is handed over
    only when saturation is eager, and then every hard rule is monotone,
    so the root is that fixpoint."""
    if ctx.root is not None:
        return ctx.root[0].clone()
    return _fixpoint(ctx, analyse(ctx.spec).lb)


def ub(ctx: Context, start: EqRel | None = None) -> EqRel:
    """Fixpoint of every rule as hard, non-monotone inequalities dropped
    (Analysis.ub): no solution merges more. A copy of the context's own
    ub when it holds one (see Context).

    The chain runs from start, closed in place, or from the identity when
    None; its first round is evaluated in full. start must lie below ub,
    as the hard root does when saturation is eager (ub's rules include
    every hard rule unchanged), so the least fixpoint above it is ub."""
    if ctx.ub is not None:
        return ctx.ub.clone()
    return _fixpoint(ctx, analyse(ctx.spec).ub, start)


def hard_root(ctx: Context) -> Root:
    """The identity closed under the hard rules, and the steps that close
    it (see Root). A copy of the context's own root when it holds one (see
    Context)."""
    if ctx.root is not None:
        e, steps = ctx.root
        return e.clone(), steps
    e = ctx.identity()
    steps: list[DerivStep] = []
    for _ in _rounds(ctx, ctx.spec.hard, e, record=steps):
        pass
    return e, tuple(steps)


def loose_ub(ctx: Context) -> EqRel:
    """The ub fixpoint with similarity atoms dropped; a similarity-free
    overapproximation that needs no scores."""
    return _fixpoint(ctx, analyse(ctx.spec).loose_ub)


# ------------------------------------------------------------------ search


class _Node:
    """A search state on the DFS stack: the steps that led to it from the
    node below it, the answers it branches on (as (rule label, i, j), with
    canonical ids i < j, the triples _rounds collects) and, in sorted
    order, those not yet tried."""

    __slots__ = ("e", "steps", "cands", "todo")

    def __init__(
        self, e: EqRel, steps: tuple[DerivStep, ...], cands: set[_Answer]
    ):
        self.e = e
        self.steps = steps
        self.cands = cands
        self.todo = iter(sorted(cands))


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
      - the answers are the parent's, re-canonicalised and without pairs
        now in one class, plus those of matches pinned to the dirty ids.
        That needs the parent's matches to persist, so a rule with a break
        (see Analysis) is evaluated in full instead;
      - pruning constraints are checked only on matches pinned to the
        dirty ids, the checked ones in full once a state's subtree is done.

    Unless saturation is eager, the search starts at the identity, hard
    answers are branches like soft ones (no state is hard-saturated), and
    a state counts only once it has no hard answer left."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.an = analyse(ctx.spec)

    def root(self) -> _Node | None:
        """The node of the start state, holding the steps to it, hard-
        saturated (hard_root) when saturation is eager, or None when it
        fails a pruning constraint."""
        if self.an.eager:
            return self._enter(*hard_root(self.ctx))
        return self._enter(self.ctx.identity(), ())

    def run(
        self, node: _Node, ids: Collection[int] | None = None
    ) -> Iterator[tuple[_Node, tuple[DerivStep, ...]]]:
        """The accepted states under node, node itself last, in search
        order, each with its derivation: the steps of every node on the
        stack, from the bottom up. The run has its own memo, keyed by the
        classes of ids (of every id when None) of a child's state once it
        is saturated; a child whose key is there is dropped. A child
        applies one answer to its parent's state and hard-saturates from
        the merged class when saturation is eager."""
        ctx, memo = self.ctx, set()
        stack = [node]
        while stack:
            top = stack[-1]
            step = next(top.todo, None)
            if step is None:
                if self._accepts(top):
                    yield top, tuple(s for n in stack for s in n.steps)
                stack.pop()
                continue
            label, i, j = step
            e = top.e.clone()
            e.merge_ids(i, j)
            dirty = e.class_ids((i,))
            steps: list[DerivStep] = []
            if self.an.eager:
                grown = _rounds(ctx, ctx.spec.hard, e, dirty, record=steps)
                dirty = dirty.union(*grown)
            key = e.signature(ids)
            if key in memo:
                continue
            memo.add(key)
            first = DerivStep(label, MergePair.of(e.const(i), e.const(j)))
            child = self._enter(e, (first, *steps), top.cands, dirty)
            if child is not None:
                stack.append(child)

    def split(self) -> tuple[_Node, Iterator[_Part]] | None:
        """The root node and, lazily, each independent part's ids and
        iterator of part solutions (see part), or None when the root fails
        a pruning constraint. The root's answers are cut down to every part
        in one pass. A root with no answer to branch on has no part: it is
        the one solution, or None when it is no solution.

        When the specification splits (Analysis.splits), the parts are
        _parts': a state between the root and ub is a solution iff its
        restriction to each part (the root elsewhere) is, as every body
        match reads the classes of one part only, besides classes no
        solution grows. For the same reason a child's new answers lie in
        its root's part, so only the root's are cut down, and every state a
        part's search reaches differs from the root only in classes of the
        part's ids, so each part's run keys its memo by those classes.
        Otherwise the whole instance is one part: the search might break a
        checked constraint in every state, or (unless eager) start below a
        hard answer, so the root's pairs count only once the part has a
        solution."""
        root = self.root()
        if root is None:
            return None
        if not root.cands:
            return (root, iter(())) if self._accepts(root) else None
        if self.an.splits:
            parts = _parts(self.ctx, root.e)
        else:
            parts = [range(self.ctx.db.entities)]
        index = {i: k for k, ids in enumerate(parts) for i in ids}
        cut: list[set[_Answer]] = [set() for _ in parts]
        for c in root.cands:
            cut[index[c[1]]].add(c)
        return root, (
            (ids, self.part(root, ids, cands))
            for ids, cands in zip(parts, cut)
        )

    def part(
        self, root: _Node, ids: Collection[int], cands: set[_Answer]
    ) -> Iterator[_PartSolution]:
        """The solutions that differ from root only within the part ids,
        searched from root's state with its answers cut down to cands, each
        as its steps after root's and the pairs it merges among ids; no
        accepted state is kept once the next is searched for. The start
        node holds no steps, so a derivation holds only the part's."""
        for node, steps in self.run(_Node(root.e, (), cands), ids):
            yield steps, _pairs_within(node.e, ids)

    def _enter(
        self,
        e: EqRel,
        steps: tuple[DerivStep, ...],
        parent: AbstractSet[_Answer] = frozenset(),
        dirty: set[int] | None = None,
    ) -> _Node | None:
        """The node for a new state, or None when a pruning constraint
        fails. The root passes no parent answers and no dirty ids, and is
        evaluated in full."""
        for dc in self.an.pruning:
            if not dc_satisfied(dc, self.ctx, e, dirty):
                return None  # violation persists in the whole subtree
        breaks = self.an.breaks
        cands: set[_Answer] = set()
        for rule in self.an.branching:
            pinned = None if rule.label in breaks else dirty
            got = merge_candidates(rule, self.ctx, e, pinned)
            cands.update((rule.label, i, j) for i, j in got)
        for label, a, b in parent:
            a, b = e.canon_id(a), e.canon_id(b)
            if a != b and label not in breaks:
                cands.add((label, a, b) if a < b else (label, b, a))
        return _Node(e, steps, cands)

    def _accepts(self, node: _Node) -> bool:
        """Whether a state whose subtree is done is a solution: it has no
        hard answer left (one can remain only unless saturation is eager)
        and passes the constraints that were not checked on the way down."""
        hard = {rule.label for rule in self.ctx.spec.hard}
        if not self.an.eager and any(c[0] in hard for c in node.cands):
            return False
        return all(
            dc_satisfied(dc, self.ctx, node.e) for dc in self.an.checked
        )


#: a rule's answer: its label and a canonical id pair, smaller id first
_Answer = tuple[str, int, int]
#: a solution of one part: its steps after the root's, and the pairs it
#: merges within the part
_PartSolution = tuple[tuple[DerivStep, ...], frozenset[MergePair]]
#: a part's ids and the iterator of its solutions
_Part = tuple[Collection[int], Iterator[_PartSolution]]


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


def _each_part(
    ctx: Context, take: Callable[[Iterator[_PartSolution]], object]
) -> tuple[_Node, list] | None:
    """The root node and take of each part's solutions, one part after the
    other (see _Search.split), or None when the root fails a pruning
    constraint or a part has no solution; the parts after it are unsearched."""
    split = _Search(ctx).split()
    if split is None:
        return None
    root, parts = split
    got = []
    for _, sols in parts:
        got.append(take(sols))
        if not got[-1]:
            return None
    return root, got


def enumerate_solutions(ctx: Context, n: int | None = None) -> list[Solution]:
    """Up to n solutions with pairwise distinct merge sets (all of them
    when n is None), in deterministic search order. The first alone
    (n == 1) is searched part by part, see solve_one."""
    if n is not None and n <= 0:
        return []
    if n != 1:
        search = _Search(ctx)
        root = search.root()
        found = () if root is None else search.run(root)
        return [Solution(node.e, deriv) for node, deriv in islice(found, n)]
    split = _each_part(ctx, lambda sols: next(sols, None))
    return [] if split is None else [_joined(*split)]


def solve_one(ctx: Context) -> Solution | None:
    """Some solution, or None when the specification is inconsistent with
    the data. Biased toward a subset-maximal one by the search order.

    It merges what the whole-instance search's first solution merges, but
    is searched one part at a time: the root joined with each part's first
    part solution (_Search.split), so its derivation lists the root's steps
    and then each part's. When the specification splits, a state's
    children, its pruning checks and its acceptance each read the classes
    of one part only, besides classes no solution grows. So the whole
    search, restricted to one part, visits that part's states in the
    part's own search order, and its first accepted state, restricted to a
    part, is that part's first accepted state. Otherwise the whole
    instance is the one part."""
    found = enumerate_solutions(ctx, n=1)
    return found[0] if found else None


def _largest_first(sol: Solution):
    ps = sorted((p.left.text, p.right.text) for p in sol.pairs())
    return (-len(ps), ps)


def _maximal(sols: Iterable[_PartSolution]) -> list[_PartSolution]:
    """The entries whose pairs no other entry's strictly contain."""
    found = list(sols)
    return [s for s in found if not any(s[1] < ps for _, ps in found)]


def _joined(root: _Node, picks: Iterable[_PartSolution]) -> Solution:
    """The root's state with the steps of part solutions from disjoint
    parts replayed on a copy: root's derivation followed by each pick's."""
    e = root.e.clone()
    deriv = list(root.steps)
    for steps, _ in picks:
        for step in steps:
            e.merge(step.pair.left, step.pair.right)
        deriv.extend(steps)
    return Solution(e, tuple(deriv))


def maximal_solutions(ctx: Context, n: int | None = None) -> list[Solution]:
    """Up to n solutions whose merge sets are subset-maximal among all
    solutions, largest first: the product of each part's maximal part
    solutions (see _Search.split)."""
    if n is not None and n <= 0:
        return []
    split = _each_part(ctx, _maximal)
    if split is None:
        return []
    root, per_part = split
    maxima = [_joined(root, pick) for pick in product(*per_part)]
    maxima.sort(key=_largest_first)
    return maxima if n is None else maxima[:n]


def _pm_cm(
    ctx: Context,
) -> tuple[frozenset[MergePair], frozenset[MergePair], bool]:
    """Possible and certain merges, and whether a solution exists, from
    each part's maximal solutions (see _Search.split): pm is the root's
    pairs and the union of every part's, as each solution lies within a
    maximal one, and cm the root's pairs and each part's intersection."""
    split = _each_part(ctx, _maximal)
    if split is None:
        return frozenset(), frozenset(), False
    root, maxima = split
    pairs = root.e.nontrivial_pairs()
    pm = pairs.union(*(ps for sols in maxima for _, ps in sols))
    cm = pairs.union(*(
        frozenset.intersection(*(ps for _, ps in sols)) for sols in maxima
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
    split = _Search(ctx).split()
    if split is None:
        return False
    root, parts = split
    both = {root.e.id_of(a), root.e.id_of(b)}
    merged = target in root.e
    for ids, sols in parts:
        if both.issubset(ids):  # root's pairs count if the part has one
            return any(merged or target in ps for _, ps in sols)
    return merged


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
