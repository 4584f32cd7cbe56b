"""Solution-space computations over a database and specification.

A candidate solution is any equivalence relation reachable from identity by
repeatedly applying one rule answer and closing. A solution additionally
satisfies every hard rule and denial constraint. This module computes:

  - lb / ub:     fixpoints of the merge-monotone hard rules and of every
                 rule as hard with its non-monotone inequalities dropped,
                 bounding every solution from below and above;
  - loose_ub:    the ub fixpoint with similarity atoms dropped (needs no
                 similarity scores at all);
  - solve_one, enumerate_solutions, maximal_solutions: depth-first search
                 over soft-rule applications with hard saturation after
                 every step and memoization on partition signatures. The
                 search runs on an explicit stack and is delta-driven: a
                 child re-evaluates rules and constraints only on rows that
                 touch the classes its merges grew (see _Search);
  - possible_merges / certain_merges / is_possible: union over all
                 solutions and intersection over maximal solutions.
                 These, maximal_solutions and merge_sets search one
                 independent part at a time when every body is
                 merge-monotone: the classes the hard-saturated start
                 leaves undecided split into parts that no body match under
                 ub reads together, every solution is one choice per part,
                 and the parts are searched from the start in turn (see
                 _Search.split). enumerate_solutions and solve_one always
                 search the whole instance;
  - levels:      recursion depth of each merge (the round of the
                 rule-application chain that first produces it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import AbstractSet, Iterable, Iterator

from .errors import NotASolution
from .matcher import (
    Context,
    dc_satisfied,
    matched_ids,
    merge_candidates,
    rule_satisfied,
)
from .model import Constant, EqRel, MergePair
from .rules import (
    NeqAtom,
    Rule,
    RuleBody,
    Specification,
    Term,
    Var,
    transform,
    var_positions,
)


@dataclass(frozen=True, slots=True)
class DerivStep:
    """One applied merge: the label of the rule whose answer it was (or
    "transitive" for closure-entailed pairs) and the pair, as canonical
    representatives at application time."""

    label: str
    pair: MergePair


@dataclass(slots=True)
class Solution:
    """A solution with the derivation that proves it is a candidate."""

    eq: EqRel
    derivation: tuple[DerivStep, ...] = ()

    def pairs(self) -> frozenset[MergePair]:
        return self.eq.nontrivial_pairs()


@dataclass(slots=True)
class MergeSets:
    """The four merge sets; consistent is False when no solution exists,
    in which case pm and cm are empty by convention."""

    lb: frozenset[MergePair]
    ub: frozenset[MergePair]
    pm: frozenset[MergePair]
    cm: frozenset[MergePair]
    consistent: bool


class LevelMap:
    """Merge pair -> level; reflexive pairs have level 0 by definition."""

    def __init__(self, levels: dict[MergePair, int]):
        self._levels = dict(levels)

    def of(self, a: Constant, b: Constant) -> int:
        if a == b:
            return 0
        return self._levels[MergePair.of(a, b)]

    def __getitem__(self, pair: MergePair) -> int:
        return self._levels[pair]

    def __contains__(self, pair: MergePair) -> bool:
        return pair in self._levels

    def __len__(self) -> int:
        return len(self._levels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LevelMap):
            return self._levels == other._levels
        return NotImplemented

    def items(self) -> list[tuple[MergePair, int]]:
        return sorted(
            self._levels.items(),
            key=lambda kv: (kv[1], kv[0].left.text, kv[0].right.text),
        )

    def __repr__(self) -> str:
        return f"LevelMap({self._levels!r})"


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
    """Least fixpoint of the merge-monotone hard rules: merges present in
    every solution. A hard rule with an inequality that can turn false as
    classes grow need not fire in every solution, so it is left out."""
    spec = ctx.spec
    return _fixpoint(
        ctx, tuple(r for r in spec.hard if _merge_monotone(r.body, spec))
    )


def ub(ctx: Context) -> EqRel:
    """Fixpoint with soft rules promoted to hard and non-monotone
    inequalities dropped: no solution merges more."""
    return _fixpoint(ctx, _relaxed(transform(ctx.spec, "ub").hard, ctx.spec))


def loose_ub(ctx: Context) -> EqRel:
    """The ub fixpoint with similarity atoms dropped; a similarity-free
    overapproximation that needs no scores."""
    return _fixpoint(
        ctx, _relaxed(transform(ctx.spec, "loose_ub").hard, ctx.spec)
    )


# ------------------------------------------------------------------ search


def _hint_of(spec: Specification, rel: str, pos: int) -> str:
    decl = spec.schema.decl(rel)
    return decl.hints[pos] if decl else "val"


def _neq_monotone(
    natom: NeqAtom,
    occ: dict[Var, tuple[tuple[str, int], ...]],
    spec: Specification,
) -> bool:
    """No operand of the inequality can change its representative as
    classes grow: variables reading only non-id columns, or value
    constants."""
    def fixed(term: Term) -> bool:
        if isinstance(term, Var):
            return all(
                _hint_of(spec, rel, pos) != "id"
                for rel, pos in occ.get(term, ())
            )
        return not term.is_entity()
    return fixed(natom.left) and fixed(natom.right)


def _merge_monotone(body: RuleBody, spec: Specification) -> bool:
    """A body is merge-monotone when all its inequalities are. A match of
    such a body persists under further merges, so a constraint violation
    persists in a whole search subtree and a rule answer stays an answer
    (up to canonical ids)."""
    occ = var_positions(body)
    return all(_neq_monotone(n, occ, spec) for n in body.neq_atoms)


def _relaxed(rules: Iterable[Rule], spec: Specification) -> tuple[Rule, ...]:
    """The rules without their non-monotone inequalities: each has every
    answer of the original at every state, and its answers persist as
    classes grow, so its fixpoint contains every reachable state."""
    out = []
    for rule in rules:
        occ = var_positions(rule.body)
        keep = tuple(
            n for n in rule.body.neq_atoms if _neq_monotone(n, occ, spec)
        )
        out.append(replace(rule, body=replace(rule.body, neq_atoms=keep)))
    return tuple(out)


@dataclass(slots=True)
class _Node:
    """A search state on the DFS stack: its candidates per branching rule
    (as canonical id pairs) and the sorted answers not yet tried."""

    e: EqRel
    deriv: tuple[DerivStep, ...]
    cands: list[set[tuple[int, int]]]
    todo: Iterator[tuple[str, int, int]]


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
        whose inequality atoms are not merge-monotone is evaluated in full
        instead;
      - merge-monotone constraints are checked only on matches pinned to
        the dirty ids; the rest are checked in full once a state's subtree
        is done.

    Eager hard saturation is complete only when no rule answer can disable
    another, that is when every rule is merge-monotone. Otherwise a hard
    merge can turn false an inequality a pending soft answer needs, so the
    search starts at the identity, hard answers are branches like soft
    ones (no state is hard-saturated), and a state counts only once it has
    no hard answer left."""

    def __init__(self, ctx: Context):
        spec = ctx.spec
        self.ctx = ctx
        self.memo: set[frozenset[frozenset[int]]] = set()
        self.results: list[Solution] = []
        self.limit: int | None = None
        self.stop_pair: MergePair | None = None
        self.found_stop = False
        self.pruning_dcs = tuple(
            dc for dc in spec.dcs if _merge_monotone(dc.body, spec)
        )
        self.checked_dcs = tuple(
            dc for dc in spec.dcs if not _merge_monotone(dc.body, spec)
        )
        self.eager = all(
            _merge_monotone(rule.body, spec) for rule in spec.all_rules()
        )
        self.branching = spec.soft if self.eager else spec.soft + spec.hard
        self.incremental = tuple(
            _merge_monotone(rule.body, spec) for rule in self.branching
        )

    def _done(self) -> bool:
        if self.found_stop:
            return True
        return self.limit is not None and len(self.results) >= self.limit

    def splits(self) -> bool:
        """Whether the solutions are a product of independent parts' (see
        split): every rule and constraint body is merge-monotone, so
        saturation is eager and each state the search keeps is a
        solution."""
        return self.eager and not self.checked_dcs

    def root(self) -> _Node | None:
        """The node of the start state, hard-saturated when saturation is
        eager, or None when it fails a pruning constraint. Starts a new
        memo."""
        self.memo = set()
        start = self.ctx.identity()
        steps: list[DerivStep] = []
        if self.eager:
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
        from the start state."""
        self.limit = limit
        self.stop_pair = stop_pair
        self.results = []
        self.found_stop = False
        if limit is not None and limit <= 0:
            return []
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
            self._finish(node)
            if self._done():
                break
        return self.results

    def split(
        self, stop_pair: MergePair | None = None
    ) -> tuple[Solution, list[list[_PartSolution]]] | None:
        """The root's solution and, per independent part (see _parts), the
        solutions that differ from the root only within that part, each
        with the pairs it merges there, searched from the root with its
        candidates cut down to the part; None when the root fails a
        pruning constraint, the one way the instance can be inconsistent.
        Only for a search that splits().
        Given stop_pair, only the part holding both its ids is searched, up
        to a solution that merges them.

        A state between the root and ub is a solution iff its restriction
        to each part (the root elsewhere) is: every body match reads the
        classes of one part only, besides classes no solution grows. For
        the same reason a child's new candidates lie in its root's part,
        so only the root's are cut down."""
        root = self.root()
        if root is None:
            return None
        parts = _parts(self.ctx, root.e)
        if stop_pair is not None:
            pair = {root.e.id_of(c) for c in stop_pair}
            parts = [ids for ids in parts if pair <= ids]
        found = []
        for ids in parts:
            cands = [{p for p in got if p[0] in ids} for got in root.cands]
            node = self._node(root.e, root.deriv, cands)
            found.append([
                (sol, _pairs_within(sol.eq, ids))
                for sol in self.run(stop_pair=stop_pair, root=node)
            ])
        return Solution(root.e, root.deriv), found

    def _child(self, parent: _Node, label: str, i: int, j: int) -> _Node | None:
        """Apply one answer to the parent's state, hard-saturate from the
        merged class when saturation is eager, and enter the result."""
        e = parent.e.clone()
        steps = [DerivStep(label, MergePair.of(e.const(i), e.const(j)))]
        e.merge_ids(i, j)
        dirty = e.class_ids((i,))
        if self.eager:
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
        sig = e.signature()
        if sig in self.memo:
            return None
        self.memo.add(sig)
        for dc in self.pruning_dcs:
            if not dc_satisfied(dc, self.ctx, e, dirty):
                return None  # violation persists in the whole subtree
        cands: list[set[tuple[int, int]]] = []
        for k, rule in enumerate(self.branching):
            if parent_cands is None or not self.incremental[k]:
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
            for rule, got in zip(self.branching, cands)
            for i, j in got
        })
        return _Node(e, deriv, cands, iter(todo))

    def _finish(self, node: _Node) -> None:
        """Record the state once its subtree is done, if it has no hard
        answer left and passes the constraints that were not checked on
        the way down."""
        if any(node.cands[len(self.ctx.spec.soft):]):
            return
        for dc in self.checked_dcs:
            if not dc_satisfied(dc, self.ctx, node.e):
                return
        self.results.append(Solution(node.e, node.deriv))
        if self.stop_pair is not None and self.stop_pair in node.e:
            self.found_stop = True


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
    state reads two parts."""
    u = ub(ctx)
    canon = u.canon_id
    undecided = {
        canon(i) for i in range(ctx.db.entities)
        if root.canon_id(i) != canon(i)
    }
    links = ctx.identity()
    spec = ctx.spec
    bodies = [r.body for r in spec.all_rules()] + [d.body for d in spec.dcs]
    for body in bodies:
        for ids in matched_ids(body, ctx, u):
            read = [c for c in map(canon, ids) if c in undecided]
            for c in read[1:]:
                links.merge_ids(read[0], c)
    parts: dict[int, set[int]] = {}
    for c in sorted(undecided):
        parts.setdefault(links.canon_id(c), set()).update(u.class_ids((c,)))
    return list(parts.values())


def enumerate_solutions(ctx: Context, n: int | None = None) -> list[Solution]:
    """Up to n solutions with pairwise distinct merge sets (all of them
    when n is None), in deterministic search order."""
    return _Search(ctx).run(limit=n)


def solve_one(ctx: Context) -> Solution | None:
    """Some solution, or None when the specification is inconsistent with
    the data. Biased toward a subset-maximal one by the search order."""
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


def _maximal_filter(solutions: list[Solution]) -> list[Solution]:
    found = _maximal([(sol, sol.pairs()) for sol in solutions])
    out = [sol for sol, _ in found]
    out.sort(key=_largest_first)
    return out


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
    solutions, largest first. When the search splits, they are the
    product of each part's maximal states."""
    if n is not None and n <= 0:
        return []
    search = _Search(ctx)
    if not search.splits():
        maxima = _maximal_filter(enumerate_solutions(ctx))
    elif (split := search.split()) is None:
        maxima = []
    else:
        root, parts = split
        per_part = [[sol for sol, _ in _maximal(found)] for found in parts]
        maxima = [_joined(root, pick) for pick in product(*per_part)]
        maxima.sort(key=_largest_first)
    return maxima if n is None else maxima[:n]


def _union(sols: list[Solution]) -> frozenset[MergePair]:
    return frozenset().union(*(sol.pairs() for sol in sols))


def _common(sols: list[Solution]) -> frozenset[MergePair]:
    """Pairs every solution merges; empty when there is none."""
    if not sols:
        return frozenset()
    return frozenset.intersection(*(sol.pairs() for sol in sols))


def _pm_cm(
    ctx: Context,
) -> tuple[frozenset[MergePair], frozenset[MergePair], bool]:
    """Possible and certain merges, and whether a solution exists. When
    the search splits, pm is the root's pairs and those of every part's
    solutions, and cm the root's pairs and each part's certain ones."""
    search = _Search(ctx)
    if not search.splits():
        sols = enumerate_solutions(ctx)
        return _union(sols), _common(_maximal_filter(sols)), bool(sols)
    split = search.split()
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
    exactly when a solution exists at all. When the search splits, only
    the part holding the pair is searched."""
    a, b = pair
    search = _Search(ctx)
    if a == b:
        if search.splits():
            return search.root() is not None
        return solve_one(ctx) is not None
    if a not in ctx.db.domain or b not in ctx.db.domain:
        return False
    target = MergePair.of(a, b)
    if not search.splits():
        results = search.run(stop_pair=target)
    else:
        split = search.split(stop_pair=target)
        results = [] if split is None else [
            split[0], *(sol for found in split[1] for sol, _ in found)
        ]
    return any(target in sol.eq for sol in results)


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


def levels(ctx: Context, sol: Solution, scope: str = "solution") -> LevelMap:
    """Level of each merge in the solution: the first round of the
    rule-application chain (_rounds, over every rule as hard) that relates
    the pair, counting rule applications but not transitive closure.

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
        ctx, transform(ctx.spec, "ub").hard, e,
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
    if scope == "ub":
        found = {p: lv for p, lv in found.items() if p in sol.eq}
    return LevelMap(found)


# ------------------------------------------------------------ verification


def verify_solution(ctx: Context, sol: Solution) -> bool:
    """Soundness check used by the test suite: the derivation replays from
    identity (each applied pair is an answer of its rule at its step) and
    reproduces exactly sol.eq, which satisfies all hard rules and
    constraints."""
    e = ctx.identity()
    for step in sol.derivation:
        rule = ctx.spec.rule_by_label(step.label)
        if rule is None:
            return False
        cands = merge_candidates(rule, ctx, e)
        i = e.canon_id(e.id_of(step.pair.left))
        j = e.canon_id(e.id_of(step.pair.right))
        key = (i, j) if i < j else (j, i)
        if key not in cands:
            return False
        e.merge_ids(i, j)
    if e.signature() != sol.eq.signature():
        return False
    return is_solution(ctx, sol.eq)
