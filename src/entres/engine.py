"""Solution-space computations over a database and specification.

A candidate solution is any equivalence relation reachable from identity by
repeatedly applying one rule answer and closing. A solution additionally
satisfies every hard rule and denial constraint. This module computes:

  - lb / ub:     fixpoints of the hard-only and all-rules-as-hard programs,
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
                 solutions and intersection over maximal solutions;
  - levels:      recursion depth of each merge (the round of the
                 rule-application chain that first produces it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Iterator

from .errors import NotASolution
from .matcher import (
    SimResolver,
    dc_satisfied,
    merge_candidates,
    rule_satisfied,
)
from .model import Constant, Database, EqRel, MergePair
from .rules import (
    DenialConstraint,
    Rule,
    RuleBody,
    Specification,
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


def _saturate(
    db: Database,
    rules: tuple[Rule, ...],
    e: EqRel,
    sims: SimResolver | None,
    record: list[DerivStep] | None = None,
    dirty: AbstractSet[int] | None = None,
    **knobs,
) -> set[int]:
    """Semi-naive fixpoint: apply every rule answer and close, then evaluate
    again with each relational atom in turn pinned to rows touching a class
    the last round grew, until no new merge appears. Mutates e and returns
    the ids of every class it grew.

    With dirty=None the first round evaluates in full. Otherwise e must be
    closed under the rules but for matches on a row touching a dirty id, as
    a saturated state is after merges whose classes dirty covers: any other
    match held before those merges, with the same answer."""
    grown: set[int] = set()
    while True:
        found: list[tuple[str, int, int]] = []
        for rule in rules:
            for i, j in merge_candidates(rule, db, e, sims, dirty, **knobs):
                found.append((rule.label, i, j))
        if not found:
            return grown
        merged: list[int] = []
        for label, i, j in sorted(set(found)):
            if e.merge_ids(i, j):
                merged.append(i)
                if record is not None:
                    record.append(
                        DerivStep(label, MergePair.of(e.const(i), e.const(j)))
                    )
        dirty = e.class_ids(merged)
        grown |= dirty


def lb(db: Database, spec: Specification, sims: SimResolver | None = None,
       **knobs) -> EqRel:
    """Least fixpoint of the hard rules: merges present in every solution."""
    e = EqRel(db.domain)
    _saturate(db, spec.hard, e, sims, **knobs)
    return e


def ub(db: Database, spec: Specification, sims: SimResolver | None = None,
       **knobs) -> EqRel:
    """Fixpoint with soft rules promoted to hard: no solution merges more."""
    e = EqRel(db.domain)
    _saturate(db, transform(spec, "ub").hard, e, sims, **knobs)
    return e


def loose_ub(db: Database, spec: Specification, **knobs) -> EqRel:
    """The ub fixpoint with similarity atoms dropped; a similarity-free
    overapproximation that needs no scores."""
    e = EqRel(db.domain)
    _saturate(db, transform(spec, "loose_ub").hard, e, None, **knobs)
    return e


# ------------------------------------------------------------------ search


def _hint_of(spec: Specification, rel: str, pos: int) -> str:
    decl = spec.schema.decl(rel)
    return decl.hints[pos] if decl else "val"


def _merge_monotone(body: RuleBody, spec: Specification) -> bool:
    """A body is merge-monotone when no inequality operand can change its
    representative as classes grow: variables reading only non-id columns,
    or value constants. A match of such a body persists under further
    merges, so a constraint violation persists in a whole search subtree
    and a rule answer stays an answer (up to canonical ids)."""
    occ = var_positions(body)
    for natom in body.neq_atoms:
        for term in (natom.left, natom.right):
            if isinstance(term, Var):
                if any(
                    _hint_of(spec, rel, pos) == "id"
                    for rel, pos in occ.get(term, ())
                ):
                    return False
            elif term.is_entity():
                return False
    return True


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

    def __init__(
        self,
        db: Database,
        spec: Specification,
        sims: SimResolver | None,
        knobs: dict,
    ):
        self.db = db
        self.spec = spec
        self.sims = sims
        self.knobs = knobs
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

    def run(
        self,
        limit: int | None = None,
        stop_pair: MergePair | None = None,
    ) -> list[Solution]:
        self.limit = limit
        self.stop_pair = stop_pair
        if limit is not None and limit <= 0:
            return []
        start = EqRel(self.db.domain)
        steps: list[DerivStep] = []
        if self.eager:
            _saturate(
                self.db, self.spec.hard, start, self.sims, record=steps,
                **self.knobs,
            )
        root = self._enter(start, tuple(steps))
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

    def _child(self, parent: _Node, label: str, i: int, j: int) -> _Node | None:
        """Apply one answer to the parent's state, hard-saturate from the
        merged class when saturation is eager, and enter the result."""
        e = parent.e.clone()
        steps = [DerivStep(label, MergePair.of(e.const(i), e.const(j)))]
        e.merge_ids(i, j)
        dirty = e.class_ids((i,))
        if self.eager:
            dirty |= _saturate(
                self.db, self.spec.hard, e, self.sims, record=steps,
                dirty=dirty, **self.knobs,
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
            if not dc_satisfied(dc, self.db, e, dirty, **self.knobs):
                return None  # violation persists in the whole subtree
        cands: list[set[tuple[int, int]]] = []
        for k, rule in enumerate(self.branching):
            if parent_cands is None or not self.incremental[k]:
                got = merge_candidates(
                    rule, self.db, e, self.sims, None, **self.knobs
                )
            else:
                got = merge_candidates(
                    rule, self.db, e, self.sims, dirty, **self.knobs
                )
                for a, b in parent_cands[k]:
                    a, b = e.canon_id(a), e.canon_id(b)
                    if a != b:
                        got.add((a, b) if a < b else (b, a))
            cands.append(got)
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
        if any(node.cands[len(self.spec.soft):]):
            return
        for dc in self.checked_dcs:
            if not dc_satisfied(dc, self.db, node.e, **self.knobs):
                return
        self.results.append(Solution(node.e, node.deriv))
        if self.stop_pair is not None and self.stop_pair in node.e:
            self.found_stop = True


def enumerate_solutions(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    n: int | None = None,
    **knobs,
) -> list[Solution]:
    """Up to n solutions with pairwise distinct merge sets (all of them
    when n is None), in deterministic search order."""
    return _Search(db, spec, sims, knobs).run(limit=n)


def solve_one(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    **knobs,
) -> Solution | None:
    """Some solution, or None when the specification is inconsistent with
    the data. Biased toward a subset-maximal one by the search order."""
    found = enumerate_solutions(db, spec, sims, n=1, **knobs)
    return found[0] if found else None


def _maximal_filter(solutions: list[Solution]) -> list[Solution]:
    withpairs = [(sol, sol.pairs()) for sol in solutions]
    out = [
        sol for sol, ps in withpairs
        if not any(ps < qs for _, qs in withpairs)
    ]
    def key(sol: Solution):
        ps = sorted((p.left.text, p.right.text) for p in sol.pairs())
        return (-len(ps), ps)
    out.sort(key=key)
    return out


def maximal_solutions(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    n: int | None = None,
    **knobs,
) -> list[Solution]:
    """Up to n solutions whose merge sets are subset-maximal among all
    solutions, largest first."""
    if n is not None and n <= 0:
        return []
    maxima = _maximal_filter(enumerate_solutions(db, spec, sims, **knobs))
    return maxima if n is None else maxima[:n]


def possible_merges(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    **knobs,
) -> frozenset[MergePair]:
    """Pairs merged in at least one solution."""
    out: set[MergePair] = set()
    for sol in enumerate_solutions(db, spec, sims, **knobs):
        out |= sol.pairs()
    return frozenset(out)


def certain_merges(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    **knobs,
) -> frozenset[MergePair]:
    """Pairs merged in every maximal solution; empty when no solution
    exists."""
    maxima = maximal_solutions(db, spec, sims, **knobs)
    if not maxima:
        return frozenset()
    common = set(maxima[0].pairs())
    for sol in maxima[1:]:
        common &= sol.pairs()
    return frozenset(common)


def is_possible(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    pair: MergePair | tuple[Constant, Constant] | None = None,
    **knobs,
) -> bool:
    """True iff some solution merges the pair. Reflexive pairs are possible
    exactly when a solution exists at all."""
    if pair is None:
        raise TypeError("is_possible requires a pair")
    a, b = pair
    if a == b:
        return solve_one(db, spec, sims, **knobs) is not None
    if a not in db.domain or b not in db.domain:
        return False
    target = MergePair.of(a, b)
    results = _Search(db, spec, sims, knobs).run(stop_pair=target)
    return any(target in sol.eq for sol in results)


def merge_sets(
    db: Database,
    spec: Specification,
    sims: SimResolver | None = None,
    **knobs,
) -> MergeSets:
    """lb, ub, pm and cm in one call."""
    lbset = lb(db, spec, sims, **knobs).nontrivial_pairs()
    ubset = ub(db, spec, sims, **knobs).nontrivial_pairs()
    sols = enumerate_solutions(db, spec, sims, **knobs)
    if not sols:
        return MergeSets(lbset, ubset, frozenset(), frozenset(), False)
    pm: set[MergePair] = set()
    for sol in sols:
        pm |= sol.pairs()
    maxima = _maximal_filter(sols)
    cm = set(maxima[0].pairs())
    for sol in maxima[1:]:
        cm &= sol.pairs()
    return MergeSets(lbset, ubset, frozenset(pm), frozenset(cm), True)


# ------------------------------------------------------------------ levels


def is_solution(
    db: Database,
    spec: Specification,
    sims: SimResolver | None,
    e: EqRel,
    **knobs,
) -> bool:
    """Check the solution conditions directly: every hard rule and every
    denial constraint satisfied at e."""
    return all(
        rule_satisfied(r, db, e, sims, **knobs) for r in spec.hard
    ) and all(
        dc_satisfied(dc, db, e, **knobs) for dc in spec.dcs
    )


def levels(
    db: Database,
    spec: Specification,
    sims: SimResolver | None,
    sol: Solution,
    scope: str = "solution",
    **knobs,
) -> LevelMap:
    """Level of each merge in the solution: the first round of the
    rule-application chain that relates the pair, counting rule
    applications but not transitive closure.

    scope="solution" (default) admits only rule answers already merged in
    the solution; scope="ub" runs the unrestricted all-rules chain and then
    reports the pairs the solution contains."""
    if scope not in ("solution", "ub"):
        raise ValueError(f"unknown levels scope {scope!r}")
    if not is_solution(db, spec, sims, sol.eq, **knobs):
        raise NotASolution("levels() requires a valid solution")
    rules = transform(spec, "ub").hard
    e = EqRel(db.domain)
    found: dict[MergePair, int] = {}
    level = 0
    while True:
        level += 1
        new_ids: set[tuple[int, int]] = set()
        for rule in rules:
            for i, j in merge_candidates(rule, db, e, sims, None, **knobs):
                if scope == "solution" and not sol.eq.same(e.const(i), e.const(j)):
                    continue
                new_ids.add((i, j))
        before = e.nontrivial_pairs()
        changed = False
        for i, j in sorted(new_ids):
            changed |= e.merge_ids(i, j)
        if not changed:
            break
        for pair in e.nontrivial_pairs() - before:
            found[pair] = level
    if scope == "ub":
        keep = sol.eq.nontrivial_pairs()
        found = {p: lv for p, lv in found.items() if p in keep}
    return LevelMap(found)


# ------------------------------------------------------------ verification


def verify_solution(
    db: Database,
    spec: Specification,
    sims: SimResolver | None,
    sol: Solution,
    **knobs,
) -> bool:
    """Soundness check used by the test suite: the derivation replays from
    identity (each applied pair is an answer of its rule at its step) and
    reproduces exactly sol.eq, which satisfies all hard rules and
    constraints."""
    e = EqRel(db.domain)
    for step in sol.derivation:
        rule = spec.rule_by_label(step.label)
        if rule is None:
            return False
        cands = merge_candidates(rule, db, e, sims, None, **knobs)
        i = e.canon_id(e.id_of(step.pair.left))
        j = e.canon_id(e.id_of(step.pair.right))
        key = (i, j) if i < j else (j, i)
        if key not in cands:
            return False
        e.merge_ids(i, j)
    if e.signature() != sol.eq.signature():
        return False
    return is_solution(db, spec, sims, sol.eq, **knobs)
