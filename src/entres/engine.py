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
                 every step and memoization on partition signatures;
  - possible_merges / certain_merges / is_possible: union over all
                 solutions and intersection over maximal solutions;
  - levels:      recursion depth of each merge (the round of the
                 rule-application chain that first produces it).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    **knobs,
) -> EqRel:
    """Semi-naive fixpoint: apply every rule answer and close, repeating
    with delta-restricted evaluation until no new merge appears. Mutates
    and returns e."""
    n = len(e)
    dirty: frozenset[int] | None = None
    while True:
        found: list[tuple[str, int, int]] = []
        for rule in rules:
            for i, j in merge_candidates(rule, db, e, sims, dirty, **knobs):
                found.append((rule.label, i, j))
        if not found:
            return e
        before = [e.canon_id(i) for i in range(n)]
        for label, i, j in sorted(set(found)):
            if e.merge_ids(i, j) and record is not None:
                record.append(
                    DerivStep(label, MergePair.of(e.const(i), e.const(j)))
                )
        dirty = frozenset(
            i for i in range(n) if e.canon_id(i) != before[i]
        )


def lb(db: Database, spec: Specification, sims: SimResolver | None = None,
       **knobs) -> EqRel:
    """Least fixpoint of the hard rules: merges present in every solution."""
    return _saturate(db, spec.hard, EqRel(db.domain), sims, **knobs)


def ub(db: Database, spec: Specification, sims: SimResolver | None = None,
       **knobs) -> EqRel:
    """Fixpoint with soft rules promoted to hard: no solution merges more."""
    rules = transform(spec, "ub").hard
    return _saturate(db, rules, EqRel(db.domain), sims, **knobs)


def loose_ub(db: Database, spec: Specification, **knobs) -> EqRel:
    """The ub fixpoint with similarity atoms dropped; a similarity-free
    overapproximation that needs no scores."""
    rules = transform(spec, "loose_ub").hard
    return _saturate(db, rules, EqRel(db.domain), None, **knobs)


# ------------------------------------------------------------------ search


def _hint_of(spec: Specification, rel: str, pos: int) -> str:
    decl = spec.schema.decl(rel)
    return decl.hints[pos] if decl else "val"


def _merge_monotone(dc: DenialConstraint, spec: Specification) -> bool:
    """A constraint is merge-monotone when no inequality operand can change
    its representative as classes grow: variables reading only non-id
    columns, or value constants. Violations of such constraints persist
    under further merges, so they may prune whole search subtrees."""
    occ = var_positions(dc.body)
    for natom in dc.body.neq_atoms:
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


class _Search:
    """Depth-first exploration of hard-saturated candidate states.

    Children (one extra soft answer, then hard saturation) are explored
    before the state itself is recorded, so solutions arrive biased toward
    larger merge sets; memoization on partition signatures collapses
    permuted application orders."""

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
            dc for dc in spec.dcs if _merge_monotone(dc, spec)
        )
        self.checked_dcs = tuple(
            dc for dc in spec.dcs if not _merge_monotone(dc, spec)
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
        steps: list[DerivStep] = []
        start = _saturate(
            self.db, self.spec.hard, EqRel(self.db.domain), self.sims,
            record=steps, **self.knobs,
        )
        self._visit(start, tuple(steps))
        return self.results

    def _visit(self, e: EqRel, deriv: tuple[DerivStep, ...]) -> None:
        if self._done():
            return
        sig = e.signature()
        if sig in self.memo:
            return
        self.memo.add(sig)
        for dc in self.pruning_dcs:
            if not dc_satisfied(dc, self.db, e, **self.knobs):
                return  # violation persists in the whole subtree
        candidates: list[tuple[str, int, int]] = []
        for rule in self.spec.soft:
            for i, j in merge_candidates(
                rule, self.db, e, self.sims, None, **self.knobs
            ):
                candidates.append((rule.label, i, j))
        for label, i, j in sorted(set(candidates)):
            if self._done():
                return
            child = e.clone()
            steps = [DerivStep(label, MergePair.of(e.const(i), e.const(j)))]
            child.merge_ids(i, j)
            _saturate(
                self.db, self.spec.hard, child, self.sims,
                record=steps, **self.knobs,
            )
            self._visit(child, deriv + tuple(steps))
        if self._done():
            return
        for dc in self.checked_dcs:
            if not dc_satisfied(dc, self.db, e, **self.knobs):
                return
        sol = Solution(e, deriv)
        self.results.append(sol)
        if self.stop_pair is not None and self.stop_pair in e:
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
