"""Evaluate rule and constraint bodies against a database plus equivalence
relation.

Evaluation is representative-level: every fact argument is mapped to the
canonical id of its class, then bodies are joined with index nested loops
over per-relation, per-position hash indexes. This is equivalent to querying
the induced database and expanding preimages, which the public answers()
operation exposes directly. Facts are read in the database's interned form
(id tuples numbered as EqRel numbers the domain), and semi-naive evaluation
pins one atom to the rows the database's use-lists give for the dirty ids.

Conventions baked in here:
  - inequality atoms compare class representatives;
  - similarity atoms score the original constants (never merged for
    sim-safe specifications) and are evaluated last, after all joins;
  - a join variable (two or more occurrences among relational atoms) may
    never bind the Null constant, so merges cannot flow through missing
    values; `null_join_guard=False` disables this for mutation testing;
  - Null inequality policy: `distinct` treats Null as a regular constant
    (unequal to everything but itself), `fail` falsifies any inequality
    with a Null operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import AbstractSet, Iterator, Protocol

from .errors import MissingSimScore
from .model import NULL, Constant, Database, EqRel, Fact, MergePair
from .rules import (
    DenialConstraint,
    Rule,
    RuleBody,
    Term,
    Var,
    join_vars,
)


class SimResolver(Protocol):
    """Anything that can score a similarity function on two constants."""

    def score(self, func: str, a: Constant, b: Constant) -> int: ...


@dataclass(slots=True)
class Witness:
    """One way a body matched: the fact per relational atom (in body order)
    and the representative each variable was bound to."""

    facts: tuple[Fact, ...]
    binding: dict[Var, Constant]


@dataclass(slots=True)
class AnswerSet:
    """Answers of a body for given head terms.

    rep_tuples holds the representative-level answers; tuples additionally
    expands every representative to all members of its class (the full
    preimage set), when requested."""

    head: tuple[Term, ...]
    rep_tuples: frozenset[tuple[Constant, ...]]
    tuples: frozenset[tuple[Constant, ...]] | None = None
    witnesses: dict[tuple[Constant, ...], list[Witness]] | None = None

    def pairs(self) -> frozenset[MergePair]:
        """Distinct-class entity pairs among binary answers."""
        out = {
            MergePair.of(a, b)
            for a, b in self.rep_tuples
            if a != b and a.is_entity() and b.is_entity()
        }
        return frozenset(out)


class _Eval:
    """One body evaluation over (db, e). Canonicalises the database's
    interned rows of each body relation and builds lazy per-position
    indexes over them."""

    __slots__ = (
        "body", "db", "e", "sims", "guard", "null_neq", "null_id",
        "rows", "indexes", "joinset", "res_args", "dead",
    )

    def __init__(
        self,
        body: RuleBody,
        db: Database,
        e: EqRel,
        sims: SimResolver | None,
        null_join_guard: bool,
        null_inequality: str,
    ):
        if e.domain is not db.consts and e.domain != db.consts:
            raise ValueError(
                "the equivalence relation is not over the database's domain"
            )
        self.body = body
        self.db = db
        self.e = e
        self.sims = sims
        self.guard = null_join_guard
        self.null_neq = null_inequality
        self.null_id = e.try_id(NULL)
        self.joinset = join_vars(body)
        self.rows: dict[str, list[tuple[Fact, tuple[int, ...]]]] = {}
        self.indexes: dict[tuple[str, int], dict[int, list]] = {}
        self.dead = False

        canon = e.canon_ids().__getitem__
        for atom in body.rel_atoms:
            rel = atom.relation
            if rel not in self.rows:
                self.rows[rel] = [
                    (fact, tuple(map(canon, raw)))
                    for fact, raw in zip(
                        db.by_relation.get(rel, ()), db.rows.get(rel, ())
                    )
                ]

        # resolve atom arguments: ("v", Var) or ("c", canonical id);
        # a constant outside the domain can never match any fact
        self.res_args: list[tuple[tuple[str, object], ...]] = []
        for atom in body.rel_atoms:
            resolved = []
            for term in atom.args:
                if isinstance(term, Var):
                    resolved.append(("v", term))
                else:
                    cid = e.try_id(term)
                    if cid is None:
                        self.dead = True
                    else:
                        resolved.append(("c", e.canon_id(cid)))
            self.res_args.append(tuple(resolved))

    def _index(self, rel: str, pos: int) -> dict[int, list]:
        key = (rel, pos)
        idx = self.indexes.get(key)
        if idx is None:
            idx = {}
            for row in self.rows[rel]:
                idx.setdefault(row[1][pos], []).append(row)
            self.indexes[key] = idx
        return idx

    def _order(self, pin: int | None) -> list[int]:
        atoms = self.body.rel_atoms
        remaining = set(range(len(atoms)))
        order: list[int] = []
        bound: set[Var] = set()

        def grab(i: int) -> None:
            order.append(i)
            remaining.discard(i)
            bound.update(t for t in atoms[i].args if isinstance(t, Var))

        if pin is not None:
            grab(pin)
        while remaining:
            def score(i: int) -> tuple[int, int, int]:
                known = sum(
                    1 for t in atoms[i].args
                    if not isinstance(t, Var) or t in bound
                )
                return (known, -len(self.rows[atoms[i].relation]), -i)
            grab(max(remaining, key=score))
        return order

    def _resolve_rep(self, term: Term, binding: dict[Var, int]) -> Constant:
        if isinstance(term, Var):
            return self.e.const(binding[term])
        cid = self.e.try_id(term)
        return term if cid is None else self.e.const(self.e.canon_id(cid))

    def _neq_ok(self, binding: dict[Var, int]) -> bool:
        for natom in self.body.neq_atoms:
            a = self._resolve_rep(natom.left, binding)
            b = self._resolve_rep(natom.right, binding)
            if self.null_neq == "fail" and (a.is_null() or b.is_null()):
                return False
            if a == b:
                return False
        return True

    def _sim_ok(self, orig: dict[Var, Constant]) -> bool:
        for satom in self.body.sim_atoms:
            a = orig[satom.left] if isinstance(satom.left, Var) else satom.left
            b = orig[satom.right] if isinstance(satom.right, Var) else satom.right
            if a.is_null() or b.is_null():
                return False
            if self.sims is None:
                raise MissingSimScore(
                    f"no similarity resolver supplied for {satom.func_id!r}"
                )
            if self.sims.score(satom.func_id, a, b) < satom.threshold:
                return False
        return True

    def solutions(
        self,
        pin: int | None = None,
        dirty: AbstractSet[int] | None = None,
        need_facts: bool = False,
    ) -> Iterator[tuple[dict[Var, int], list[Fact | None]]]:
        """Yield (binding, facts-per-atom) for every body match. With a pin,
        the pinned atom ranges only over rows touching a dirty id, read from
        the database's use-lists."""
        if self.dead:
            return
        atoms = self.body.rel_atoms
        order = self._order(pin)
        binding: dict[Var, int] = {}
        orig: dict[Var, Constant] = {}
        null_id = self.null_id
        facts: list[Fact | None] = [None] * len(atoms)

        pinned_rows = None
        if pin is not None:
            assert dirty is not None
            rel = atoms[pin].relation
            uses, rows = self.db.uses.get(rel, {}), self.rows[rel]
            pinned_rows = [
                rows[k]
                for k in sorted({k for i in dirty for k in uses.get(i, ())})
            ]
            if not pinned_rows:
                return

        def candidates(k: int, ai: int):
            if ai == pin:
                return pinned_rows
            resolved = self.res_args[ai]
            for pos, (tag, val) in enumerate(resolved):
                if tag == "c":
                    return self._index(atoms[ai].relation, pos).get(val, ())
                if val in binding:
                    return self._index(atoms[ai].relation, pos).get(
                        binding[val], ()
                    )
            return self.rows[atoms[ai].relation]

        def rec(k: int) -> Iterator[tuple[dict[Var, int], list[Fact | None]]]:
            if k == len(order):
                if self._neq_ok(binding) and self._sim_ok(orig):
                    yield binding, facts
                return
            ai = order[k]
            resolved = self.res_args[ai]
            for fact, canon in candidates(k, ai):
                trail: list[Var] = []
                ok = True
                for pos, (tag, val) in enumerate(resolved):
                    cid = canon[pos]
                    if tag == "c":
                        if cid != val:
                            ok = False
                            break
                        continue
                    prev = binding.get(val)
                    if prev is not None:
                        if prev != cid:
                            ok = False
                            break
                        continue
                    if self.guard and cid == null_id and val in self.joinset:
                        ok = False
                        break
                    binding[val] = cid
                    orig[val] = fact.args[pos]
                    trail.append(val)
                if ok:
                    if need_facts:
                        facts[ai] = fact
                    yield from rec(k + 1)
                    if need_facts:
                        facts[ai] = None
                for v in trail:
                    del binding[v]
                    del orig[v]

        try:
            yield from rec(0)
        finally:
            # rec's closure refers to rec: clear the cell so the cycle, which
            # holds this evaluation's rows, is freed without waiting for the
            # cyclic collector
            rec = None  # noqa: F841


def _head_rep(
    ev: _Eval, head: tuple[Term, ...], binding: dict[Var, int]
) -> tuple[Constant, ...]:
    return tuple(ev._resolve_rep(t, binding) for t in head)


def answers(
    body: RuleBody,
    head: tuple[Term, ...],
    db: Database,
    e: EqRel,
    sims: SimResolver | None = None,
    *,
    expand: bool = True,
    witnesses: bool = False,
    null_join_guard: bool = True,
    null_inequality: str = "distinct",
) -> AnswerSet:
    """All head tuples derivable from body matches over (db, e).

    Representative-level tuples are always produced; with expand=True the
    answer set additionally contains every preimage tuple (each
    representative replaced by each member of its class)."""
    ev = _Eval(body, db, e, sims, null_join_guard, null_inequality)
    reps: set[tuple[Constant, ...]] = set()
    wits: dict[tuple[Constant, ...], list[Witness]] | None = (
        {} if witnesses else None
    )
    for binding, facts in ev.solutions(need_facts=witnesses):
        rep = _head_rep(ev, head, binding)
        reps.add(rep)
        if wits is not None:
            shown = {v: e.const(cid) for v, cid in binding.items()}
            wits.setdefault(rep, []).append(
                Witness(tuple(facts), shown)  # type: ignore[arg-type]
            )
    expanded: frozenset[tuple[Constant, ...]] | None = None
    if expand:
        full: set[tuple[Constant, ...]] = set()
        for rep in reps:
            full.update(product(*(e.members(c) for c in rep)))
        expanded = frozenset(full)
    return AnswerSet(head, frozenset(reps), expanded, wits)


def merge_candidates(
    rule: Rule,
    db: Database,
    e: EqRel,
    sims: SimResolver | None,
    dirty: AbstractSet[int] | None = None,
    *,
    null_join_guard: bool = True,
    null_inequality: str = "distinct",
) -> set[tuple[int, int]]:
    """Distinct-class entity answer pairs of a merge rule, as canonical id
    pairs (smaller id first). With a dirty id set, evaluates semi-naively:
    each relational atom in turn is pinned to rows touching the delta."""
    ev = _Eval(rule.body, db, e, sims, null_join_guard, null_inequality)
    out: set[tuple[int, int]] = set()
    pins: tuple[int | None, ...]
    if dirty is None:
        pins = (None,)
    else:
        pins = tuple(range(len(rule.body.rel_atoms)))
    for pin in pins:
        for binding, _ in ev.solutions(pin=pin, dirty=dirty):
            a, b = _head_rep(ev, rule.head, binding)
            if a == b or not (a.is_entity() and b.is_entity()):
                continue
            i, j = e.canon_id(e.id_of(a)), e.canon_id(e.id_of(b))
            out.add((i, j) if i < j else (j, i))
    return out


def rule_satisfied(
    rule: Rule,
    db: Database,
    e: EqRel,
    sims: SimResolver | None = None,
    *,
    null_join_guard: bool = True,
    null_inequality: str = "distinct",
) -> bool:
    """True iff every answer pair of the rule is already within one class."""
    ev = _Eval(rule.body, db, e, sims, null_join_guard, null_inequality)
    for binding, _ in ev.solutions():
        a, b = _head_rep(ev, rule.head, binding)
        if a != b:
            return False
    return True


def dc_satisfied(
    dc: DenialConstraint,
    db: Database,
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
    *,
    null_join_guard: bool = True,
    null_inequality: str = "distinct",
) -> bool:
    """True iff the constraint body has no match over the induced database.
    With a dirty id set, only matches on a row touching a dirty id are
    looked for (each relational atom pinned in turn): enough when every
    other match already existed at a state known to satisfy the
    constraint."""
    ev = _Eval(dc.body, db, e, None, null_join_guard, null_inequality)
    pins = (None,) if dirty is None else range(len(dc.body.rel_atoms))
    for pin in pins:
        for _ in ev.solutions(pin=pin, dirty=dirty):
            return False
    return True
