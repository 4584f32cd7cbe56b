"""Evaluate rule and constraint bodies in an evaluation context (database,
specification, similarity resolver, null policies) against an equivalence
relation.

Evaluation is on canonical ids only: body constants are resolved to ids
once, and bodies are joined with index nested loops comparing ints. Rows
are read in the database's interned form (id tuples numbered as EqRel
numbers the domain) and never rewritten: a row's canonical ids are looked
up when the row is visited, and the rows whose argument lies in a class
are read from the database's static per-position index, one entry per
member. Semi-naive evaluation pins one atom to the rows that index gives
for the dirty ids. Constants appear only at the boundary: answers() hands
out its tuples and witnesses as constants, and a similarity atom scores
the constants as written. This is equivalent to querying the induced
database and expanding preimages, which answers() exposes directly.

Conventions baked in here:
  - inequality atoms compare class representatives (a constant absent from
    the data is unequal to every other constant);
  - similarity atoms score the original constants (never merged for
    sim-safe specifications) and are evaluated last, after all joins;
  - a join variable (two or more occurrences among relational atoms) may
    never bind the Null constant, so merges cannot flow through missing
    values;
  - Null inequality policy: `distinct` treats Null as a regular constant
    (unequal to everything but itself), `fail` falsifies any inequality
    with a Null operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import AbstractSet, Iterator, Protocol, Sequence

from .errors import MissingSimScore
from .model import NULL, Constant, Database, EqRel, Fact
from .rules import (
    DenialConstraint,
    Rule,
    RuleBody,
    Specification,
    Term,
    Var,
    join_vars,
)


class SimResolver(Protocol):
    """Anything that can score a similarity function on two constants."""

    def score(self, func: str, a: Constant, b: Constant) -> int: ...


@dataclass(frozen=True, slots=True)
class Context:
    """What every evaluation reads besides the equivalence relation: the
    database, the specification, the similarity resolver (None when no
    similarity atom is evaluated) and the null policies."""

    db: Database
    spec: Specification
    sims: SimResolver | None = None
    null_inequality: str = "distinct"
    null_join_guard: bool = True

    def __post_init__(self) -> None:
        if self.null_inequality not in ("distinct", "fail"):
            raise ValueError(
                f"unknown null inequality policy {self.null_inequality!r}; "
                f"expected 'distinct' or 'fail'"
            )

    def require_domain(self, e: EqRel) -> None:
        """Raise ValueError unless e numbers the domain as the rows do."""
        if e.domain is not self.db.consts and e.domain != self.db.consts:
            raise ValueError(
                "the equivalence relation is not over the database's domain"
            )

    def identity(self) -> EqRel:
        """A fresh identity relation over the database's domain, numbered
        as the database's interned rows are."""
        return EqRel.numbered(self.db.consts, self.db.ids)


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


@lru_cache(maxsize=None)
def _layout(body: RuleBody) -> tuple[
    frozenset[Var],
    tuple[tuple[tuple[int, Term], ...], ...],
    tuple[tuple[tuple[int, Var], ...], ...],
]:
    """The body's join variables and, per relational atom, (position,
    constant) of each constant argument and (position, variable) of each
    variable argument: what an evaluation reads of the body before it
    resolves the constants against its state."""
    args = [tuple(enumerate(atom.args)) for atom in body.rel_atoms]
    return (
        join_vars(body),
        tuple(
            tuple((p, t) for p, t in pa if not isinstance(t, Var))
            for pa in args
        ),
        tuple(
            tuple((p, t) for p, t in pa if isinstance(t, Var)) for pa in args
        ),
    )


class _Eval:
    """One body evaluation over (ctx.db, e), on canonical ids only. Resolves
    body constants once (one absent from the data to a fresh id no row
    carries) and reads the database's interned rows as they are, looking up
    the canonical id of an argument when its row is visited."""

    __slots__ = (
        "body", "ctx", "e", "absent", "null_id", "lookups", "joinset",
        "fixed", "free", "neqs",
    )

    def __init__(self, body: RuleBody, ctx: Context, e: EqRel):
        ctx.require_domain(e)
        self.body = body
        self.ctx = ctx
        self.e = e
        self.absent: dict[Constant, int] = {}
        self.null_id = self.resolve(NULL)
        self.lookups: dict[tuple[str, int, int], Sequence[int]] = {}
        # per relational atom: (position, id) of each constant argument and
        # (position, variable) of each variable argument
        self.joinset, consts, self.free = _layout(body)
        self.fixed = [
            tuple([(p, self.resolve(t)) for p, t in pc]) if pc else ()
            for pc in consts
        ]
        self.neqs = tuple(
            (self.resolve(n.left), self.resolve(n.right))
            for n in body.neq_atoms
        )

    def resolve(self, term: Term) -> Var | int:
        """A variable as itself, a constant as its canonical id."""
        if isinstance(term, Var):
            return term
        cid = self.e.try_id(term)
        if cid is not None:
            return self.e.canon_id(cid)
        return self.absent.setdefault(term, len(self.e) + len(self.absent))

    def _lookup(self, rel: str, pos: int, cid: int) -> Sequence[int]:
        """Ascending positions in db.rows[rel] of the rows whose argument at
        pos is in the class of canonical id cid (none for an absent id),
        memoised so that each class is walked at most once per column."""
        key = (rel, pos, cid)
        found = self.lookups.get(key)
        if found is None:
            found = ()
            if cid < len(self.e):
                col = self.ctx.db.index[rel][pos]
                hits = [
                    col[i] for i in self.e.class_ids((cid,)) if i in col
                ]
                if len(hits) == 1:
                    found = hits[0]
                elif hits:
                    found = sorted([k for ks in hits for k in ks])
            self.lookups[key] = found
        return found

    def _order(self, pin: int | None) -> list[int]:
        atoms = self.body.rel_atoms
        remaining = set(range(len(atoms)))
        order: list[int] = []
        bound: set[Var] = set()

        def grab(i: int) -> None:
            order.append(i)
            remaining.discard(i)
            bound.update(var for _, var in self.free[i])

        if pin is not None:
            grab(pin)
        while remaining:
            def score(i: int) -> tuple[int, int, int]:
                known = len(self.fixed[i])
                known += sum(var in bound for _, var in self.free[i])
                return (known, -len(self.ctx.db.rows[atoms[i].relation]), -i)
            grab(max(remaining, key=score))
        return order

    def _neq_ok(self, binding: dict[Var, int]) -> bool:
        fail = self.ctx.null_inequality == "fail"
        null = self.null_id
        for left, right in self.neqs:
            a = binding[left] if isinstance(left, Var) else left
            b = binding[right] if isinstance(right, Var) else right
            if a == b or (fail and (a == null or b == null)):
                return False
        return True

    def _sim_ok(self, orig: dict[Var, Constant]) -> bool:
        sims = self.ctx.sims
        for satom in self.body.sim_atoms:
            a = orig[satom.left] if isinstance(satom.left, Var) else satom.left
            b = orig[satom.right] if isinstance(satom.right, Var) else satom.right
            if a.is_null() or b.is_null():
                return False
            if sims is None:
                raise MissingSimScore(
                    f"no similarity resolver supplied for {satom.func_id!r}"
                )
            if sims.score(satom.func_id, a, b) < satom.threshold:
                return False
        return True

    def solutions(
        self, dirty: AbstractSet[int] | None = None
    ) -> Iterator[tuple[dict[Var, int], list[int]]]:
        """Yield (binding, row per atom) for every body match, a row as its
        position in db.rows of the atom's relation. With a
        dirty id set, evaluates semi-naively: each relational atom in turn
        is pinned to the rows with a dirty id among their arguments, read
        from the database's index, so only matches on such a row are
        found, and a match on several of them once per pin."""
        atoms = self.body.rel_atoms
        db = self.ctx.db
        if not all(a.relation in db.rows for a in atoms):
            return  # a body relation without rows: no match, no index
        canon, consts = self.e.canon_id, db.consts
        binding: dict[Var, int] = {}
        orig: dict[Var, Constant] = {}
        null_id = self.null_id
        guard = self.ctx.null_join_guard
        at = [0] * len(atoms)

        def candidates(ai: int) -> Sequence[int]:
            if ai == pin:
                return pinned
            rel = atoms[ai].relation
            if self.fixed[ai]:
                return self._lookup(rel, *self.fixed[ai][0])
            for pos, var in self.free[ai]:
                if var in binding:
                    return self._lookup(rel, pos, binding[var])
            return range(len(db.rows[rel]))

        def rec(k: int) -> Iterator[tuple[dict[Var, int], list[int]]]:
            if k == len(order):
                if self._neq_ok(binding) and self._sim_ok(orig):
                    yield binding, at
                return
            ai = order[k]
            rel = atoms[ai].relation
            rows = db.rows[rel]
            fixed, free = self.fixed[ai], self.free[ai]
            for r in candidates(ai):
                raw = rows[r]
                if fixed and any(canon(raw[pos]) != cid for pos, cid in fixed):
                    continue
                trail: list[Var] = []
                ok = True
                for pos, var in free:
                    cid = canon(raw[pos])
                    prev = binding.get(var)
                    if prev is not None:
                        if prev != cid:
                            ok = False
                            break
                        continue
                    if guard and cid == null_id and var in self.joinset:
                        ok = False
                        break
                    binding[var] = cid
                    orig[var] = consts[raw[pos]]
                    trail.append(var)
                if ok:
                    at[ai] = r
                    yield from rec(k + 1)
                for var in trail:
                    del binding[var]
                    del orig[var]

        # one pass per pinned atom; candidates() and rec() read the pass's
        # pin, pinned rows and join order
        for pin in (None,) if dirty is None else range(len(atoms)):
            order = self._order(pin)
            if pin is not None:
                pinned = sorted({
                    r for col in db.index[atoms[pin].relation]
                    for i in dirty for r in col.get(i, ())
                })
            yield from rec(0)


def answers(
    body: RuleBody,
    head: tuple[Term, ...],
    ctx: Context,
    e: EqRel,
    *,
    expand: bool = True,
    witnesses: bool = False,
    dirty: AbstractSet[int] | None = None,
) -> AnswerSet:
    """All head tuples derivable from body matches over (ctx.db, e).

    Representative-level tuples are always produced; with expand=True the
    answer set additionally contains every preimage tuple (each
    representative replaced by each member of its class). With a dirty id
    set, only the matches on a row touching a dirty id are evaluated (see
    _Eval.solutions); each match is witnessed once."""
    ev = _Eval(body, ctx, e)
    terms = [ev.resolve(t) for t in head]
    names = e.domain + tuple(ev.absent)  # the constant of every id
    found: dict[tuple[int, ...], list[Witness]] = {}
    seen: set[tuple[int, ...]] = set()
    facts = ctx.db.by_relation
    for binding, at in ev.solutions(dirty):
        ids = tuple([binding[t] if isinstance(t, Var) else t for t in terms])
        wits = found.setdefault(ids, [])
        # a match found again under another pin is witnessed once
        if witnesses and (rows := tuple(at)) not in seen:
            seen.add(rows)
            matched = tuple(
                facts[a.relation][r] for a, r in zip(body.rel_atoms, rows)
            )
            shown = {v: names[cid] for v, cid in binding.items()}
            wits.append(Witness(matched, shown))
    reps = {ids: tuple(names[i] for i in ids) for ids in found}
    expanded: frozenset[tuple[Constant, ...]] | None = None
    if expand:
        # a domain id stands for its class; an absent one only for itself
        n = len(e.domain)
        expanded = frozenset(
            tuple([names[i] for i in t]) for ids in found
            for t in product(*(
                sorted(e.class_ids((i,))) if i < n else (i,) for i in ids
            ))
        )
    return AnswerSet(
        head,
        frozenset(reps.values()),
        expanded,
        {reps[ids]: ws for ids, ws in found.items()} if witnesses else None,
    )


def merge_candidates(
    rule: Rule,
    ctx: Context,
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
) -> set[tuple[int, int]]:
    """Distinct-class entity answer pairs of a merge rule, as canonical id
    pairs (smaller id first). With a dirty id set, only from the matches on
    a row touching a dirty id (see _Eval.solutions)."""
    x, y = rule.head
    entities = ctx.db.entities
    out: set[tuple[int, int]] = set()
    for binding, _ in _Eval(rule.body, ctx, e).solutions(dirty):
        i, j = binding[x], binding[y]  # type: ignore[index]
        if i != j and i < entities and j < entities:
            out.add((i, j) if i < j else (j, i))
    return out


def rule_satisfied(rule: Rule, ctx: Context, e: EqRel) -> bool:
    """True iff every answer pair of the rule is already within one class."""
    x, y = rule.head
    for binding, _ in _Eval(rule.body, ctx, e).solutions():
        if binding[x] != binding[y]:  # type: ignore[index]
            return False
    return True


def dc_satisfied(
    dc: DenialConstraint,
    ctx: Context,
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
) -> bool:
    """True iff the constraint body has no match over the induced database.
    With a dirty id set, only matches on a row touching a dirty id are
    looked for: enough when every other match already existed at a state
    known to satisfy the constraint."""
    for _ in _Eval(dc.body, ctx, e).solutions(dirty):
        return False
    return True


def matched_ids(body: RuleBody, ctx: Context, e: EqRel) -> Iterator[list[int]]:
    """For every body match over (ctx.db, e), the raw ids of the rows it
    reads, atom by atom."""
    rows = ctx.db.rows
    for _, at in _Eval(body, ctx, e).solutions():
        yield [
            i for a, r in zip(body.rel_atoms, at) for i in rows[a.relation][r]
        ]
