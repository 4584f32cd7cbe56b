"""Evaluate rule and constraint bodies in an evaluation context (database,
specification, similarity resolver, null inequality policy) against an
equivalence relation.

Evaluation is on canonical ids only: body constants are resolved to ids
once, and bodies are joined with index nested loops comparing ints. Equal
bodies are laid out once (_Layout): every relational variable gets a slot
number in order of first occurrence, and every constant the joins compare
a slot after them, so a match is two flat lists indexed by slot, one of
canonical ids and one of the raw ids the variables were bound to. Per pass
a join plan, compiled once per body, pinned atom and order of relation
sizes, fixes the atom order, the probe that selects each atom's rows, and
which arguments bind a slot and which check one; one loop over a stack of
row iterators runs it, and a slot is rebound in place when its step reads
the next row, so backtracking undoes nothing.

Rows are read in the database's interned form (id tuples numbered as EqRel
numbers the domain) and never rewritten: a row's canonical ids are looked
up when the row is visited, and the rows whose argument lies in a class
are read from the database's static per-position index, one entry per
member. Semi-naive evaluation pins one atom to the rows that index gives
for the dirty ids. Constants appear only at the boundary: answers() hands
out its tuples as class representatives and its witnesses as facts, and a
similarity atom scores the texts of the constants as written.

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

from functools import lru_cache
from typing import AbstractSet, Iterator, Protocol, Sequence

from .errors import MissingSimScore
from .model import NULL, Constant, EqRel, Fact, Record
from .rules import DenialConstraint, Rule, RuleBody, Term, Var, occurrences


class SimResolver(Protocol):
    """Anything that can score a similarity function on two texts. A null
    operand never reaches it: the atom fails before it is scored."""

    def score(self, func: str, a: str, b: str) -> int: ...


class Context(Record):
    """What every evaluation reads besides the equivalence relation: the
    database, the specification, the similarity resolver (None when no
    similarity atom is evaluated) and the null inequality policy, plus the
    ub fixpoint under them when it is already known (None otherwise), as
    `simkit.sim_opt` computes it; `engine.ub` then copies it instead of
    running the fixpoint again."""

    __slots__ = ("db", "spec", "sims", "null_inequality", "ub")

    _defaults = {"sims": None, "null_inequality": "distinct", "ub": None}

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
        if self.null_inequality not in ("distinct", "fail"):
            raise ValueError(
                f"unknown null inequality policy {self.null_inequality!r}; "
                f"expected 'distinct' or 'fail'"
            )
        if self.ub is not None:
            self.require_domain(self.ub)

    def replace(self, **changes):
        """A copy with the given fields changed. A ub belongs to the fields
        it was computed under, so the copy keeps none unless given one."""
        changes.setdefault("ub", None)
        return super().replace(**changes)

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


# the kinds of argument in a plan step: compare with a filled slot, fill a
# slot, fill a slot that a null must not fill (a join variable's)
_CHECK, _BIND, _JOIN = 0, 1, 2


class _Layout:
    """What every evaluation reads of a body before it resolves constants:
    its slots and the join plans compiled so far.

    Slots number the relational variables in order of first occurrence,
    then the distinct constants of the relational and inequality atoms, so
    that one flat list per evaluation holds every value a match compares.
    Per relational atom, `atoms` lists (position, slot, is_join) for each
    argument; an inequality is a pair of slots; a similarity atom keeps
    the slot of each variable operand (None for a constant, which is
    scored as written)."""

    __slots__ = (
        "relations", "vars", "slot", "consts", "atoms", "neqs", "sims",
        "plans",
    )

    def __init__(self, body: RuleBody):
        self.relations = tuple(a.relation for a in body.rel_atoms)
        occ = occurrences(body)
        self.vars: tuple[Var, ...] = tuple(occ)
        self.slot = slot = {v: i for i, v in enumerate(occ)}
        consts: dict[Constant, int] = {}

        def at(t: Term) -> int:
            if isinstance(t, Var):
                return slot[t]
            return consts.setdefault(t, len(slot) + len(consts))

        joins = {v for v, ps in occ.items() if len(ps) > 1}
        self.atoms = tuple(
            tuple((p, at(t), t in joins) for p, t in enumerate(a.args))
            for a in body.rel_atoms
        )
        self.neqs = tuple((at(n.left), at(n.right)) for n in body.neq_atoms)
        self.consts: tuple[Constant, ...] = tuple(consts)
        self.sims = tuple(
            (s, slot[s.left] if isinstance(s.left, Var) else None,
             slot[s.right] if isinstance(s.right, Var) else None)
            for s in body.sim_atoms
        )
        self.plans: dict[tuple[int | None, tuple[int, ...]], tuple] = {}

    def plan(self, pin: int | None, ranks: tuple[int, ...]) -> tuple:
        """The join plan of one pass, compiled on first use: the pinned
        atom (if any) first, then repeatedly the atom with the most known
        arguments, then the fewest rows (`ranks`, per atom, the dense rank
        of its relation's row count: a body holds one plan per pin and
        order of sizes, not one per size), then the lowest index. Per step:
        (atom, probe, args). The probe is the (position, slot) whose value
        selects the step's rows through the database's index: the first
        constant argument, else the first variable an earlier step bound,
        else None for a scan of every row (and for the pinned atom, whose
        rows the dirty ids select). The args are the other arguments as
        (position, slot, kind): first those that check a slot an earlier
        step or a constant filled, then those that fill a slot, then
        repeats of a slot this step fills."""
        steps = self.plans.get((pin, ranks))
        if steps is not None:
            return steps
        nv = len(self.vars)
        bound = set(range(nv, nv + len(self.consts)))
        remaining = set(range(len(self.atoms)))
        order: list[tuple] = []

        def score(i: int) -> tuple[int, int, int]:
            known = sum(s in bound for _, s, _ in self.atoms[i])
            return (known, -ranks[i], -i)

        while remaining:
            i = max(remaining, key=score) if order or pin is None else pin
            remaining.discard(i)
            args = self.atoms[i]
            probe = None
            if i != pin:
                probe = next((a for a in args if a[1] >= nv), None) or next(
                    (a for a in args if a[1] in bound), None
                )
            checks, fills, repeats = [], [], []
            fresh: set[int] = set()
            for a in args:
                pos, s, join = a
                if a is probe:
                    continue  # every row the index gives satisfies it
                if s in bound:
                    checks.append((pos, s, _CHECK))
                elif s in fresh:
                    repeats.append((pos, s, _CHECK))
                else:
                    fresh.add(s)
                    fills.append((pos, s, _JOIN if join else _BIND))
            bound |= fresh
            order.append((
                i, probe[:2] if probe else None,
                tuple(checks + fills + repeats),
            ))
        steps = self.plans[pin, ranks] = tuple(order)
        return steps


#: one layout per equal body, however often a spec is parsed
_layout = lru_cache(maxsize=None)(_Layout)


class _Eval:
    """One body evaluation over (ctx.db, e), on canonical ids only. Resolves
    body constants once (one absent from the data to a fresh id no row
    carries) and reads the database's interned rows as they are, looking up
    the canonical id of an argument when its row is visited."""

    __slots__ = ("lay", "ctx", "e", "absent", "null_id", "ids", "lookups")

    def __init__(self, body: RuleBody, ctx: Context, e: EqRel):
        ctx.require_domain(e)
        self.lay = lay = _layout(body)
        self.ctx = ctx
        self.e = e
        self.absent: dict[Constant, int] = {}
        self.null_id = self.resolve(NULL)
        # per (relation, position): canonical id -> the rows of its class
        self.lookups: dict[tuple[str, int], dict[int, Sequence[int]]] = {}
        # every slot's id: the join fills the variables', constants' are fixed
        self.ids = [0] * len(lay.vars) + [self.resolve(c) for c in lay.consts]

    def resolve(self, c: Constant) -> int:
        """A constant's canonical id, or the fresh id of one absent from
        the data."""
        cid = self.e.try_id(c)
        if cid is not None:
            return self.e.canon_id(cid)
        return self.absent.setdefault(c, len(self.e) + len(self.absent))

    def slot(self, term: Term) -> int:
        """The slot that holds term's id in every match: a variable's own,
        or one added for a constant."""
        if isinstance(term, Var):
            return self.lay.slot[term]
        self.ids.append(self.resolve(term))
        return len(self.ids) - 1

    def _neq_ok(self, fail: int) -> bool:
        ids = self.ids
        for left, right in self.lay.neqs:
            a, b = ids[left], ids[right]
            if a == b or a == fail or b == fail:
                return False
        return True

    def _sim_ok(self, raws: list[int]) -> bool:
        sims, consts = self.ctx.sims, self.ctx.db.consts
        for satom, left, right in self.lay.sims:
            a = satom.left if left is None else consts[raws[left]]
            b = satom.right if right is None else consts[raws[right]]
            if a.is_null() or b.is_null():
                return False
            if sims is None:
                raise MissingSimScore(
                    f"no similarity resolver supplied for {satom.func_id!r}"
                )
            if sims.score(satom.func_id, a.text, b.text) < satom.threshold:
                return False
        return True

    def solutions(
        self, dirty: AbstractSet[int] | None = None
    ) -> Iterator[tuple[list[int], list[int]]]:
        """Yield (ids, rows) for every body match: ids by slot (see
        _Layout), rows as each relational atom's row, in body order, as
        its position in db.rows of the atom's relation. Both lists are
        reused: read them before the next match. With a dirty id set,
        evaluates semi-naively: each relational atom in turn is pinned to
        the rows with a dirty id among their arguments, read from the
        database's index, so only matches on such a row are found, and a
        match on several of them once per pin."""
        lay, db = self.lay, self.ctx.db
        tables = [db.rows.get(rel) for rel in lay.relations]
        if None in tables:
            return  # a body relation without rows: no match, no index
        sizes = sorted(set(map(len, tables)))
        ranks = tuple([sizes.index(len(t)) for t in tables])
        canon, ids, lookups = self.e.canon_id, self.ids, self.lookups
        raws = [0] * len(lay.vars)  # the raw id each variable was bound to
        at = [0] * len(tables)
        # the id a join variable may not bind, and the one no inequality
        # holds with (-1, no id, when the null inequality policy has none)
        guard = self.null_id
        fail = self.null_id if self.ctx.null_inequality == "fail" else -1
        neqs, sims = lay.neqs, lay.sims
        for pin in (None,) if dirty is None else range(len(tables)):
            # per step: atom, its rows, args, and the probe's memo, index
            # column and slot (memo None: every row, or the pinned ones)
            steps = []
            for ai, probe, args in lay.plan(pin, ranks):
                memo = col = None
                slot = 0
                if probe is not None:
                    pos, slot = probe
                    rel = lay.relations[ai]
                    memo = lookups.setdefault((rel, pos), {})
                    col = db.index[rel][pos]
                steps.append((ai, tables[ai], args, memo, col, slot))
            if pin is None:
                first = self._rows(steps[0])
            else:
                first = sorted({
                    r for col in db.index[lay.relations[pin]]
                    for i in dirty for r in col.get(i, ())
                })
            its = [iter(first)] + [iter(())] * (len(steps) - 1)
            last = len(steps) - 1
            k = 0
            while k >= 0:
                ai, rows, args = steps[k][:3]
                for r in its[k]:
                    row = rows[r]
                    for pos, slot, kind in args:
                        cid = canon(row[pos])
                        if kind == _CHECK:
                            if ids[slot] != cid:
                                break
                        elif kind == _JOIN and cid == guard:
                            break
                        else:
                            ids[slot] = cid
                            raws[slot] = row[pos]
                    else:
                        at[ai] = r
                        if k < last:
                            k += 1
                            its[k] = iter(self._rows(steps[k]))
                            break
                        if (not neqs or self._neq_ok(fail)) and (
                            not sims or self._sim_ok(raws)
                        ):
                            yield ids, at
                else:
                    k -= 1

    def _rows(self, step: tuple) -> Sequence[int]:
        """The rows a plan step visits: every row, or, ascending, those
        whose probed argument is in the class of the probe slot's id (none
        for an absent id), memoised per column and class."""
        _, rows, _, memo, col, slot = step
        if memo is None:
            return range(len(rows))
        cid = self.ids[slot]
        found = memo.get(cid)
        if found is None:
            found = ()
            if cid < len(self.e):
                hits = [col[i] for i in self.e.class_ids((cid,)) if i in col]
                if len(hits) == 1:
                    found = hits[0]
                elif hits:
                    found = sorted([k for ks in hits for k in ks])
            memo[cid] = found
        return found


def answers(
    body: RuleBody,
    head: tuple[Term, ...],
    ctx: Context,
    e: EqRel,
    *,
    witnesses: bool = False,
    dirty: AbstractSet[int] | None = None,
) -> dict[tuple[Constant, ...], list[tuple[Fact, ...]]]:
    """The head tuples derivable from body matches over (ctx.db, e), each
    mapped to its matches. A tuple holds class representatives (a body
    constant absent from the data stands for itself); a match is the tuple
    of facts it read, one per relational atom in body order, and the lists
    stay empty unless witnesses is true. With a dirty id set, only the
    matches on a row touching a dirty id are evaluated (see
    _Eval.solutions); each match is witnessed once."""
    ev = _Eval(body, ctx, e)
    picks = [ev.slot(t) for t in head]
    domain, n = e.domain, len(e.domain)
    extra = {i: c for c, i in ev.absent.items()}  # ids above the domain's
    found: dict[tuple[int, ...], list[tuple[Fact, ...]]] = {}
    seen: set[tuple[int, ...]] = set()
    facts = ctx.db.by_relation
    for ids, at in ev.solutions(dirty):
        wits = found.setdefault(tuple([ids[s] for s in picks]), [])
        # a match found again under another pin is witnessed once
        if witnesses and (rows := tuple(at)) not in seen:
            seen.add(rows)
            wits.append(tuple(
                facts[a.relation][r] for a, r in zip(body.rel_atoms, rows)
            ))
    return {
        tuple([domain[i] if i < n else extra[i] for i in ids]): ws
        for ids, ws in found.items()
    }


def merge_candidates(
    rule: Rule,
    ctx: Context,
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
) -> set[tuple[int, int]]:
    """Distinct-class entity answer pairs of a merge rule, as canonical id
    pairs (smaller id first). With a dirty id set, only from the matches on
    a row touching a dirty id (see _Eval.solutions)."""
    ev = _Eval(rule.body, ctx, e)
    x, y = map(ev.slot, rule.head)
    entities = ctx.db.entities
    out: set[tuple[int, int]] = set()
    for ids, _ in ev.solutions(dirty):
        i, j = ids[x], ids[y]
        if i != j and i < entities and j < entities:
            out.add((i, j) if i < j else (j, i))
    return out


def rule_satisfied(rule: Rule, ctx: Context, e: EqRel) -> bool:
    """True iff every answer pair of the rule is already within one class."""
    ev = _Eval(rule.body, ctx, e)
    x, y = map(ev.slot, rule.head)
    for ids, _ in ev.solutions():
        if ids[x] != ids[y]:
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


def matched_ids(
    body: RuleBody,
    ctx: Context,
    e: EqRel,
    dirty: AbstractSet[int] | None = None,
) -> Iterator[list[int]]:
    """For every body match over (ctx.db, e), the raw ids of the rows it
    reads, atom by atom. With a dirty id set, only for the matches on a row
    touching a dirty id (see _Eval.solutions)."""
    rows = ctx.db.rows
    for _, at in _Eval(body, ctx, e).solutions(dirty):
        yield [
            i for a, r in zip(body.rel_atoms, at) for i in rows[a.relation][r]
        ]
