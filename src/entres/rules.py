"""Specification language: schema declarations, merge rules, denial constraints.

The surface syntax is line-oriented with `;`-terminated statements and `#`
comments:

    relation Band(bid:id, name:short, genre:short, year:val, founder:val) merge [bid];
    sim approx: table;
    hard rho "similar names and genres, same founder and year":
        Band(x,n,g,d,f), Band(y,n2,g2,d,f), sim(n,n2)>=95, sim(g,g2)>=95 => eq(x,y);
    soft sigma: Song(x,t,l,b), Song(y,t2,l,b), sim(t,t2)>=95 ~> eq(x,y);
    deny d1: Appear(s,a,i), Appear(s,a,j), i != j;

Attribute hints: `id` marks entity-reference columns (merge candidates),
`num`/`short`/`long` drive similarity-function routing (edit distance,
Jaro-Winkler, TF-IDF cosine respectively), `val` is a plain value.
Terms: lowercase identifiers are variables, quoted strings and numbers are
value constants, `@name` is an entity-reference constant. Hard rules (`=>`)
force merges, soft rules (`~>`) permit them, `deny` bodies must never match.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    SpecError,
    SpecSyntaxError,
    SpecValidationError,
    UnknownRelation,
    UnknownSimFunction,
    UnsafeHeadVariable,
    decode_guard,
)
from .model import Constant, Kind, entity, value

# ---------------------------------------------------------------- AST types


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[Var, Constant]


@dataclass(frozen=True, slots=True)
class RelAtom:
    relation: str
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(map(repr, self.args))})"


@dataclass(frozen=True, slots=True)
class SimAtom:
    """sim[:func](left, right) >= threshold, threshold in fixed-point
    hundredths (9500 means 95.00)."""

    left: Term
    right: Term
    threshold: int
    func_name: str | None  # as written; None when auto-routed
    func_id: str = ""      # resolved id, filled during validation
    backend: str = ""      # one of lev, jw, tfidf, table

    def __repr__(self) -> str:
        f = f":{self.func_name}" if self.func_name else ""
        return f"sim{f}({self.left!r}, {self.right!r})>={self.threshold}"


@dataclass(frozen=True, slots=True)
class NeqAtom:
    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"


@dataclass(frozen=True, slots=True)
class RuleBody:
    rel_atoms: tuple[RelAtom, ...]
    sim_atoms: tuple[SimAtom, ...] = ()
    neq_atoms: tuple[NeqAtom, ...] = ()


class RuleKind(Enum):
    HARD = "hard"
    SOFT = "soft"


@dataclass(frozen=True, slots=True)
class Rule:
    kind: RuleKind
    label: str
    body: RuleBody
    head: tuple[Term, Term]
    description: str | None = None
    # set on derived candidate-collection rules only: the similarity
    # function whose argument pairs this rule gathers
    sim_func: str | None = None


@dataclass(frozen=True, slots=True)
class DenialConstraint:
    label: str
    body: RuleBody
    description: str | None = None


@dataclass(frozen=True, slots=True)
class RelationDecl:
    name: str
    attributes: tuple[str, ...]
    hints: tuple[str, ...]           # per attribute: id, short, long, num, val
    merge_positions: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.attributes)

    def position(self, attribute: str) -> int:
        return self.attributes.index(attribute)


@dataclass(frozen=True, slots=True)
class SimDecl:
    name: str
    backend: str  # lev, jw, tfidf, table


@dataclass(frozen=True, slots=True)
class Schema:
    relations: tuple[RelationDecl, ...]

    def decl(self, name: str) -> RelationDecl | None:
        for r in self.relations:
            if r.name == name:
                return r
        return None

    def merge_positions(self) -> frozenset[tuple[str, int]]:
        return frozenset(
            (r.name, p) for r in self.relations for p in r.merge_positions
        )


@dataclass(frozen=True, slots=True)
class Specification:
    schema: Schema
    hard: tuple[Rule, ...] = ()
    soft: tuple[Rule, ...] = ()
    dcs: tuple[DenialConstraint, ...] = ()
    sim_decls: tuple[SimDecl, ...] = ()

    def all_rules(self) -> tuple[Rule, ...]:
        return self.hard + self.soft

    def rule_by_label(self, label: str) -> Rule | None:
        for r in self.all_rules():
            if r.label == label:
                return r
        return None


# ------------------------------------------------------------ body helpers


@lru_cache(maxsize=None)
def join_vars(body: RuleBody) -> frozenset[Var]:
    """Variables with two or more occurrences among the relational atoms;
    these are the positions a Null binding must never flow through."""
    counts: dict[Var, int] = {}
    for atom in body.rel_atoms:
        for t in atom.args:
            if isinstance(t, Var):
                counts[t] = counts.get(t, 0) + 1
    return frozenset(v for v, n in counts.items() if n >= 2)


@lru_cache(maxsize=None)
def var_positions(body: RuleBody) -> dict[Var, tuple[tuple[str, int], ...]]:
    """Relational (relation, position) occurrences per variable."""
    occ: dict[Var, list[tuple[str, int]]] = {}
    for atom in body.rel_atoms:
        for i, t in enumerate(atom.args):
            if isinstance(t, Var):
                occ.setdefault(t, []).append((atom.relation, i))
    return {v: tuple(ps) for v, ps in occ.items()}


# ---------------------------------------------------------------- tokenizer

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<op>=>|~>|>=|!=)
    | (?P<punct>[()\[\],:;@])
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    """,
    re.VERBOSE,
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # op, punct, number, ident, string, eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    bol = 0  # offset of current line start
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - bol + 1
            )
        kind = m.lastgroup or ""
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, m.start() - bol + 1))
        nl = lexeme.count("\n")
        if nl:
            line += nl
            bol = m.start() + lexeme.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - bol + 1))
    return tokens


def _unquote(raw: str) -> str:
    out: list[str] = []
    i = 1
    while i < len(raw) - 1:
        ch = raw[i]
        if ch == "\\" and i + 1 < len(raw) - 1:
            out.append(_ESCAPES.get(raw[i + 1], raw[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _threshold_hundredths(tok: _Token) -> int:
    try:
        d = Decimal(tok.text)
    except InvalidOperation:
        raise SpecSyntaxError(f"bad threshold {tok.text!r}", tok.line, tok.col)
    if d < 0 or d > 100:
        raise SpecSyntaxError(
            f"threshold {tok.text} outside [0, 100]", tok.line, tok.col
        )
    scaled = d * 100
    if scaled != scaled.to_integral_value():
        raise SpecSyntaxError(
            f"threshold {tok.text} has more than two decimals", tok.line, tok.col
        )
    return int(scaled)


# ------------------------------------------------------------------- parser

_HINTS = ("id", "short", "long", "num", "val")
_BACKENDS = ("lev", "jw", "tfidf", "table")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def fail(self, msg: str, tok: _Token | None = None) -> SpecSyntaxError:
        tok = tok or self.peek()
        shown = tok.text or "end of input"
        return SpecSyntaxError(f"{msg} (found {shown!r})", tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise self.fail(f"expected {text or kind}")
        return self.next()

    def expect_ident(self, expected: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != "ident" or (expected and tok.text != expected):
            raise self.fail(f"expected {expected or 'identifier'}")
        return self.next()

    # -- statements --

    def parse(self) -> tuple[
        list[RelationDecl], list[SimDecl], list[Rule], list[DenialConstraint]
    ]:
        rels: list[RelationDecl] = []
        sims: list[SimDecl] = []
        rules: list[Rule] = []
        dcs: list[DenialConstraint] = []
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "ident":
                raise self.fail("expected statement keyword")
            if tok.text == "relation":
                rels.append(self.reldecl())
            elif tok.text == "sim":
                sims.append(self.simdecl())
            elif tok.text in ("hard", "soft"):
                rules.append(self.rule())
            elif tok.text == "deny":
                dcs.append(self.dc())
            else:
                raise self.fail(
                    "expected one of: relation, sim, hard, soft, deny"
                )
        return rels, sims, rules, dcs

    def reldecl(self) -> RelationDecl:
        self.expect_ident("relation")
        name = self.expect_ident().text
        self.expect("punct", "(")
        attrs: list[str] = []
        hints: list[str] = []
        while True:
            attr_tok = self.expect_ident()
            self.expect("punct", ":")
            hint_tok = self.expect_ident()
            if hint_tok.text not in _HINTS:
                raise self.fail(
                    f"unknown attribute hint {hint_tok.text!r}; "
                    f"expected one of {', '.join(_HINTS)}",
                    hint_tok,
                )
            attrs.append(attr_tok.text)
            hints.append(hint_tok.text)
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("punct", ")")
        merge: list[int] = []
        if self.peek().text == "merge":
            self.next()
            self.expect("punct", "[")
            while True:
                attr_tok = self.expect_ident()
                if attr_tok.text not in attrs:
                    raise self.fail(
                        f"merge attribute {attr_tok.text!r} not declared "
                        f"in relation {name}",
                        attr_tok,
                    )
                merge.append(attrs.index(attr_tok.text))
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect("punct", "]")
        self.expect("punct", ";")
        return RelationDecl(name, tuple(attrs), tuple(hints), tuple(merge))

    def simdecl(self) -> SimDecl:
        self.expect_ident("sim")
        name = self.expect_ident().text
        self.expect("punct", ":")
        backend_tok = self.expect_ident()
        if backend_tok.text not in _BACKENDS:
            raise self.fail(
                f"unknown sim backend {backend_tok.text!r}; "
                f"expected one of {', '.join(_BACKENDS)}",
                backend_tok,
            )
        self.expect("punct", ";")
        return SimDecl(name, backend_tok.text)

    def rule(self) -> Rule:
        kind = RuleKind(self.expect_ident().text)
        label = self.expect_ident().text
        description = None
        if self.peek().kind == "string":
            description = _unquote(self.next().text)
        self.expect("punct", ":")
        body, arrow = self.body(stop_at_arrow=True)
        if arrow is None:
            raise self.fail("expected => or ~> before rule head")
        if (arrow == "=>") != (kind is RuleKind.HARD):
            want = "=>" if kind is RuleKind.HARD else "~>"
            raise self.fail(f"{kind.value} rule must use {want}")
        self.expect_ident("eq")
        self.expect("punct", "(")
        x = self.term()
        self.expect("punct", ",")
        y = self.term()
        self.expect("punct", ")")
        self.expect("punct", ";")
        return Rule(kind, label, body, (x, y), description)

    def dc(self) -> DenialConstraint:
        self.expect_ident("deny")
        label = self.expect_ident().text
        description = None
        if self.peek().kind == "string":
            description = _unquote(self.next().text)
        self.expect("punct", ":")
        body, arrow = self.body(stop_at_arrow=False)
        self.expect("punct", ";")
        return DenialConstraint(label, body, description)

    def body(
        self, stop_at_arrow: bool
    ) -> tuple[RuleBody, str | None]:
        rel: list[RelAtom] = []
        sim: list[SimAtom] = []
        neq: list[NeqAtom] = []
        arrow: str | None = None
        while True:
            self.atom(rel, sim, neq)
            tok = self.peek()
            if tok.text == ",":
                self.next()
                continue
            if stop_at_arrow and tok.text in ("=>", "~>"):
                arrow = self.next().text
            break
        return RuleBody(tuple(rel), tuple(sim), tuple(neq)), arrow

    def atom(
        self,
        rel: list[RelAtom],
        sim: list[SimAtom],
        neq: list[NeqAtom],
    ) -> None:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "sim" and self.peek(1).text in (":", "("):
            sim.append(self.sim_atom())
            return
        if tok.kind == "ident" and self.peek(1).text == "(":
            rel.append(self.rel_atom())
            return
        # otherwise an inequality atom: term != term
        left = self.term()
        self.expect("op", "!=")
        right = self.term()
        neq.append(NeqAtom(left, right))

    def rel_atom(self) -> RelAtom:
        name = self.expect_ident().text
        self.expect("punct", "(")
        args = [self.term()]
        while self.peek().text == ",":
            self.next()
            args.append(self.term())
        self.expect("punct", ")")
        return RelAtom(name, tuple(args))

    def sim_atom(self) -> SimAtom:
        self.expect_ident("sim")
        func = None
        if self.peek().text == ":":
            self.next()
            func = self.expect_ident().text
        self.expect("punct", "(")
        left = self.term()
        self.expect("punct", ",")
        right = self.term()
        self.expect("punct", ")")
        self.expect("op", ">=")
        thr = _threshold_hundredths(self.expect("number"))
        return SimAtom(left, right, thr, func)

    def term(self) -> Term:
        tok = self.peek()
        if tok.text == "@":
            self.next()
            name = self.next()
            if name.kind == "ident":
                return entity(name.text)
            if name.kind == "string":
                return entity(_unquote(name.text))
            raise self.fail("expected entity name after @", name)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "string":
            self.next()
            return value(_unquote(tok.text))
        if tok.kind == "number":
            self.next()
            return value(tok.text)
        raise self.fail("expected a term")


# --------------------------------------------------------------- validation

_HINT_BACKEND = {
    "num": "lev",
    "short": "jw",
    "long": "tfidf",
    # generic values and (sim-safety-violating) id columns fall back to
    # plain string comparison; safety problems surface via validate_sim_safety
    "val": "jw",
    "id": "jw",
}


def _check_atoms(owner: str, body: RuleBody, schema: Schema) -> None:
    for atom in body.rel_atoms:
        decl = schema.decl(atom.relation)
        if decl is None:
            raise UnknownRelation(f"{owner}: relation {atom.relation!r} not declared")
        if len(atom.args) != decl.arity:
            raise ArityMismatch(
                f"{owner}: {atom.relation} expects {decl.arity} arguments, "
                f"got {len(atom.args)}"
            )
    bound = {t for a in body.rel_atoms for t in a.args if isinstance(t, Var)}
    for satom in body.sim_atoms:
        for term in (satom.left, satom.right):
            if isinstance(term, Var) and term not in bound:
                raise SpecValidationError(
                    f"{owner}: similarity term ?{term.name} is not bound "
                    f"by any relational atom"
                )
    for natom in body.neq_atoms:
        for term in (natom.left, natom.right):
            if isinstance(term, Var) and term not in bound:
                raise SpecValidationError(
                    f"{owner}: inequality term ?{term.name} is not bound "
                    f"by any relational atom"
                )


def _resolve_sim_atom(
    owner: str,
    satom: SimAtom,
    body: RuleBody,
    schema: Schema,
    declared: dict[str, str],
) -> SimAtom:
    occ = var_positions(body)
    positions: list[tuple[str, int]] = []
    for term in (satom.left, satom.right):
        if isinstance(term, Var):
            positions.extend(occ.get(term, ()))
    poskey = "~".join(
        sorted({
            f"{rel}.{schema.decl(rel).attributes[i]}" for rel, i in positions
        })
    )
    if satom.func_name is None:
        hints = {
            schema.decl(rel).hints[i] for rel, i in positions
        } or {"val"}
        backends = {_HINT_BACKEND[h] for h in hints}
        if len(backends) > 1:
            raise SpecValidationError(
                f"{owner}: similarity atom spans attributes with conflicting "
                f"datatype hints ({', '.join(sorted(hints))}); "
                f"name a function explicitly with sim:func(...)"
            )
        backend = backends.pop()
        base = backend
    else:
        name = satom.func_name
        if name in _BACKENDS:
            backend = name
        else:
            backend = declared.get(name, "")
            if not backend:
                raise UnknownSimFunction(
                    f"{owner}: similarity function {name!r} is neither "
                    f"built in nor declared with a sim statement"
                )
        base = name
    func_id = f"{base}@{poskey}" if backend == "tfidf" else base
    return replace(satom, func_id=func_id, backend=backend)


def _validated_rule(rule: Rule, schema: Schema, declared: dict[str, str]) -> Rule:
    owner = f"rule {rule.label}"
    if not rule.body.rel_atoms:
        raise SpecValidationError(f"{owner}: body has no relational atoms")
    _check_atoms(owner, rule.body, schema)
    occ = var_positions(rule.body)
    merge_pos = schema.merge_positions()
    for hv in rule.head:
        if not isinstance(hv, Var):
            raise SpecValidationError(f"{owner}: head terms must be variables")
        if hv not in occ:
            raise UnsafeHeadVariable(
                f"{owner}: head variable ?{hv.name} does not occur in any "
                f"relational atom of the body"
            )
        if not any(p in merge_pos for p in occ[hv]):
            raise SpecValidationError(
                f"{owner}: head variable ?{hv.name} never occurs at a "
                f"declared merge position"
            )
    sim = tuple(
        _resolve_sim_atom(owner, s, rule.body, schema, declared)
        for s in rule.body.sim_atoms
    )
    return replace(rule, body=replace(rule.body, sim_atoms=sim))


def _validated_dc(dc: DenialConstraint, schema: Schema) -> DenialConstraint:
    owner = f"constraint {dc.label}"
    if not dc.body.rel_atoms:
        raise SpecValidationError(f"{owner}: body has no relational atoms")
    if dc.body.sim_atoms:
        raise SpecValidationError(
            f"{owner}: similarity atoms are not permitted in denial constraints"
        )
    _check_atoms(owner, dc.body, schema)
    return dc


def parse_spec(text: str) -> Specification:
    """Parse and validate specification source. Raises SpecSyntaxError with
    line/column on malformed input and semantic errors otherwise."""
    rels, sims, rules, dcs = _Parser(text).parse()

    seen_rel: set[str] = set()
    for r in rels:
        if r.name in seen_rel:
            raise SpecValidationError(f"relation {r.name!r} declared twice")
        seen_rel.add(r.name)
        if len(set(r.attributes)) != len(r.attributes):
            raise SpecValidationError(
                f"relation {r.name!r} has duplicate attribute names"
            )
    schema = Schema(tuple(rels))

    declared: dict[str, str] = {}
    for d in sims:
        if d.name in declared:
            raise SpecValidationError(f"sim function {d.name!r} declared twice")
        declared[d.name] = d.backend

    labels: set[str] = set()
    for label in [r.label for r in rules] + [d.label for d in dcs]:
        if label in labels:
            raise SpecValidationError(f"duplicate label {label!r}")
        labels.add(label)

    hard: list[Rule] = []
    soft: list[Rule] = []
    for rule in rules:
        checked = _validated_rule(rule, schema, declared)
        (hard if rule.kind is RuleKind.HARD else soft).append(checked)
    checked_dcs = tuple(_validated_dc(dc, schema) for dc in dcs)

    return Specification(
        schema, tuple(hard), tuple(soft), checked_dcs, tuple(sims)
    )


def load_spec(path: str) -> Specification:
    try:
        with open(path, encoding="utf-8") as fh, decode_guard(path, SpecError):
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"{path}: {exc.strerror}") from None
    return parse_spec(text)


# ----------------------------------------------------------- safety checks


@dataclass(frozen=True, slots=True)
class SimSafetyViolation:
    rule_label: str
    relation: str
    attribute: str

    def __str__(self) -> str:
        return (
            f"rule {self.rule_label}: similarity atom reads "
            f"{self.relation}.{self.attribute}, which is a merge position"
        )


def validate_sim_safety(spec: Specification) -> list[SimSafetyViolation]:
    """Empty iff no (relation, position) is used both as a merge position
    and by a similarity atom."""
    merge_pos = spec.schema.merge_positions()
    out: list[SimSafetyViolation] = []
    seen: set[tuple[str, str, int]] = set()
    for rule in spec.all_rules():
        occ = var_positions(rule.body)
        for satom in rule.body.sim_atoms:
            for term in (satom.left, satom.right):
                if not isinstance(term, Var):
                    continue
                for rel, i in occ.get(term, ()):
                    if (rel, i) in merge_pos and (rule.label, rel, i) not in seen:
                        seen.add((rule.label, rel, i))
                        decl = spec.schema.decl(rel)
                        out.append(
                            SimSafetyViolation(rule.label, rel, decl.attributes[i])
                        )
    return out


# ----------------------------------------------------------------- analysis


@dataclass(frozen=True, slots=True)
class Analysis:
    """What the fixpoints and the search need to know of a specification,
    decided by one property of its bodies.

    A body is merge-monotone when none of its inequalities can turn false
    as classes grow, that is when no operand is an entity constant or a
    variable read from an id column. A match of such a body persists under
    further merges (up to canonical ids): a rule answer stays an answer,
    and a constraint violation persists in a whole search subtree. breaks
    maps the label of every other rule and constraint to its first
    inequality that is not monotone and why.

    lb:        the monotone hard rules; every solution applies them.
    promoted:  every rule as hard, the chain of levels and proof trees.
    ub:        promoted without its non-monotone inequalities. Each rule
               answers at least what it did, at every state, and its
               answers persist, so its fixpoint holds every solution.
    loose_ub:  ub without similarity atoms.
    eager:     every rule is monotone, so the search hard-saturates after
               each step: no hard merge can disable a pending answer.
    branching: the rules the search applies one answer at a time: the soft
               ones, and the hard ones too unless eager. One without a
               break reuses its parent's candidates.
    pruning:   the monotone constraints, checked on the way down;
    checked:   the others, checked once a state's subtree is done.
    """

    breaks: Mapping[str, tuple[NeqAtom, str]]
    lb: tuple[Rule, ...]
    promoted: tuple[Rule, ...]
    ub: tuple[Rule, ...]
    loose_ub: tuple[Rule, ...]
    eager: bool
    branching: tuple[Rule, ...]
    pruning: tuple[DenialConstraint, ...]
    checked: tuple[DenialConstraint, ...]

    @property
    def splits(self) -> bool:
        """Every body is monotone, so each state the search keeps is a
        solution and the solutions are a product of independent parts'."""
        return self.eager and not self.checked


def _unstable(
    natom: NeqAtom,
    occ: dict[Var, tuple[tuple[str, int], ...]],
    schema: Schema,
) -> str | None:
    """Why the inequality can turn false as classes grow, or None."""
    terms = (natom.left, natom.right)
    for term in terms:
        if isinstance(term, Constant) and term.is_entity():
            return f"compares with entity constant {term!r}"
    for term in terms:
        for rel, pos in occ.get(term, ()):
            decl = schema.decl(rel)
            if decl.hints[pos] == "id":
                return f"reads reference column {rel}.{decl.attributes[pos]}"
    return None


@lru_cache(maxsize=None)
def analyse(spec: Specification) -> Analysis:
    """The specification's Analysis, computed once and shared, so its
    breaks are a read-only view."""
    breaks: dict[str, tuple[NeqAtom, str]] = {}
    ub: list[Rule] = []
    for owner in spec.all_rules() + spec.dcs:
        occ = var_positions(owner.body)
        keep = []
        for natom in owner.body.neq_atoms:
            why = _unstable(natom, occ, spec.schema)
            if why is None:
                keep.append(natom)
            else:
                breaks.setdefault(owner.label, (natom, why))
        if isinstance(owner, Rule):
            body = replace(owner.body, neq_atoms=tuple(keep))
            ub.append(replace(owner, kind=RuleKind.HARD, body=body))
    eager = not any(r.label in breaks for r in spec.all_rules())
    return Analysis(
        breaks=MappingProxyType(breaks),
        lb=tuple(r for r in spec.hard if r.label not in breaks),
        promoted=tuple(
            replace(r, kind=RuleKind.HARD) for r in spec.all_rules()
        ),
        ub=tuple(ub),
        loose_ub=tuple(
            replace(r, body=replace(r.body, sim_atoms=())) for r in ub
        ),
        eager=eager,
        branching=spec.soft if eager else spec.soft + spec.hard,
        pruning=tuple(d for d in spec.dcs if d.label not in breaks),
        checked=tuple(d for d in spec.dcs if d.label in breaks),
    )
