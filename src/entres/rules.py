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
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Union

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
from .model import Constant, Record, entity, value

# ---------------------------------------------------------------- AST types


class Var(Record):
    __slots__ = ("name",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Var:
            return NotImplemented
        return self.name == other.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Union[Var, Constant]


class RelAtom(Record):
    __slots__ = ("relation", "args")

    def __repr__(self) -> str:
        return f"{self.relation}({', '.join(map(repr, self.args))})"


class SimAtom(Record):
    """sim[:func](left, right) >= threshold, threshold in fixed-point
    hundredths (9500 means 95.00). func_name is the function as written
    (None when auto-routed); validation fills in func_id, the resolved id,
    and backend, one of lev, jw, tfidf, table."""

    __slots__ = ("left", "right", "threshold", "func_name", "func_id", "backend")
    _defaults = {"func_id": "", "backend": ""}

    def __repr__(self) -> str:
        f = f":{self.func_name}" if self.func_name else ""
        return f"sim{f}({self.left!r}, {self.right!r})>={self.threshold}"


class NeqAtom(Record):
    __slots__ = ("left", "right")

    def __repr__(self) -> str:
        return f"{self.left!r} != {self.right!r}"


class RuleBody(Record):
    __slots__ = ("rel_atoms", "sim_atoms", "neq_atoms")
    _defaults = {"sim_atoms": (), "neq_atoms": ()}


class RuleKind(Enum):
    HARD = "hard"
    SOFT = "soft"


class Rule(Record):
    __slots__ = ("kind", "label", "body", "head", "description")
    _defaults = {"description": None}


class DenialConstraint(Record):
    __slots__ = ("label", "body", "description")
    _defaults = {"description": None}


class RelationDecl(Record):
    # hints, per attribute: id, short, long, num, val
    __slots__ = ("name", "attributes", "hints", "merge_positions")

    @property
    def arity(self) -> int:
        return len(self.attributes)


class SimDecl(Record):
    __slots__ = ("name", "backend")  # backend: lev, jw, tfidf, table


class Schema(Record):
    __slots__ = ("relations",)

    def decl(self, name: str) -> RelationDecl | None:
        for r in self.relations:
            if r.name == name:
                return r
        return None

    def merge_positions(self) -> frozenset[tuple[str, int]]:
        return frozenset(
            (r.name, p) for r in self.relations for p in r.merge_positions
        )


class Specification(Record):
    __slots__ = ("schema", "hard", "soft", "dcs", "sim_decls")
    _defaults = {"hard": (), "soft": (), "dcs": (), "sim_decls": ()}

    def all_rules(self) -> tuple[Rule, ...]:
        return self.hard + self.soft

    def rule_by_label(self, label: str) -> Rule | None:
        for r in self.all_rules():
            if r.label == label:
                return r
        return None


# ------------------------------------------------------------ body helpers


@lru_cache(maxsize=None)
def occurrences(body: RuleBody) -> Mapping[Var, tuple[tuple[int, int], ...]]:
    """Per variable, its (atom index, position) occurrences among the
    relational atoms in body order, the variables in order of first
    occurrence. A variable with two or more is a join variable, which a
    Null binding must never flow through. Computed once per equal body and
    shared, so read-only."""
    occ: dict[Var, list[tuple[int, int]]] = {}
    for ai, atom in enumerate(body.rel_atoms):
        for pos, t in enumerate(atom.args):
            if isinstance(t, Var):
                occ.setdefault(t, []).append((ai, pos))
    return MappingProxyType({v: tuple(ps) for v, ps in occ.items()})


def var_positions(body: RuleBody) -> dict[Var, tuple[tuple[str, int], ...]]:
    """Relational (relation, position) occurrences per variable."""
    atoms = body.rel_atoms
    return {
        v: tuple((atoms[ai].relation, pos) for ai, pos in ps)
        for v, ps in occurrences(body).items()
    }


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
    re.VERBOSE | re.ASCII,  # \d matches the digits 0-9 only
)

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class _Token(Record):
    # kind: op, punct, number, ident, string, eof
    __slots__ = ("kind", "text", "line", "col")


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


def hundredths(text: str, what: str) -> int:
    """A percentage in 0..100 with at most two decimals, written as ASCII
    digits with an optional fraction (the specification's number token),
    in hundredths (95.5 -> 9550). A ValueError names the `what` and the
    text."""
    whole, dot, frac = text.partition(".")
    if not (text.isascii() and whole.isdigit() and (frac.isdigit() or not dot)):
        raise ValueError(f"bad {what} {text!r}")
    whole, frac = whole.lstrip("0"), frac.rstrip("0")
    if len(whole) > 3 or int(whole or "0") + (frac != "") > 100:
        raise ValueError(f"{what} {text} outside [0, 100]")
    if len(frac) > 2:
        raise ValueError(f"{what} {text} has more than two decimals")
    return int(whole or "0") * 100 + int(frac.ljust(2, "0"))


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
        tok = self.expect("number")
        try:
            thr = hundredths(tok.text, "threshold")
        except ValueError as exc:
            raise SpecSyntaxError(str(exc), tok.line, tok.col) from None
        return SimAtom(left, right, thr, func)

    def term(self) -> Term:
        tok = self.peek()
        if tok.text == "@":
            self.next()
            name = self.next()
            if name.kind == "ident":
                return entity(name.text)
            if name.kind == "string":
                return entity(self.constant_text(name))
            raise self.fail("expected entity name after @", name)
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "string":
            self.next()
            return value(self.constant_text(tok))
        if tok.kind == "number":
            self.next()
            return value(tok.text)
        raise self.fail("expected a term")

    def constant_text(self, tok: _Token) -> str:
        """A quoted constant's text, which tab-separated outputs hold."""
        text = _unquote(tok.text)
        if "\t" in text or "\n" in text or "\r" in text:
            raise self.fail(
                "quoted constant holds a tab or a line break, which "
                "tab-separated output cannot hold", tok
            )
        return text


# --------------------------------------------------------------- validation

#: the backend a bare `sim(...)` atom calls, by the hint of the columns it
#: reads; `simkit.sim_all` scores those columns' values under it too
HINT_BACKEND = {
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
        backends = {HINT_BACKEND[h] for h in hints}
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
    return satom.replace(func_id=func_id, backend=backend)


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
    return rule.replace(body=rule.body.replace(sim_atoms=sim))


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


class SimSafetyViolation(Record):
    __slots__ = ("rule_label", "relation", "attribute")


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


class Analysis(Record):
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

    __slots__ = (
        "breaks", "lb", "promoted", "ub", "loose_ub", "eager", "branching",
        "pruning", "checked",
    )

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
            body = owner.body.replace(neq_atoms=tuple(keep))
            ub.append(owner.replace(kind=RuleKind.HARD, body=body))
    eager = not any(r.label in breaks for r in spec.all_rules())
    return Analysis(
        breaks=MappingProxyType(breaks),
        lb=tuple(r for r in spec.hard if r.label not in breaks),
        promoted=tuple(
            r.replace(kind=RuleKind.HARD) for r in spec.all_rules()
        ),
        ub=tuple(ub),
        loose_ub=tuple(
            r.replace(body=r.body.replace(sim_atoms=())) for r in ub
        ),
        eager=eager,
        branching=spec.soft if eager else spec.soft + spec.hard,
        pruning=tuple(d for d in spec.dcs if d.label not in breaks),
        checked=tuple(d for d in spec.dcs if d.label in breaks),
    )
