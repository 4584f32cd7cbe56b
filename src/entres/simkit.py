"""Similarity scoring: functions, score stores, resolvers, and the three
strategies for materializing similarity facts.

Scores are fixed-point hundredths in [0, 10000]. Three scoring functions are
built in (edit-distance ratio for numerals, Jaro-Winkler for short strings,
TF-IDF cosine for long text) plus table lookup from a user-supplied TSV
extension. Strategies:

  sim_all   score every type-compatible value pair per function;
  sim_cs    score only the cross-products of the column pairs named by
            rule similarity atoms;
  sim_opt   three phases: (1) run the upper-bound fixpoint with on-demand
            scoring, collecting every score the fixpoint actually probed
            and the overapproximating merge set U; (2) derive one
            candidate-collection rule per similarity atom; (3) evaluate
            those rules once under U and score the candidate pairs not
            already seen. Solutions computed from the resulting store match
            those computed from sim_all on sim-safe specifications.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import replace
from decimal import Decimal, InvalidOperation
from typing import Callable, Iterable, Iterator

from . import engine, kernels
from .errors import DataError, MissingSimScore
from .matcher import Context, answers
from .model import Constant, Database, Kind, MergePair
from .rules import Specification, Var, transform, var_positions

# ------------------------------------------------------------------- store


def _pair_key(a: Constant, b: Constant) -> tuple[Constant, Constant]:
    if a.kind is b.kind:  # every pair sim_all stores: order by text alone
        return (a, b) if a.text <= b.text else (b, a)
    return (a, b) if (a.kind.value, a.text) <= (b.kind.value, b.text) else (b, a)


class SimStore:
    """Symmetric score cache keyed by (function id, canonical constant
    pair), plus the number of scorer invocations spent filling it."""

    __slots__ = ("_scores", "calls")

    def __init__(self) -> None:
        self._scores: dict[tuple[str, Constant, Constant], int] = {}
        self.calls = 0

    def get(self, func: str, a: Constant, b: Constant) -> int | None:
        return self._scores.get((func, *_pair_key(a, b)))

    def put(self, func: str, a: Constant, b: Constant, score: int) -> None:
        self._scores[(func, *_pair_key(a, b))] = score

    def __len__(self) -> int:
        return len(self._scores)

    def __iter__(self) -> Iterator[tuple[str, Constant, Constant]]:
        return iter(sorted(
            self._scores,
            key=lambda k: (k[0], k[1].text, k[2].text),
        ))

    def funcs(self) -> list[str]:
        return sorted({f for f, _, _ in self._scores})

    def rows(self, func: str) -> list[tuple[Constant, Constant, int]]:
        out = [
            (a, b, s)
            for (f, a, b), s in self._scores.items()
            if f == func
        ]
        out.sort(key=lambda r: (r[0].text, r[1].text))
        return out

    def key_set(self) -> frozenset[tuple[str, Constant, Constant]]:
        return frozenset(self._scores)

    def __repr__(self) -> str:
        return f"SimStore({len(self._scores)} scores, {self.calls} calls)"


# --------------------------------------------------------------- functions


def _tokenize(text: str) -> list[str]:
    return [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]


class TfidfModel:
    """TF-IDF cosine over a fixed corpus of values.

    idf = ln((1+N)/(1+df)) + 1 over the distinct corpus values; vectors are
    L2-normalized raw-count tf times idf."""

    def __init__(self, corpus: Iterable[str]):
        docs = sorted(set(corpus))
        self._n = len(docs)
        df: Counter[str] = Counter()
        for doc in docs:
            df.update(set(_tokenize(doc)))
        self._idf = {
            tok: math.log((1 + self._n) / (1 + d)) + 1.0
            for tok, d in df.items()
        }

    def _idf_of(self, tok: str) -> float:
        got = self._idf.get(tok)
        if got is None:
            return math.log(float(1 + self._n)) + 1.0
        return got

    def vector(self, text: str) -> dict[str, float]:
        tf = Counter(_tokenize(text))
        vec = {tok: cnt * self._idf_of(tok) for tok, cnt in tf.items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if norm == 0.0:
            return {}
        return {tok: w / norm for tok, w in vec.items()}

    def score(self, a: str, b: str) -> int:
        if a == b:
            return 10000
        va, vb = self.vector(a), self.vector(b)
        if len(vb) < len(va):
            va, vb = vb, va
        dot = 0.0
        for tok in sorted(va):
            w = vb.get(tok)
            if w is not None:
                dot += va[tok] * w
        return int(dot * 10000.0 + 0.5)


class SimTable:
    """Score lookup loaded from a TSV extension (a TAB b TAB score with the
    score in 0..100, at most two decimals). Symmetric closure is applied on
    load; reflexive pairs score 10000 implicitly; missing pairs score 0."""

    __slots__ = ("_scores",)

    def __init__(self, scores: dict[tuple[str, str], int] | None = None):
        self._scores: dict[tuple[str, str], int] = {}
        for (a, b), s in (scores or {}).items():
            self._scores[(a, b) if a <= b else (b, a)] = s

    @classmethod
    def load(cls, path: str) -> "SimTable":
        scores: dict[tuple[str, str], int] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                cells = line.split("\t")
                if len(cells) != 3:
                    raise DataError(
                        f"{path}:{lineno}: expected 3 tab-separated cells, "
                        f"got {len(cells)}"
                    )
                a, b, raw = cells
                try:
                    d = Decimal(raw)
                except InvalidOperation:
                    raise DataError(
                        f"{path}:{lineno}: bad score {raw!r}"
                    ) from None
                scaled = d * 100
                if d < 0 or d > 100 or scaled != scaled.to_integral_value():
                    raise DataError(
                        f"{path}:{lineno}: score {raw} outside 0..100 "
                        f"or finer than two decimals"
                    )
                key = (a, b) if a <= b else (b, a)
                scores[key] = int(scaled)
        return cls(scores)

    def score(self, a: str, b: str) -> int:
        if a == b:
            return 10000
        return self._scores.get((a, b) if a <= b else (b, a), 0)

    def items(self) -> list[tuple[str, str, int]]:
        return sorted((a, b, s) for (a, b), s in self._scores.items())

    def __len__(self) -> int:
        return len(self._scores)


# ---------------------------------------------------------------- registry

Scorer = Callable[[str, str], int]


def _hinted_positions(spec: Specification, hints: set[str]) -> set[tuple[str, int]]:
    return {
        (r.name, i)
        for r in spec.schema.relations
        for i, h in enumerate(r.hints)
        if h in hints
    }


def sim_functions(
    spec: Specification,
) -> dict[str, tuple[str, frozenset[tuple[str, int]]]]:
    """func id -> (backend, positions its atoms read), across all rules."""
    backends: dict[str, str] = {}
    positions: dict[str, set[tuple[str, int]]] = {}
    for rule in spec.all_rules():
        occ = var_positions(rule.body)
        for satom in rule.body.sim_atoms:
            backends[satom.func_id] = satom.backend
            pos = positions.setdefault(satom.func_id, set())
            for term in (satom.left, satom.right):
                if isinstance(term, Var):
                    pos.update(occ.get(term, ()))
    return {
        f: (backends[f], frozenset(positions[f])) for f in sorted(backends)
    }


def build_registry(
    spec: Specification,
    db: Database,
    table: SimTable | None = None,
) -> dict[str, Scorer]:
    """Concrete scorer per similarity function id. TF-IDF models are built
    over the values of the function's own column set; table-backed
    functions require the loaded extension."""
    registry: dict[str, Scorer] = {}
    for func_id, (backend, positions) in sim_functions(spec).items():
        if backend == "lev":
            registry[func_id] = kernels.lev_score
        elif backend == "jw":
            registry[func_id] = kernels.jw_score
        elif backend == "tfidf":
            corpus = [c.text for c in _position_values(db, positions)]
            registry[func_id] = TfidfModel(corpus).score
        elif backend == "table":
            if table is None:
                raise MissingSimScore(
                    f"function {func_id!r} is table-backed but no "
                    f"similarity table was supplied"
                )
            registry[func_id] = table.score
    return registry


def _position_values(
    db: Database, positions: Iterable[tuple[str, int]]
) -> list[Constant]:
    wanted: dict[str, set[int]] = {}
    for rel, pos in positions:
        wanted.setdefault(rel, set()).add(pos)
    out: set[Constant] = set()
    for rel, cols in wanted.items():
        for fact in db.by_relation.get(rel, ()):
            for i in cols:
                c = fact.args[i]
                if c.kind is Kind.VALUE:
                    out.add(c)
    return sorted(out, key=lambda c: c.text)


# --------------------------------------------------------------- resolvers


class StrictResolver:
    """Serve scores from a fixed store; a probe the store has never seen is
    an error. Reflexive probes are answered 10000 and probes touching the
    null constant 0, neither consulting the store."""

    __slots__ = ("store",)

    def __init__(self, store: SimStore):
        self.store = store

    def score(self, func: str, a: Constant, b: Constant) -> int:
        if a == b:
            return 10000
        if a.is_null() or b.is_null():
            return 0
        got = self.store.get(func, a, b)
        if got is None:
            raise MissingSimScore(f"{func}({a.text!r}, {b.text!r})")
        return got


class OnDemandResolver:
    """Serve from the store, computing and recording misses through the
    registry; every computation counts one scorer call."""

    __slots__ = ("store", "registry")

    def __init__(self, store: SimStore, registry: dict[str, Scorer]):
        self.store = store
        self.registry = registry

    def score(self, func: str, a: Constant, b: Constant) -> int:
        if a == b:
            return 10000
        if a.is_null() or b.is_null():
            return 0
        got = self.store.get(func, a, b)
        if got is None:
            scorer = self.registry.get(func)
            if scorer is None:
                raise MissingSimScore(
                    f"no scorer registered for function {func!r}"
                )
            got = scorer(a.text, b.text)
            self.store.put(func, a, b, got)
            self.store.calls += 1
        return got


class TableResolver:
    """Answer every function from one lookup table; total (missing pairs
    and null operands score 0), so it never raises."""

    __slots__ = ("table",)

    def __init__(self, table: SimTable):
        self.table = table

    def score(self, func: str, a: Constant, b: Constant) -> int:
        if a.is_null() or b.is_null():
            return 0
        return self.table.score(a.text, b.text)


# -------------------------------------------------------------- strategies


def sim_all(
    db: Database,
    spec: Specification,
    registry: dict[str, Scorer] | None = None,
) -> SimStore:
    """Score every type-compatible value pair (reflexive included) for each
    similarity function the specification mentions, counting the value
    constants its atoms take as operands among the values."""
    registry = build_registry(spec, db) if registry is None else registry
    # the value constants each function's atoms take as operands (given no
    # positions, a variable contributes nothing: its columns are counted
    # through the function's positions below)
    operands: dict[str, set[Constant]] = {}
    for rule in spec.all_rules():
        for satom in rule.body.sim_atoms:
            for term in (satom.left, satom.right):
                operands.setdefault(satom.func_id, set()).update(
                    _atom_side_values(db, {}, term)
                )
    store = SimStore()
    for func_id, (backend, positions) in sim_functions(spec).items():
        scorer = registry.get(func_id)
        if scorer is None:
            continue
        compatible: set[tuple[str, int]] = set(positions)
        if func_id == "lev":
            compatible |= _hinted_positions(spec, {"num"})
        elif func_id == "jw":
            compatible |= _hinted_positions(spec, {"short", "val"})
        values = sorted(
            operands[func_id].union(_position_values(db, compatible)),
            key=lambda c: c.text,
        )
        for i, a in enumerate(values):
            text = a.text
            for b in values[i:]:
                store.put(func_id, a, b, scorer(text, b.text))
                store.calls += 1
    return store


def _atom_side_values(
    db: Database,
    body_occ: dict[Var, tuple[tuple[str, int], ...]],
    term,
) -> list[Constant]:
    if isinstance(term, Var):
        return _position_values(db, body_occ.get(term, ()))
    return [term] if term.kind is Kind.VALUE else []


def sim_cs(
    db: Database,
    spec: Specification,
    registry: dict[str, Scorer] | None = None,
) -> SimStore:
    """Score the cross-products of the column pairs named by each rule's
    similarity atoms, each pair once per function."""
    registry = build_registry(spec, db) if registry is None else registry
    store = SimStore()
    for rule in spec.all_rules():
        occ = var_positions(rule.body)
        for satom in rule.body.sim_atoms:
            scorer = registry.get(satom.func_id)
            if scorer is None:
                continue
            left = _atom_side_values(db, occ, satom.left)
            right = _atom_side_values(db, occ, satom.right)
            for a in left:
                for b in right:
                    if store.get(satom.func_id, a, b) is None:
                        store.put(satom.func_id, a, b, scorer(a.text, b.text))
                        store.calls += 1
    return store


def sim_opt(
    ctx: Context,
    registry: dict[str, Scorer] | None = None,
) -> tuple[SimStore, frozenset[MergePair]]:
    """Three-phase optimized materialization. Returns the score store and
    the overapproximating merge set U (exactly the ub fixpoint's merges).
    The context's own resolver is not consulted."""
    registry = build_registry(ctx.spec, ctx.db) if registry is None else registry
    store = SimStore()
    resolver = OnDemandResolver(store, registry)

    # phase 1: upper-bound fixpoint with on-demand external calls
    e_ub = engine.ub(replace(ctx, sims=resolver))

    # phase 2: one candidate-collection rule per similarity atom
    derived = transform(ctx.spec, "sim_phase2")

    # phase 3: evaluate once under the overapproximation, score the misses
    unscored = replace(ctx, sims=None)
    for rule in derived.hard:
        ans = answers(rule.body, rule.head, unscored, e_ub, expand=False)
        for a, b in sorted(ans.rep_tuples, key=lambda t: (t[0].text, t[1].text)):
            if a == b or a.is_null() or b.is_null():
                continue
            assert rule.sim_func is not None
            resolver.score(rule.sim_func, a, b)

    return store, e_ub.nontrivial_pairs()
