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
            and the overapproximating merge set U; (2) per similarity
            atom, take its rule's body without similarity atoms; (3)
            evaluate that body once under U and score the atom's term
            pairs not already seen. Solutions computed from the resulting
            store match those computed from sim_all on sim-safe
            specifications.
"""

from __future__ import annotations

import heapq
import math
import re
from array import array
from collections import Counter
from itertools import groupby, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from . import engine
from .errors import DataError, MissingFile, MissingSimScore, decode_guard
from .matcher import Context, answers
from .model import Database, EqRel, Kind
from .rules import HINT_BACKEND, Specification, Var, hundredths, var_positions

# ------------------------------------------------------------------- store


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class _Triangle:
    """One function's scores of every pair drawn from a sorted list of
    distinct texts, reflexive pairs included: row i holds the scores of
    texts[i] against texts[i:], each in 0..10000, so walking the rows in
    order yields the pairs in (left, right) order."""

    __slots__ = ("texts", "index", "rows")

    def __init__(self, texts: list[str], rows: list[array]):
        self.texts = texts
        self.index = {t: i for i, t in enumerate(texts)}
        self.rows = rows

    def get(self, a: str, b: str) -> int | None:
        i, j = self.index.get(a), self.index.get(b)
        if i is None or j is None:
            return None
        return self.rows[i][j - i] if i <= j else self.rows[j][i - j]

    def __len__(self) -> int:
        return len(self.texts) * (len(self.texts) + 1) // 2

    def __iter__(self) -> Iterator[tuple[str, str, int]]:
        texts = self.texts
        for i, row in enumerate(self.rows):
            yield from zip(repeat(texts[i]), texts[i:], row)

    def groups(self) -> Iterator[tuple[str, Iterator[tuple[str, int]]]]:
        """Each row as texts[i] and its (right text, score) pairs."""
        texts = self.texts
        for i, row in enumerate(self.rows):
            yield texts[i], zip(texts[i:], row)


class SimStore:
    """Symmetric score cache keyed by (function id, text pair in text
    order), plus the number of scorer invocations spent filling it.

    `sim_all` stores each function's scores as one `_Triangle`; `get` reads
    a function's triangle first and then the pair dict that `put` fills, so
    `put` serves the pairs no triangle holds."""

    __slots__ = ("_scores", "_tables", "calls")

    def __init__(self) -> None:
        self._scores: dict[tuple[str, str, str], int] = {}
        self._tables: dict[str, _Triangle] = {}
        self.calls = 0

    def get(self, func: str, a: str, b: str) -> int | None:
        table = self._tables.get(func)
        if table is not None:
            got = table.get(a, b)
            if got is not None:
                return got
        return self._scores.get((func, *_pair_key(a, b)))

    def put(self, func: str, a: str, b: str, score: int) -> None:
        self._scores[(func, *_pair_key(a, b))] = score

    def __len__(self) -> int:
        return len(self._scores) + sum(map(len, self._tables.values()))

    def _keys(self) -> Iterator[tuple[str, str, str]]:
        yield from self._scores
        for func, table in self._tables.items():
            for a, b, _ in table:
                yield func, a, b

    def __iter__(self) -> Iterator[tuple[str, str, str]]:
        return iter(sorted(self._keys()))

    def funcs(self) -> list[str]:
        return sorted({f for f, _, _ in self._scores}.union(self._tables))

    def walk(
        self, func: str
    ) -> Iterator[tuple[str, Iterable[tuple[str, int]]]]:
        """One function's scores, one left text at a time in text order:
        the left text and its (right text, score) pairs in text order. A
        lone triangle yields its rows in place, unsorted; the pairs `put`
        stored are sorted and merged in."""
        table = self._tables.get(func)
        loose = sorted(
            (a, b, s) for (f, a, b), s in self._scores.items() if f == func
        )
        if not loose:
            return iter(()) if table is None else table.groups()
        merged = heapq.merge(table or (), loose)
        return (
            (a, [(b, s) for _, b, s in row])
            for a, row in groupby(merged, itemgetter(0))
        )

    def rows(self, func: str) -> list[tuple[str, str, int]]:
        return [(a, b, s) for a, pairs in self.walk(func) for b, s in pairs]

    def key_set(self) -> frozenset[tuple[str, str, str]]:
        return frozenset(self._keys())

    def __repr__(self) -> str:
        return f"SimStore({len(self)} scores, {self.calls} calls)"


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
        self._vectors: dict[str, dict[str, float]] = {}

    def _idf_of(self, tok: str) -> float:
        got = self._idf.get(tok)
        if got is None:
            return math.log(float(1 + self._n)) + 1.0
        return got

    def vector(self, text: str) -> dict[str, float]:
        """text's vector, built once per distinct text (do not mutate it)."""
        got = self._vectors.get(text)
        if got is not None:
            return got
        tf = Counter(_tokenize(text))
        vec = {tok: cnt * self._idf_of(tok) for tok, cnt in tf.items()}
        norm = math.sqrt(sum(w * w for w in vec.values()))
        got = {} if norm == 0.0 else {tok: w / norm for tok, w in vec.items()}
        self._vectors[text] = got
        return got

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
        try:
            fh = open(path, encoding="utf-8")
        except OSError as exc:
            raise MissingFile(f"{path}: {exc.strerror}") from None
        with fh, decode_guard(path, DataError):
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
                    score = hundredths(raw, "score")
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                scores[(a, b) if a <= b else (b, a)] = score
        return cls(scores)

    def score(self, a: str, b: str) -> int:
        if a == b:
            return 10000
        return self._scores.get((a, b) if a <= b else (b, a), 0)


# ---------------------------------------------------------------- registry

Scorer = Callable[[str, str], int]


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
    from . import kernels  # here, so that --sim table: loads no kernel

    registry: dict[str, Scorer] = {}
    for func_id, (backend, positions) in sim_functions(spec).items():
        if backend == "lev":
            registry[func_id] = kernels.lev_score
        elif backend == "jw":
            registry[func_id] = kernels.jw_score
        elif backend == "tfidf":
            corpus = _position_values(db, positions)
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
) -> list[str]:
    """The sorted distinct texts of the value constants at the positions."""
    wanted: dict[str, set[int]] = {}
    for rel, pos in positions:
        wanted.setdefault(rel, set()).add(pos)
    out: set[str] = set()
    for rel, cols in wanted.items():
        for fact in db.by_relation.get(rel, ()):
            for i in cols:
                c = fact.args[i]
                if c.kind is Kind.VALUE:
                    out.add(c.text)
    return sorted(out)


# --------------------------------------------------------------- resolvers


class StrictResolver:
    """Serve scores from a fixed store; a probe the store has never seen is
    an error. A text compared with itself scores 10000 without a lookup."""

    __slots__ = ("store",)

    def __init__(self, store: SimStore):
        self.store = store

    def score(self, func: str, a: str, b: str) -> int:
        if a == b:
            return 10000
        got = self.store.get(func, a, b)
        if got is None:
            raise MissingSimScore(f"{func}({a!r}, {b!r})")
        return got


class OnDemandResolver:
    """Serve from the store, computing and recording misses through the
    registry; every computation counts one scorer call."""

    __slots__ = ("store", "registry")

    def __init__(self, store: SimStore, registry: dict[str, Scorer]):
        self.store = store
        self.registry = registry

    def score(self, func: str, a: str, b: str) -> int:
        if a == b:
            return 10000
        got = self.store.get(func, a, b)
        if got is None:
            scorer = self.registry.get(func)
            if scorer is None:
                raise MissingSimScore(
                    f"no scorer registered for function {func!r}"
                )
            got = scorer(a, b)
            self.store.put(func, a, b, got)
            self.store.calls += 1
        return got


class TableResolver:
    """Answer every function from one lookup table; total (missing pairs
    score 0), so it never raises."""

    __slots__ = ("table",)

    def __init__(self, table: SimTable):
        self.table = table

    def score(self, func: str, a: str, b: str) -> int:
        return self.table.score(a, b)


# -------------------------------------------------------------- strategies


def sim_all(
    db: Database,
    spec: Specification,
    registry: dict[str, Scorer] | None = None,
) -> SimStore:
    """Score every text pair (reflexive included) for each similarity
    function the specification mentions, over the sorted distinct texts of
    the constants its atoms take as operands and of the values in its
    columns: those its atoms read, and those whose hint routes a bare
    `sim(...)` atom to it (`rules.HINT_BACKEND`). A function scored by the
    built-in Jaro-Winkler kernel has its triangle scored by
    `kernels.jw_rows`, which counts one scorer call per pair all the same;
    any other scorer is called once a pair (`kernels.map_rows`)."""
    from . import kernels

    registry = build_registry(spec, db) if registry is None else registry
    operands: dict[str, set[str]] = {}
    for rule in spec.all_rules():
        for satom in rule.body.sim_atoms:
            operands.setdefault(satom.func_id, set()).update(
                t.text for t in (satom.left, satom.right)
                if not isinstance(t, Var)
            )
    store = SimStore()
    for func_id, (backend, positions) in sim_functions(spec).items():
        scorer = registry.get(func_id)
        if scorer is None:
            continue
        # a bare atom calls the function named after its columns' backend
        columns = positions.union(
            (r.name, i) for r in spec.schema.relations
            for i, h in enumerate(r.hints) if HINT_BACKEND[h] == func_id
        )
        texts = sorted(operands[func_id].union(_position_values(db, columns)))
        if not texts:
            continue
        if scorer is kernels.jw_score:  # read here, so a rebound one matches
            rows = kernels.jw_rows(texts)
        else:
            rows = kernels.map_rows(scorer, texts)
        table = _Triangle(texts, rows)
        store._tables[func_id] = table
        store.calls += len(table)
    return store


def _atom_side_values(
    db: Database,
    body_occ: dict[Var, tuple[tuple[str, int], ...]],
    term,
) -> list[str]:
    if isinstance(term, Var):
        return _position_values(db, body_occ.get(term, ()))
    return [term.text]


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
                        store.put(satom.func_id, a, b, scorer(a, b))
                        store.calls += 1
    return store


def sim_opt(
    ctx: Context,
    registry: dict[str, Scorer] | None = None,
) -> tuple[SimStore, EqRel]:
    """Three-phase optimized materialization; returns the score store and
    phase 1's ub fixpoint. That is the ub under `StrictResolver(store)`
    too, as the store holds every score the fixpoint probed, so the engine
    can take it as that context's ub (see Context). The context's own
    resolver is not consulted."""
    registry = build_registry(ctx.spec, ctx.db) if registry is None else registry
    store = SimStore()
    resolver = OnDemandResolver(store, registry)

    # phase 1: upper-bound fixpoint with on-demand external calls
    e_ub = engine.ub(ctx.replace(sims=resolver))

    # phases 2 and 3: per similarity atom, evaluate its rule's body without
    # similarity atoms once under the overapproximation, and score the
    # misses among the atom's term pairs
    unscored = ctx.replace(sims=None)
    for rule in ctx.spec.all_rules():
        body = rule.body.replace(sim_atoms=())
        for satom in rule.body.sim_atoms:
            found = answers(body, (satom.left, satom.right), unscored, e_ub)
            for a, b in sorted(
                (a.text, b.text) for a, b in found
                if not (a.is_null() or b.is_null()) and a.text != b.text
            ):
                resolver.score(satom.func_id, a, b)

    return store, e_ub
