"""Core data model: constants, facts, databases, and equivalence relations.

A database is an immutable set of facts whose arguments are typed constants:
entity references (merge candidates), attribute values, and a single null
constant standing for missing cells. An equivalence relation over the domain
records which entity references have been identified; inducing it on the
database rewrites every constant to its class representative, which is the
database rule bodies are evaluated against.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import NonEntityMerge, UnknownConstant


class Kind(Enum):
    """What a constant denotes."""

    ENTITY = "entity"
    VALUE = "value"
    NULL = "null"


@dataclass(frozen=True, slots=True)
class Constant:
    """An interned symbol: equality is by (kind, text)."""

    kind: Kind
    text: str

    def is_entity(self) -> bool:
        return self.kind is Kind.ENTITY

    def is_null(self) -> bool:
        return self.kind is Kind.NULL

    def __repr__(self) -> str:
        if self.kind is Kind.NULL:
            return "<null>"
        mark = "@" if self.kind is Kind.ENTITY else ""
        return f"{mark}{self.text}"


def entity(text: str) -> Constant:
    return Constant(Kind.ENTITY, text)


def value(text: str) -> Constant:
    return Constant(Kind.VALUE, text)


#: The single null constant; one per database, equal only to itself.
NULL = Constant(Kind.NULL, "")


def _const_key(c: Constant) -> tuple[str, str]:
    return (c.kind.value, c.text)


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground atom: relation name plus constant arguments."""

    relation: str
    args: tuple[Constant, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"


def _fact_key(f: Fact) -> tuple:
    return (f.relation, tuple(_const_key(a) for a in f.args))


@dataclass(frozen=True, slots=True)
class MergePair:
    """Unordered non-reflexive pair of entity references, stored canonically
    with the lexicographically smaller text first."""

    left: Constant
    right: Constant

    @classmethod
    def of(cls, a: Constant, b: Constant) -> "MergePair":
        if a == b:
            raise ValueError(f"reflexive merge pair {a!r}")
        if _const_key(b) < _const_key(a):
            a, b = b, a
        return cls(a, b)

    def __iter__(self) -> Iterator[Constant]:
        yield self.left
        yield self.right

    def __repr__(self) -> str:
        return f"({self.left.text}, {self.right.text})"


class Database:
    """Immutable fact store. Facts are deduplicated and kept in a fixed
    deterministic order; the domain is the set of constants occurring in
    facts."""

    __slots__ = ("facts", "domain", "by_relation")

    def __init__(self, facts: Iterable[Fact] = ()):
        ordered = sorted(set(facts), key=_fact_key)
        self.facts: tuple[Fact, ...] = tuple(ordered)
        grouped: dict[str, list[Fact]] = {}
        dom: set[Constant] = set()
        for f in self.facts:
            grouped.setdefault(f.relation, []).append(f)
            dom.update(f.args)
        self.by_relation: dict[str, tuple[Fact, ...]] = {
            r: tuple(fs) for r, fs in grouped.items()
        }
        self.domain: frozenset[Constant] = frozenset(dom)

    def relations(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_relation))

    def entity_refs(self) -> frozenset[Constant]:
        return frozenset(c for c in self.domain if c.is_entity())

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in set(self.by_relation.get(fact.relation, ()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.facts == other.facts

    def __hash__(self) -> int:
        return hash(self.facts)

    def __repr__(self) -> str:
        return f"Database({len(self.facts)} facts, {len(self.domain)} constants)"


class EqRel:
    """Equivalence relation over a fixed domain of constants.

    Backed by a union-find; only entity references may be merged, so Value
    and Null constants always sit in singleton classes. The canonical
    representative of a class is its lexicographically least member, which
    makes representatives independent of merge order.
    """

    __slots__ = ("_consts", "_ids", "_parent", "_size", "_least")

    def __init__(self, domain: Iterable[Constant] = ()):
        consts = sorted(set(domain), key=_const_key)
        self._consts: list[Constant] = consts
        self._ids: dict[Constant, int] = {c: i for i, c in enumerate(consts)}
        n = len(consts)
        self._parent: list[int] = list(range(n))
        self._size: list[int] = [1] * n
        # least[root] = id of the lexicographically least member of the class
        self._least: list[int] = list(range(n))

    # -- identity bookkeeping --

    @property
    def domain(self) -> tuple[Constant, ...]:
        return tuple(self._consts)

    def __len__(self) -> int:
        return len(self._consts)

    def id_of(self, c: Constant) -> int:
        try:
            return self._ids[c]
        except KeyError:
            raise UnknownConstant(repr(c)) from None

    def try_id(self, c: Constant) -> int | None:
        return self._ids.get(c)

    def const(self, cid: int) -> Constant:
        return self._consts[cid]

    def clone(self) -> "EqRel":
        other = object.__new__(EqRel)
        other._consts = self._consts
        other._ids = self._ids
        other._parent = self._parent.copy()
        other._size = self._size.copy()
        other._least = self._least.copy()
        return other

    # -- union-find --

    def _find(self, i: int) -> int:
        parent = self._parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def canon_id(self, cid: int) -> int:
        """Id of the canonical (least) member of cid's class."""
        return self._least[self._find(cid)]

    def rep(self, c: Constant) -> Constant:
        """Canonical representative of c's class."""
        return self._consts[self.canon_id(self.id_of(c))]

    def same(self, a: Constant, b: Constant) -> bool:
        return self._find(self.id_of(a)) == self._find(self.id_of(b))

    def merge_ids(self, i: int, j: int) -> bool:
        """Union the classes of i and j; returns True if they were distinct.
        Raises NonEntityMerge when a non-entity constant is involved."""
        a, b = self._consts[i], self._consts[j]
        if not (a.is_entity() and b.is_entity()):
            raise NonEntityMerge(f"cannot merge {a!r} with {b!r}")
        ri, rj = self._find(i), self._find(j)
        if ri == rj:
            return False
        if self._size[ri] < self._size[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        self._size[ri] += self._size[rj]
        li, lj = self._least[ri], self._least[rj]
        if _const_key(self._consts[lj]) < _const_key(self._consts[li]):
            self._least[ri] = lj
        return True

    def merge(self, a: Constant, b: Constant) -> bool:
        return self.merge_ids(self.id_of(a), self.id_of(b))

    # -- class inspection --

    def classes(self) -> list[list[Constant]]:
        """All classes, each sorted, the list sorted by least member."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self._consts)):
            groups.setdefault(self._find(i), []).append(i)
        out = [sorted((self._consts[i] for i in ids), key=_const_key)
               for ids in groups.values()]
        out.sort(key=lambda cls: _const_key(cls[0]))
        return out

    def members(self, c: Constant) -> list[Constant]:
        root = self._find(self.id_of(c))
        return sorted(
            (x for i, x in enumerate(self._consts) if self._find(i) == root),
            key=_const_key,
        )

    def nontrivial_pairs(self) -> frozenset[MergePair]:
        """Every unordered pair of distinct constants sharing a class."""
        pairs: set[MergePair] = set()
        for cls in self.classes():
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    pairs.add(MergePair.of(cls[i], cls[j]))
        return frozenset(pairs)

    def signature(self) -> frozenset[frozenset[int]]:
        """Hashable canonical form: the non-singleton classes as id sets."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self._consts)):
            groups.setdefault(self._find(i), []).append(i)
        return frozenset(
            frozenset(ids) for ids in groups.values() if len(ids) > 1
        )

    def is_identity(self) -> bool:
        return all(self._parent[i] == i and self._size[i] == 1
                   for i in range(len(self._parent)))

    def __contains__(self, pair: object) -> bool:
        if isinstance(pair, MergePair):
            return self.same(pair.left, pair.right)
        if isinstance(pair, tuple) and len(pair) == 2:
            return self.same(pair[0], pair[1])
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EqRel):
            return NotImplemented
        return self._consts == other._consts and self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash((tuple(self._consts), self.signature()))

    def __repr__(self) -> str:
        nt = [cls for cls in self.classes() if len(cls) > 1]
        return f"EqRel({len(self._consts)} constants, {len(nt)} merged classes)"

