"""Core data model: constants, facts, databases, and equivalence relations.

A database is an immutable set of facts whose arguments are typed constants:
entity references (merge candidates), attribute values, and a single null
constant standing for missing cells. An equivalence relation over the domain
records which entity references have been identified; inducing it on the
database rewrites every constant to its class representative, which is the
database rule bodies are evaluated against.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator

from .errors import NonEntityMerge, UnknownConstant


class Kind(Enum):
    """What a constant denotes."""

    ENTITY = "entity"
    VALUE = "value"
    NULL = "null"

    # C-level identity hash, consistent with Enum's identity equality
    __hash__ = object.__hash__


#: stores a record's field, past the __setattr__ that forbids assignment
_set = object.__setattr__


class Record:
    """Base of the immutable records. A subclass lists its fields in
    `__slots__` and the default of any optional one in `_defaults`; the
    generic `__init__` binds positional and keyword arguments to them in
    that order. Equality and hashing go by class and field values, and
    fields cannot be assigned or deleted once built. The records built
    and hashed thousands of times a call (Constant, Fact, MergePair) write
    out their own `__init__`, `__eq__` and `__hash__`, which are faster."""

    __slots__ = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(
            get if len(cls.__slots__) > 1 else lambda obj: (get(obj),)
        )

    def __init__(self, *args: object, **kwargs: object) -> None:
        name, fields = self.__class__.__qualname__, self.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{name}() takes {len(fields)} arguments ({len(args)} given)"
            )
        for f, v in zip(fields, args):
            _set(self, f, v)
        for f in fields[len(args):]:
            if f in kwargs:
                _set(self, f, kwargs.pop(f))
            elif f in self._defaults:
                _set(self, f, self._defaults[f])
            else:
                raise TypeError(f"{name}() missing argument {f!r}")
        for f in kwargs:
            raise TypeError(
                f"{name}() got an unexpected or repeated argument {f!r}"
            )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{f}={v!r}" for f, v in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed; TypeError names a field
        the class does not have."""
        fields = dict(zip(self.__slots__, self._values(self)))
        fields.update(changes)
        return self.__class__(**fields)


class Constant(Record):
    """An interned symbol: equality is by (kind, text)."""

    __slots__ = ("kind", "text")

    def __init__(self, kind: Kind, text: str):
        _set(self, "kind", kind)
        _set(self, "text", text)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Constant:
            return NotImplemented
        return self.text == other.text and self.kind is other.kind

    def __hash__(self) -> int:
        return hash((self.kind, self.text))

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


class Fact(Record):
    """A ground atom: relation name plus constant arguments."""

    __slots__ = ("relation", "args")

    def __init__(self, relation: str, args: tuple[Constant, ...]):
        _set(self, "relation", relation)
        _set(self, "args", args)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Fact:
            return NotImplemented
        return self.relation == other.relation and self.args == other.args

    def __hash__(self) -> int:
        return hash((self.relation, self.args))

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.relation}({inner})"


def _fact_key(f: Fact) -> tuple:
    return (f.relation, tuple(_const_key(a) for a in f.args))


class MergePair(Record):
    """Unordered non-reflexive pair of entity references, stored canonically
    with the lexicographically smaller text first."""

    __slots__ = ("left", "right")

    def __init__(self, left: Constant, right: Constant):
        _set(self, "left", left)
        _set(self, "right", right)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MergePair:
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self) -> int:
        return hash((self.left, self.right))

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
    facts.

    The interned form is built once: `consts` numbers the domain in the
    sorted order EqRel uses and `ids` maps each constant to its number,
    `rows[rel]` holds each fact of `by_relation[rel]` as a tuple of those
    ids (same order), and `index[rel][pos][i]` lists, ascending, the
    positions in `rows[rel]` of the rows whose argument at pos is id i.
    Entity references sort first (by kind name), so they hold exactly the
    ids below `entities`."""

    __slots__ = (
        "facts", "domain", "by_relation", "consts", "ids", "entities", "rows",
        "index",
    )

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
        self.consts: tuple[Constant, ...] = tuple(sorted(dom, key=_const_key))
        ids = self.ids = {c: i for i, c in enumerate(self.consts)}
        self.entities: int = sum(c.is_entity() for c in self.consts)
        self.rows: dict[str, tuple[tuple[int, ...], ...]] = {}
        self.index: dict[str, list[dict[int, list[int]]]] = {}
        for r, fs in self.by_relation.items():
            rows = tuple(tuple(ids[a] for a in f.args) for f in fs)
            cols: list[dict[int, list[int]]] = [
                {} for _ in range(max(map(len, rows)))
            ]
            for k, row in enumerate(rows):
                for col, i in zip(cols, row):
                    col.setdefault(i, []).append(k)
            self.rows[r] = rows
            self.index[r] = cols

    def relations(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_relation))

    def entity_refs(self) -> frozenset[Constant]:
        return frozenset(c for c in self.domain if c.is_entity())

    def __len__(self) -> int:
        return len(self.facts)

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

    Only entity references may be merged, so Value and Null constants always
    sit in singleton classes. The canonical representative of a class is its
    lexicographically least member, which makes representatives independent
    of merge order. Ids number the domain in that same order, so the least
    member is the smallest id.

    Backed by quick-find with union by size: `_root[i]` names i's class and
    `_next` links each class's members into a cycle, so a merge relabels the
    smaller class and a class's members are walked without a scan.
    """

    __slots__ = ("_consts", "_ids", "_root", "_size", "_least", "_next")

    def __init__(self, domain: Iterable[Constant] = ()):
        consts = tuple(sorted(set(domain), key=_const_key))
        self._start(consts, {c: i for i, c in enumerate(consts)})

    @classmethod
    def numbered(
        cls, consts: tuple[Constant, ...], ids: dict[Constant, int]
    ) -> "EqRel":
        """The identity over a domain already numbered in this class's
        order (`consts` sorted, `ids` its inverse), sharing both, as
        `Database.consts` and `Database.ids` are."""
        e = object.__new__(cls)
        e._start(consts, ids)
        return e

    def _start(
        self, consts: tuple[Constant, ...], ids: dict[Constant, int]
    ) -> None:
        self._consts: tuple[Constant, ...] = consts
        self._ids: dict[Constant, int] = ids
        n = len(consts)
        self._root: list[int] = list(range(n))
        # size[root] and least[root]: member count and smallest member id;
        # size is 0 for an id that is no longer a root
        self._size: list[int] = [1] * n
        self._least: list[int] = list(range(n))
        self._next: list[int] = list(range(n))

    # -- identity bookkeeping --

    @property
    def domain(self) -> tuple[Constant, ...]:
        return self._consts

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
        other._root = self._root.copy()
        other._size = self._size.copy()
        other._least = self._least.copy()
        other._next = self._next.copy()
        return other

    # -- union-find --

    def canon_id(self, cid: int) -> int:
        """Id of the canonical (least) member of cid's class."""
        return self._least[self._root[cid]]

    def rep(self, c: Constant) -> Constant:
        """Canonical representative of c's class."""
        return self._consts[self.canon_id(self.id_of(c))]

    def same(self, a: Constant, b: Constant) -> bool:
        return self._root[self.id_of(a)] == self._root[self.id_of(b)]

    def merge_ids(self, i: int, j: int) -> bool:
        """Union the classes of i and j; returns True if they were distinct.
        Raises NonEntityMerge when a non-entity constant is involved."""
        a, b = self._consts[i], self._consts[j]
        if not (a.is_entity() and b.is_entity()):
            raise NonEntityMerge(f"cannot merge {a!r} with {b!r}")
        root, nxt = self._root, self._next
        ri, rj = root[i], root[j]
        if ri == rj:
            return False
        if self._size[ri] < self._size[rj]:
            ri, rj = rj, ri
        k = rj
        while True:
            root[k] = ri
            k = nxt[k]
            if k == rj:
                break
        nxt[ri], nxt[rj] = nxt[rj], nxt[ri]
        self._size[ri] += self._size[rj]
        self._size[rj] = 0
        self._least[ri] = min(self._least[ri], self._least[rj])
        return True

    def merge(self, a: Constant, b: Constant) -> bool:
        return self.merge_ids(self.id_of(a), self.id_of(b))

    # -- class inspection --

    def class_ids(self, cids: Iterable[int]) -> set[int]:
        """Ids of every member of the classes of the given ids."""
        nxt = self._next
        out: set[int] = set()
        for k in cids:
            while k not in out:
                out.add(k)
                k = nxt[k]
        return out

    def classes(self) -> list[list[Constant]]:
        """All classes, each sorted, the list sorted by least member."""
        groups: dict[int, list[int]] = {}
        for i, r in enumerate(self._root):
            groups.setdefault(r, []).append(i)
        return [[self._consts[i] for i in ids] for ids in sorted(groups.values())]

    def members(self, c: Constant) -> list[Constant]:
        return [self._consts[i] for i in sorted(self.class_ids((self.id_of(c),)))]

    def nontrivial_pairs(self) -> frozenset[MergePair]:
        """Every unordered pair of distinct constants sharing a class."""
        pairs: set[MergePair] = set()
        for cls in self.classes():
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    pairs.add(MergePair.of(cls[i], cls[j]))
        return frozenset(pairs)

    def signature(
        self, ids: Iterable[int] | None = None
    ) -> frozenset[frozenset[int]]:
        """Hashable canonical form: the non-singleton classes as id sets;
        given ids, only the classes of those ids, at a cost in their
        number rather than in the domain's size."""
        size = self._size
        if ids is None:
            roots: Iterable[int] = (r for r, s in enumerate(size) if s > 1)
        else:
            root = self._root
            roots = {r for r in map(root.__getitem__, ids) if size[r] > 1}
        return frozenset(frozenset(self.class_ids((r,))) for r in roots)

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

