"""Seeded family of small random resolution instances.

Each instance is a parsed rule file plus a database, kept deliberately tiny
(at most eleven entity references) so the exhaustive oracles in
tests/oracles.py stay fast. The generator covers joins, similarity atoms
with varied thresholds, reference columns that make merges cascade,
functional-dependency style constraints on value and on reference columns,
null cells in join, similarity and reference positions, and both inequality
policies. Everything is driven by one random.Random(seed), so instances are
reproducible by seed. `generate_parts` glues several of them into one
instance whose solutions are the product of independent parts.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

from entres.matcher import Context
from entres.model import NULL, Constant, Database, Fact, Kind
from entres.rules import Specification, parse_spec
from entres.simkit import SimStore, StrictResolver, sim_all
from oracles import bruteforce_solutions

# Near-duplicate heavy pools; the first column is read by similarity atoms.
POOL_A = ("martha", "marhta", "jonathan", "jonathon", "silver", "sliver", "quartz")
POOL_B = ("u", "v", "w", "x")
POOL_T = ("red door", "red dor", "green gate", "blue wall")


def ent(text: str) -> Constant:
    return Constant(Kind.ENTITY, text)


def val(text: str) -> Constant:
    return Constant(Kind.VALUE, text)


@dataclass
class Instance:
    """One generated instance, ready to feed both the engine and the
    oracles."""

    seed: int
    text: str
    spec: Specification
    db: Database
    store: SimStore | None
    sims: StrictResolver | None
    knobs: dict = field(default_factory=dict)

    @property
    def ctx(self) -> Context:
        """The evaluation context the engine reads the instance through."""
        return Context(self.db, self.spec, self.sims, **self.knobs)

    def __repr__(self) -> str:
        return f"Instance(seed={self.seed}, {len(self.db)} facts)"


def _finish(seed: int, lines: list[str], facts: list[Fact], knobs: dict) -> Instance:
    text = "\n".join(lines) + "\n"
    spec = parse_spec(text)
    db = Database(facts)
    has_sims = any(r.body.sim_atoms for r in spec.all_rules())
    store = sim_all(db, spec) if has_sims else None
    sims = StrictResolver(store) if store is not None else None
    return Instance(seed, text, spec, db, store, sims, knobs)


def generate(seed: int, hard_only: bool = False) -> Instance:
    """The random family member for this seed. With hard_only every rule
    comes out hard and no constraints are emitted, the regime where exactly
    one solution must exist."""
    rng = random.Random(seed)

    def rule(label: str, body: str) -> str:
        k = "hard" if hard_only else rng.choice(["hard", "soft", "soft"])
        arrow = "=>" if k == "hard" else "~>"
        return f"{k} {label}: {body} {arrow} eq(x, y);"

    use_s = rng.random() < 0.6
    lines = ["relation R(rid: id, a: val, b: val) merge [rid];"]
    if use_s:
        lines.append("relation S(sid: id, t: val, r: id) merge [sid];")

    lines.append(rule("r1", "R(x, a, b), R(y, a, b2)"))
    if rng.random() < 0.75:
        thr = rng.choice([80, 85, 90])
        lines.append(
            rule("r2", f"R(x, a, b), R(y, a2, b), sim(a, a2) >= {thr}")
        )
    if use_s:
        if rng.random() < 0.5:
            lines.append(rule("s1", "S(x, t, r), S(y, t, r2)"))
        else:
            thr = rng.choice([80, 88])
            lines.append(
                rule("s1", f"S(x, t, r), S(y, t2, r), sim(t, t2) >= {thr}")
            )
    if not hard_only:
        if rng.random() < 0.7:
            lines.append("deny d1: R(x, a, b), R(x, a2, b2), b != b2;")
        if use_s and rng.random() < 0.4:
            lines.append("deny d2: S(x, t, r), S(x, t2, r2), r != r2;")

    n_r = rng.randint(3, 6)
    n_s = rng.randint(3, 5) if use_s else 0
    facts: list[Fact] = []
    for i in range(n_r):
        b = NULL if rng.random() < 0.12 else val(rng.choice(POOL_B))
        facts.append(Fact("R", (ent(f"r{i}"), val(rng.choice(POOL_A)), b)))
        if rng.random() < 0.15:
            b2 = NULL if rng.random() < 0.12 else val(rng.choice(POOL_B))
            facts.append(Fact("R", (ent(f"r{i}"), val(rng.choice(POOL_A)), b2)))
    for j in range(n_s):
        ref = NULL if rng.random() < 0.08 else ent(f"r{rng.randrange(n_r)}")
        facts.append(Fact("S", (ent(f"s{j}"), val(rng.choice(POOL_T)), ref)))

    knobs: dict = {}
    if rng.random() < 0.15:
        knobs["null_inequality"] = "fail"
    return _finish(seed, lines, facts, knobs)


def chain_instance(depth: int) -> Instance:
    """A recursion ladder: the base pair merges at level 1 and every rung of
    reference facts lifts the previous merge exactly one level, so the top
    pair has level `depth`."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    lines = [
        "relation P(pid: id, n: val) merge [pid];",
        "relation Q(qid: id, m: val, p: id) merge [qid];",
        "hard p1: P(x, n), P(y, n) => eq(x, y);",
        "hard q1: Q(x, m, p), Q(y, m, p) => eq(x, y);",
    ]
    facts = [
        Fact("P", (ent("a1"), val("n0"))),
        Fact("P", (ent("a2"), val("n0"))),
    ]
    prev = ("a1", "a2")
    for d in range(2, depth + 1):
        left, right = f"e{d}l", f"e{d}r"
        facts.append(Fact("Q", (ent(left), val(f"k{d}"), ent(prev[0]))))
        facts.append(Fact("Q", (ent(right), val(f"k{d}"), ent(prev[1]))))
        prev = (left, right)
    return _finish(-depth, lines, facts, {})


def family(count: int, start: int = 0, hard_only: bool = False) -> list[Instance]:
    return [generate(seed, hard_only) for seed in range(start, start + count)]


def generate_neq(seed: int) -> Instance:
    """A family member whose soft rules carry inequality atoms, drawn from
    its own random stream (`generate` is unaffected). `r1` compares value
    columns, which merging never changes, so the search derives a child's
    `r1` candidates from its parent's; `s1` compares a reference column and
    `s2` a variable with an entity constant, either of which can turn false
    as classes grow, so the search evaluates those rules in full at every
    state and, as a hard merge could disable their answers, searches hard
    answers as branches too."""
    rng = random.Random(f"neq-{seed}")

    def rule(label: str, body: str, kind: str | None = None) -> str:
        k = kind or rng.choice(["hard", "soft", "soft"])
        arrow = "=>" if k == "hard" else "~>"
        return f"{k} {label}: {body} {arrow} eq(x, y);"

    lines = [
        "relation R(rid: id, a: val, b: val) merge [rid];",
        "relation S(sid: id, t: val, r: id) merge [sid];",
        rule("r1", "R(x, a, b), R(y, a, b2), b != b2", "soft"),
        rule("s1", "S(x, t, r), S(y, t, r2), r != r2", "soft"),
    ]
    if rng.random() < 0.6:
        thr = rng.choice([80, 85, 90])
        lines.append(rule("r2", f"R(x, a, b), R(y, a2, b), sim(a, a2) >= {thr}"))
    if rng.random() < 0.5:
        lines.append(rule("s2", "S(x, t, r), S(y, t2, r), x != @s0", "soft"))
    if rng.random() < 0.5:
        lines.append(rule("s3", "S(x, t, r), S(y, t2, r)"))
    if rng.random() < 0.5:
        lines.append("deny d1: R(x, a, b), R(x, a2, b2), b != b2;")
    if rng.random() < 0.4:
        lines.append("deny d2: S(x, t, r), S(x, t2, r2), r != r2;")

    n_r = rng.randint(3, 5)
    n_s = rng.randint(3, 5)
    facts: list[Fact] = []
    for i in range(n_r):
        b = NULL if rng.random() < 0.1 else val(rng.choice(POOL_B))
        facts.append(Fact("R", (ent(f"r{i}"), val(rng.choice(POOL_A)), b)))
    for j in range(n_s):
        ref = NULL if rng.random() < 0.08 else ent(f"r{rng.randrange(n_r)}")
        facts.append(Fact("S", (ent(f"s{j}"), val(rng.choice(POOL_T)), ref)))

    knobs: dict = {}
    if rng.random() < 0.15:
        knobs["null_inequality"] = "fail"
    return _finish(seed, lines, facts, knobs)


def generate_parts(seed: int, hub: bool = False) -> Instance:
    """Two or three `generate` instances side by side, each with its
    relations, rule labels and entities suffixed by its part number, so no
    body reads two of them and the search splits along them. Members are
    drawn until one has the first member's null policy, a solution by the
    brute-force oracle and at most seven entities (six among three), which
    keeps the union's candidate space (the product of the members') small
    and its entities within that oracle's limit.

    With hub=True, about half of the members' reference cells point at one
    of two `H` entities that a hard rule merges at the start instead: a
    class that every part reads and no solution grows. Its members have a
    reference column but not its constraint `d2`, whose inequality on that
    column would keep the search from splitting."""
    rng = random.Random(f"parts-{seed}")
    count = rng.choice([2, 3])
    members: list[Instance] = []
    while len(members) < count:
        inst = generate(rng.randrange(10_000))
        if (
            len(inst.db.entity_refs()) <= min(7, 18 // count)
            and (not hub or ("S" in inst.text and "d2" not in inst.text))
            and (not members or inst.knobs == members[0].knobs)
            and bruteforce_solutions(
                inst.db, inst.spec, inst.sims, **inst.knobs
            )
        ):
            members.append(inst)
    lines: list[str] = []
    facts: list[Fact] = []
    if hub:
        lines += [
            "relation H(hid: id, k: val) merge [hid];",
            "hard hub: H(x, k), H(y, k) => eq(x, y);",
        ]
        facts += [Fact("H", (ent(h), val("k"))) for h in ("h1", "h2")]
    for k, inst in enumerate(members):
        text = re.sub(r"\b([RS])\(", rf"\g<1>{k}(", inst.text)
        text = re.sub(r"(?m)^(hard|soft|deny) (\w+)", rf"\1 \2_{k}", text)
        lines += text.splitlines()
        for f in inst.db.facts:
            args = [
                ent(f"{c.text}_{k}") if c.is_entity() else c for c in f.args
            ]
            if hub and f.relation == "S" and rng.random() < 0.5:
                args[2] = ent(rng.choice(["h1", "h2"]))
            facts.append(Fact(f"{f.relation}{k}", tuple(args)))
    return _finish(seed, lines, facts, dict(members[0].knobs))
