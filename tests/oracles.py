"""Reference implementations the test suite trusts.

Everything here is computed from first principles with deliberately naive
algorithms: repeated-pass set merging instead of union-find, brute-force
binding enumeration over fact tuples instead of indexed joins, value
iteration instead of round chains. The only package imports are the public
data model and the rule AST, never the algorithms under test, so agreement
between the two sides is meaningful evidence. There are two exceptions,
both of which run the package's own matcher and union-find, so they check
the solution search, not the matcher: `bruteforce_solutions` walks the
candidate space, and `verify_solution` replays a solution's derivation.
`validate_proof_tree` reads the proof tree's record types from
`entres.explain` and checks a tree against the definition alone.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from entres.explain import NodeKind, ProofNode, ProofTree
from entres.matcher import (
    Context,
    dc_satisfied,
    merge_candidates,
    rule_satisfied,
)
from entres.model import Constant, Database, EqRel, Fact, MergePair
from entres.rules import (
    DenialConstraint,
    Rule,
    RuleBody,
    Specification,
    Var,
)

if TYPE_CHECKING:
    from entres.engine import Solution

#: Similarity callback: (function id, left constant, right constant) -> score
#: in hundredths. Must answer reflexive probes 10000 and null probes 0.
SimFn = Callable[[str, Constant, Constant], int]

INF = 10**9


def simfn_of(resolver) -> SimFn | None:
    """Adapt a package resolver, which scores two texts, to the oracle
    callback shape: a null operand scores 0 without asking it."""
    if resolver is None:
        return None

    def simfn(func: str, a: Constant, b: Constant) -> int:
        if a.is_null() or b.is_null():
            return 0
        return resolver.score(func, a.text, b.text)

    return simfn


# -------------------------------------------------------------- databases


def database_fields(facts: Iterable[Fact]) -> dict[str, object]:
    """Every field of a Database over the facts, built by sorting: the
    distinct facts sorted by relation and then by their arguments' kind
    names and texts, grouped per relation; the domain's constants sorted
    the same way and numbered; each fact's row of numbers, and per
    relation, position and number the rows holding it there."""
    ordered = sorted(
        set(facts), key=lambda f: (f.relation, tuple(map(_ckey, f.args)))
    )
    by_relation: dict[str, tuple[Fact, ...]] = {}
    for f in ordered:
        by_relation[f.relation] = by_relation.get(f.relation, ()) + (f,)
    domain = frozenset(a for f in ordered for a in f.args)
    consts = tuple(sorted(domain, key=_ckey))
    ids = {c: i for i, c in enumerate(consts)}
    rows = {
        r: tuple(tuple(ids[a] for a in f.args) for f in fs)
        for r, fs in by_relation.items()
    }
    index = {}
    for r, rs in rows.items():
        width = max(len(row) for row in rs)
        index[r] = [{} for _ in range(width)]
        for pos, col in enumerate(index[r]):
            for i in sorted({row[pos] for row in rs if pos < len(row)}):
                col[i] = [
                    k for k, row in enumerate(rs)
                    if pos < len(row) and row[pos] == i
                ]
    return {
        "facts": tuple(ordered),
        "by_relation": by_relation,
        "domain": domain,
        "consts": consts,
        "ids": ids,
        "entities": sum(c.is_entity() for c in consts),
        "rows": rows,
        "index": index,
    }


# --------------------------------------------------------------- closures


def _ckey(c: Constant) -> tuple[str, str]:
    return (c.kind.value, c.text)


def close_classes(
    pairs: Iterable, domain: Iterable[Constant]
) -> list[frozenset[Constant]]:
    """Equivalence classes over the domain generated by the pairs, grown by
    repeatedly fusing overlapping sets."""
    classes: list[set[Constant]] = [{c} for c in set(domain)]
    for p in pairs:
        a, b = p
        ca = next(cl for cl in classes if a in cl)
        cb = next(cl for cl in classes if b in cl)
        if ca is not cb:
            ca |= cb
            classes.remove(cb)
    return [frozenset(cl) for cl in classes]


def rep_map(classes: Iterable[frozenset[Constant]]) -> dict[Constant, Constant]:
    """Each constant to the least member of its class."""
    out: dict[Constant, Constant] = {}
    for cl in classes:
        least = min(cl, key=_ckey)
        for c in cl:
            out[c] = least
    return out


def class_pairs(classes: Iterable[frozenset[Constant]]) -> frozenset[MergePair]:
    """Every non-reflexive within-class pair, the naive counterpart of
    EqRel.nontrivial_pairs."""
    out: set[MergePair] = set()
    for cl in classes:
        for a, b in combinations(sorted(cl, key=_ckey), 2):
            out.add(MergePair.of(a, b))
    return frozenset(out)


def close_pairs(
    pairs: Iterable, domain: Iterable[Constant]
) -> frozenset[MergePair]:
    return class_pairs(close_classes(pairs, domain))


# ------------------------------------------------------------ query answers


def _join_vars(body: RuleBody) -> frozenset[Var]:
    counts: dict[Var, int] = {}
    for atom in body.rel_atoms:
        for t in atom.args:
            if isinstance(t, Var):
                counts[t] = counts.get(t, 0) + 1
    return frozenset(v for v, n in counts.items() if n >= 2)


def _term_rep(term, rep: dict[Constant, Constant], binding: dict[Var, Constant]):
    if isinstance(term, Var):
        return binding[term]
    return rep.get(term, term)


def naive_bindings(
    body: RuleBody,
    db: Database,
    rep: dict[Constant, Constant],
    simfn: SimFn | None,
    *,
    null_join_guard: bool = True,
    null_inequality: str = "distinct",
) -> Iterator[dict[Var, Constant]]:
    """All satisfying bindings of the body over the induced database, each
    variable bound to a class representative.

    Works by brute force: take every combination of one fact per relational
    atom, push the fact constants through the representative map, unify, and
    then check the similarity and inequality atoms on the bound values.
    """
    joins = _join_vars(body)
    pools = [db.by_relation.get(a.relation, ()) for a in body.rel_atoms]
    for combo in product(*pools):
        binding: dict[Var, Constant] = {}
        ok = True
        for atom, fact in zip(body.rel_atoms, combo):
            for term, const in zip(atom.args, fact.args):
                val = rep.get(const, const)
                if isinstance(term, Var):
                    if null_join_guard and term in joins and val.is_null():
                        ok = False
                        break
                    if term in binding:
                        if binding[term] != val:
                            ok = False
                            break
                    else:
                        binding[term] = val
                elif rep.get(term, term) != val:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for sa in body.sim_atoms:
            left = _term_rep(sa.left, rep, binding)
            right = _term_rep(sa.right, rep, binding)
            if simfn is None:
                raise ValueError("similarity atom without a resolver")
            if simfn(sa.func_id, left, right) < sa.threshold:
                ok = False
                break
        if not ok:
            continue
        for na in body.neq_atoms:
            left = _term_rep(na.left, rep, binding)
            right = _term_rep(na.right, rep, binding)
            if null_inequality == "fail" and (left.is_null() or right.is_null()):
                ok = False
                break
            if left == right:
                ok = False
                break
        if ok:
            yield binding


def naive_query(
    body: RuleBody,
    head: tuple,
    db: Database,
    classes: list[frozenset[Constant]],
    simfn: SimFn | None = None,
    **knobs,
) -> frozenset[tuple[Constant, ...]]:
    """The representative tuples of a query."""
    rep = rep_map(classes)
    return frozenset(
        tuple(_term_rep(t, rep, binding) for t in head)
        for binding in naive_bindings(body, db, rep, simfn, **knobs)
    )


def naive_candidates(
    rule: Rule,
    db: Database,
    classes: list[frozenset[Constant]],
    simfn: SimFn | None,
    **knobs,
) -> frozenset[MergePair]:
    """Distinct-class entity answer pairs of a merge rule at this state."""
    rep = rep_map(classes)
    out: set[MergePair] = set()
    for binding in naive_bindings(rule.body, db, rep, simfn, **knobs):
        a = _term_rep(rule.head[0], rep, binding)
        b = _term_rep(rule.head[1], rep, binding)
        if a != b and a.is_entity() and b.is_entity():
            out.add(MergePair.of(a, b))
    return frozenset(out)


def naive_rule_satisfied(
    rule: Rule,
    db: Database,
    classes: list[frozenset[Constant]],
    simfn: SimFn | None,
    **knobs,
) -> bool:
    """Every answer pair already lies within one class."""
    rep = rep_map(classes)
    for binding in naive_bindings(rule.body, db, rep, simfn, **knobs):
        if _term_rep(rule.head[0], rep, binding) != _term_rep(
            rule.head[1], rep, binding
        ):
            return False
    return True


def naive_dc_satisfied(
    dc: DenialConstraint,
    db: Database,
    classes: list[frozenset[Constant]],
    **knobs,
) -> bool:
    rep = rep_map(classes)
    for _ in naive_bindings(dc.body, db, rep, None, **knobs):
        return False
    return True


def naive_state_ok(
    db: Database,
    spec: Specification,
    classes: list[frozenset[Constant]],
    simfn: SimFn | None,
    **knobs,
) -> bool:
    """The solution conditions: hard rules and constraints all satisfied."""
    return all(
        naive_rule_satisfied(r, db, classes, simfn, **knobs) for r in spec.hard
    ) and all(naive_dc_satisfied(dc, db, classes, **knobs) for dc in spec.dcs)


# ---------------------------------------------------------------- fixpoints


def naive_fixpoint(
    db: Database,
    spec: Specification,
    simfn: SimFn | None,
    rules: Iterable[Rule],
    **knobs,
) -> list[frozenset[Constant]]:
    """Closure under the given merge rules: apply every candidate of every
    rule, close, and repeat until nothing changes."""
    rules = tuple(rules)
    classes = close_classes((), db.domain)
    while True:
        fresh: set[MergePair] = set()
        for rule in rules:
            fresh |= naive_candidates(rule, db, classes, simfn, **knobs)
        merged = close_classes(class_pairs(classes) | fresh, db.domain)
        if class_pairs(merged) == class_pairs(classes):
            return classes
        classes = merged


def _strip_sims(rule: Rule) -> Rule:
    return rule.replace(body=rule.body.replace(sim_atoms=()))


def naive_lb(db, spec, simfn, **knobs):
    """The hard rules' fixpoint. A reference for the engine's lb only on
    merge-monotone specifications: a hard rule whose inequality an earlier
    merge can turn false need not fire in every solution, yet fires here."""
    return naive_fixpoint(db, spec, simfn, spec.hard, **knobs)


def naive_ub(db, spec, simfn, **knobs):
    """The fixpoint of every rule as hard. A reference for the engine's ub
    only on merge-monotone specifications: where an inequality can turn
    false, a solution may hold an answer this fixpoint never reaches, since
    one of its merges disables that answer here."""
    return naive_fixpoint(db, spec, simfn, spec.hard + spec.soft, **knobs)


def naive_loose_ub(db, spec, **knobs):
    """naive_ub without similarity atoms; a reference for the engine's
    loose_ub only on merge-monotone specifications, as naive_ub is."""
    rules = [_strip_sims(r) for r in spec.hard + spec.soft]
    return naive_fixpoint(db, spec, None, rules, **knobs)


# ---------------------------------------------------------------- solutions


def naive_solutions(
    db: Database,
    spec: Specification,
    simfn: SimFn | None,
    max_states: int = 50000,
    **knobs,
) -> set[frozenset[MergePair]]:
    """Every solution's merge set, by exhaustive search of the candidate
    space: start at the identity, apply one rule answer at a time, close,
    and keep the states that satisfy all hard rules and constraints."""
    rules = spec.all_rules()
    start: frozenset[MergePair] = frozenset()
    seen = {start}
    queue = [start]
    out: set[frozenset[MergePair]] = set()
    while queue:
        state = queue.pop()
        classes = close_classes(state, db.domain)
        if naive_state_ok(db, spec, classes, simfn, **knobs):
            out.add(state)
        for rule in rules:
            for cand in naive_candidates(rule, db, classes, simfn, **knobs):
                child = close_pairs(state | {cand}, db.domain)
                if child not in seen:
                    if len(seen) >= max_states:
                        raise RuntimeError("oracle state cap exceeded")
                    seen.add(child)
                    queue.append(child)
    return out


def maximal_sets(
    solutions: Iterable[frozenset[MergePair]],
) -> set[frozenset[MergePair]]:
    sols = set(solutions)
    return {s for s in sols if not any(s < t for t in sols)}


def pm_cm(
    solutions: Iterable[frozenset[MergePair]],
) -> tuple[frozenset[MergePair], frozenset[MergePair]]:
    """(possible merges, certain merges); both empty when no solution."""
    sols = set(solutions)
    if not sols:
        return frozenset(), frozenset()
    pm: set[MergePair] = set()
    for s in sols:
        pm |= s
    maxima = maximal_sets(sols)
    cm = set.intersection(*(set(s) for s in maxima))
    return frozenset(pm), frozenset(cm)


def bruteforce_solutions(
    db: Database,
    spec: Specification,
    sims,
    max_entities: int = 20,
    **knobs,
) -> set[frozenset[MergePair]]:
    """Exhaustive exploration of the candidate space, straight from the
    definitions: start at identity, apply any single rule answer, close,
    repeat; collect the states satisfying all hard rules and constraints.
    Refuses instances with more than max_entities entity references."""
    if len(db.entity_refs()) > max_entities:
        raise ValueError(
            f"{len(db.entity_refs())} entity refs exceeds the "
            f"{max_entities} limit"
        )
    all_rules = spec.all_rules()
    ctx = Context(db, spec, sims, **knobs)
    start = EqRel(db.domain)
    seen = {start.signature()}
    stack = [start]
    out: set[frozenset[MergePair]] = set()
    while stack:
        e = stack.pop()
        if _satisfied(ctx, e):
            out.add(e.nontrivial_pairs())
        for rule in all_rules:
            for i, j in merge_candidates(rule, ctx, e):
                child = e.clone()
                child.merge_ids(i, j)
                sig = child.signature()
                if sig not in seen:
                    seen.add(sig)
                    stack.append(child)
    return out


def _satisfied(ctx: Context, e: EqRel) -> bool:
    """Every hard rule and every denial constraint holds at e."""
    return all(rule_satisfied(r, ctx, e) for r in ctx.spec.hard) and all(
        dc_satisfied(dc, ctx, e) for dc in ctx.spec.dcs
    )


def verify_solution(ctx: Context, sol: Solution) -> bool:
    """The derivation replays from identity (each applied pair is an
    answer of its rule at its step) and reproduces exactly sol.eq, which
    satisfies all hard rules and constraints."""
    e = ctx.identity()
    for step in sol.derivation:
        rule = ctx.spec.rule_by_label(step.label)
        if rule is None:
            return False
        cands = merge_candidates(rule, ctx, e)
        i = e.canon_id(e.id_of(step.pair.left))
        j = e.canon_id(e.id_of(step.pair.right))
        key = (i, j) if i < j else (j, i)
        if key not in cands:
            return False
        e.merge_ids(i, j)
    if e.signature() != sol.eq.signature():
        return False
    return _satisfied(ctx, sol.eq)


# --------------------------------------------------------- min rule depth


def _rule_instantiations(
    rule: Rule,
    db: Database,
    same: Callable[[Constant, Constant], bool],
    simfn: SimFn | None,
    null_join_guard: bool,
):
    """Yield (label options, merge children) for every way of instantiating
    the rule body with database facts such that all occurrence mismatches
    are bridged by pairs inside the solution.

    A label option is a head pair (a, b) built from occurrence constants of
    the two head variables; the merge children are the distinct-constant
    occurrence pairs any proof tree with this instantiation must justify.
    """
    if rule.body.neq_atoms:
        raise ValueError("depth oracle expects inequality-free rule bodies")
    atoms = rule.body.rel_atoms
    joins = _join_vars(rule.body)
    hx, hy = rule.head
    assert isinstance(hx, Var) and isinstance(hy, Var)
    for combo in product(*(db.by_relation.get(a.relation, ()) for a in atoms)):
        occ: dict[Var, list[Constant]] = {}
        children: set[MergePair] = set()
        ok = True
        for atom, fact in zip(atoms, combo):
            for term, const in zip(atom.args, fact.args):
                if isinstance(term, Var):
                    occ.setdefault(term, []).append(const)
                elif term != const:
                    if term.is_entity() and const.is_entity() and same(term, const):
                        children.add(MergePair.of(term, const))
                    else:
                        ok = False
                        break
            if not ok:
                break
        if not ok:
            continue
        for v, consts in occ.items():
            if null_join_guard and v in joins and any(c.is_null() for c in consts):
                ok = False
                break
            for c1, c2 in combinations(consts, 2):
                if c1 == c2:
                    continue
                if c1.is_entity() and c2.is_entity() and same(c1, c2):
                    children.add(MergePair.of(c1, c2))
                else:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        for sa in rule.body.sim_atoms:
            lefts = occ[sa.left] if isinstance(sa.left, Var) else [sa.left]
            rights = occ[sa.right] if isinstance(sa.right, Var) else [sa.right]
            if simfn is None:
                raise ValueError("similarity atom without a resolver")
            if not any(
                simfn(sa.func_id, l, r) >= sa.threshold
                for l in lefts
                for r in rights
            ):
                ok = False
                break
        if not ok:
            continue
        labels = {
            MergePair.of(a, b)
            for a in occ.get(hx, ())
            for b in occ.get(hy, ())
            if a != b and a.is_entity() and b.is_entity() and same(a, b)
        }
        if labels:
            yield labels, frozenset(children)


def min_rule_depth(
    db: Database,
    spec: Specification,
    simfn: SimFn | None,
    classes: list[frozenset[Constant]],
    *,
    null_join_guard: bool = True,
) -> dict[MergePair, int]:
    """Minimum rule depth of any proof tree, per merged pair of the given
    solution, by value iteration.

    A rule node costs one plus the maximum depth of the merges it has to
    justify; a transitive node costs the maximum of its two halves; leaves
    cost nothing. Relax until the assignment stops changing.
    """
    rep = rep_map(classes)
    same = lambda a, b: rep[a] == rep[b]
    pairs = [
        p
        for p in class_pairs(classes)
        if p.left.is_entity() and p.right.is_entity()
    ]
    depth: dict[MergePair, int] = {p: INF for p in pairs}
    insts: list[tuple[set[MergePair], frozenset[MergePair]]] = []
    for rule in spec.hard + spec.soft:
        insts.extend(
            _rule_instantiations(rule, db, same, simfn, null_join_guard)
        )
    entity_classes = [
        sorted((c for c in cl if c.is_entity()), key=_ckey)
        for cl in classes
        if sum(c.is_entity() for c in cl) >= 2
    ]
    changed = True
    while changed:
        changed = False
        for labels, children in insts:
            worst = 0
            for ch in children:
                worst = max(worst, depth.get(ch, INF))
            if worst >= INF:
                continue
            cand = 1 + worst
            for lab in labels:
                if cand < depth[lab]:
                    depth[lab] = cand
                    changed = True
        for cls in entity_classes:
            for a, b in combinations(cls, 2):
                p = MergePair.of(a, b)
                for f in cls:
                    if f == a or f == b:
                        continue
                    cand = max(
                        depth[MergePair.of(a, f)], depth[MergePair.of(f, b)]
                    )
                    if cand < depth[p]:
                        depth[p] = cand
                        changed = True
    return {p: d for p, d in depth.items() if d < INF}


# ------------------------------------------------------------ proof trees


def validate_proof_tree(
    tree: ProofTree,
    db: Database,
    spec: Specification,
    sims=None,
) -> list[str]:
    """Check the proof tree definition clause by clause, independently of
    how the tree was built. Returns human-readable violations; an empty
    list means the tree is valid."""
    violations: list[str] = []
    facts = set(db.facts)
    if tree.root.pair != tree.pair:
        violations.append("root: label differs from the explained merge")

    def visit(node: ProofNode, path: str) -> bool:
        """Check one node; True when its children are to be checked too."""
        if node.kind is NodeKind.FACT:
            if node.children:
                violations.append(f"{path}: fact leaf has children")
            if node.fact not in facts:
                violations.append(
                    f"{path}: {node.label()} is not a database fact"
                )
            return False
        if node.kind is NodeKind.SIM:
            if node.children:
                violations.append(f"{path}: similarity leaf has children")
            assert node.sim is not None
            if sims is not None:
                sim = node.sim
                actual = sims.score(sim.func, sim.left.text, sim.right.text)
                if actual != node.sim.score:
                    violations.append(
                        f"{path}: recorded score {node.sim.score} but the "
                        f"resolver says {actual}"
                    )
            return False
        if node.pair is None:
            violations.append(f"{path}: internal node without a pair label")
            return False
        if node.kind is NodeKind.TRANSITIVE:
            _check_transitive(node, path)
        else:
            _check_rule(node, path)
        return True

    def _check_transitive(node: ProofNode, path: str) -> None:
        if len(node.children) != 2:
            violations.append(
                f"{path}: transitive node with {len(node.children)} children"
            )
            return
        kinds = {ch.kind for ch in node.children}
        if not kinds <= {NodeKind.RULE, NodeKind.TRANSITIVE}:
            violations.append(
                f"{path}: transitive children must be merge nodes"
            )
            return
        aset = {node.children[0].pair.left, node.children[0].pair.right}  # type: ignore[union-attr]
        bset = {node.children[1].pair.left, node.children[1].pair.right}  # type: ignore[union-attr]
        nset = {node.pair.left, node.pair.right}  # type: ignore[union-attr]
        if aset ^ bset != nset or len(aset & bset) != 1:
            violations.append(
                f"{path}: children labels do not chain through a shared "
                f"constant to the node label"
            )

    def _check_rule(node: ProofNode, path: str) -> None:
        rule = spec.rule_by_label(node.rule_label or "")
        if rule is None:
            violations.append(f"{path}: unknown rule {node.rule_label!r}")
            return
        fact_children = [c for c in node.children if c.kind is NodeKind.FACT]
        sim_children = [c for c in node.children if c.kind is NodeKind.SIM]
        merge_children = [
            c for c in node.children
            if c.kind in (NodeKind.RULE, NodeKind.TRANSITIVE)
        ]
        atoms = rule.body.rel_atoms
        if len(fact_children) != len(atoms):
            violations.append(
                f"{path}: {len(fact_children)} fact children for "
                f"{len(atoms)} body atoms"
            )
            return
        bound: dict[Var, list[Constant]] = {}
        need: set[MergePair] = set()
        for i, (atom, child) in enumerate(zip(atoms, fact_children)):
            f = child.fact
            assert f is not None
            if f.relation != atom.relation or len(f.args) != len(atom.args):
                violations.append(
                    f"{path}: fact child {i} does not instantiate "
                    f"{atom.relation}/{len(atom.args)}"
                )
                return
            for term, got in zip(atom.args, f.args):
                if isinstance(term, Var):
                    bound.setdefault(term, []).append(got)
                elif term != got:
                    need.add(MergePair.of(term, got))
        for var, consts in bound.items():
            for i, c1 in enumerate(consts):
                for c2 in consts[i + 1:]:
                    if c1 != c2:
                        need.add(MergePair.of(c1, c2))
        have = {c.pair for c in merge_children}
        for pair in need - have:
            violations.append(
                f"{path}: missing merge child "
                f"({pair.left.text}, {pair.right.text})"
            )
        for pair in have - need:
            violations.append(
                f"{path}: merge child ({pair.left.text}, {pair.right.text}) "
                f"is not required by the body instantiation"
            )
        x, y = rule.head
        xs = set(bound.get(x, ()))
        ys = set(bound.get(y, ()))
        nset = {node.pair.left, node.pair.right}  # type: ignore[union-attr]
        if not any(
            {ox, oy} == nset for ox in xs for oy in ys
        ):
            violations.append(
                f"{path}: head variables were never read from the node "
                f"label constants"
            )
        unused = list(sim_children)
        for satom in rule.body.sim_atoms:
            expect_left = _term_consts(satom.left, bound)
            expect_right = _term_consts(satom.right, bound)
            found = None
            for ch in unused:
                se = ch.sim
                assert se is not None
                if se.func != satom.func_id:
                    continue
                ok = (se.left in expect_left and se.right in expect_right) or (
                    se.right in expect_left and se.left in expect_right
                )
                if ok and se.score >= satom.threshold:
                    found = ch
                    break
            if found is None:
                violations.append(
                    f"{path}: no similarity child satisfies "
                    f"{satom.func_id} >= {satom.threshold / 100:.2f}"
                )
            else:
                unused.remove(found)
        for ch in unused:
            violations.append(f"{path}: extra similarity child {ch.label()}")

    def _term_consts(term, bound: dict[Var, list[Constant]]) -> set[Constant]:
        if isinstance(term, Var):
            return set(bound.get(term, ()))
        return {term}

    # preorder on an explicit stack, so tree depth does not grow the
    # Python stack
    todo = [(tree.root, "root")]
    while todo:
        node, path = todo.pop()
        if visit(node, path):
            todo.extend(
                (ch, f"{path}.children[{i}]")
                for i, ch in reversed(list(enumerate(node.children)))
            )
    return violations


# ----------------------------------------------------------- sim utilities


def levenshtein_dp(a: str, b: str) -> int:
    """Classic full-matrix edit distance."""
    rows = len(a) + 1
    cols = len(b) + 1
    m = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        m[i][0] = i
    for j in range(cols):
        m[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            m[i][j] = min(
                m[i - 1][j] + 1, m[i][j - 1] + 1, m[i - 1][j - 1] + cost
            )
    return m[-1][-1]


def _jaro(a: str, b: str) -> float:
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    amatch = [False] * la
    bmatch = [False] * lb
    m = 0
    for i in range(la):
        lo = i - window if i > window else 0
        hi = i + window + 1
        if hi > lb:
            hi = lb
        for j in range(lo, hi):
            if not bmatch[j] and a[i] == b[j]:
                amatch[i] = True
                bmatch[j] = True
                m += 1
                break
    if m == 0:
        return 0.0
    mismatched = 0
    k = 0
    for i in range(la):
        if amatch[i]:
            while not bmatch[k]:
                k += 1
            if a[i] != b[k]:
                mismatched += 1
            k += 1
    t = mismatched // 2
    return (m / la + m / lb + (m - t) / m) / 3.0


def jw_score(a: str, b: str) -> int:
    """Jaro-Winkler similarity in hundredths; the common-prefix boost
    (factor 0.1, prefix capped at 4) is applied unconditionally.

    The reference for both kernel backends: Jaro's matching by a plain scan
    of every window position, in the floating-point expressions the
    backends must reproduce bit for bit."""
    j = _jaro(a, b)
    p = 0
    for i in range(min(4, len(a), len(b))):
        if a[i] != b[i]:
            break
        p += 1
    return int((j + p * 0.1 * (1.0 - j)) * 10000.0 + 0.5)
