"""Per-layer tracing: timing and counting wrappers installed on the module
attributes through which the `entres` modules call each other.

Each wrapper opens a span (name, start, end, parent span, invocation id) on
entry and closes it on exit. A span's self time is its duration minus the
time its child spans cover; it is accumulated per name as spans close, and
the spans themselves stay in memory until `Tracer.spans` is written out.
Leaf functions called up to millions of times (`jw_score`, resolver probes,
`EqRel.clone`/`signature`, `dc_satisfied`) are only aggregated, without a
span record, to keep the trace small.

Names are patched where the caller looks them up: `engine` binds the matcher
functions with `from .matcher import ...`, `simkit` and `explain` bind
`answers` the same way, `cli` binds `load_spec`, `sim_all`, `sim_opt`,
`proof_tree`, `rule_depth`, `to_dot` and `to_json` by name, and
`build_registry` reads `kernels.jw_score` when the registry is built.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: (module, attribute, span name, hot) patched during a traced invocation;
#: a hot name is aggregated without span records
PATCHES = (
    ("cli", "ingest", "cli.ingest", False),
    ("cli", "write_pairs", "cli.write_pairs", False),
    ("cli", "load_spec", "rules.load_spec", False),
    ("cli", "sim_all", "simkit.sim_all", False),
    ("cli", "sim_opt", "simkit.sim_opt", False),
    ("cli", "proof_tree", "explain.proof_tree", False),
    ("cli", "rule_depth", "explain.rule_depth", False),
    ("cli", "to_dot", "explain.render", False),
    ("cli", "to_json", "explain.render", False),
    ("engine", "lb", "engine.lb", False),
    ("engine", "ub", "engine.ub", False),
    ("engine", "solve_one", "engine.solve_one", False),
    ("engine", "enumerate_solutions", "engine.enumerate_solutions", False),
    ("engine", "maximal_solutions", "engine.maximal_solutions", False),
    ("engine", "possible_merges", "engine.possible_merges", False),
    ("engine", "certain_merges", "engine.certain_merges", False),
    ("engine", "levels", "engine.levels", False),
    ("engine", "merge_candidates", "matcher.merge_candidates", False),
    ("engine", "dc_satisfied", "matcher.dc_satisfied", True),
    ("engine", "rule_satisfied", "matcher.rule_satisfied", False),
    ("simkit", "answers", "matcher.answers", False),
    ("explain", "answers", "matcher.answers", False),
    ("model.EqRel", "clone", "model.EqRel.clone", True),
    ("model.EqRel", "signature", "model.EqRel.signature", True),
    ("simkit.StrictResolver", "score", "simkit.resolver", True),
    ("simkit.OnDemandResolver", "score", "simkit.resolver", True),
    ("kernels", "jw_score", "kernels.jw_score", True),
)


class Tracer:
    """Spans and counters of the invocations run while it is installed."""

    def __init__(self) -> None:
        self.invocation = ""
        self.spans: list[tuple[str, int, int, str, float, float]] = []
        # per invocation: name -> [calls, self seconds]
        self.stats: dict[str, dict[str, list]] = {}
        # per invocation: counter name -> count
        self.counts: dict[str, Counter] = {}
        self._stack: list[list] = []  # [child seconds, span id, name]
        self._next_id = 0

    def begin(self, invocation: str) -> None:
        self.invocation = invocation
        self.stats[invocation] = defaultdict(lambda: [0, 0.0])
        self.counts[invocation] = Counter()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.invocation][key] += n

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def parent_name(self) -> str | None:
        return self._stack[-1][2] if self._stack else None

    def wrap(self, name: str, fn, hot: bool = False, after=None):
        """fn wrapped in a span; after(tracer, args, result) runs once the
        span closed."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                st = tracer.stats[tracer.invocation][name]
                st[0] += 1
                st[1] += dur - frame[0]
                if not hot:
                    tracer.spans.append(
                        (tracer.invocation, span_id, parent, name, start, end)
                    )
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _merge_candidates(tracer, args, result) -> None:
    rule = args[0]
    tracer.count("matcher.merge_candidates.pairs_out", len(result))
    if rule.kind.value == "soft":
        tracer.count("soft_calls")
        tracer.count("soft_rule:" + rule.label, 0)
    else:
        tracer.count("engine.saturate.rounds")


def _dc_satisfied(tracer, args, result) -> None:
    if not result:
        tracer.count("matcher.dc_satisfied.violations")
        if tracer.inside("engine.enumerate_solutions"):
            tracer.count("search_prunes")


def _store(tracer, args, result) -> None:
    store = result[0] if isinstance(result, tuple) else result
    tracer.count("simkit.store.entries", len(store))
    tracer.count("simkit.scorer.calls", store.calls)


def _proof_tree(tracer, args, result) -> None:
    nodes, todo = 0, [result.root]
    while todo:
        nodes += 1
        todo.extend(todo.pop().children)
    tracer.count("explain.proof_tree.nodes", nodes)


def _scorer(tracer, args, result) -> None:
    if tracer.parent_name() == "simkit.resolver":
        tracer.count("probe_misses")


#: span name -> after(tracer, args, result), run once the span closed
_HOOKS = {
    "matcher.merge_candidates": _merge_candidates,
    "matcher.dc_satisfied": _dc_satisfied,
    "engine.enumerate_solutions":
        lambda tracer, args, result: tracer.count("engine.solutions", len(result)),
    "simkit.sim_all": _store,
    "simkit.sim_opt": _store,
    "cli.ingest":
        lambda tracer, args, result: tracer.count("cli.ingest.facts", len(result)),
    "explain.proof_tree": _proof_tree,
    "explain.rule_depth":
        lambda tracer, args, result: tracer.count("explain.rule_depth", result),
    "kernels.jw_score": _scorer,
}


def _owner(modules: dict, path: str):
    mod, _, cls = path.partition(".")
    obj = modules[mod]
    return getattr(obj, cls) if cls else obj


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Patch every PATCHES entry for the duration of the block. `modules`
    maps the short module names used in PATCHES to the imported modules."""
    saved = []
    try:
        for path, attr, name, hot in PATCHES:
            owner = _owner(modules, path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, hot, _HOOKS.get(name)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: engine entry points whose self time is reported
ENGINE_OPS = (
    "lb", "ub", "solve_one", "enumerate_solutions", "maximal_solutions",
    "possible_merges", "certain_merges", "levels",
)


def layer_metrics(tracer: Tracer, invocations: list[str]) -> dict[str, float]:
    """Per-layer metrics summed over the given invocations."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    for inv in invocations:
        for name, (n, s) in tracer.stats[inv].items():
            calls[name] += n
            self_s[name] += s
        counts.update(tracer.counts[inv])
    soft_rules = sum(1 for k in counts if k.startswith("soft_rule:"))
    nodes = counts["soft_calls"] / soft_rules if soft_rules else 0
    sigs = calls["model.EqRel.signature"]
    probes = calls["simkit.resolver"]
    m = {
        "matcher.merge_candidates.calls": calls["matcher.merge_candidates"],
        "matcher.merge_candidates.self_s": self_s["matcher.merge_candidates"],
        "matcher.merge_candidates.pairs_out":
            counts["matcher.merge_candidates.pairs_out"],
        "matcher.dc_satisfied.calls": calls["matcher.dc_satisfied"],
        "matcher.dc_satisfied.self_s": self_s["matcher.dc_satisfied"],
        "matcher.dc_satisfied.violations":
            counts["matcher.dc_satisfied.violations"],
        "matcher.rule_satisfied.calls": calls["matcher.rule_satisfied"],
        "matcher.rule_satisfied.self_s": self_s["matcher.rule_satisfied"],
        "matcher.answers.calls": calls["matcher.answers"],
        "matcher.answers.self_s": self_s["matcher.answers"],
        "model.EqRel.clone.calls": calls["model.EqRel.clone"],
        "model.EqRel.signature.calls": sigs,
        "model.EqRel.self_s":
            self_s["model.EqRel.clone"] + self_s["model.EqRel.signature"],
        "engine.search.nodes": nodes,
        # a search visit hits the memo, is pruned by a denial constraint,
        # or expands the node
        "engine.search.memo_hit_ratio":
            max(0.0, 1 - (nodes + counts["search_prunes"]) / sigs)
            if sigs and soft_rules else 0.0,
        "engine.solutions": counts["engine.solutions"],
        "engine.saturate.rounds": counts["engine.saturate.rounds"],
    }
    for op in ENGINE_OPS:
        m[f"engine.{op}.self_s"] = self_s[f"engine.{op}"]
    m.update({
        "simkit.sim_all.self_s": self_s["simkit.sim_all"],
        "simkit.sim_opt.self_s": self_s["simkit.sim_opt"],
        "simkit.resolver.probes": probes,
        "simkit.resolver.self_s": self_s["simkit.resolver"],
        "simkit.scorer.calls": counts["simkit.scorer.calls"],
        "simkit.store.entries": counts["simkit.store.entries"],
        "simkit.probe_hit_ratio":
            1 - counts["probe_misses"] / probes if probes else 0.0,
        "kernels.jw_score.calls": calls["kernels.jw_score"],
        "kernels.jw_score.self_s": self_s["kernels.jw_score"],
        "explain.proof_tree.self_s": self_s["explain.proof_tree"],
        "explain.proof_tree.nodes": counts["explain.proof_tree.nodes"],
        "explain.rule_depth": counts["explain.rule_depth"],
        "explain.render.self_s": self_s["explain.render"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.ingest.self_s": self_s["cli.ingest"],
        "cli.ingest.facts": counts["cli.ingest.facts"],
        "cli.write_pairs.self_s": self_s["cli.write_pairs"],
        "rules.load_spec.self_s": self_s["rules.load_spec"],
    })
    return m


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "kernels.share_of_sim_all":
        return "1"
    return "B" if name == "cli.output_bytes" else "count"


def missing_wrappers(tracer: Tracer, required, invocations: list[str]) -> list[str]:
    """Names among `required` whose wrapper recorded no call."""
    fired = {
        name for inv in invocations
        for name, (n, _) in tracer.stats[inv].items() if n
    }
    return [name for name in required if name not in fired]
