"""Command line pipeline: ingest tabular data against a declared schema,
materialize similarity scores, run any resolution operation, and write the
results as plain files.

    entres --spec music.er --data data/music --sim table:data/music/simtable.tsv \
           --mode maximal --out out/

Modes: validate, sim, lb, ub, loose-ub, solve-one, enumerate[:n],
maximal[:n], pm, cm, levels, explain:a,b, eval. Merge sets are written as
TSV (left, right), levels as (left, right, level), metrics as JSON,
explanations as DOT and JSON. Exit codes: 0 success, 1 usage, 2
specification error, 3 data error, 4 no solution where one is required.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from . import engine
from .errors import (
    DataError,
    HeaderMismatch,
    MissingFile,
    MissingSimScore,
    NotInSolution,
    RaggedRow,
    SpecError,
    UnknownConstant,
    decode_guard,
)
from .matcher import Context
from .model import Constant, Database, Kind, MergePair, entity
from .rules import (
    RuleKind,
    Schema,
    Specification,
    Var,
    analyse,
    load_spec,
    validate_sim_safety,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .simkit import SimStore

_MODES = (
    "validate", "sim", "lb", "ub", "loose-ub", "solve-one",
    "enumerate", "maximal", "pm", "cm", "levels", "explain", "eval",
)

_PAIR_HEADER = ["left", "right"]
_CLUSTER_HEADER = ["constant", "cluster"]

#: names bound from their module on first use, so that a call imports only
#: what its mode runs. A tracer (resbench/layers.py) replaces them on this
#: module; binding keeps a name already set, so its wrapper is the one called.
_LAZY = {
    "proof_tree": "explain", "rule_depth": "explain",
    "to_dot": "explain", "to_json": "explain",
    "sim_all": "simkit", "sim_opt": "simkit",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__package__}.{_LAZY[name]}")
    return globals().setdefault(name, getattr(module, name))


def _bind(*names: str) -> None:
    """Bind each name into this module, which then calls it by name."""
    for name in names:
        __getattr__(name)


# ----------------------------------------------------------------- ingest


def ingest(data_dir: str, schema: Schema, null_token: str = "") -> Database:
    """Load one `<Relation>.tsv` or `<Relation>.csv` per declared relation.
    The header row must equal the declared attribute names; cells equal to
    the null token become the null constant; id-hinted columns become
    entity references, all others values. Duplicate rows collapse. A
    quoted cell that holds a tab or a line break is a DataError, because
    the outputs are tab-separated lines."""
    tables: dict[str, tuple[tuple[Kind, ...], list[list[str]]]] = {}
    root = Path(data_dir)
    for decl in schema.relations:
        path = None
        for ext in (".tsv", ".csv"):
            cand = root / f"{decl.name}{ext}"
            if cand.is_file():
                path = cand
                break
        if path is None:
            raise MissingFile(
                f"no {decl.name}.tsv or {decl.name}.csv under {root}"
            )
        delim = "\t" if path.suffix == ".tsv" else ","
        kinds = tuple(
            Kind.ENTITY if h == "id" else Kind.VALUE for h in decl.hints
        )
        rows: list[list[str]] = []
        tables[decl.name] = (kinds, rows)
        with (
            open(path, newline="", encoding="utf-8") as fh,
            decode_guard(path, DataError),
        ):
            reader = csv.reader(fh, delimiter=delim)
            header = next(reader, None)
            if header != list(decl.attributes):
                raise HeaderMismatch(
                    f"{path}: header {header!r} does not match declared "
                    f"attributes {list(decl.attributes)!r}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(decl.attributes):
                    raise RaggedRow(
                        f"{path}:{lineno}: {len(row)} cells for "
                        f"{len(decl.attributes)} attributes"
                    )
                for c in row:
                    if "\t" in c or "\n" in c or "\r" in c:
                        raise DataError(
                            f"{path}:{lineno}: cell {c!r} holds a tab or "
                            f"a line break, which tab-separated output "
                            f"cannot hold"
                        )
                rows.append(row)
    return Database.interned(tables, null_token)


# ------------------------------------------------------- pairs and truth


def write_pairs(path: Path, pairs: Iterable[MergePair]) -> None:
    rows = sorted((p.left.text, p.right.text) for p in pairs)
    lines = ["\t".join(_PAIR_HEADER)] + ["\t".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_truth(path: str) -> frozenset[MergePair]:
    """Read ground truth as either an explicit pair list (header
    left/right) or cluster assignments (header constant/cluster), expanded
    to all within-cluster pairs."""
    try:
        with (
            open(path, newline="", encoding="utf-8") as fh,
            decode_guard(path, DataError),
        ):
            rows = [r for r in csv.reader(fh, delimiter="\t") if r]
    except OSError as exc:
        raise MissingFile(f"{path}: {exc.strerror}") from None
    if not rows:
        raise DataError(f"{path}: empty ground truth file")
    header, body = rows[0], rows[1:]
    pairs: set[MergePair] = set()
    if header == _PAIR_HEADER:
        for lineno, row in enumerate(body, start=2):
            if len(row) != 2:
                raise RaggedRow(f"{path}:{lineno}: expected 2 cells")
            if row[0] != row[1]:
                pairs.add(MergePair.of(entity(row[0]), entity(row[1])))
    elif header == _CLUSTER_HEADER:
        clusters: dict[str, list[str]] = {}
        for lineno, row in enumerate(body, start=2):
            if len(row) != 2:
                raise RaggedRow(f"{path}:{lineno}: expected 2 cells")
            clusters.setdefault(row[1], []).append(row[0])
        for members in clusters.values():
            uniq = sorted(set(members))
            for i, a in enumerate(uniq):
                for b in uniq[i + 1:]:
                    pairs.add(MergePair.of(entity(a), entity(b)))
    else:
        raise HeaderMismatch(
            f"{path}: ground truth header must be "
            f"{'/'.join(_PAIR_HEADER)} or {'/'.join(_CLUSTER_HEADER)}, "
            f"got {header!r}"
        )
    return frozenset(pairs)


def evaluate(
    result: Iterable[MergePair], truth: Iterable[MergePair]
) -> dict[str, Fraction]:
    """Exact precision, recall and F1 over canonical pair sets. Precision
    of an empty result and recall against an empty truth are 1 by
    convention; F1 is 0 when both P and R are 0."""
    from fractions import Fraction

    rset, tset = frozenset(result), frozenset(truth)
    hit = len(rset & tset)
    p = Fraction(1) if not rset else Fraction(hit, len(rset))
    r = Fraction(1) if not tset else Fraction(hit, len(tset))
    f1 = Fraction(0) if p + r == 0 else 2 * p * r / (p + r)
    return {"precision": p, "recall": r, "f1": f1}


# ------------------------------------------------------------- run pipeline


class _ArgParser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; this tool reserves 2
    for specification errors, so remap to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgParser(
        prog="entres",
        description="Collective entity resolution over rule specifications.",
    )
    p.add_argument("--spec", required=True, help="specification file")
    p.add_argument("--data", help="directory with one TSV/CSV per relation")
    p.add_argument(
        "--sim", default="opt", metavar="{all|cs|opt|table:FILE}",
        help="similarity strategy (default: opt)",
    )
    p.add_argument(
        "--mode", required=True, metavar="MODE",
        help="one of validate, sim, lb, ub, loose-ub, solve-one, "
             "enumerate[:n], maximal[:n], pm, cm, levels, explain:a,b, eval",
    )
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--truth", help="ground truth file for metrics")
    p.add_argument(
        "--null-token", default="",
        help="cell text read as the null constant (default: empty string)",
    )
    p.add_argument(
        "--levels-scope", choices=("solution", "ub"), default="solution",
        help="admit only in-solution rule answers to the level chain, or all",
    )
    p.add_argument(
        "--null-inequality", choices=("distinct", "fail"), default="distinct",
        help="treat null as a regular distinct constant in inequalities, "
             "or falsify any inequality touching it",
    )
    return p


def _parse_mode(text: str, parser: argparse.ArgumentParser):
    base, _, arg = text.partition(":")
    if base not in _MODES:
        parser.error(f"unknown mode {text!r}")
    if base in ("enumerate", "maximal"):
        if not arg:
            return base, None
        if not (arg.isascii() and arg.isdigit()):
            parser.error(f"mode {base} needs a bound in digits 0-9, "
                         f"got {arg!r}")
        n = int(arg)
        if n <= 0:
            parser.error(f"mode {base} needs a positive bound")
        return base, n
    if base == "explain":
        left, sep, right = arg.partition(",")
        if not sep or not left or not right:
            parser.error("mode explain needs a pair: explain:a,b")
        if left == right:
            parser.error("mode explain needs two distinct constants")
        return base, (left, right)
    if arg:
        parser.error(f"mode {base} takes no argument")
    return base, None


def _safety_line(spec: Specification) -> str:
    verdict = "yes" if not validate_sim_safety(spec) else "no"
    return (
        f"sim-safe: {verdict}; {len(spec.hard)} hard, "
        f"{len(spec.soft)} soft, {len(spec.dcs)} DC"
    )


def _analysis_lines(spec: Specification) -> list[str]:
    """One line per body with an inequality that can turn false as classes
    grow (see rules.Analysis): the atom, why, and what it costs."""
    lines = []
    for label, (natom, why) in analyse(spec).breaks.items():
        atom = " != ".join(
            t.name if isinstance(t, Var) else repr(t)
            for t in (natom.left, natom.right)
        )
        rule = spec.rule_by_label(label)
        if rule is None:
            owner = "constraint"
            then = "checked once a state is done; the search does not split"
        else:
            owner = f"{rule.kind.value} rule"
            then = "the search is not eager and does not split"
            if rule.kind is RuleKind.HARD:
                then = "left out of lb; " + then
        lines.append(f"  {owner} {label}: {atom} {why}: {then}")
    return lines


def _sim_filename(func: str) -> str:
    safe = "".join(ch if ch.isalnum() else "_" for ch in func)
    return f"sim_{safe}.tsv"


def _check_sim_filenames(spec: Specification) -> None:
    """Raise SpecError when two similarity functions of the specification
    would write one `sim_*.tsv` file."""
    owner: dict[str, str] = {}
    funcs = {s.func_id for r in spec.all_rules() for s in r.body.sim_atoms}
    for func in sorted(funcs):
        name = _sim_filename(func)
        first = owner.setdefault(name, func)
        if first != func:
            raise SpecError(
                f"similarity functions {first!r} and {func!r} would both "
                f"write {name}; rename one"
            )


class _Cells(dict):
    """Score -> its score cell, each distinct score formatted once."""

    def __missing__(self, score: int) -> str:
        cell = self[score] = f"{score / 100:.2f}"
        return cell


def _export_store(store: SimStore, out: Path) -> list[Path]:
    """One sim file per function, the lines of one left text (a triangle
    row) in one write."""
    written = []
    cells = _Cells()
    for func in store.funcs():
        path = out / _sim_filename(func)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("left\tright\tscore\n")
            for a, pairs in store.walk(func):
                lines = [f"{a}\t{b}\t{cells[s]}\n" for b, s in pairs]
                fh.write("".join(lines))
        written.append(path)
    return written


def _prepare_sims(
    args, mode: str, ctx: Context
) -> tuple[Context, SimStore | None]:
    """The context with the engine's resolver, and with sim_opt's ub
    fixpoint and root under opt, plus the materialized store (None for the
    table strategy, which serves lookups directly). Nothing is scored for
    loose-ub, which drops every similarity atom."""
    from_table = args.sim.startswith("table:")
    if not from_table and (mode == "loose-ub" or not any(
        rule.body.sim_atoms for rule in ctx.spec.all_rules()
    )):
        return ctx, None
    from . import simkit

    if from_table:  # loaded on every spec, so that a bad table fails on each
        table = simkit.SimTable.load(args.sim[len("table:"):])
        return ctx.replace(sims=simkit.TableResolver(table)), None
    _bind("sim_all", "sim_opt")
    ub = root = None
    if args.sim == "all":
        store = sim_all(ctx.db, ctx.spec)
    elif args.sim == "cs":
        store = simkit.sim_cs(ctx.db, ctx.spec)
    else:
        store, ub, root = sim_opt(ctx)
    sims = simkit.StrictResolver(store)
    return ctx.replace(sims=sims, ub=ub, root=root), store


def _entity_by_text(db: Database, text: str) -> Constant:
    c = entity(text)
    if c not in db.domain:
        raise UnknownConstant(f"no entity reference {text!r} in the data")
    return c


def _metrics_io(
    pairs: Iterable[MergePair], truth: frozenset[MergePair], out: Path
) -> None:
    import json

    m = evaluate(pairs, truth)
    payload = {k: float(v) for k, v in m.items()}
    payload.update({f"{k}_exact": str(v) for k, v in m.items()})
    dest = out / "metrics.json"
    dest.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(
        f"metrics: P={float(m['precision']):.4f} "
        f"R={float(m['recall']):.4f} F1={float(m['f1']):.4f} -> {dest}"
    )


def _write_merges(
    mode: str,
    pairs: frozenset[MergePair],
    out: Path,
    truth: frozenset[MergePair] | None,
) -> None:
    """Write `<mode>.tsv`, report it, and score it when a truth is given."""
    dest = out / f"{mode}.tsv"
    write_pairs(dest, pairs)
    print(f"{mode}: {len(pairs)} merges -> {dest}")
    if truth is not None:
        _metrics_io(pairs, truth, out)


def run(args, parser: argparse.ArgumentParser) -> int:
    mode, mode_arg = _parse_mode(args.mode, parser)
    if args.sim not in ("all", "cs", "opt") and args.sim[:6] != "table:":
        parser.error(
            f"unknown similarity strategy {args.sim!r}; "
            f"expected all, cs, opt or table:FILE"
        )
    if mode == "eval" and not args.truth:
        parser.error("mode eval requires --truth")
    spec = load_spec(args.spec)

    if mode == "validate":
        print(_safety_line(spec))
        for v in validate_sim_safety(spec):
            print(
                f"  rule {v.rule_label}: merge position "
                f"{v.relation}.{v.attribute} feeds a similarity atom"
            )
        for line in _analysis_lines(spec):
            print(line)
        return 0

    if not args.data:
        parser.error(f"mode {mode} requires --data")
    if mode == "sim" and not args.sim.startswith("table:"):
        _check_sim_filenames(spec)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.exit(1, f"{parser.prog}: error: cannot create output "
                       f"directory {out}: {exc.strerror}\n")
    fixpoint = solve = 0.0
    t0 = time.perf_counter()
    db = ingest(args.data, spec.schema, args.null_token)
    truth = load_truth(args.truth) if args.truth else None
    if mode == "explain":
        a, b = (_entity_by_text(db, text) for text in mode_arg)
    ctx = Context(db, spec, null_inequality=args.null_inequality)
    ctx, store = _prepare_sims(args, mode, ctx)
    preprocess = time.perf_counter() - t0

    code = 0
    if mode == "sim":
        if store is None:
            print("sim: nothing to materialize (table strategy or no "
                  "similarity atoms)")
        else:
            files = _export_store(store, out)
            print(
                f"sim: {len(store)} scores from {store.calls} calls -> "
                + ", ".join(str(f) for f in files)
            )
    elif mode in ("lb", "ub", "loose-ub"):
        t0 = time.perf_counter()
        if mode == "lb":
            e = engine.lb(ctx)
        elif mode == "ub":
            e = engine.ub(ctx)
        else:
            e = engine.loose_ub(ctx)
        fixpoint = time.perf_counter() - t0
        _write_merges(mode, e.nontrivial_pairs(), out, truth)
    elif mode in ("enumerate", "maximal"):
        t0 = time.perf_counter()
        if mode == "enumerate":
            sols = engine.enumerate_solutions(ctx, n=mode_arg)
        else:
            sols = engine.maximal_solutions(ctx, n=mode_arg)
        solve = time.perf_counter() - t0
        if not sols:
            print("no solution exists", file=sys.stderr)
            code = 4
        for k, sol in enumerate(sols, start=1):
            dest = out / f"{mode}_{k}.tsv"
            write_pairs(dest, sol.pairs())
            print(f"{mode} {k}: {len(sol.pairs())} merges -> {dest}")
    elif mode in ("solve-one", "pm", "cm", "eval", "levels", "explain"):
        t0 = time.perf_counter()
        sol = engine.solve_one(ctx)
        solve = time.perf_counter() - t0
        if sol is None:
            print("no solution exists", file=sys.stderr)
            code = 4
        elif mode == "solve-one":
            _write_merges(mode, sol.pairs(), out, truth)
        elif mode in ("pm", "cm"):
            t0 = time.perf_counter()
            if mode == "pm":
                pairs = engine.possible_merges(ctx)
            else:
                pairs = engine.certain_merges(ctx)
            solve += time.perf_counter() - t0
            _write_merges(mode, pairs, out, truth)
        elif mode == "eval":
            _metrics_io(sol.pairs(), truth, out)
        elif mode == "levels":
            t0 = time.perf_counter()
            lm = engine.levels(ctx, sol, scope=args.levels_scope)
            fixpoint = time.perf_counter() - t0
            dest = out / "levels.tsv"
            lines = ["left\tright\tlevel"] + [
                f"{p.left.text}\t{p.right.text}\t{lv}" for p, lv in lm.items()
            ]
            dest.write_text("\n".join(lines) + "\n", encoding="utf-8")
            print(f"levels: {len(lm)} merges -> {dest}")
        else:
            _bind("proof_tree", "rule_depth", "to_dot", "to_json")
            tree = proof_tree(ctx, sol, (a, b))
            dot_dest = out / "explain.dot"
            json_dest = out / "explain.json"
            with (
                open(dot_dest, "w", encoding="utf-8") as dot_fh,
                open(json_dest, "w", encoding="utf-8") as json_fh,
            ):
                to_dot(tree, spec, dot_fh)
                to_json(tree, json_fh)
                json_fh.write("\n")
            print(
                f"explain ({a.text}, {b.text}): rule-depth "
                f"{rule_depth(tree)} -> {dot_dest}, {json_dest}"
            )
    print(
        f"timing: preprocess={preprocess:.3f}s "
        f"fixpoint={fixpoint:.3f}s solve={solve:.3f}s"
    )
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except SpecError as exc:
        print(f"specification error: {exc}", file=sys.stderr)
        return 2
    except (DataError, MissingSimScore, UnknownConstant) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NotInSolution as exc:
        print(f"no solution contains the pair: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
