#!/usr/bin/env python3
"""Resolver benchmark: CLI wall time per mode on seeded workloads, with every
output checked against the answer planted by the generator.

    python3 resbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the directory holding `src/entres`).
Inputs are generated from `--seed` under `.resbench_work/`; the program
only ever sees the generated `.er` and TSV files.

Untraced run (`--trace 0`): a closed loop with a single client. Each pass
runs every invocation of the workload once, one `python -m entres.cli`
process at a time, and passes repeat until `--seconds` are used. Every
timing is the median over passes of CLI wall seconds per invocation,
interpreter start-up included, because users pay it on every call. Each
wall time is scaled by a calibration loop timed just before and after it
(see CALIBRATION), so the figures hold still while a shared host's speed swings
by a third from minute to minute; the unscaled medians are printed beside
them and kept in the result file. Peak RSS comes from the rusage of each
CLI process (see spawner.py). `failed_ratio` (failed / attempted) is
printed with the metrics; the JSON result carries it as `failed` and
`attempted`.

Traced run (`--trace 1`): the workload's own invocations run in three kinds
of pass, in turn: an untraced CLI pass as above, and two passes that call
`entres.cli.main(argv)` in this process, plain and with the wrappers of
`layers.py` installed. Per-layer metrics come from the traced passes;
`trace.overhead_s` is the traced wall minus the plain in-process wall (the
CLI wall, `trace.untraced_wall_s`, also pays one interpreter start-up per
invocation).

Workloads, and why each exists (each stresses a layer the others leave
idle):

  solve    music-like, 36 bands: `solve-one`. Per-node search cost
           (evaluator rebuilds, hard re-saturation, constraint rechecks)
           dominates; scoring is a few per cent.
  space    music-like, 4 bands with 3 free song pairs and 2 conflict
           triples (72 solutions, 4 maximal): `pm`, `cm`, `maximal`. Full enumeration of an instance
           that splits into independent parts; scoring and explain idle.
  scoring  music-like, 26 bands: `--sim all --mode sim`, then `--sim opt`
           with `sim`, `lb` and `ub`. The only workload the similarity and
           kernel layers dominate, bulk all-pairs against on-demand probing;
           no search.
  cascade  ladder of depth 100, hard rules only: `lb`, `levels` and
           `explain:` on the top pair. The only workload that uses levels
           and proof trees heavily, with one merge per fixpoint round and a
           large explain.json; no soft rules, no scoring.

Every workload reports every mode metric: a mode outside the workload's own
list runs on a small companion instance (music-like, 3 bands; or a ladder of
depth 4), so its figure is the CLI's fixed cost per call and the prediction
for it is no change. `wall_s` sums the workload's own modes only.

An invocation fails when it exits with an unexpected code, times out,
writes output that differs from the planted answer, or writes output whose
bytes differ from an earlier pass. Failures are listed in the result file
and counted in `failed`; none is dropped.

The last line of standard output is the JSON result; the full result, with
provenance and per-pass figures, is written to
`.resbench_work/results/<workload>-seed<n>-trace<t>.json` for compare.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import gen
import layers

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".resbench_work"

#: per-invocation timeout, and the point after which no invocation starts;
#: together they keep one run under three minutes whatever the code does
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0
SETUP_REPEATS = 15

#: a fixed pure-Python loop timed next to every timed step: in a fresh
#: interpreter (n=CAL_N) before and after each CLI process, in this process
#: (n=SETUP_CAL_N) before each set-up. Each time is scaled by
#: reference / (its mean calibration time), which cancels the speed swings
#: of a shared host. The references are the loops' times on a quiet 2-core
#: x86 container running CPython 3.11, so scaled times read as seconds there.
CALIBRATION = """
d, s = dict(), set()
for i in range({n}):
    k = (i % 977, str(i % 1313))
    d[k] = d.get(k, 0) + 1
    s.add(frozenset((i % 31, i % 37)))
sorted(d.items())
"""
CAL_N, CAL_REF_S = 50000, 0.2
SETUP_CAL_N, SETUP_CAL_REF_S = 10000, 0.02


@dataclass(frozen=True)
class Workload:
    main: object            # seed -> gen.Instance
    modes: tuple[str, ...]  # mode metrics run on the main instance
    #: wrappers (layers.PATCHES names) that must fire in the traced run
    wrappers: tuple[str, ...]


#: wrappers every workload goes through
_CLI = ("cli.ingest", "cli.write_pairs", "rules.load_spec")

WORKLOADS = {
    "solve": Workload(
        lambda s: gen.music(s, bands=36, band_copies=2, pairs=32, triples=3),
        ("solve_one_s",),
        _CLI + ("matcher.merge_candidates", "matcher.dc_satisfied",
                "model.EqRel.clone", "model.EqRel.signature", "simkit.resolver",
                "simkit.sim_opt", "engine.solve_one", "engine.enumerate_solutions"),
    ),
    "space": Workload(
        lambda s: gen.music(s, bands=4, band_copies=2, pairs=3, triples=2),
        ("pm_s", "cm_s", "maximal_s"),
        _CLI + ("matcher.merge_candidates", "matcher.dc_satisfied",
                "model.EqRel.clone", "model.EqRel.signature",
                "engine.possible_merges", "engine.certain_merges",
                "engine.maximal_solutions", "engine.enumerate_solutions"),
    ),
    "scoring": Workload(
        lambda s: gen.music(s, bands=26, band_copies=2, pairs=8, triples=0),
        ("sim_all_s", "sim_opt_s", "lb_s", "ub_s"),
        _CLI + ("simkit.sim_all", "simkit.sim_opt", "engine.lb", "engine.ub",
                "matcher.answers", "matcher.merge_candidates", "simkit.resolver",
                "kernels.jw_score"),
    ),
    "cascade": Workload(
        lambda s: gen.ladder(s, depth=100),
        ("lb_s", "levels_s", "explain_s"),
        _CLI + ("engine.lb", "engine.levels", "matcher.merge_candidates",
                "matcher.rule_satisfied", "matcher.answers", "explain.proof_tree",
                "explain.rule_depth", "explain.render"),
    ),
}

COMPANIONS = {
    "music": lambda s: gen.music(s, bands=3, band_copies=2, pairs=1, triples=1),
    "ladder": lambda s: gen.ladder(s, depth=4),
}

#: mode metric -> (CLI arguments before --out, companion family)
MODES = {
    "solve_one_s": (["--mode", "solve-one"], "music"),
    "pm_s": (["--mode", "pm"], "music"),
    "cm_s": (["--mode", "cm"], "music"),
    "maximal_s": (["--mode", "maximal"], "music"),
    "sim_all_s": (["--sim", "all", "--mode", "sim"], "music"),
    "sim_opt_s": (["--sim", "opt", "--mode", "sim"], "music"),
    "lb_s": (["--mode", "lb"], "music"),
    "ub_s": (["--mode", "ub"], "music"),
    "levels_s": (["--mode", "levels"], "ladder"),
    "explain_s": ([], "ladder"),
}

UNITS = {name: "s" for name in MODES}
UNITS.update({"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"})


# ------------------------------------------------------------------ checks


def _pairs_tsv(pairs) -> str:
    return "\n".join(["left\tright"] + [f"{a}\t{b}" for a, b in sorted(pairs)]) + "\n"


def _read(out: Path, name: str) -> str | None:
    path = out / name
    return path.read_text(encoding="utf-8") if path.is_file() else None


def _expect_file(out: Path, name: str, want: str) -> str | None:
    got = _read(out, name)
    if got is None:
        return f"{name} missing"
    if got != want:
        return f"{name} differs from the planted answer"
    return None


def _sim_rows(out: Path) -> dict[tuple[str, str], float] | None:
    text = _read(out, "sim_jw.tsv")
    if text is None:
        return None
    rows = {}
    for line in text.splitlines()[1:]:
        a, b, s = line.split("\t")
        rows[(a, b)] = float(s)
    return rows


def _check_similar(rows, inst: gen.Instance) -> str | None:
    for a, b in inst.similar:
        score = rows.get((a, b))
        if score is None or score < gen.SIM_THRESHOLD:
            return f"planted similar pair ({a}, {b}) scored {score}"
    return None


def check(metric: str, inst: gen.Instance, out: Path, stdout: str) -> str | None:
    """None when the invocation's output matches the planted answer, else
    the reason it does not."""
    if metric in ("lb_s", "ub_s", "pm_s", "cm_s", "solve_one_s"):
        attr = metric[:-2]
        name = "solve-one.tsv" if attr == "solve_one" else f"{attr}.tsv"
        return _expect_file(out, name, _pairs_tsv(getattr(inst, attr)))
    if metric == "maximal_s":
        files = sorted(p.name for p in out.glob("maximal_*.tsv"))
        if len(files) != len(inst.maximal):
            return f"{len(files)} maximal solutions, planted {len(inst.maximal)}"
        for k, sol in enumerate(inst.maximal, start=1):
            err = _expect_file(out, f"maximal_{k}.tsv", _pairs_tsv(sol))
            if err:
                return err
        return None
    if metric in ("sim_all_s", "sim_opt_s"):
        rows = _sim_rows(out)
        if rows is None:
            return "sim_jw.tsv missing"
        if metric == "sim_all_s":
            v = inst.sim_values
            want = v * (v + 1) // 2
            if len(rows) != want or f"sim: {want} scores from {want} calls" not in stdout:
                return f"{len(rows)} scores, planted {want}"
        return _check_similar(rows, inst)
    if metric == "levels_s":
        want = "\n".join(
            ["left\tright\tlevel"] + [f"{a}\t{b}\t{d}" for a, b, d in inst.levels]
        ) + "\n"
        return _expect_file(out, "levels.tsv", want)
    if metric == "explain_s":
        a, b = inst.top_pair
        line = f"explain ({a}, {b}): rule-depth {inst.top_depth} ->"
        if line not in stdout:
            return f"no line {line!r}"
        if not _read(out, "explain.json") or not _read(out, "explain.dot"):
            return "explain.json or explain.dot missing"
        return None
    raise ValueError(metric)


def digest(out: Path, stdout: str) -> str:
    """Hash of every output file and of stdout without its timing line."""
    h = hashlib.sha256()
    for line in stdout.splitlines():
        if not line.startswith("timing:"):
            h.update(line.encode() + b"\n")
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ------------------------------------------------------------- invocations


@dataclass
class Invocation:
    metric: str
    inst: gen.Instance
    argv: list[str]
    out: Path
    digest: str | None = None  # of the first pass


@dataclass
class Outcome:
    metric: str
    wall: float
    rss_mb: float
    failure: str | None = None
    calibration: float = CAL_REF_S

    @property
    def scaled(self) -> float:
        return self.wall * CAL_REF_S / self.calibration


def invocations(name: str, inputs: dict[str, Path], insts: dict) -> list[Invocation]:
    """The workload's own modes on its main instance, then every other mode
    on its companion."""
    wl = WORKLOADS[name]
    order = list(wl.modes) + [m for m in MODES if m not in wl.modes]
    out = []
    for metric in order:
        key = "main" if metric in wl.modes else MODES[metric][1]
        inst = insts[key]
        args = list(MODES[metric][0])
        if metric == "explain_s":
            args = ["--mode", "explain:{},{}".format(*inst.top_pair)]
        argv = ["--spec", str(inputs[key] / "spec.er"), "--data", str(inputs[key])]
        out.append(Invocation(
            metric, inst, argv + args,
            WORK / name / "out" / f"{metric[:-2]}-{key}",
        ))
    return out


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Spawner:
    """Client of the spawner.py helper, which starts and reaps every timed
    child process; one helper serves the whole run."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(Path(__file__).resolve().parent / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> dict:
        job = {"argv": argv, "env": _env(), "stdout": str(stdout),
               "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_cli(sp: Spawner, inv: Invocation, timeout: float) -> tuple[Outcome, str]:
    """One `python -m entres.cli` process, its wall time, and its peak RSS
    from the rusage that wait4 returns for exactly this child."""
    shutil.rmtree(inv.out, ignore_errors=True)
    inv.out.mkdir(parents=True)
    log = inv.out.parent / f"{inv.out.name}.log"
    argv = [sys.executable, "-m", "entres.cli", *inv.argv, "--out", str(inv.out)]
    got = sp.run(argv, Path(f"{log}.out"), Path(f"{log}.err"), timeout)
    stdout = Path(f"{log}.out").read_text(encoding="utf-8", errors="replace")
    outcome = Outcome(inv.metric, got["wall"], got["maxrss_kib"] / 1024)
    if got["killed"]:
        outcome.failure = "timeout"
    elif got["code"] != 0:
        stderr = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")
        last = stderr.strip().splitlines()[-1:] or [""]
        outcome.failure = f"exit {got['code']}: {last[0]}"
    return outcome, stdout


def finish(inv: Invocation, outcome: Outcome, stdout: str) -> Outcome:
    """Check the output of a completed invocation against the planted
    answer and against the first pass."""
    if outcome.failure is None:
        outcome.failure = check(inv.metric, inv.inst, inv.out, stdout)
    if outcome.failure is None:
        d = digest(inv.out, stdout)
        if inv.digest is None:
            inv.digest = d
        elif d != inv.digest:
            outcome.failure = "output bytes differ from an earlier pass"
    return outcome


class Clock:
    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.measure_start = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self) -> float:
        return min(INVOCATION_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed())

    def room_for(self, took: float, seconds: float) -> bool:
        """Whether another pass as long as the last fits the run."""
        return (self.elapsed() - self.measure_start + took <= seconds
                and self.elapsed() + took <= RUN_DEADLINE_S)


def calibrate(sp: Spawner) -> float:
    """Wall seconds of the calibration loop in a fresh interpreter."""
    log = WORK / "calibration.log"
    got = sp.run([sys.executable, "-c", CALIBRATION.format(n=CAL_N)], log, log, 60.0)
    if got["code"] != 0 or got["killed"]:
        raise RuntimeError(f"calibration failed: {got}")
    return got["wall"]


def untraced_pass(sp: Spawner, invs: list[Invocation], clock: Clock) -> list[Outcome]:
    """Every invocation once, each between two calibrations."""
    outcomes = []
    before = calibrate(sp)
    for inv in invs:
        timeout = clock.timeout()
        if timeout <= 0:
            outcomes.append(Outcome(inv.metric, 0.0, 0.0, "timeout"))
            continue
        outcome, stdout = run_cli(sp, inv, timeout)
        after = calibrate(sp)
        outcome.calibration = (before + after) / 2
        before = after
        outcomes.append(finish(inv, outcome, stdout))
    return outcomes


# ------------------------------------------------------------------- setup


def setup(name: str, seed: int) -> tuple[float, dict[str, Path], dict]:
    """Generate and write the workload's inputs SETUP_REPEATS times; the
    median scaled time is setup_s. Every repeat writes new files: rewriting
    a file in place makes ext4 flush it on close, which times the disk."""
    cal_code = compile(CALIBRATION.format(n=SETUP_CAL_N), "<calibration>", "exec")
    scaled = []
    root = WORK / name / "in"
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(root, ignore_errors=True)
        start = time.perf_counter()
        exec(cal_code, {})
        cal = time.perf_counter() - start
        start = time.perf_counter()
        insts = {"main": WORKLOADS[name].main(seed)}
        insts.update({k: make(seed) for k, make in COMPANIONS.items()})
        inputs = {k: root / k for k in insts}
        for k, inst in insts.items():
            inst.write(inputs[k])
        scaled.append((time.perf_counter() - start) * SETUP_CAL_REF_S / cal)
    return statistics.median(scaled), inputs, insts


def provenance(name: str, seed: int, trace: int, insts: dict) -> dict:
    from entres import kernels

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "entres").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "trace": trace,
        "seed": seed,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": {k: inst.sizes for k, inst in insts.items()},
    }


# ------------------------------------------------------------------ traced


def in_process_pass(
    invs: list[Invocation], tracer: layers.Tracer | None, tag: str
) -> tuple[list[Outcome], float]:
    """The invocations in this process through entres.cli.main, with the
    layer wrappers installed when a tracer is given."""
    from entres import cli, engine, explain, kernels, model, simkit

    modules = {
        "cli": cli, "engine": engine, "explain": explain,
        "kernels": kernels, "model": model, "simkit": simkit,
    }
    outcomes = []
    total = 0.0
    for inv in invs:
        shutil.rmtree(inv.out, ignore_errors=True)
        inv.out.mkdir(parents=True)
        buf = io.StringIO()
        failure = None
        with contextlib.ExitStack() as stack:
            main = cli.main
            if tracer is not None:
                tracer.begin(f"{tag}:{inv.metric}")
                stack.enter_context(layers.installed(tracer, modules))
                main = tracer.wrap("cli.main", cli.main)
            stack.enter_context(contextlib.redirect_stdout(buf))
            stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            start = time.perf_counter()
            try:
                code = main([*inv.argv, "--out", str(inv.out)])
            except Exception as exc:  # a crash of the program is a failure
                code = None
                failure = "".join(traceback.format_exception_only(exc)).strip()
            wall = time.perf_counter() - start
        total += wall
        if failure is None and code != 0:
            failure = f"exit {code}"
        outcome = Outcome(inv.metric, wall, 0.0, failure)
        outcomes.append(finish(inv, outcome, buf.getvalue()))
    return outcomes, total


def output_bytes(invs: list[Invocation]) -> int:
    return sum(
        p.stat().st_size for inv in invs for p in inv.out.rglob("*") if p.is_file()
    )


# -------------------------------------------------------------------- main


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _medians(passes: list[list[Outcome]], own: tuple[str, ...], value) -> dict[str, float]:
    """wall_s (the workload's own modes, without the companion runs) and
    every mode metric: medians over passes of value(outcome)."""
    out = {"wall_s": _median([sum(value(o) for o in p if o.metric in own) for p in passes])}
    for metric in MODES:
        out[metric] = _median([value(o) for p in passes for o in p if o.metric == metric])
    return out


def run_untraced(sp: Spawner, wl: Workload, invs: list[Invocation], seconds: float,
                 clock: Clock):
    passes: list[list[Outcome]] = []
    while True:
        start = clock.elapsed()
        passes.append(untraced_pass(sp, invs, clock))
        if not clock.room_for(clock.elapsed() - start, seconds):
            break
    metrics = _medians(passes, wl.modes, lambda o: o.scaled)
    metrics["peak_rss_mb"] = _median([max(o.rss_mb for o in p) for p in passes])
    return passes, metrics, _medians(passes, wl.modes, lambda o: o.wall)


def run_traced(sp: Spawner, wl: Workload, invs: list[Invocation], seconds: float, clock: Clock):
    """Alternate an untraced CLI pass, a plain in-process pass and a traced
    in-process pass; the last two differ only by the wrappers."""
    tracer = layers.Tracer()
    untraced: list[list[Outcome]] = []
    plain: list[list[Outcome]] = []
    traced: list[tuple[list[Outcome], str]] = []
    plain_walls, walls = [], []
    while True:
        start = clock.elapsed()
        untraced.append(untraced_pass(sp, invs, clock))
        outcomes, wall = in_process_pass(invs, None, "")
        plain.append(outcomes)
        plain_walls.append(wall)
        tag = f"pass{len(traced)}"
        outcomes, wall = in_process_pass(invs, tracer, tag)
        traced.append((outcomes, tag))
        walls.append(wall)
        if not clock.room_for(clock.elapsed() - start, seconds):
            break
    per_pass = [
        layers.layer_metrics(tracer, [f"{tag}:{inv.metric}" for inv in invs])
        for _, tag in traced
    ]
    # counts repeat exactly across passes; times are medians over passes
    metrics = dict(per_pass[0])
    for key in metrics:
        if key.endswith("self_s"):
            metrics[key] = _median([m[key] for m in per_pass])
    untraced_wall = _median([sum(o.wall for o in p) for p in untraced])
    plain_wall = _median(plain_walls)
    traced_wall = _median(walls)
    sim_all = _median([o.wall for p in untraced for o in p if o.metric == "sim_all_s"])
    jw_in_sim_all = _median([
        tracer.stats[f"{tag}:sim_all_s"]["kernels.jw_score"][1]
        for _, tag in traced if f"{tag}:sim_all_s" in tracer.stats
    ])
    metrics.update({
        "kernels.share_of_sim_all": jw_in_sim_all / sim_all if sim_all else 0.0,
        "kernels.share_of_sim_all.base_s": sim_all,
        "cli.output_bytes": output_bytes(invs),
        "trace.untraced_wall_s": untraced_wall,
        "trace.in_process_wall_s": plain_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    failures = []
    missing = layers.missing_wrappers(
        tracer, wl.wrappers, [f"{traced[0][1]}:{inv.metric}" for inv in invs]
    )
    if missing:
        failures.append(f"wrappers recorded no call: {', '.join(missing)}")
    (WORK / "spans.json").write_text(json.dumps(tracer.spans), encoding="utf-8")
    outcomes = [o for p in untraced + plain for o in p] + [o for p, _ in traced for o in p]
    return outcomes, metrics, failures


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "entres" / "cli.py").is_file():
        print(f"no entres sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    clock = Clock()
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    extra_failures: list[str] = []
    raw: dict[str, float] = {}
    with Spawner() as sp:
        setup_s, inputs, insts = setup(args.workload, args.seed)
        prov = provenance(args.workload, args.seed, args.trace, insts)
        invs = invocations(args.workload, inputs, insts)
        # fill the bytecode cache before timing, as users' installs have it
        warm = Invocation("warm", insts["main"], invs[0].argv[:2] + ["--mode", "validate"],
                          WORK / args.workload / "out" / "warm")
        run_cli(sp, warm, INVOCATION_TIMEOUT_S)
        clock.measure_start = clock.elapsed()
        wl = WORKLOADS[args.workload]
        if args.trace:
            outcomes, metrics, extra_failures = run_traced(
                sp, wl, invs[:len(wl.modes)], args.seconds, clock)
            units = {k: layers.unit(k) for k in metrics}
        else:
            passes, metrics, raw = run_untraced(sp, wl, invs, args.seconds, clock)
            metrics["setup_s"] = setup_s
            outcomes = [o for p in passes for o in p]
            units = UNITS
    failures = [f"{o.metric}: {o.failure}" for o in outcomes if o.failure]
    failures += extra_failures
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.failure) + len(extra_failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = dict(result, provenance=prov, failures=failures,
                failed_ratio=failed / attempted,
                raw_wall_medians=raw,
                walls_and_calibrations={
                    inv.metric: [(o.wall, o.calibration) for o in outcomes if o.metric == inv.metric]
                    for inv in invs
                })
    dest = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(full, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"# {json.dumps(prov, sort_keys=True)}")
    for k, v in metrics.items():
        note = f"  (unscaled {raw[k]:.6f})" if k in raw else ""
        print(f"{k:45s} {v:14.6f} {units[k]}{note}")
    print(f"{'failed_ratio':45s} {failed / attempted:14.6f} 1 ({failed}/{attempted})")
    for f in failures:
        print(f"FAILED {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
