#!/usr/bin/env python3
"""Scaling curves of CLI `solve-one`, `pm` and similarity scoring on the
benchmark's music instances, and of `lb`, `levels` and `explain` on its
recursion ladders.

For each size, `resbench/gen.py` (imported as it is) builds
`music(1, bands, 2, pairs=8*bands//9, triples=3)`, and each source tree
named by `--tree LABEL=DIR` runs `python -m entres.cli --mode solve-one`
on it (`--sim opt`) in a fresh process, at the `--bands` sizes, and
`--mode pm` at the `--pm-bands` sizes. At the `--scoring-bands` sizes it
builds the scoring workload's `music(1, bands, 2, pairs=8, triples=0)` and
runs `--mode sim` twice, `sim-all` with `--sim all` and `sim-opt` with
`--sim opt`. At the `--cascade-depths` depths it builds the cascade
workload's `ladder(1, depth)` and runs `--mode lb`, `--mode levels` and
`--mode explain:a,b` on its top pair. The processes are spawned by
`resbench/spawner.py`, so that wait4 reports each child's own peak RSS,
and the trees take turns within each repeat. Every run's output passes
`resbench/run.py`'s `check` for its mode, imported as it is: a
`solve-one`, `pm`, `lb` or `levels` file equals the planted answer, a
`sim all` file holds one row per text pair, v(v+1)/2 for v texts, both
`sim` files score every planted similar pair at least
`gen.SIM_THRESHOLD`, and `explain` reports the planted rule-depth and
writes both files.

A run above 800 bands or 800 levels gets an address-space cap of
2,048 MiB: a small launcher sets `RLIMIT_AS` on itself and then execs the
CLI, so the cap binds that child alone. Without it, a tree whose memory
grows faster than the instance could take the machine's memory at the
largest sizes.

Per mode, size and tree the JSON records, for each repeat, the wall time,
the peak RSS, a figure of the CLI's timing line, `solve=` for `solve-one`
and `pm`, `preprocess=` (ingest and scoring) for `sim-all` and `sim-opt`
and `fixpoint=` for `lb` and `levels` (none for `explain`, whose tree and
files the line does not time), and the status: `"ok"`, `"wrong"` (output
fails the check), `"timeout"` (killed at --timeout), `"memory"` (a capped
run that ran out of address space) or, for another crash, the exit code
and the last line of stderr.
A size whose runs fail is kept, never dropped, and the script exits 1
when any run is not `"ok"`. Each tree's commit, whether its `src/` differs
from that commit, and its kernel backend go in the header with the Python
version and the machine.

    python benchmarks/curve.py --tree parent=../parent --tree change=. \\
        --bands 50,100,200,400,800,1600,3200 --pm-bands 400,800,1600 \\
        --scoring-bands 26,52,78 --cascade-depths 100,400,1100,2000 \\
        --repeat 3 --out BENCH_scaling.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "resbench"))

import gen  # noqa: E402  (resbench/gen.py)
import run  # noqa: E402  (resbench/run.py)

#: runs above this many bands or levels get an address-space cap of CAP_MB MiB
CAPPED_ABOVE = 800
CAP_MB = 2048

#: mode -> its CLI arguments (`run_once` names the top pair for `explain`),
#: the `run.check` metric its output passes, and the figure of the CLI's
#: timing line that the cell records, if any
MODES = {
    "solve-one": (["--sim", "opt", "--mode", "solve-one"], "solve_one_s",
                  "solve"),
    "pm": (["--sim", "opt", "--mode", "pm"], "pm_s", "solve"),
    "sim-all": (["--sim", "all", "--mode", "sim"], "sim_all_s", "preprocess"),
    "sim-opt": (["--sim", "opt", "--mode", "sim"], "sim_opt_s", "preprocess"),
    "lb": (["--mode", "lb"], "lb_s", "fixpoint"),
    "levels": (["--mode", "levels"], "levels_s", "fixpoint"),
    "explain": ([], "explain_s", None),
}

#: the modes that run on ladders; a size is then a depth, not a band count
CASCADE = ("lb", "levels", "explain")

#: sets RLIMIT_AS to argv[1] bytes, then execs argv[2:]
_LAUNCHER = (
    "import os, resource, sys; cap = int(sys.argv[1]); "
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "os.execv(sys.argv[2], sys.argv[2:])"
)


def _git(tree: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(tree), *args],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _env(tree: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def _describe(tree: Path) -> dict:
    """The tree's commit, whether its src/ differs from it, and the kernel
    backend its package selects."""
    backend = subprocess.run(
        [sys.executable, "-c", "from entres import kernels; print(kernels.BACKEND)"],
        env=_env(tree), capture_output=True, text=True, timeout=60, check=True,
    ).stdout.strip()
    status = _git(tree, "status", "--porcelain", "--", "src")
    return {
        "commit": _git(tree, "rev-parse", "HEAD"),
        "src_differs_from_commit": None if status is None else bool(status),
        "kernels": backend,
    }


def instance(mode: str, size: int) -> gen.Instance:
    """The instance a cell of `mode` runs on: a ladder of that depth for the
    cascade modes, else a music instance of that many bands."""
    if mode in CASCADE:
        return gen.ladder(1, size)
    if mode.startswith("sim-"):
        return gen.music(1, size, 2, pairs=8, triples=0)
    return gen.music(1, size, 2, pairs=8 * size // 9, triples=3)


class Spawner:
    """Client of resbench/spawner.py: one job per line, one reply each."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(ROOT / "resbench" / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, job: dict) -> dict:
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


def _timing_s(stdout: str, key: str) -> float | None:
    """The seconds of `key` in the CLI's timing line."""
    for line in stdout.splitlines():
        if line.startswith("timing:"):
            for cell in line.split()[1:]:
                name, _, value = cell.partition("=")
                if name == key:
                    return float(value.rstrip("s"))
    return None


def run_once(sp: Spawner, tree: Path, mode: str, data: Path, work: Path,
             inst: gen.Instance, timeout: float, cap_mb: int | None) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    args, metric, figure = MODES[mode]
    if mode == "explain":
        args = ["--mode", "explain:" + ",".join(inst.top_pair)]
    argv = [sys.executable, "-m", "entres.cli", "--spec", str(data / "spec.er"),
            "--data", str(data), *args, "--out", str(out)]
    if cap_mb is not None:
        argv = [sys.executable, "-S", "-c", _LAUNCHER,
                str(cap_mb * 1024 * 1024), *argv]
    got = sp.run({"argv": argv, "env": _env(tree), "stdout": str(work / "stdout"),
                  "stderr": str(work / "stderr"), "timeout": timeout})
    stdout = (work / "stdout").read_text(encoding="utf-8", errors="replace")
    cell = {"wall_s": round(got["wall"], 4),
            "peak_rss_mb": round(got["maxrss_kib"] / 1024, 1)}
    if got["killed"]:
        cell["status"] = "timeout"
    elif got["code"] != 0:
        stderr = (work / "stderr").read_text(encoding="utf-8", errors="replace")
        last = stderr.strip().splitlines()[-1:] or [""]
        if cap_mb is not None and last[0].startswith("MemoryError"):
            cell["status"] = "memory"
        else:
            cell["status"] = f"exit {got['code']}: {last[0]}"
    else:
        wrong = run.check(metric, inst, out, stdout)
        cell["status"] = "ok" if wrong is None else "wrong"
        if figure is not None:
            cell[f"{figure}_s"] = _timing_s(stdout, figure)
    return cell


def _summary(mode: str, runs: list[dict]) -> dict:
    ok = [r for r in runs if r["status"] == "ok"]
    if len(ok) < len(runs):
        return {"status": next(r["status"] for r in runs if r["status"] != "ok")}
    summary = {"status": "ok",
               "wall_s": statistics.median(r["wall_s"] for r in ok)}
    if MODES[mode][2] is not None:
        figure = f"{MODES[mode][2]}_s"
        summary[figure] = statistics.median(r[figure] for r in ok)
    summary["peak_rss_mb"] = max(r["peak_rss_mb"] for r in ok)
    return summary


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                   help="a source checkout to time, under a column label")
    p.add_argument("--bands", default="50,100,200,400",
                   help="comma-separated band counts for solve-one "
                        "(default: 50,100,200,400)")
    p.add_argument("--pm-bands", default="",
                   help="comma-separated band counts for pm (default: none)")
    p.add_argument("--scoring-bands", default="",
                   help="comma-separated band counts for sim-all and sim-opt "
                        "(default: none)")
    p.add_argument("--cascade-depths", default="",
                   help="comma-separated ladder depths for lb, levels and "
                        "explain (default: none)")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds before a run is killed (default: 300)")
    p.add_argument("--out", type=Path, help="JSON file (default: stdout)")
    args = p.parse_args(argv)
    trees = {}
    for item in args.tree:
        label, sep, path = item.partition("=")
        if not sep or not label or label in trees:
            p.error(f"--tree needs a new LABEL=DIR, got {item!r}")
        trees[label] = Path(path).resolve()
    cells = [("solve-one", int(b)) for b in args.bands.split(",") if b]
    cells += [("pm", int(b)) for b in args.pm_bands.split(",") if b]
    cells += [(mode, int(b)) for b in args.scoring_bands.split(",") if b
              for mode in ("sim-all", "sim-opt")]
    cells += [(mode, int(d)) for d in args.cascade_depths.split(",") if d
              for mode in CASCADE]

    result = {
        "what": "CLI solve-one and pm --sim opt on gen.music(1, bands, 2, "
                "pairs=8*bands//9, triples=3); CLI --mode sim with --sim all "
                "(sim-all) and --sim opt (sim-opt) on gen.music(1, bands, 2, "
                "pairs=8, triples=0); CLI lb, levels and explain (top pair) "
                "on gen.ladder(1, depth)",
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"{platform.system()}",
        "repeat": args.repeat,
        "timeout_s": args.timeout,
        f"cap_mb_above_{CAPPED_ABOVE}_bands": CAP_MB,
        f"cap_mb_above_{CAPPED_ABOVE}_levels": CAP_MB,
        "trees": {label: _describe(tree) for label, tree in trees.items()},
        "cells": [],
    }
    failed = False
    sp = Spawner()
    try:
        with tempfile.TemporaryDirectory(prefix="entres-curve-") as tmp:
            for mode, size in cells:
                inst = instance(mode, size)
                data = Path(tmp) / f"{mode}-{size}"
                inst.write(data)
                cap = CAP_MB if size > CAPPED_ABOVE else None
                runs: dict[str, list[dict]] = {label: [] for label in trees}
                for _ in range(args.repeat):
                    for label, tree in trees.items():
                        runs[label].append(run_once(
                            sp, tree, mode, data, Path(tmp) / label, inst,
                            args.timeout, cap,
                        ))
                unit = "depth" if mode in CASCADE else "bands"
                cell = {"mode": mode, unit: size}
                for label in trees:
                    cell[label] = {**_summary(mode, runs[label]),
                                   "runs": runs[label]}
                    failed |= cell[label]["status"] != "ok"
                result["cells"].append(cell)
                print(json.dumps({"mode": mode, unit: size, **{
                    label: _summary(mode, runs[label]) for label in trees
                }}), file=sys.stderr)
    finally:
        sp.close()
    text = json.dumps(result, indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
