#!/usr/bin/env python3
"""Compare two sets of result files written by run.py.

    python3 resbench/compare.py --base A1.json A2.json ... --new B1.json ...

For each metric, prints the median of each side and the change as a share
of the base median, flagging a change worse than the metric's bound in
BENCHMARK.json. Refuses (exit 2) when the files differ in workload, traced
or untraced run, kernel backend or instance sizes, since their figures are
then not comparable. Exits 1 when some metric got worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

#: provenance fields that must agree across every compared file
SAME = ("workload", "trace", "kernels_backend", "sizes")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--base", nargs="+", required=True, type=Path)
    p.add_argument("--new", nargs="+", required=True, type=Path)
    p.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = p.parse_args(argv)
    base = [json.loads(f.read_text()) for f in args.base]
    new = [json.loads(f.read_text()) for f in args.new]
    ref = base[0]["provenance"]
    for r in base + new:
        for key in SAME:
            if r["provenance"][key] != ref[key]:
                print(f"refusing to compare: {key} differs "
                      f"({ref[key]!r} vs {r['provenance'][key]!r})", file=sys.stderr)
                return 2
    spec = json.loads(args.benchmark.read_text()) if args.benchmark.is_file() else {}
    metrics = {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    worse = False
    for name in base[0]["metrics"]:
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        unit = base[0]["metrics"][name]["unit"]
        change = (n - b) / b if b else 0.0
        m = metrics.get(name, {})
        if m.get("better") == "higher":
            change = -change
        flag = ""
        if "bound" in m and change > m["bound"]:
            flag = f"  WORSE beyond bound {m['bound']}"
            worse = True
        print(f"{name:45s} {b:14.6f} -> {n:14.6f} {unit:5s} {change:+8.3f}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
