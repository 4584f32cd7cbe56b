#!/usr/bin/env python3
"""Benchmark the compiled string kernels against the pure-Python fallback.

Runs each pair kernel over the same randomized workload with both backends
and prints calls/second plus the speedup. The `jw_rows` row scores the
triangle of the first distinct strings of those pairs, about as many pairs
as the others score, and prints pairs/second; its compiled column is the
row loop over the compiled `jw_score` that `entres.kernels` selects. The
`jw_rows xK` row scores the same triangle as `sim all` does, split into K
contiguous shares, one per usable CPU, the first in this process and the
others in forked children (K = 1 when the triangle is below two minimum
shares or one CPU is usable). Each kernel is checked against the fallback
before it is timed, so a backend that disagrees fails the run. Usage:

    python benchmarks/bench_kernels.py [--pairs N] [--repeat K]
"""

from __future__ import annotations

import argparse
import random
import string
import sys
import time
from functools import partial
from pathlib import Path

# run from a source checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entres import _kernels_py, kernels, simkit

try:
    from entres import _kernels
except ImportError:
    _kernels = None

ALPHABET = string.ascii_lowercase


def make_pairs(n: int, rng: random.Random) -> list[tuple[str, str]]:
    """Half near-duplicates (one edit apart), half unrelated strings, with
    lengths spread across the 3..24 range the resolvers typically see."""
    pairs = []
    for i in range(n):
        a = "".join(rng.choices(ALPHABET, k=rng.randint(3, 24)))
        if i % 2 == 0:
            b = list(a)
            pos = rng.randrange(len(b))
            b[pos] = rng.choice(ALPHABET)
            b = "".join(b)
        else:
            b = "".join(rng.choices(ALPHABET, k=rng.randint(3, 24)))
        pairs.append((a, b))
    return pairs


def best_of(repeat: int, fn, *args) -> float:
    """Best wall-clock seconds of `repeat` calls fn(*args)."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def sweep(fn, pairs: list[tuple[str, str]]) -> None:
    for a, b in pairs:
        fn(a, b)


def print_row(name: str, count: int, py: float, c: float | None) -> None:
    """count per second on each backend, given each one's seconds (c is
    None when the extension is not built), and the speedup."""
    row = f"{name:<12} {count / py:>10.0f}/s"
    if c is None:
        row += f" {'(missing)':>12} {'-':>9}"
    else:
        row += f" {count / c:>10.0f}/s {py / c:>8.1f}x"
    print(row)


def triangle_texts(pairs: list[tuple[str, str]]) -> list[str]:
    """The first distinct strings of the pairs, enough that their triangle
    (reflexive pairs included) holds about as many pairs as the list."""
    texts: list[str] = []
    seen: set[str] = set()
    for text in (t for pair in pairs for t in pair):
        if len(texts) * (len(texts) + 1) // 2 >= len(pairs):
            break
        if text not in seen:
            seen.add(text)
            texts.append(text)
    return texts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=20000)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    pairs = make_pairs(args.pairs, random.Random(args.seed))

    print(f"{args.pairs} pairs, best of {args.repeat} sweeps\n")
    header = f"{'kernel':<12} {'python':>12} {'compiled':>12} {'speedup':>9}"
    print(header)
    print("-" * len(header))
    for name in ("levenshtein", "lev_score", "jw_score"):
        pfn = getattr(_kernels_py, name)
        py = best_of(args.repeat, sweep, pfn, pairs)
        c = None
        if _kernels is not None:
            # both backends must agree before timing means anything
            cfn = getattr(_kernels, name)
            for a, b in pairs[:500]:
                assert cfn(a, b) == pfn(a, b), (name, a, b)
            c = best_of(args.repeat, sweep, cfn, pairs)
        print_row(name, args.pairs, py, c)

    texts = triangle_texts(pairs)
    n = len(texts) * (len(texts) + 1) // 2
    rows = kernels.map_rows(_kernels_py.jw_score, texts)
    shares = len(simkit._share_bounds(len(texts))) - 1
    for name, py_rows, c_rows in (
        ("jw_rows", _kernels_py.jw_rows, kernels.jw_rows),
        (f"jw_rows x{shares}",
         partial(simkit._triangle_rows, _kernels_py.jw_rows),
         partial(simkit._triangle_rows, kernels.jw_rows)),
    ):
        assert py_rows(texts) == rows
        py = best_of(args.repeat, py_rows, texts)
        c = None
        if _kernels is not None:
            assert kernels.BACKEND == "c"
            assert c_rows(texts) == rows
            c = best_of(args.repeat, c_rows, texts)
        print_row(name, n, py, c)

    if _kernels is None:
        print("\ncompiled extension not built; only the fallback was timed")


if __name__ == "__main__":
    main()
