#!/usr/bin/env python3
"""Benchmark the string kernels of `entres.kernels`.

Runs each pair kernel over the same randomized workload and prints
pairs/second. The `jw_rows` row scores the triangle of the first distinct
strings of those pairs, about as many pairs as the others score. The
`jw_rows 44` row scores the triangle of the first 44 of those strings, 990
pairs, where a row's fixed costs weigh most. Each row kernel is checked
against the pair-by-pair row loop over `jw_score` before it is timed, so a
row kernel that disagrees fails the run.
Usage:

    python benchmarks/bench_kernels.py [--pairs N] [--repeat K]
"""

from __future__ import annotations

import argparse
import random
import string
import sys
import time
from pathlib import Path

# run from a source checkout: import the package from its src/ directory
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from entres import kernels

ALPHABET = string.ascii_lowercase

#: texts of the small triangle, 990 pairs, as many as the `sim all` of
#: resbench's 3-band music companion scores
SMALL = 44


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


def print_row(name: str, count: int, seconds: float) -> None:
    print(f"{name:<12} {count / seconds:>12.0f}")


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
    header = f"{'kernel':<12} {'pairs/s':>12}"
    print(header)
    print("-" * len(header))
    for name in ("levenshtein", "lev_score", "jw_score"):
        seconds = best_of(args.repeat, sweep, getattr(kernels, name), pairs)
        print_row(name, args.pairs, seconds)

    texts = triangle_texts(pairs)
    small = texts[:SMALL]
    for name, some in (("jw_rows", texts), (f"jw_rows {len(small)}", small)):
        n = len(some) * (len(some) + 1) // 2
        assert kernels.jw_rows(some) == kernels.map_rows(kernels.jw_score, some)
        print_row(name, n, best_of(args.repeat, kernels.jw_rows, some))


if __name__ == "__main__":
    main()
