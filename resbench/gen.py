"""Seeded instance generator with planted answers.

Two families:

  music   bands with typo'd copies that the hard rule `rho` must merge,
          songs with typo'd copies that the soft rule `sigma` may merge once
          their bands are merged, and `Appear` rows for the denial
          constraint `delta`. Some song copies form conflict triples: the
          two end copies sit on one album at different positions, so they
          can never share a class, while the middle copy may join either.
  ladder  the recursion ladder of tests/instances.py::chain_instance: a base
          pair merged by `p1`, and one rung per level that `q1` merges once
          the rung below it is merged.

The seed picks strings, row order and which band copy each song copy
references. The counts that set the work are arguments, and the groups sit
at fixed slots with identifiers whose sort order is fixed (the search visits
candidates in that order), so every seed of one workload does the same
amount of work.

Every expected answer is derived from the planted structure alone, never by
running the resolver:

  music   lb = all band-copy pairs; ub = lb plus every song-copy pair;
          cm = lb plus every pair of a conflict-free song group; pm = cm
          plus the two non-conflicting pairs of each triple; the maximal
          solutions pick one of those two pairs per triple. solve-one
          follows the search order: per triple, the first non-conflicting
          pair in (left, right) text order.
  ladder  every merge set is the set of rung pairs; rung d has level d, so
          the top pair has rule-depth equal to the ladder depth.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from itertools import combinations, product
from pathlib import Path

Pair = tuple[str, str]

MUSIC_SPEC = """\
relation Band(bid: id, name: short, genre: short, year: num, founder: short) merge [bid];
relation Song(sid: id, title: short, lyricist: short, bid: id) merge [sid];
relation Appear(sid: id, album: short, position: num);

hard rho "same founding year and founder, similar name":
  Band(x, n, g, d, f), Band(y, n2, g2, d, f), sim(n, n2) >= {t} => eq(x, y);

soft sigma "same band and lyricist, similar titles":
  Song(x, t, l, b), Song(y, t2, l, b), sim(t, t2) >= {t} ~> eq(x, y);

deny delta "a song appears at one position per album":
  Appear(s, a, i), Appear(s, a, j), i != j;
"""

LADDER_SPEC = """\
relation P(pid: id, n: val) merge [pid];
relation Q(qid: id, m: val, p: id) merge [qid];
hard p1: P(x, n), P(y, n) => eq(x, y);
hard q1: Q(x, m, p), Q(y, m, p) => eq(x, y);
"""

MUSIC_HEADERS = {
    "Band": ("bid", "name", "genre", "year", "founder"),
    "Song": ("sid", "title", "lyricist", "bid"),
    "Appear": ("sid", "album", "position"),
}
LADDER_HEADERS = {"P": ("pid", "n"), "Q": ("qid", "m", "p")}

#: similarity threshold of both music rules; a one-letter typo at position
#: four or later of a word of twelve letters or more keeps Jaro-Winkler
#: above 0.85 for any two copies
SIM_THRESHOLD = 80
GENRES = ("rock", "jazz", "blues", "folk", "metal", "soul", "punk", "pop")
_CONS = "bcdfghklmnprstvz"
_VOW = "aeiou"


def pair(a: str, b: str) -> Pair:
    return (a, b) if a < b else (b, a)


def all_pairs(ids) -> set[Pair]:
    return {pair(a, b) for a, b in combinations(ids, 2)}


@dataclass
class Instance:
    """Spec text and rows of one generated instance, plus what the resolver
    must answer on it."""

    family: str
    spec: str
    headers: dict[str, tuple[str, ...]]
    rows: dict[str, list[tuple[str, ...]]]
    sizes: dict[str, int]
    lb: frozenset[Pair]
    ub: frozenset[Pair]
    pm: frozenset[Pair]
    cm: frozenset[Pair]
    solve_one: frozenset[Pair]
    maximal: list[frozenset[Pair]]
    levels: list[tuple[str, str, int]] = field(default_factory=list)
    top_pair: Pair | None = None
    top_depth: int = 0
    #: value pairs that the rules must find similar under `jw`
    similar: list[Pair] = field(default_factory=list)
    #: distinct values the sim-all strategy scores under `jw`
    sim_values: int = 0

    def write(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        (root / "spec.er").write_text(self.spec, encoding="utf-8")
        for rel, header in self.headers.items():
            lines = ["\t".join(header)]
            lines += ["\t".join(r) for r in self.rows[rel]]
            (root / f"{rel}.tsv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


class _Names:
    """Unique pseudo-words and identifiers drawn from one generator."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def _fresh(self, make) -> str:
        while True:
            s = make()
            if s not in self.used:
                self.used.add(s)
                return s

    def ident(self, prefix: str) -> str:
        return self._fresh(lambda: prefix + "".join(
            self.rng.choices(string.ascii_lowercase + string.digits, k=6)
        ))

    def word(self, min_len: int) -> str:
        def make() -> str:
            parts: list[str] = []
            while sum(map(len, parts)) + len(parts) - 1 < min_len:
                syl = "".join(
                    self.rng.choice(_CONS) + self.rng.choice(_VOW)
                    for _ in range(self.rng.randint(2, 3))
                )
                parts.append(syl)
            return " ".join(parts)
        return self._fresh(make)

    def typo(self, base: str, pos: int) -> str:
        """base with one letter at or after `pos` replaced; never equal to
        base or to an earlier string."""
        def make() -> str:
            i = self.rng.randrange(pos, len(base))
            while base[i] == " ":
                i = self.rng.randrange(pos, len(base))
            c = self.rng.choice([x for x in string.ascii_lowercase if x != base[i]])
            return base[:i] + c + base[i + 1:]
        return self._fresh(make)


def _spread(items, k: int) -> list:
    """k items evenly spaced over the sequence."""
    items = list(items)
    return [items[(2 * i + 1) * len(items) // (2 * k)] for i in range(k)]


def _copies(names: _Names, base: str, k: int) -> list[str]:
    return [base] + [names.typo(base, 4) for _ in range(k - 1)]


def music(
    seed: int,
    bands: int,
    band_copies: int,
    pairs: int,
    triples: int,
    songs_per_band: int = 3,
) -> Instance:
    """Music-like instance. `pairs` song slots get two copies that may
    merge freely, `triples` get a conflict triple, the other slots one
    copy."""
    slots = bands * songs_per_band
    if pairs + triples > slots:
        raise ValueError("more song groups than song slots")
    rng = random.Random(seed)
    names = _Names(rng)
    band_rows, song_rows, appear_rows = [], [], []
    lb: set[Pair] = set()
    similar: list[Pair] = []
    band_ids: list[list[str]] = []
    for band in range(bands):
        ids = [names.ident(f"b{band:04d}{c}") for c in range(band_copies)]
        texts = _copies(names, names.word(12), band_copies)
        year = str(rng.randint(1950, 2020))
        founder = names.word(8)
        for bid, text in zip(ids, texts):
            band_rows.append((bid, text, rng.choice(GENRES), year, founder))
        lb |= all_pairs(ids)
        similar += [pair(a, b) for a, b in combinations(texts, 2)]
        band_ids.append(ids)

    kinds = ["single"] * slots
    for slot in _spread(range(slots), triples):
        kinds[slot] = "triple"
    for slot in _spread([i for i in range(slots) if kinds[i] == "single"], pairs):
        kinds[slot] = "pair"
    free: set[Pair] = set()        # pairs of conflict-free groups
    triple_sets: list[tuple[Pair, Pair, Pair]] = []  # (ok1, ok2, conflict)
    ub_songs: set[Pair] = set()
    for slot, kind in enumerate(kinds):
        bids = band_ids[slot // songs_per_band]
        k = {"single": 1, "pair": 2, "triple": 3}[kind]
        ids = [names.ident(f"s{slot:04d}{c}") for c in range(k)]
        texts = _copies(names, names.word(12), k)
        lyricist = names.word(8)
        album = names.word(8)
        for sid, text in zip(ids, texts):
            song_rows.append((sid, text, lyricist, rng.choice(bids)))
        similar += [pair(a, b) for a, b in combinations(texts, 2)]
        ub_songs |= all_pairs(ids)
        if kind != "triple":
            pos = str(rng.randint(1, 12))
            appear_rows += [(sid, album, pos) for sid in ids]
            free |= all_pairs(ids)
            continue
        end1, mid, end2 = ids
        p, q = rng.sample(range(1, 13), 2)
        appear_rows.append((end1, album, str(p)))
        appear_rows.append((end2, album, str(q)))
        appear_rows.append((mid, names.word(8), str(rng.randint(1, 12))))
        triple_sets.append((pair(end1, mid), pair(mid, end2), pair(end1, end2)))

    for rows in (band_rows, song_rows, appear_rows):
        rng.shuffle(rows)

    cm = lb | free
    pm = set(cm)
    first: set[Pair] = set()
    for ok1, ok2, conflict in triple_sets:
        pm |= {ok1, ok2}
        first.add(min(p for p in (ok1, ok2, conflict) if p != conflict))
    maximal = [
        frozenset(cm | set(choice))
        for choice in product(*((ok1, ok2) for ok1, ok2, _ in triple_sets))
    ]
    maximal.sort(key=sorted)

    short_cols = {"Band": (1, 2, 4), "Song": (1, 2), "Appear": (1,)}
    all_rows = {"Band": band_rows, "Song": song_rows, "Appear": appear_rows}
    values = {
        r[i] for rel, cols in short_cols.items() for r in all_rows[rel] for i in cols
    }
    return Instance(
        family="music",
        spec=MUSIC_SPEC.replace("{t}", str(SIM_THRESHOLD)),
        headers=MUSIC_HEADERS,
        rows=all_rows,
        sizes={
            "bands": bands, "band_copies": band_copies,
            "songs_per_band": songs_per_band, "soft_pairs": pairs,
            "conflict_triples": triples,
            "facts": len(band_rows) + len(song_rows) + len(appear_rows),
        },
        lb=frozenset(lb),
        ub=frozenset(lb | ub_songs),
        pm=frozenset(pm),
        cm=frozenset(cm),
        solve_one=frozenset(cm | first),
        maximal=maximal,
        similar=similar,
        sim_values=len(values),
    )


def ladder(seed: int, depth: int) -> Instance:
    """Recursion ladder whose top pair has level `depth`."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    rng = random.Random(seed)
    names = _Names(rng)
    base = (names.ident("a"), names.ident("a"))
    key = names.ident("n")
    p_rows = [(base[0], key), (base[1], key)]
    q_rows = []
    rungs = [pair(*base)]
    prev = base
    for _ in range(2, depth + 1):
        cur = (names.ident("e"), names.ident("e"))
        m = names.ident("k")
        q_rows += [(cur[0], m, prev[0]), (cur[1], m, prev[1])]
        rungs.append(pair(*cur))
        prev = cur
    rng.shuffle(p_rows)
    rng.shuffle(q_rows)
    merged = frozenset(rungs)
    levels = sorted(
        ((l, r, d) for d, (l, r) in enumerate(rungs, start=1)),
        key=lambda t: (t[2], t[0], t[1]),
    )
    return Instance(
        family="ladder",
        spec=LADDER_SPEC,
        headers=LADDER_HEADERS,
        rows={"P": p_rows, "Q": q_rows},
        sizes={"depth": depth, "facts": len(p_rows) + len(q_rows)},
        lb=merged, ub=merged, pm=merged, cm=merged, solve_one=merged,
        maximal=[merged],
        levels=levels,
        top_pair=rungs[-1],
        top_depth=depth,
    )
