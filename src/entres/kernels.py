"""String similarity kernels.

`levenshtein`, `lev_score` and `jw_score` score one pair. `map_rows(score,
texts)` scores the triangle of texts: row i holds `score(texts[i], t)` for
each t in `texts[i:]`. `jw_rows(texts)` scores the Jaro-Winkler rows of
`map_rows(jw_score, texts)` without calling `jw_score`. Scores are
fixed-point hundredths in [0, 10000], rounded half-up.

Jaro's greedy matching takes, for each character of a in order, the lowest
free (not yet taken) equal character of b within the window, the positions
at most max(len(a), len(b)) // 2 - 1 (at least 0) from its own. `jw_score`,
which scores one pair, scans b's window with str.find. `jw_rows`, which
scores the triangle of a list of strings, matches row i's text a against
all of `texts[i:]` at once, in fixed-width lanes of one Python int (SWAR).

Lanes. A text b of `texts` gets a lane of W bits, W the least of
16, 32, 64 or a multiple of 64 above len(b); bit k of the lane stands for
b[k], and the top bit, the guard, is never a position. The texts of one
width share one int, the last text in the lowest lane, so row i's texts,
those from i on, are the low lanes and one mask takes them. For each
character ch, PM[ch] sets bit k in b's lane where b[k] == ch; `free` holds
the positions not yet taken; ONES holds each lane's bit 0 and G its guard.

Matching. For a[k], x = PM[a[k]] & window_k & free holds, per lane, the
positions the greedy scan may take: equal to a[k], in the window, free. The
scan takes the lowest, and x & (y ^ (y - ONES)), y = x | G, is the lowest
set bit of every lane of x at once: subtracting 1 from a lane flips its
lowest set bit and the zeros below it and leaves the rest, so the xor keeps
that bit and the zeros below it, which x lacks. A lane with no position
flips its guard and keeps no bit. The guard makes every lane of y non-zero,
so no subtraction borrows from the lane above, and x never holds a guard.

Windows. The pair's window w is max(wa, wb), wa = max(len(a) // 2 - 1, 0)
and wb likewise for b, and two intervals centred on k nest, so window_k is
the union of the row's interval, ONES times the bits k - wa..k + wa, and
the lane's own interval, bits k - wb..k + wb, which is built once per call
for each k. Both are clipped below the guard: an end k + w can pass the top
of a lane, and the row's product would then carry into the guard and the
next lane, positions of another text. A position at or above len(b) holds
no character, so the clip drops no match.

Transpositions. Jaro counts the matched characters of a, in a's order,
that differ from the matched characters of b in position order. A second
pass walks a's matches in order and, in the lanes where a[k] matched, takes
the lowest position s of b's matches that the pass has not taken yet (the
same lowest-bit step, in those lanes alone), so a's r-th match meets b's
r-th; it is a mismatch where b[s] != a[k], that is where PM[a[k]] lacks s.

Read-out. Per lane a code packs the matches, the mismatches, the common
prefix (at most 4) and len(b). The codes leave through `int.to_bytes` in
native byte order, which `memoryview.cast` reads, or, in lanes wider than
64 bits, by slicing the bytes; a table per row length and lane width turns
a code into the score through `jw_score`'s expressions, so every score is
bit-identical. (The code takes up to 3 * log2(W) + 3 bits, too many for a
lane of 8.) An empty a matches nothing, so its row is 0 but for empty
texts, which score 10000; a text equal to a matches each character in
place, so it scores 10000 too. Hence `jw_rows` returns the rows of
`map_rows(jw_score, texts)`.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import chain, repeat
from typing import Callable

#: The one kernel implementation; benchmark results record it.
BACKEND = "python"

__all__ = [
    "BACKEND", "levenshtein", "lev_score", "jw_score", "jw_rows", "map_rows"
]


def levenshtein(a: str, b: str) -> int:
    """Edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    if la < lb:
        a, b, la, lb = b, a, lb, la
    prev = list(range(lb + 1))
    cur = [0] * (lb + 1)
    for i in range(1, la + 1):
        ca = a[i - 1]
        cur[0] = i
        for j in range(1, lb + 1):
            cost = 0 if ca == b[j - 1] else 1
            best = prev[j] + 1
            if cur[j - 1] + 1 < best:
                best = cur[j - 1] + 1
            if prev[j - 1] + cost < best:
                best = prev[j - 1] + cost
            cur[j] = best
        prev, cur = cur, prev
    return prev[lb]


def lev_score(a: str, b: str) -> int:
    """10000 * (1 - editdist / max(len)), rounded half-up."""
    if a == b:
        return 10000
    m = max(len(a), len(b))
    return int((1.0 - levenshtein(a, b) / m) * 10000.0 + 0.5)


def jw_score(a: str, b: str) -> int:
    """Jaro-Winkler similarity in hundredths; the common-prefix boost
    (factor 0.1, prefix capped at 4) is applied unconditionally.

    Each character of a, in order, matches the lowest-indexed unmatched
    equal character of b within the window max(len) // 2 - 1 of its own
    index; str.find skips the positions in between."""
    if a == b:
        return 10000
    la, lb = len(a), len(b)
    window = max(la, lb) // 2 - 1
    if window < 0:
        window = 0
    taken = [False] * lb
    pos: list[int] = []  # b's matched index for each matched char of a
    find = b.find
    for i, ch in enumerate(a):
        lo = i - window if i > window else 0
        hi = i + window + 1
        k = find(ch, lo, hi)
        while k >= 0 and taken[k]:
            k = find(ch, k + 1, hi)
        if k >= 0:
            taken[k] = True
            pos.append(k)
    m = len(pos)
    if m == 0:  # then a[0] != b[0] too, so no prefix boost
        return 0
    # b[k] is a's i-th matched char; b[s] is b's i-th in position order
    mismatched = 0
    for k, s in zip(pos, sorted(pos)):
        if b[k] != b[s]:
            mismatched += 1
    t = mismatched // 2
    j = (m / la + m / lb + (m - t) / m) / 3.0
    p = 0
    for i in range(min(4, la, lb)):
        if a[i] != b[i]:
            break
        p += 1
    return int((j + p * 0.1 * (1.0 - j)) * 10000.0 + 0.5)


def map_rows(
    score: Callable[[str, str], int], texts: list[str]
) -> list[array]:
    """The rows of the triangle, one `score` call a pair."""
    return [
        array("H", map(score, repeat(a), texts[i:]))
        for i, a in enumerate(texts)
    ]


def _lane_width(n: int) -> int:
    """Bits of the lane of an n-character text: 16, 32, 64 or a multiple of
    64, above n."""
    if n < 16:
        return 16
    if n < 32:
        return 32
    return (n // 64 + 1) * 64


def _pack(values, size: int) -> int:
    """One int whose lane q, `size` bytes wide, holds values[q]."""
    return int.from_bytes(
        b"".join(v.to_bytes(size, "little") for v in values), "little"
    )


class _Scores(dict):
    """Code -> score for rows of la characters in lanes of one width, filled
    as codes are met, and the row's window pattern per character."""

    def __init__(self, la: int, width: int, field: int) -> None:
        self.la, self.field = la, field
        wa = max(la // 2 - 1, 0)
        top = width - 2  # highest bit below the guard
        # bits max(k - wa, 0)..min(k + wa, top) of one lane
        self.windows = [
            (2 << min(k + wa, top)) - (1 << max(k - wa, 0))
            if k - wa <= top else 0
            for k in range(la)
        ]

    def __missing__(self, code: int) -> int:
        f = self.field
        m = code & ((1 << f) - 1)
        score = 0
        if m:  # else no prefix either: a[0] would have matched b[0]
            la = self.la
            t = (code >> f & ((1 << f) - 1)) // 2
            p = code >> 2 * f & 7
            lb = code >> 2 * f + 3
            j = (m / la + m / lb + (m - t) / m) / 3.0
            score = int((j + p * 0.1 * (1.0 - j)) * 10000.0 + 0.5)
        self[code] = score
        return score


class _Lanes:
    """The texts of one lane width among the texts: `members` are their
    indices, ascending, and lane q holds the text of members[n - 1 - q]."""

    def __init__(
        self, width: int, members: list[int], texts: list[str], span: int
    ) -> None:
        self.width, self.members, self.n = width, members, len(members)
        size = width // 8
        lane_texts = [texts[j] for j in reversed(members)]
        bufs: dict[str, bytearray] = {}
        for q, b in enumerate(lane_texts):
            at: dict[str, int] = {}
            for k, ch in enumerate(b):
                at[ch] = at.get(ch, 0) | 1 << k
            for ch, bits in at.items():
                buf = bufs.get(ch)
                if buf is None:
                    buf = bufs[ch] = bytearray(size * self.n)
                buf[q * size:(q + 1) * size] = bits.to_bytes(size, "little")
        self.pm = {
            ch: int.from_bytes(buf, "little") for ch, buf in bufs.items()
        }
        ones = self.ones = _pack([1] * self.n, size)
        guard = self.guard = ones << width - 1
        clip = guard - ones  # every bit below the guards
        # code fields: matches, mismatches (f bits each), prefix (3), len(b)
        f = self.field = (width - 2).bit_length()
        self.lengths = _pack([len(b) << 2 * f + 3 for b in lane_texts], size)
        # own[k]: each lane's bits k - wb..k + wb, below its guard. As
        # wb < width / 2, it is 0 from k = 3 * width / 2 on, so the table
        # stops at 2 * width (and k fits in a lane) and `row` reads 0 past it
        wbs = [max(len(b) // 2 - 1, 0) for b in lane_texts]
        wb = _pack(wbs, size)
        upto = _pack([(2 << min(v, width - 2)) - 1 for v in wbs], size)
        below = 0
        self.own = []
        for k in range(min(span, 2 * width)):
            self.own.append(upto ^ below)
            upto = (upto << 1 | ones) & clip
            # the lanes where k >= wb start to leave bit k - wb behind
            starts = ((ones * k | guard) - wb & guard) >> width - 1
            below = (below << 1 | starts) & clip
        self.cast = {16: "H", 32: "I", 64: "Q"}.get(width)
        if self.cast is not None:  # SWAR popcount masks, one byte at a time
            byte = int.from_bytes(b"\x01" * (size * self.n), "little")
            self.m55, self.m33, self.m0f = 0x55 * byte, 0x33 * byte, 0xF * byte
            self.low = 0xFF * ones  # each lane's low byte
        self.scores: dict[int, _Scores] = {}

    def row(self, a: str, first: int) -> list[int]:
        """jw_score(a, b) for the texts b of members[first:], in order; a
        is not empty."""
        w = self.width
        lanes = self.n - first
        keep = (1 << lanes * w) - 1
        ones = self.ones & keep
        guard = self.guard & keep
        free = clip = guard - ones
        scores = self.scores.get(len(a))
        if scores is None:
            scores = self.scores[len(a)] = _Scores(len(a), w, self.field)
        pm = self.pm
        m = 0  # matches per lane
        matched = []  # (a[k], the lanes where a[k] matched, at bit 0)
        owns = chain(self.own, repeat(0))
        for ch, own, window in zip(a, owns, scores.windows):
            x = pm.get(ch, 0) & free
            if x:
                x &= own | ones * window
                if x:
                    y = x | guard
                    z = y - ones
                    free ^= x & (y ^ z)
                    lanes_k = (z & guard) >> w - 1
                    m += lanes_k
                    matched.append((ch, lanes_k))
        taken = left = clip ^ free
        hits = 0  # b's matches equal to a's match of the same rank
        for ch, lanes_k in matched:
            y = left | guard
            s = left & (y ^ (y - lanes_k))
            left ^= s
            hits |= s & pm[ch]
        misses = taken ^ hits
        prefix = e = ones & pm.get(a[0], 0)
        for k in range(1, min(4, len(a))):
            e &= (e << k & pm.get(a[k], 0)) >> k
            prefix += e
        f = self.field
        base = m + (prefix << 2 * f) + (self.lengths & keep)
        if self.cast is None:  # wide lanes: slice each one
            size = w // 8
            head = base.to_bytes(lanes * size, "little")
            tail = misses.to_bytes(lanes * size, "little")
            codes = [
                int.from_bytes(head[at:at + size], "little")
                + (int.from_bytes(tail[at:at + size], "little").bit_count()
                   << f)
                for at in range((lanes - 1) * size, -1, -size)
            ]
        else:
            x = misses  # per-lane popcount: bits, pairs, nibbles, bytes
            x -= x >> 1 & self.m55
            x = (x & self.m33) + (x >> 2 & self.m33)
            x = (x + (x >> 4)) & self.m0f
            shift = 8
            while shift < w:
                x += x >> shift
                shift <<= 1
            code = base + ((x & self.low) << f)
            codes = memoryview(code.to_bytes(lanes * w // 8, sys.byteorder))
            codes = codes.cast(self.cast)[::-1]
        return list(map(scores.__getitem__, codes))


def jw_rows(texts: list[str]) -> list[array]:
    """The rows of the triangle: row i holds jw_score(texts[i], t) for each
    t in texts[i:].

    The lanes live for this one call: one `_Lanes` per lane width holds
    its texts, and `order` maps each text to its slot in `flat`, where the
    widths' scores of one row are laid side by side."""
    span = max(map(len, texts), default=0)
    by_width: dict[int, list[int]] = {}
    for j, b in enumerate(texts):
        by_width.setdefault(_lane_width(len(b)), []).append(j)
    groups = []
    order = [0] * len(texts)
    at = 0
    for width, members in sorted(by_width.items()):
        groups.append((at, _Lanes(width, members, texts, span)))
        for q, j in enumerate(members):
            order[j] = at + q
        at += len(members)
    flat = [0] * len(texts)
    rows = []
    for r, a in enumerate(texts):
        if not a:
            rows.append(array("H", [0 if b else 10000 for b in texts[r:]]))
            continue
        for at, lanes in groups:
            first = bisect_left(lanes.members, r)
            if first < lanes.n:
                flat[at + first:at + lanes.n] = lanes.row(a, first)
        rows.append(array("H", map(flat.__getitem__, order[r:])))
    return rows
