"""String similarity kernels, pure-Python implementation.

Scores are fixed-point hundredths in [0, 10000], rounded half-up. The
compiled twin in _kernels.pyx takes the same greedy Jaro matches in the same
order and evaluates the same floating-point expressions, so both backends
return bit-identical scores; only the loops that find the matches differ.

Jaro's matching is found by two loops. `jw_score`, which scores one pair,
scans b's window for each character of a with str.find, skipping the
positions already taken. `jw_rows`, which scores the triangle of a list of
strings or the contiguous range of its rows from `start` to `stop`, first
maps the characters of each string from `start` on to their ascending
positions; each character of a then takes the lowest position of that
character in b that lies in its window and at or above the character's
cursor, one past its previous match. The two agree: one character's matches
rise in a's order and window starts never fall, so every position of that
character between the window start and the cursor is already taken, and
every free one in the window lies at or above the cursor. So `jw_rows`
returns the rows of `kernels.map_rows(jw_score, texts, start, stop)`, the
generic row loop that calls `jw_score` once a pair, which is what the
compiled backend's `jw_rows` is.
"""

from __future__ import annotations

from array import array
from operator import ne


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


def jw_rows(
    texts: list[str], start: int = 0, stop: int | None = None
) -> list[array]:
    """Rows start..stop-1 of the triangle (all rows by default): row i holds
    jw_score(texts[i], t) for each t in texts[i:].

    The character maps live for this one call: per text of texts[start:],
    character -> ascending positions; per row and window width, one
    (character, cursor slot, window start, window end) span per character
    of the row's text."""
    if stop is None:
        stop = len(texts)
    finders = []  # per text of texts[start:]: character -> its positions
    for b in texts[start:]:
        at: dict[str, list[int]] = {}
        for k, ch in enumerate(b):
            at.setdefault(ch, []).append(k)
        finders.append(at.get)
    rows = []
    for i in range(start, stop):
        a = texts[i]
        la = len(a)
        slot_of: dict[str, int] = {}  # a's distinct characters, numbered
        for ch in a:
            slot_of.setdefault(ch, len(slot_of))
        no_matches = [0] * len(slot_of)
        spans_of: dict[int, list[tuple[str, int, int, int]]] = {}
        row = array("H")
        put = row.append
        for b, at_b in zip(texts[i:], finders[i - start:]):
            if a == b:
                put(10000)
                continue
            lb = len(b)
            window = (la if la > lb else lb) // 2 - 1
            if window < 0:
                window = 0
            spans = spans_of.get(window)
            if spans is None:
                spans = spans_of[window] = [
                    (ch, slot_of[ch], max(k - window, 0), k + window)
                    for k, ch in enumerate(a)
                ]
            cursor = no_matches[:]
            pos: list[int] = []  # b's matched index for each matched char of a
            for ch, slot, lo, hi in spans:
                ks = at_b(ch)
                if ks is not None:
                    c = cursor[slot]
                    if c < lo:
                        c = lo
                    for k in ks:
                        if k >= c:
                            if k <= hi:
                                cursor[slot] = k + 1
                                pos.append(k)
                            break
            m = len(pos)
            if m == 0:
                put(0)
                continue
            # a's matched chars in a's order against b's in position order
            char_at = b.__getitem__
            t = sum(map(ne, map(char_at, pos), map(char_at, sorted(pos)))) // 2
            j = (m / la + m / lb + (m - t) / m) / 3.0
            p = 0
            if a[0] == b[0]:  # both are non-empty, since m > 0
                for k in range(min(4, la, lb)):
                    if a[k] != b[k]:
                        break
                    p += 1
            put(int((j + p * 0.1 * (1.0 - j)) * 10000.0 + 0.5))
        rows.append(row)
    return rows
