"""String similarity kernels, pure-Python implementation.

Scores are fixed-point hundredths in [0, 10000], rounded half-up. The
compiled twin in _kernels.pyx takes the same greedy Jaro matches in the same
order and evaluates the same floating-point expressions, so both backends
return bit-identical scores; only the loops that find the matches differ.
"""

from __future__ import annotations


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
