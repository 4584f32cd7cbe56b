"""Kernel selection: the compiled extension when importable, the pure-Python
fallback otherwise.

`levenshtein`, `lev_score` and `jw_score` score one pair. `jw_rows(texts)`
scores a triangle: row i holds `jw_score(texts[i], t)` for each t in
`texts[i:]`. `jw_rows(texts, start, stop)` returns rows start..stop-1 alone,
equal to `jw_rows(texts)[start:stop]`, so that contiguous shares of one
triangle can be scored apart. The fallback finds a range's Jaro matches
through character maps of `texts[start:]`; with the compiled backend it is
a row loop over the range, calling the compiled `jw_score`."""

from __future__ import annotations

from array import array
from itertools import repeat

try:
    from . import _kernels as _impl

    BACKEND = "c"

    def jw_rows(
        texts: list[str], start: int = 0, stop: int | None = None
    ) -> list[array]:
        score = _impl.jw_score
        if stop is None:
            stop = len(texts)
        return [
            array("H", map(score, repeat(texts[i]), texts[i:]))
            for i in range(start, stop)
        ]

except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"
    jw_rows = _impl.jw_rows

levenshtein = _impl.levenshtein
lev_score = _impl.lev_score
jw_score = _impl.jw_score

__all__ = ["BACKEND", "levenshtein", "lev_score", "jw_score", "jw_rows"]
