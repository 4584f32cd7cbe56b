"""Kernel selection: the compiled extension when importable, the pure-Python
fallback otherwise.

`levenshtein`, `lev_score` and `jw_score` score one pair. `jw_rows(texts)`
scores a triangle: row i holds `jw_score(texts[i], t)` for each t in
`texts[i:]`. The fallback finds all of a triangle's Jaro matches through
per-string character maps; with the compiled backend it is a row loop over
the compiled `jw_score`."""

from __future__ import annotations

from array import array
from itertools import repeat

try:
    from . import _kernels as _impl

    BACKEND = "c"

    def jw_rows(texts: list[str]) -> list[array]:
        score = _impl.jw_score
        return [
            array("H", map(score, repeat(text), texts[i:]))
            for i, text in enumerate(texts)
        ]

except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"
    jw_rows = _impl.jw_rows

levenshtein = _impl.levenshtein
lev_score = _impl.lev_score
jw_score = _impl.jw_score

__all__ = ["BACKEND", "levenshtein", "lev_score", "jw_score", "jw_rows"]
