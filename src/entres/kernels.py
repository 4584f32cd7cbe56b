"""Kernel selection: the compiled extension when importable, the pure-Python
fallback otherwise.

`levenshtein`, `lev_score` and `jw_score` score one pair. `map_rows(score,
texts, start, stop)` scores rows start..stop-1 of a triangle (all rows by
default): row i holds `score(texts[i], t)` for each t in `texts[i:]`, so
that contiguous shares of one triangle can be scored apart. `jw_rows(texts,
start, stop)` equals `map_rows(jw_score, texts, start, stop)`: with the
compiled backend it is that row loop; the fallback finds a range's Jaro
matches through character maps of `texts[start:]`."""

from __future__ import annotations

from array import array
from functools import partial
from itertools import repeat
from typing import Callable


def map_rows(
    score: Callable[[str, str], int],
    texts: list[str],
    start: int = 0,
    stop: int | None = None,
) -> list[array]:
    """Rows start..stop-1 of the triangle, one `score` call a pair."""
    if stop is None:
        stop = len(texts)
    return [
        array("H", map(score, repeat(texts[i]), texts[i:]))
        for i in range(start, stop)
    ]


try:
    from . import _kernels as _impl

    BACKEND = "c"
    jw_rows = partial(map_rows, _impl.jw_score)
except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"
    jw_rows = _impl.jw_rows

levenshtein = _impl.levenshtein
lev_score = _impl.lev_score
jw_score = _impl.jw_score

__all__ = [
    "BACKEND", "levenshtein", "lev_score", "jw_score", "jw_rows", "map_rows"
]
