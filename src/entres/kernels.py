"""Kernel selection: the compiled extension when importable, the pure-Python
fallback otherwise."""

from __future__ import annotations

try:
    from . import _kernels as _impl

    BACKEND = "c"
except ImportError:
    from . import _kernels_py as _impl  # type: ignore[no-redef]

    BACKEND = "python"

levenshtein = _impl.levenshtein
lev_score = _impl.lev_score
jw_score = _impl.jw_score

__all__ = ["BACKEND", "levenshtein", "lev_score", "jw_score"]
