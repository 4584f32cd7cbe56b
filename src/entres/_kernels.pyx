# cython: language_level=3, boundscheck=False, wraparound=False
"""String similarity kernels, compiled implementation.

Same contract as _kernels_py: fixed-point hundredths, half-up rounding, the
same greedy Jaro matches taken in the same order and the same floating-point
expressions, so both backends return bit-identical scores. The loops differ:
this twin scans each Jaro window position by position.
"""

from libc.stdlib cimport free, malloc


def levenshtein(str a, str b):
    """Edit distance (insert, delete, substitute)."""
    if a == b:
        return 0
    cdef Py_ssize_t la = len(a)
    cdef Py_ssize_t lb = len(b)
    if la == 0:
        return lb
    if lb == 0:
        return la
    if la < lb:
        a, b = b, a
        la, lb = lb, la
    cdef Py_ssize_t *prev = <Py_ssize_t *> malloc((lb + 1) * sizeof(Py_ssize_t))
    cdef Py_ssize_t *cur = <Py_ssize_t *> malloc((lb + 1) * sizeof(Py_ssize_t))
    if prev == NULL or cur == NULL:
        free(prev)
        free(cur)
        raise MemoryError()
    cdef Py_ssize_t i, j, best, cost, result
    cdef Py_ssize_t *tmp
    cdef Py_UCS4 ca
    try:
        for j in range(lb + 1):
            prev[j] = j
        for i in range(1, la + 1):
            ca = a[i - 1]
            cur[0] = i
            for j in range(1, lb + 1):
                cost = 0 if ca == <Py_UCS4> b[j - 1] else 1
                best = prev[j] + 1
                if cur[j - 1] + 1 < best:
                    best = cur[j - 1] + 1
                if prev[j - 1] + cost < best:
                    best = prev[j - 1] + cost
                cur[j] = best
            tmp = prev
            prev = cur
            cur = tmp
        result = prev[lb]
    finally:
        free(prev)
        free(cur)
    return result


def lev_score(str a, str b):
    """10000 * (1 - editdist / max(len)), rounded half-up."""
    if a == b:
        return 10000
    cdef Py_ssize_t la = len(a)
    cdef Py_ssize_t lb = len(b)
    cdef Py_ssize_t m = la if la > lb else lb
    cdef Py_ssize_t d = levenshtein(a, b)
    return <long> ((1.0 - (<double> d) / (<double> m)) * 10000.0 + 0.5)


cdef double _jaro(str a, str b):
    cdef Py_ssize_t la = len(a)
    cdef Py_ssize_t lb = len(b)
    if la == 0 and lb == 0:
        return 1.0
    if la == 0 or lb == 0:
        return 0.0
    cdef Py_ssize_t window = (la if la > lb else lb) // 2 - 1
    if window < 0:
        window = 0
    cdef char *amatch = <char *> malloc(la)
    cdef char *bmatch = <char *> malloc(lb)
    if amatch == NULL or bmatch == NULL:
        free(amatch)
        free(bmatch)
        raise MemoryError()
    cdef Py_ssize_t i, j, lo, hi, k
    cdef Py_ssize_t m = 0
    cdef Py_ssize_t mismatched = 0
    cdef Py_ssize_t t
    cdef Py_UCS4 ca
    try:
        for i in range(la):
            amatch[i] = 0
        for j in range(lb):
            bmatch[j] = 0
        for i in range(la):
            lo = i - window if i > window else 0
            hi = i + window + 1
            if hi > lb:
                hi = lb
            ca = a[i]
            for j in range(lo, hi):
                if not bmatch[j] and ca == <Py_UCS4> b[j]:
                    amatch[i] = 1
                    bmatch[j] = 1
                    m += 1
                    break
        if m == 0:
            return 0.0
        k = 0
        for i in range(la):
            if amatch[i]:
                while not bmatch[k]:
                    k += 1
                if <Py_UCS4> a[i] != <Py_UCS4> b[k]:
                    mismatched += 1
                k += 1
        t = mismatched // 2
        return ((<double> m) / la + (<double> m) / lb
                + (<double> (m - t)) / m) / 3.0
    finally:
        free(amatch)
        free(bmatch)


def jw_score(str a, str b):
    """Jaro-Winkler similarity in hundredths; the common-prefix boost
    (factor 0.1, prefix capped at 4) is applied unconditionally."""
    cdef double j = _jaro(a, b)
    cdef Py_ssize_t cap = min(4, len(a), len(b))
    cdef Py_ssize_t i
    cdef Py_ssize_t p = 0
    for i in range(cap):
        if <Py_UCS4> a[i] != <Py_UCS4> b[i]:
            break
        p += 1
    return <long> ((j + p * 0.1 * (1.0 - j)) * 10000.0 + 0.5)
