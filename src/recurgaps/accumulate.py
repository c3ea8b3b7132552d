"""Deterministic reductions: every sum is an exact integer total, rounded once.

``exact_sum`` gives the exact total of a float64 array as a Python int at
scale 2^SCALE (Kulisch's long accumulator): every float64 is an integer
multiple of 2^-1074, and so of 2^-SCALE.  Partial totals add, and multiply
by a count, exactly as ints, and ``rounded`` turns a total into the
correctly rounded double once, at the end -- ``math.fsum``'s value bit for
bit.  The value depends only on the multiset of terms, so it is
independent of chunk boundaries, and the terms of a partition of the range
sum to the full-range value exactly.

Every progression sum streams its per-point terms one span of point
indices at a time (``chunked_sum``), or, for a periodic sequence, adds the
exact total of one period times its count (``periodic_sum``).  Spans are
evaluated in turn on the calling thread and no list of terms is kept:
O(CHUNK) memory per sum, real or complex.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

CHUNK = 1 << 13  # progression elements per chunk; fixed, so memory is O(CHUNK)

# x = M 2^(e-53) with |M| < 2^53 and e >= -1073 (np.frexp), so x 2^SCALE is
# the integer M 2^(e + 1073)
SCALE = 1126
# M = hi 2^26 + lo with |hi| <= 2^27 and 0 <= lo < 2^26, so a float64 bin
# holds the exact sum of up to 2^26 of either half
_HALF = 26


def exact_sum(x: np.ndarray) -> int:
    """The exact total of the float64 terms x, times 2^SCALE, as an int.

    Each term is split by exponent into two mantissa halves of at most 27
    bits; ``np.bincount`` sums each half per exponent, exactly for up to
    2^26 terms, and the nonzero bins are shifted into one int.
    A nan or infinite term raises ArithmeticError.
    """
    if not np.isfinite(x).all():
        raise ArithmeticError("a sum's term is nan or infinite")
    m, e = np.frexp(x)
    mant = np.ldexp(m, 53).astype(np.int64)
    e += SCALE - 53
    hi = np.bincount(e, weights=mant >> _HALF)
    lo = np.bincount(e, weights=mant & ((1 << _HALF) - 1))
    return sum(((int(hi[s]) << _HALF) + int(lo[s])) << int(s)
               for s in np.flatnonzero((hi != 0) | (lo != 0)))


def rounded(total: int) -> float:
    """The double nearest an exact total, ties to even; OverflowError
    above the largest double, as ``math.fsum``.  An exact zero is +0.0."""
    return total / (1 << SCALE)


def chunked_sum(points: range, kernel: Callable[[int, int], np.ndarray]):
    """Exactly rounded sum of kernel over points, CHUNK points at a time.

    kernel(lo, hi) maps the points of index lo <= j < hi, one CHUNK span
    after another, to their terms; the values are points.start + j *
    points.step.  A complex kernel's real and imaginary parts are summed
    apart, each exactly rounded.  An empty range gives 0.0 without calling
    kernel.
    """
    n = len(points)
    re = im = 0
    cplx = False
    for lo in range(0, n, CHUNK):
        terms = kernel(lo, min(lo + CHUNK, n))
        re += exact_sum(terms.real)
        if np.iscomplexobj(terms):
            cplx = True
            im += exact_sum(terms.imag)
    return complex(rounded(re), rounded(im)) if cplx else rounded(re)


def periodic_sum(vals: np.ndarray, length: int) -> float:
    """Exactly rounded sum of vals[j % len(vals)] over 0 <= j < length.

    With q, rem = divmod(length, len(vals)), the exact total is q times
    that of vals plus that of vals[:rem].  vals reaches ``exact_sum`` one
    CHUNK slice at a time, so besides vals the memory is O(CHUNK).
    """
    q, rem = divmod(length, len(vals))
    total = 0
    for i in range(0, len(vals), CHUNK):
        part = vals[i:i + CHUNK]
        total += q * exact_sum(part) + exact_sum(part[:max(rem - i, 0)])
    return rounded(total)
