"""Deterministic reductions: one exactly rounded math.fsum per sum.

Every progression sum is one ``math.fsum`` over its per-point terms,
streamed one span of point indices at a time (``chunked_sum``), or, for a
periodic sequence, over exact multiples of one period (``periodic_sum``).
``fsum`` returns the correctly rounded value of the exact total, which
depends only on the multiset of terms, so the final double is independent
of chunk boundaries, and the terms of a partition of the range sum to the
full-range value exactly.  Spans are evaluated in turn on the calling
thread and no list of all terms is built: O(CHUNK) memory per real sum.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable

import numpy as np

CHUNK = 1 << 13  # progression elements per chunk; fixed, so memory is O(CHUNK)


def chunked_sum(points: range,
                kernel: Callable[[int, int], np.ndarray],
                complex_valued: bool = False):
    """Exactly rounded sum of kernel over points, CHUNK points at a time.

    kernel(lo, hi) maps the points of index lo <= j < hi, one CHUNK span
    after another, to their terms; the values are points.start + j *
    points.step.  Complex sums stream the real parts through fsum and keep
    each chunk's imaginary parts (8 bytes per term) for a second fsum.  An
    empty range gives 0.0 (0j when complex_valued) without calling kernel.
    """
    n = len(points)
    terms = (kernel(lo, min(lo + CHUNK, n)) for lo in range(0, n, CHUNK))
    if not complex_valued:
        return math.fsum(chain.from_iterable(c.tolist() for c in terms))
    imag: list[np.ndarray] = []

    def real_parts(c: np.ndarray) -> list[float]:
        imag.append(np.imag(c).copy())
        return np.real(c).tolist()

    re = math.fsum(chain.from_iterable(real_parts(c) for c in terms))
    return complex(re, math.fsum(chain.from_iterable(a.tolist() for a in imag)))


def periodic_sum(vals: np.ndarray, length: int) -> float:
    """Exactly rounded sum of vals[j % len(vals)] over 0 <= j < length.

    Class r occurs c_r = length // per + (r < length % per) times.  The
    total is summed as vals * 2^b for each set bit b of length // per, plus
    vals[:length % per]: every such term is exact, so one fsum over them
    gives the correctly rounded exact total, the same double as the fsum
    of all length terms, in O(per * log length) work.  The terms reach
    fsum one CHUNK slice of vals at a time, so besides vals the memory is
    O(CHUNK).
    """
    if not length:
        return 0.0
    per = len(vals)
    q, rem = divmod(length, per)
    bits = [b for b in range(q.bit_length()) if q >> b & 1]

    def parts():
        for i in range(0, per, CHUNK):
            part = vals[i:i + CHUNK]
            for b in bits:
                yield np.ldexp(part, b).tolist()
            if i < rem:
                yield part[:rem - i].tolist()

    return math.fsum(chain.from_iterable(parts()))
