"""Deterministic reductions: one exactly rounded math.fsum per sum.

Every progression sum is one ``math.fsum`` over its per-point terms,
streamed chunk by chunk over a range of points (``chunked_sum``), or, for
a periodic sequence, over exact multiples of one period
(``periodic_sum``).  ``fsum`` returns the correctly rounded value of the
exact total, which depends only on the multiset of terms, so the final
double is independent of chunk boundaries, and summing the terms of a
partition of the range gives the full-range value exactly.  Chunks are evaluated one after another on the calling
thread; no list of all terms is built, so memory is O(CHUNK) per real sum.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable

import numpy as np

CHUNK = 1 << 13  # progression elements per chunk; fixed, so memory is O(CHUNK)


def chunked_sum(points: range,
                kernel: Callable[[np.ndarray], np.ndarray],
                complex_valued: bool = False):
    """Exactly rounded sum of kernel over points, CHUNK points at a time.

    Each CHUNK slice of points is built as an int64 array when it is
    reached, and kernel maps it to per-point terms.  Complex sums stream
    the real parts through fsum and keep each chunk's imaginary parts
    (8 bytes per term) for a second fsum.  An empty range gives 0.0 (0j
    when complex_valued) without calling kernel.
    """
    chunks = (points[i:i + CHUNK] for i in range(0, len(points), CHUNK))
    terms = (kernel(np.arange(r.start, r.stop, r.step, dtype=np.int64))
             for r in chunks)
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
