"""Primality on a window, and the smallest-prime-factor table behind it.

Every op learns primality one way: ``ap_primality`` sieves the values of
an arithmetic progression with the base primes up to the square root of
its last value (``base_primes``), SEGMENT values at a time in its callers
(``primes_in``; ``sieve.ShiftPrimes`` takes a longer span in one), with
the step's inverses computed once per walk (``step_inverses``), in
O(SEGMENT + sqrt(x)) memory wherever the window lies.  An op that holds
its whole window refuses one above DEFAULT_LIMIT_BUDGET before any sieving
(``require_window``).

A table holds the primes up to its limit and ``spf[n]``, the least prime
dividing n.  An op, and ``verify``, builds one only up to isqrt of its
widest window's last value and reads its primes alone; only the tests read
``spf``.  The one factoring routine, ``factorize``, trial-divides and needs
no table: ``is_prime``, ``mobius``, ``phi_int`` and ``squarefree_divisors``
are built on it, and ``verify``'s oracles read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import ParameterError

# Upper bound on table size unless the caller raises it explicitly, and on
# the last value of a window that an op holds whole.  uint32 entries: 1 << 27
# of them is 0.5 GiB, and building them peaks at about 5.5 bytes per entry,
# ~0.7 GiB; prime_expsum over [2^26, 2^27] peaks at 0.23 GiB.
DEFAULT_LIMIT_BUDGET = 1 << 27

# Progression points sieved at a time by ap_primality's callers: a mask of
# 256 KiB, so its strided stores stay in cache.
SEGMENT = 1 << 18


@dataclass(frozen=True)
class PrimeTable:
    """Sieve products on [2, limit]: least prime factors and the prime list."""

    limit: int
    spf: np.ndarray     # spf[n] = least prime factor of n, for 2 <= n <= limit
    primes: np.ndarray  # ascending primes <= limit, int64

    def __post_init__(self):
        self.spf.flags.writeable = False
        self.primes.flags.writeable = False


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve least prime factors for 2..limit.

    Memory is proportional to ``limit``; a limit above DEFAULT_LIMIT_BUDGET
    is refused before any allocation, so a typo cannot swallow the machine.
    """
    if limit < 2:
        raise ParameterError(f"table limit must be at least 2, got {limit}")
    if limit > DEFAULT_LIMIT_BUDGET:
        raise ParameterError(
            f"table limit {limit} exceeds the entry budget {DEFAULT_LIMIT_BUDGET}")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    root = math.isqrt(limit)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p:: p] = False
    # the primes <= sqrt(limit), largest first, so the least prime factor
    # is the last one written
    for p in reversed(np.flatnonzero(small).tolist()):
        spf[p * p:: p] = p
    primes = np.flatnonzero(spf[2:] == 0).astype(np.int64, copy=False)
    primes += 2
    spf[primes] = primes  # untouched entries are prime
    return PrimeTable(limit=limit, spf=spf, primes=primes)


def ap_primality(first: int, step: int, count: int, base: np.ndarray,
                 inverses: np.ndarray) -> np.ndarray:
    """Exact is-prime mask of first + j * step for 0 <= j < count.

    ``base`` is an ascending int64 array holding at least every prime up to
    the square root of the last value.  Each base prime p crosses out the
    values it divides from the first one >= p * p on, so p itself is kept
    and every composite is crossed out by its least prime factor; when p
    divides ``step`` the values are all = first (mod p), so it crosses out
    all of them from there or none (``inverses``, which is
    ``step_inverses(step, base)``, is 0 there).  Values below 2 are not prime.
    """
    if step < 1 or count < 0:
        raise ValueError(f"need step >= 1 and count >= 0, got {step}, {count}")
    mask = np.ones(count, dtype=bool)
    if not count:
        return mask
    if first < 2:
        mask[:-((first - 2) // step)] = False  # the values below 2
    root = math.isqrt(max(first + (count - 1) * step, 0))
    ps = base[:np.searchsorted(base, root, side="right")]
    inv = inverses[:len(ps)]
    jmin = np.maximum(-((first - ps * ps) // step), 0)  # first value >= p * p
    divides = inv == 0
    for p, j in zip(ps[divides].tolist(), jmin[divides].tolist()):
        if first % p == 0:
            mask[j:] = False
    ps, jmin = ps[~divides], jmin[~divides]
    # the values divisible by p are those with j = -first / step (mod p)
    r = (-first) % ps * inv[~divides] % ps
    for p, j in zip(ps.tolist(), (jmin + (r - jmin) % ps).tolist()):
        mask[j:: p] = False
    return mask


def step_inverses(step: int, ps: np.ndarray) -> np.ndarray:
    """step^-1 mod p for each prime p of ps (0 where p divides step)."""
    return np.array([pow(step, -1, p) if step % p else 0 for p in ps.tolist()],
                    dtype=ps.dtype)


def base_primes(t: PrimeTable, top: int) -> np.ndarray:
    """The primes of t up to isqrt(top): all that ap_primality needs to
    sieve a window whose values are at most top."""
    root = math.isqrt(max(top, 0))
    if t.limit < root:
        raise ParameterError(f"prime table limit {t.limit} below isqrt({top}) "
                             f"= {root}, up to which the window is sieved")
    return t.primes[:np.searchsorted(t.primes, root, side="right")]


def require_window(top: int) -> None:
    """Refuse a window held whole whose last value is above the budget."""
    if top > DEFAULT_LIMIT_BUDGET:
        raise ParameterError(
            f"window reaches {top}, above the budget 2^27 = "
            f"{DEFAULT_LIMIT_BUDGET} for an op that holds its window")


def primes_in(r: range, t: PrimeTable) -> np.ndarray:
    """The prime values of an ascending range, as an ascending int64 array,
    sieved SEGMENT values at a time with the base primes of t."""
    if not len(r):
        return np.zeros(0, dtype=np.int64)
    require_window(r[-1])
    base = base_primes(t, r[-1])
    inv = step_inverses(r.step, base)
    parts = []
    for j in range(0, len(r), SEGMENT):
        mask = ap_primality(r[j], r.step, min(SEGMENT, len(r) - j), base, inv)
        parts.append(np.flatnonzero(mask) * r.step + r[j])
    return np.concatenate(parts)


def factorize(n: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of n, by odd trial divisors after 2."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}: need n >= 1")
    out: list[tuple[int, int]] = []
    rest, p = n, 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def is_prime(n: int) -> bool:
    """n is prime, by trial division."""
    return n >= 2 and factorize(n) == [(n, 1)]


def mobius(n: int) -> int:
    """Moebius mu(n): 0 unless n is squarefree, else (-1)^(prime count)."""
    fs = factorize(n)
    return 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)


def phi_int(m: int) -> int:
    """Euler phi: m times (1 - 1/p) over the primes p dividing m."""
    out = m
    for p, _ in factorize(m):
        out -= out // p
    return out


def squarefree_divisors(n: int, bound: int) -> list[int]:
    """Ascending squarefree divisors d | n with d <= bound (1 included)."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    divs = [1]
    for p, _ in factorize(n):
        divs += [d * p for d in divs if d * p <= bound]
    return sorted(divs)


def torus_norm(x: float) -> float:
    """Distance to the nearest integer, in [0, 1/2]."""
    return abs(x - round(x))
