"""Divisor-sum sieve weights and the progression sums they control.

The weight attached to each n is

    Omega_n = (sum over tuples d_j | n+h_j of lambda_{d_0..d_k})^2,

which for tensor test functions factors through per-coordinate divisor
sums S_j(n) = sum_{d | n+h_j squarefree} mu(d) f(log d / log R).  Each
measured progression sum is reported next to its first-order main term;
the ratio is the whole point of the experiment.

Omega_n depends on n only through the plan primes dividing n + h_j, so
along the progression it is periodic with period dividing their product
P; it is evaluated on min(P, L) points (``omega_period``) from p and F
alone, once per op -- every sum here and in expsum, dynamics and cluster
reads that cached table -- and above OMEGA_TABLE_BUDGET points refused.
``omega_n`` evaluates it at one n by full divisor-tuple enumeration, the
oracle the table is checked against.

The walk over n_j = start + jW has one coordinate, the index j: a kernel
gets a span lo <= j < hi, reads primality (``primes.ShiftPrimes.at``) and
Omega (``OmegaPeriod.at``) by index, and builds n_j where it needs it.
Every sum of varpi(n+h_i) Omega_n factor(n+h_i) has one kernel,
``prime_kernel``: a ``ShiftPrimes`` walk sieves n + h_i itself, SEGMENT
points at a time, as ``chunked_sum`` walks CHUNK at a time, and the
factor is read only where n + h_i is prime.  So those sums need only the
base primes, up to isqrt(2N + max h), and run in
O(CHUNK + SEGMENT + sqrt(N)) memory besides the Omega table.

Summation order is pinned: per-coordinate subset terms follow one fixed
preorder, and each sum is its per-n terms' exact integer total, rounded
once -- the table's total times its count (``accumulate.periodic_sum``)
or the sum of each chunk's total as the terms stream
(``accumulate.chunked_sum``) -- so results are bit-identical across
chunkings.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .accumulate import CHUNK, chunked_sum, periodic_sum
from .admissible import ParameterError, SieveParams
from .primes import ShiftPrimes, is_prime, phi_int, squarefree_divisors
from .testfn import TestFunction, J_star, J_i, lambda_weight

# Points an Omega period table may hold: 2^26 float64s are 512 MiB.
OMEGA_TABLE_BUDGET = 1 << 26


@dataclass(frozen=True)
class SumReport:
    """A measured sum, its predicted main term, and full provenance."""

    op: str
    measured: float | complex
    predicted: float | complex
    count: int
    params: dict
    bound: float | None = None

    @property
    def ratio(self) -> float | complex | None:
        """measured / predicted, or None when the prediction is 0."""
        return self.measured / self.predicted if abs(self.predicted) > 0 else None


def _progression_start(p: SieveParams) -> int:
    """The least n >= N with n = b (mod W)."""
    if p.W > p.N:
        raise ParameterError(
            f"empty progression: W = {p.W} exceeds N = {p.N}")
    return p.N + ((p.b - p.N) % p.W)


def points(p: SieveParams) -> range:
    """The n with N <= n <= 2N and n = b (mod W), ascending."""
    return range(_progression_start(p), 2 * p.N + 1, p.W)


def _divisor_plan(F: TestFunction, R: int,
                  ps: Sequence[int]) -> list[tuple[int, float]]:
    """Fixed-order (product, signed f-value) pairs for the squarefree
    products below the support cutoff R**(1/(k+1)) of the primes ps, which
    ascend and lie below it (``_plan_primes``).

    The order is a preorder walk over ascending primes (include-branch first);
    every Omega evaluation uses this same order, which pins the float result.
    """
    cutoff = float(R) ** F.upper
    logR = math.log(R)
    plan: list[tuple[int, float]] = []

    def walk(start: int, prod: int, depth: int) -> None:
        for idx in range(start, len(ps)):
            nxt = prod * ps[idx]
            if nxt >= cutoff:
                break  # primes ascend, so later branches only grow
            sign = -1.0 if (depth + 1) % 2 else 1.0
            plan.append((nxt, sign * F.factor(math.log(nxt) / logR)))
            walk(idx + 1, nxt, depth + 1)

    walk(0, 1, 0)
    return plan


def _plan_primes(p: SieveParams, F: TestFunction) -> list[int]:
    """The primes below the support cutoff that do not divide W, ascending."""
    cutoff = float(p.R) ** F.upper
    return [q for q in range(2, math.ceil(cutoff))
            if p.W % q != 0 and is_prime(q)]


def omega_n(n: int, p: SieveParams, F: TestFunction) -> float:
    """The squared divisor-sum weight at one n, by enumerating every divisor
    tuple through lambda_weight: the oracle the period table
    (``omega_period``) is checked against.
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    cutoff = float(p.R) ** F.upper
    bound = max(1, int(cutoff) + 1)
    lists = [[d for d in squarefree_divisors(n + hj, bound) if d < cutoff]
             for hj in p.h]
    s = 0.0
    for tup in iter_product(*lists):
        s += lambda_weight(F, tup, p.R)
    return s * s


def omega_kernel(p: SieveParams, F: TestFunction):
    """Chunk kernel: Omega values for an array of progression points.

    On the progression every divisor of n + h_j is coprime to W, so the plan
    drops the primes dividing W; the dropped terms would contribute exact
    zeros and the per-element float result is unchanged bit for bit.
    """
    f0 = F.f0
    plan = _divisor_plan(F, p.R, _plan_primes(p, F))
    hs = p.h

    def kernel(ns: np.ndarray) -> np.ndarray:
        acc = None
        for hj in hs:
            m = ns + hj
            s = np.full(ns.shape, f0)
            for prod, c in plan:
                s = s + np.where(m % prod == 0, c, 0.0)
            acc = s if acc is None else acc * s
        return acc * acc

    return kernel


def main_scale(p: SieveParams, log_power: int) -> float:
    """N * W^k / ((log R)^log_power * phi(W)^(k+1))."""
    phiW = phi_int(p.W)
    return (p.N * float(p.W) ** p.k
            / (math.log(p.R) ** log_power * float(phiW) ** (p.k + 1)))


@dataclass(frozen=True)
class OmegaPeriod:
    """Omega over the progression points n_j, 0 <= j < count, from one
    period of its values.

    Omega at n_j is vals[j % len(vals)], bit for bit the kernel's value,
    since the table entries come from the same per-element operations.
    """

    count: int
    vals: np.ndarray

    def at(self, js: np.ndarray) -> np.ndarray:
        """Omega at the progression points of index js."""
        return self.vals[js % len(self.vals)]


@functools.lru_cache(maxsize=1)
def omega_period(p: SieveParams, F: TestFunction) -> OmegaPeriod:
    """Omega on the first min(P, L) points of the progression of L points,
    where P is the product of the plan primes (all coprime to W); the sums
    of an op share it, cached on (p, F), so it is read-only."""
    pts = points(p)
    per = min(math.prod(_plan_primes(p, F)), len(pts))
    if per > OMEGA_TABLE_BUDGET:
        raise ParameterError(
            f"the Omega table needs {per} points, above the budget 2^26 = "
            f"{OMEGA_TABLE_BUDGET}; lower --n or --theta")
    kern = omega_kernel(p, F)
    vals = np.empty(per)
    for i in range(0, per, CHUNK):
        j = min(i + CHUNK, per)
        vals[i:j] = kern(pts.start + np.arange(i, j, dtype=np.int64) * p.W)
    vals.flags.writeable = False
    return OmegaPeriod(count=len(pts), vals=vals)


def omega_sum(p: SieveParams, F: TestFunction) -> SumReport:
    """Sum of Omega_n over the progression vs J_* N W^k/((log R)^(k+1) phi(W)^(k+1)).

    An exact class-count sum over the period table; the progression itself
    is never built.
    """
    om = omega_period(p, F)
    predicted = J_star(F) * main_scale(p, p.k + 1)
    measured = periodic_sum(om.vals, om.count)
    return SumReport("omega_sum", measured, predicted, om.count, p.echo())


def prime_kernel(p: SieveParams, F: TestFunction, i: int,
                 factor: Callable[[np.ndarray], np.ndarray] | None = None):
    """Chunk kernel for the sum of varpi(n+h_i) Omega_n factor(n+h_i) over
    the progression: log(m) Omega_n (times factor(m)) at the points n_j of
    a span lo <= j < hi with m = n_j + h_i prime.

    Every other term is an exact zero, which adds nothing to an exact
    total, so the kernel keeps only the prime ones and evaluates factor
    there alone.
    """
    prime = ShiftPrimes(points(p), p.h[i], p.top)
    om = omega_period(p, F)

    def kern(lo: int, hi: int) -> np.ndarray:
        js = lo + np.flatnonzero(prime.at(lo, hi))
        m = prime.values.start + js * p.W
        terms = np.log(m) * om.at(js)
        return terms if factor is None else terms * factor(m)

    return kern


def weighted_prime_sum(p: SieveParams, F: TestFunction, i: int) -> SumReport:
    """Sum of varpi(n+h_i) Omega_n vs J_i N W^k/((log R)^k phi(W)^(k+1))."""
    kern = prime_kernel(p, F, i)
    pts = points(p)
    measured = chunked_sum(pts, kern)
    predicted = J_i(F, i) * main_scale(p, p.k)
    params = p.echo()
    params["i"] = i
    return SumReport("weighted_prime_sum", measured, predicted, len(pts), params)
