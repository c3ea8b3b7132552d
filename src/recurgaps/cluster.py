"""Detection and extraction of prime clusters with recurrent shifts.

Two layers, deliberately separated: the weighted detector sum whose
positivity certifies existence of a window with m+1 recurrent primes, and
a direct unweighted scan that lists every such window outright.  The scan
is the ground truth (it never reads the sieve weights); the detector is
reported alongside because its sign is the existence argument.  The
detector reads Omega_n from the op's one period table
(``sieve.omega_period``), which every weighted progression sum shares.

Both walk the progression one CHUNK span of point indices at a time and
read the same span terms (``_setup``): per shift, whether n + h_i is a
recurrent prime, and the detector term varpi(n + h_i)(corr - threshold).
Each shift is sieved along the walk (a ``primes.ShiftPrimes``), and the
consecutive filter walks one more over [N + min h, 2N + max h], a span
per report, so all read the primes up to isqrt(2N + max h) only.  The
scan holds its reports, which grow with N: a window above 2^27 is refused
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import accumulate
from .accumulate import chunked_sum, exact_sum, rounded
from .admissible import ParameterError, SieveParams
from .dynamics import (BoxSet, KroneckerSystem, correlation_kernel, measure,
                       recurrence_threshold, require_group_step, system_echo)
from .primes import ShiftPrimes, require_window
from .sieve import SumReport, main_scale, omega_period, points
from .testfn import TestFunction, J_i, J_star


@dataclass(frozen=True)
class ClusterReport:
    """One base point n whose window holds >= m+1 recurrent primes."""

    n: int
    hit_indices: tuple[int, ...]
    primes: tuple[int, ...]
    width: int
    detector_value: float
    consecutive: bool | None = None

    def as_dict(self) -> dict:
        return {"n": self.n, "hit_indices": list(self.hit_indices),
                "primes": list(self.primes), "width": self.width,
                "detector_value": self.detector_value,
                "consecutive": self.consecutive}


def _setup(p: SieveParams, sys: KroneckerSystem, A: BoxSet, eps: float,
           m: int) -> tuple[Callable, float]:
    """The rules the detector and the scan share, and what they read: the
    span terms and the cap m log(3N).

    terms(lo, hi) gives two (k+1) x (hi - lo) arrays over the points
    lo <= j < hi: whether n_j + h_i is prime with corr(n_j + h_i - 1) at
    or above the recurrence threshold, and the detector term
    varpi(n_j + h_i)(corr - threshold), which is 0 where n_j + h_i is not
    prime.
    """
    require_group_step(p, sys)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    thresh = recurrence_threshold(A, eps)
    require_window(p.top)  # the scan's reports, and the output, grow with N
    corr = correlation_kernel(sys, A)
    pts = points(p)
    shifts = [(h, ShiftPrimes(pts, h, p.top)) for h in p.h]

    def terms(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        ns = pts.start + np.arange(lo, hi, dtype=np.int64) * p.W
        ok, det = [], []
        for h, prime in shifts:
            mvals = ns + h
            hit = prime.at(lo, hi)
            c = corr(mvals - 1)
            ok.append(hit & (c >= thresh))
            det.append(np.where(hit, np.log(mvals.astype(np.float64)), 0.0)
                       * (c - thresh))
        return np.array(ok), np.array(det)

    return terms, m * math.log(3 * p.N)


def detector_sum(p: SieveParams, F: TestFunction, sys: KroneckerSystem,
                 A: BoxSet, eps: float, m: int) -> SumReport:
    """Weighted detector over the progression:

        sum_n Omega_n ( sum_i varpi(n+h_i) (corr(n+h_i-1) - (mu(A)^2 - eps))
                        - m log(3N) ).

    Positive total => some window in range carries m+1 recurrent primes.
    predicted echoes the standard lower-bound shape
        k (eps/2) J_0 - m log(3N) (2 J_*/log R), times the main scale.
    It is never positive.  It would need
        k J_0/J_* > 4 m log(3N) / (eps log R),
    whose right side exceeds 4, as eps < mu(A)^2 <= 1 and log R < log 3N;
    yet every tensor-product F accepted here has (k+1) J_0/J_* <= 1
    (Cauchy-Schwarz, as f(1/(k+1)) = 0), with equality for the default
    linear f.
    """
    terms, cap = _setup(p, sys, A, eps, m)
    pts = points(p)
    om = omega_period(p, F)

    def kern(lo: int, hi: int) -> np.ndarray:
        inner = sum(terms(lo, hi)[1], np.zeros(hi - lo))
        return om.at(np.arange(lo, hi, dtype=np.int64)) * (inner - cap)

    measured = chunked_sum(pts, kern)
    scale = main_scale(p, p.k)
    predicted = (p.k * (eps / 2.0) * J_i(F, 0)
                 - cap * 2.0 * J_star(F) / math.log(p.R)) * scale
    params = p.echo()
    params.update({"eps": eps, "m": m, "system": system_echo(sys),
                   "set_measure": measure(A)})
    return SumReport("detector_sum", measured, predicted, len(pts), params)


def scan_clusters(p: SieveParams, sys: KroneckerSystem, A: BoxSet,
                  eps: float, m: int) -> list[ClusterReport]:
    """Every n in the progression whose window holds >= m+1 shifts with
    n + h_i prime and correlation(n + h_i - 1) above threshold.

    Independent of the sieve weights by design; this is the certificate,
    the detector is the motivation.
    """
    terms, cap = _setup(p, sys, A, eps, m)
    pts = points(p)
    out: list[ClusterReport] = []
    for lo in range(0, len(pts), accumulate.CHUNK):
        ok, det = terms(lo, min(lo + accumulate.CHUNK, len(pts)))
        js = np.flatnonzero(ok.sum(axis=0) >= m + 1)
        for j, hit, col in zip(js.tolist(), ok[:, js].T.tolist(), det[:, js].T):
            n = pts[lo + j]
            gh = tuple(i for i, good in enumerate(hit) if good)
            ps = tuple(n + p.h[i] for i in gh)
            out.append(ClusterReport(
                n=n, hit_indices=gh, primes=ps, width=ps[-1] - ps[0],
                detector_value=rounded(exact_sum(col)) - cap))
    return out


def consecutive_filter(reports: list[ClusterReport],
                       p: SieveParams) -> list[ClusterReport]:
    """Attach to each report whether its primes are consecutive (no other
    prime strictly between the first and the last).

    When the progression was built in consecutive mode the flag must be
    true for every report; a violation means the residue construction is
    broken and raises immediately.
    """
    if not reports:
        return []
    # report n's primes lie in [n + min h, n + max h], a span of one walk
    # over [N + min h, 2N + max h] whose start ascends with n
    window = ShiftPrimes(range(p.N + min(p.h), p.top + 1), 0, p.top)
    out = []
    for rep in reports:
        i = rep.n - p.N
        found = rep.n + min(p.h) + np.flatnonzero(
            window.at(i, i + p.tuple.diameter + 1))
        between = tuple(q for q in found.tolist()
                        if rep.primes[0] <= q <= rep.primes[-1])
        flag = between == rep.primes
        if p.forced and not flag:
            raise AssertionError(
                f"consecutive-mode invariant breach at n={rep.n}: "
                f"window primes {list(between)} vs cluster {list(rep.primes)}")
        out.append(replace(rep, consecutive=flag))
    return out
