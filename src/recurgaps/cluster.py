"""Detection and extraction of prime clusters with recurrent shifts.

Two layers, deliberately separated: the weighted detector sum whose
positivity certifies existence of a window with m+1 recurrent primes, and
a direct unweighted scan that lists every such window outright.  The scan
is the ground truth (it never reads the sieve weights); the detector is
reported alongside because its sign is the existence argument.  The
detector reads Omega_n from the op's one period table
(``sieve.omega_period``), which every weighted progression sum shares.

The detector and the scan sieve each shifted progression n + h_i
(``sieve.shift_primes``) and the consecutive filter sieves [N + min h,
2N + max h] once, so all read the primes up to isqrt(2N + max h) only.
The scan holds its progression: a window above 2^27 is refused first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .accumulate import chunked_sum
from .admissible import ParameterError, SieveParams
from .dynamics import (BoxSet, KroneckerSystem, correlation_kernel, measure,
                       recurrence_threshold, require_group_step, system_echo)
from .primes import PrimeTable, primes_in, require_window
from .sieve import (SumReport, main_scale, omega_period, points, progression,
                    shift_primes)
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
           m: int) -> tuple[float, Callable, float]:
    """The rules the detector and the scan share, and what they read: the
    recurrence threshold, the correlation kernel and the cap m log(3N)."""
    require_group_step(p, sys)
    if m < 1:
        raise ParameterError(f"m must be >= 1, got {m}")
    thresh = recurrence_threshold(A, eps)
    require_window(p.top)
    return thresh, correlation_kernel(sys, A), m * math.log(3 * p.N)


def detector_sum(p: SieveParams, F: TestFunction, sys: KroneckerSystem,
                 A: BoxSet, eps: float, m: int, t: PrimeTable) -> SumReport:
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
    thresh, corr, cap = _setup(p, sys, A, eps, m)
    pts = points(p)
    shifts = [(h, shift_primes(p, h, t)) for h in p.h]
    om = omega_period(p, F)

    def kern(lo: int, hi: int) -> np.ndarray:
        js = np.arange(lo, hi, dtype=np.int64)
        ns = pts.start + js * p.W
        inner = np.zeros(hi - lo)
        for h, prime in shifts:
            mvals = ns + h
            wp = np.where(prime.at(lo, hi), np.log(mvals.astype(np.float64)), 0.0)
            inner = inner + wp * (corr(mvals - 1) - thresh)
        return om.at(js) * (inner - cap)

    measured = chunked_sum(pts, kern)
    scale = main_scale(p, p.k)
    predicted = (p.k * (eps / 2.0) * J_i(F, 0)
                 - cap * 2.0 * J_star(F) / math.log(p.R)) * scale
    params = p.echo()
    params.update({"eps": eps, "m": m, "system": system_echo(sys),
                   "set_measure": measure(A)})
    return SumReport.build("detector_sum", measured, predicted, len(pts), params)


def scan_clusters(p: SieveParams, sys: KroneckerSystem, A: BoxSet,
                  eps: float, m: int, t: PrimeTable) -> list[ClusterReport]:
    """Every n in the progression whose window holds >= m+1 shifts with
    n + h_i prime and correlation(n + h_i - 1) above threshold.

    Independent of the sieve weights by design; this is the certificate,
    the detector is the motivation.
    """
    thresh, corr, cap = _setup(p, sys, A, eps, m)
    ns = progression(p)

    hits = []
    recur_ok = []
    varpis = []
    for hi in p.h:
        mvals = ns + hi
        hits.append(shift_primes(p, hi, t).at(0, len(ns)))
        recur_ok.append(corr(mvals - 1) >= thresh)
        varpis.append(np.where(hits[-1], np.log(mvals.astype(np.float64)), 0.0))
    good = np.sum([h & r for h, r in zip(hits, recur_ok)], axis=0)

    out: list[ClusterReport] = []
    for idx in np.flatnonzero(good >= m + 1):
        n = int(ns[idx])
        gh = [i for i in range(p.k + 1) if hits[i][idx] and recur_ok[i][idx]]
        ps = tuple(n + p.h[i] for i in gh)
        det = math.fsum(varpis[i][idx] * (corr(np.array([n + p.h[i] - 1]))[0] - thresh)
                        for i in range(p.k + 1) if hits[i][idx]) - cap
        out.append(ClusterReport(n=n, hit_indices=tuple(gh), primes=ps,
                                 width=ps[-1] - ps[0], detector_value=det))
    return out


def consecutive_filter(reports: list[ClusterReport], p: SieveParams,
                       t: PrimeTable) -> list[ClusterReport]:
    """Attach to each report whether its primes are consecutive (no other
    prime strictly between the first and the last).

    When the progression was built in consecutive mode the flag must be
    true for every report; a violation means the residue construction is
    broken and raises immediately.
    """
    if not reports:
        return []
    # every report's primes lie in [N + min h, 2N + max h]: sieve it once
    window = primes_in(range(p.N + min(p.h), p.top + 1), t)
    out = []
    for rep in reports:
        i, j = np.searchsorted(window, [rep.primes[0], rep.primes[-1] + 1])
        between = window[i:j]
        flag = len(between) == len(rep.primes) and all(
            int(q) in rep.primes for q in between)
        if p.forced and not flag:
            raise AssertionError(
                f"consecutive-mode invariant breach at n={rep.n}: "
                f"window primes {list(between)} vs cluster {list(rep.primes)}")
        out.append(replace(rep, consecutive=flag))
    return out
