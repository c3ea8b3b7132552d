"""Explicit rotation systems Z/g + T^d and exact return-set correlations.

Measurable sets are disjoint unions of (group element, axis-aligned cube)
pieces, so mu(A intersect T^-n A) reduces to wrap-around interval overlaps
computed in closed form: a pair of pieces contributes iff the group parts
line up under n steps of the rotation, and the torus part is a product of
one-dimensional arc overlaps.

kappa coordinates are declared rationally independent by construction
(e.g. fractional parts of square roots of distinct primes); this cannot be
checked from floats and is treated as a trust assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice
from typing import TYPE_CHECKING

import numpy as np

from .accumulate import chunked_sum
from .admissible import ParameterError, SieveParams
from .primes import PrimeTable, is_prime, primes_in

if TYPE_CHECKING:
    from .sieve import SumReport
    from .testfn import TestFunction

# Largest n_max of khintchine_set, which holds every n up to it: `recur
# --nmax` peaks at 589 MiB there, about what `recur --pmax` takes at 2^27.
NMAX_BOUND = 1 << 22


def _sqrt_prime_kappas(d: int) -> tuple[float, ...]:
    """Fractional parts of sqrt(2), sqrt(3), sqrt(5), ...: the canonical
    rationally independent rotation coordinates."""
    ps = islice(filter(is_prime, count(2)), max(d, 0))
    return tuple(math.sqrt(p) % 1.0 for p in ps)


@dataclass(frozen=True)
class KroneckerSystem:
    """Rotation x -> x + (gamma0, kappa) on Z/g + T^d with Haar measure."""

    g: int
    d: int
    gamma0: int
    kappa: tuple[float, ...]

    def __post_init__(self):
        if self.g < 1:
            raise ParameterError(f"group order must be >= 1, got {self.g}")
        if self.d < 0:
            raise ParameterError(f"torus dimension must be >= 0, got {self.d}")
        if len(self.kappa) != self.d:
            raise ParameterError(
                f"kappa has {len(self.kappa)} coordinates, expected d={self.d}")
        if not 0 <= self.gamma0 < self.g:
            raise ParameterError(f"gamma0={self.gamma0} outside Z/{self.g}")
        if any(not 0.0 <= kk < 1.0 for kk in self.kappa):
            raise ParameterError(f"kappa coordinates must lie in [0, 1): {self.kappa}")

    @staticmethod
    def cyclic(g: int, gamma0: int = 1) -> "KroneckerSystem":
        return KroneckerSystem(g=g, d=0, gamma0=gamma0 % g, kappa=())

    @staticmethod
    def with_sqrt_kappa(g: int, d: int, gamma0: int = 1) -> "KroneckerSystem":
        return KroneckerSystem(g=g, d=d, gamma0=gamma0 % g,
                               kappa=_sqrt_prime_kappas(d))


@dataclass(frozen=True)
class Cube:
    """Axis-aligned half-open cube on T^d: corner + [0, side)^d, mod 1."""

    corner: tuple[float, ...]
    side: float

    def __post_init__(self):
        if not 0.0 < self.side <= 1.0:
            raise ParameterError(f"cube side must be in (0, 1], got {self.side}")
        if any(not 0.0 <= c < 1.0 for c in self.corner):
            raise ParameterError(f"cube corner must lie in [0, 1)^d: {self.corner}")

    def volume(self) -> float:
        return self.side ** len(self.corner)


@dataclass(frozen=True)
class BoxSet:
    """Disjoint union of (group element, cube) pieces."""

    g: int
    d: int
    pieces: tuple[tuple[int, Cube], ...]

    def __post_init__(self):
        for gamma, cube in self.pieces:
            if not 0 <= gamma < self.g:
                raise ParameterError(f"group element {gamma} outside Z/{self.g}")
            if len(cube.corner) != self.d:
                raise ParameterError(
                    f"cube dimension {len(cube.corner)} does not match d={self.d}")
        for i, (g1, c1) in enumerate(self.pieces):
            for g2, c2 in self.pieces[i + 1:]:
                if g1 == g2 and _cubes_overlap(c1, c2):
                    raise ParameterError(
                        f"pieces overlap at group element {g1}: {c1} vs {c2}")

    @staticmethod
    def whole_space(sys: KroneckerSystem) -> "BoxSet":
        full = Cube(corner=(0.0,) * sys.d, side=1.0)
        return BoxSet(g=sys.g, d=sys.d,
                      pieces=tuple((gamma, full) for gamma in range(sys.g)))

    @staticmethod
    def empty(sys: KroneckerSystem) -> "BoxSet":
        return BoxSet(g=sys.g, d=sys.d, pieces=())


def measure(A: BoxSet) -> float:
    """Haar measure: sum of cube volumes divided by the group order."""
    return sum(cube.volume() for _, cube in A.pieces) / A.g


def arc_overlap(start1: float, len1: float, start2: float, len2: float) -> float:
    """Length of the overlap of two arcs [start, start+len) on the circle.

    Lifts both to [0, 1) and intersects the three shifted copies of the
    second; exact up to double rounding.
    """
    s1 = start1 % 1.0
    s2 = start2 % 1.0
    total = 0.0
    for shift in (-1.0, 0.0, 1.0):
        lo = max(s1, s2 + shift)
        hi = min(s1 + len1, s2 + shift + len2)
        if hi > lo:
            total += hi - lo
    return min(total, min(len1, len2))


def _cubes_overlap(c1: Cube, c2: Cube) -> bool:
    vol = 1.0
    for a, b in zip(c1.corner, c2.corner):
        vol *= arc_overlap(a, c1.side, b, c2.side)
    return vol > 0.0


def correlation(sys: KroneckerSystem, A: BoxSet, n: int) -> float:
    """Exact measure of A intersect S^-n A for the rotation S.

    A point in piece (gamma_i, C_i) lands in piece (gamma_j, C_j) after n
    steps iff gamma_j = gamma_i + n gamma0 in Z/g and the torus part shifts
    into C_j; the torus contribution is a product of arc overlaps offset by
    n * kappa.
    """
    if A.g != sys.g or A.d != sys.d:
        raise ParameterError("set does not live on this system")
    shift_g = (n * sys.gamma0) % sys.g
    offsets = [(n * kk) % 1.0 for kk in sys.kappa]
    total = 0.0
    for g1, c1 in A.pieces:
        for g2, c2 in A.pieces:
            if (g1 + shift_g) % sys.g != g2:
                continue
            vol = 1.0
            for c, off in zip(range(sys.d), offsets):
                # t in C1 with t + n kappa in C2  <=>  t in (C2 - n kappa)
                vol *= arc_overlap(c1.corner[c], c1.side,
                                   (c2.corner[c] - off) % 1.0, c2.side)
            total += vol
    return total / sys.g


def monte_carlo_correlation(sys: KroneckerSystem, A: BoxSet, n: int,
                            samples: int, seed: int) -> float:
    """Sampling estimate of the same overlap, for cross-checks."""
    rng = np.random.default_rng(seed)
    gs = rng.integers(0, sys.g, size=samples)
    ts = rng.random(size=(samples, sys.d))
    shift_g = (n * sys.gamma0) % sys.g
    offs = np.array([(n * kk) % 1.0 for kk in sys.kappa])

    def contains(gamma_arr, t_arr):
        inside = np.zeros(samples, dtype=bool)
        for gamma, cube in A.pieces:
            m = gamma_arr == gamma
            for c in range(sys.d):
                rel = (t_arr[:, c] - cube.corner[c]) % 1.0
                m = m & (rel < cube.side)
            inside |= m
        return inside

    hit = contains(gs, ts) & contains((gs + shift_g) % sys.g, (ts + offs) % 1.0)
    return float(np.mean(hit))


def recurrence_threshold(A: BoxSet, eps: float) -> float:
    """measure(A)^2 - eps, the correlation a recurrent shift must reach."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    return measure(A) ** 2 - eps


def require_group_step(p: SieveParams, sys: KroneckerSystem) -> None:
    """Refuse a W0 the group order g does not divide: then n + h_i - 1
    would not walk the group trivially along the progression."""
    if p.W0 % sys.g != 0:
        raise ParameterError(
            f"W0={p.W0} must be divisible by the group order g={sys.g}")


def khintchine_set(sys: KroneckerSystem, A: BoxSet, eps: float,
                   n_max: int) -> np.ndarray:
    """All n in [0, n_max] with correlation(n) >= measure(A)^2 - eps."""
    thresh = recurrence_threshold(A, eps)
    if n_max > NMAX_BOUND:
        raise ParameterError(
            f"--nmax {n_max} exceeds the bound 2^22 = {NMAX_BOUND}")
    ns = np.arange(0, n_max + 1, dtype=np.int64)
    return ns[correlation_kernel(sys, A)(ns) >= thresh]


def shifted_prime_recurrence_set(sys: KroneckerSystem, A: BoxSet, eps: float,
                                 p_max: int, t: PrimeTable) -> np.ndarray:
    """Primes p <= p_max with correlation(p - 1) >= measure(A)^2 - eps."""
    thresh = recurrence_threshold(A, eps)
    ps = primes_in(range(2, p_max + 1), t)
    return ps[correlation_kernel(sys, A)(ps - 1) >= thresh]


# ---------------------------------------------------------------------------
# Periodized bump function with explicit Fourier decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpPsi:
    """Trapezoid bump on the circle: 1 on [delta1, delta0-delta1], 0 on
    [delta0, 1), linear ramps of width delta1.

    Fourier coefficients come from the closed form of a convolution of two
    interval indicators; C0 is the fitted envelope constant so that
    |coeff(j)| <= C0 * min(1/|j|, delta0-delta1, 1/(delta1 j^2)) for every
    fitted j.
    """

    delta0: float
    delta1: float
    C0: float

    def value(self, x: float) -> float:
        x = x % 1.0
        if x >= self.delta0:
            return 0.0
        if x < self.delta1:
            return x / self.delta1
        if x <= self.delta0 - self.delta1:
            return 1.0
        return (self.delta0 - x) / self.delta1

    def coeff(self, j: int) -> complex:
        return bump_coeff(self.delta0, self.delta1, j)

    def envelope(self, j: int) -> float:
        if j == 0:
            raise ParameterError("envelope defined for j != 0")
        return self.C0 * min(1.0 / abs(j), self.delta0 - self.delta1,
                             1.0 / (self.delta1 * j * j))

    def reconstruct(self, xs: np.ndarray, K: int) -> np.ndarray:
        """Partial Fourier sum over |j| <= K (real part; psi is real)."""
        out = np.full(len(xs), self.delta0 - self.delta1, dtype=np.complex128)
        for j in range(1, K + 1):
            cj = self.coeff(j)
            phases = np.exp(2j * np.pi * j * xs)
            out += cj * phases + np.conj(cj) * np.conj(phases)
        return out.real


def bump_coeff(delta0: float, delta1: float, j: int) -> complex:
    """Fourier coefficient of the trapezoid: the convolution
    (1/delta1) 1_[0, delta0-delta1] * 1_[0, delta1] transformed."""
    L = delta0 - delta1
    if j == 0:
        return complex(L, 0.0)
    tp = 2j * np.pi * j
    return complex((1.0 - np.exp(-tp * L)) * (1.0 - np.exp(-tp * delta1))
                   / (delta1 * tp * tp))


def build_bump(delta0: float, delta1: float, K: int = 10_000) -> BumpPsi:
    """Trapezoid bump with C0 fitted over 1 <= j <= K."""
    if not 0.0 < delta1 < delta0 / 2.0 or delta0 / 2.0 >= 0.5:
        raise ParameterError(
            f"need 0 < delta1 < delta0/2 < 1/2, got delta0={delta0}, delta1={delta1}")
    js = np.arange(1, K + 1, dtype=np.float64)
    mags = np.abs(np.sin(np.pi * js * (delta0 - delta1))
                  * np.sin(np.pi * js * delta1)) / (delta1 * np.pi ** 2 * js ** 2)
    env = np.minimum(1.0 / js,
                     np.minimum(delta0 - delta1, 1.0 / (delta1 * js ** 2)))
    C0 = float(np.max(mags / env))
    return BumpPsi(delta0=delta0, delta1=delta1, C0=C0)


def weighted_correlation_sum(p: SieveParams, F: TestFunction,
                             sys: KroneckerSystem, A: BoxSet, i: int,
                             eps: float, t: PrimeTable) -> SumReport:
    """Progression sum of varpi(n+h_i) Omega_n * correlation(n+h_i-1)
    against (measure(A)^2 - eps) times the prime-sum main term.

    Requires W0 divisible by the group order (``require_group_step``).
    """
    # the progression-sum pipeline loads only for the ops that use it
    from .sieve import SumReport, main_scale, points, prime_kernel
    from .testfn import J_i
    require_group_step(p, sys)
    thresh = recurrence_threshold(A, eps)
    corr = correlation_kernel(sys, A)
    kern = prime_kernel(p, F, i, t, lambda m: corr(m - 1))
    pts = points(p)
    measured = chunked_sum(pts, kern)
    predicted = thresh * J_i(F, i) * main_scale(p, p.k)
    params = p.echo()
    params.update({"i": i, "eps": eps, "system": system_echo(sys),
                   "set_measure": measure(A)})
    return SumReport("weighted_correlation_sum", measured, predicted,
                     len(pts), params)


def correlation_kernel(sys: KroneckerSystem, A: BoxSet):
    """Vector of correlation values; residue lookup when the torus is absent."""
    if sys.d == 0:
        by_class = np.array([correlation(sys, A, r) for r in range(sys.g)])

        def kern(ms: np.ndarray) -> np.ndarray:
            return by_class[ms % sys.g]
    else:
        def kern(ms: np.ndarray) -> np.ndarray:
            return np.array([correlation(sys, A, int(m)) for m in ms])
    return kern


def system_echo(sys: KroneckerSystem) -> dict:
    return {"g": sys.g, "d": sys.d, "gamma0": sys.gamma0,
            "kappa": list(sys.kappa)}
