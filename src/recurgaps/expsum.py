"""Exponential sums over primes, rational approximation, and arc labels.

All frequencies are handled as alpha = a/q + theta with (a, q) = 1: the
rational part of each phase n * a/q is reduced exactly in int64, for
q <= MAX_Q.  The n * theta part is reduced in one of two ways:

- per-term phases (prime and weighted sums) split theta in two so that
  frac(n * theta) keeps full precision for every n < 2^28; larger n are
  rejected with a ParameterError;
- the geometric sum of e(n theta) over [x, 2x] is evaluated in closed form,
  and each argument n * theta it needs is reduced mod 2 exactly, with
  theta taken as the dyadic rational it is, so it has no range limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .accumulate import chunked_sum
from .admissible import ParameterError, SieveParams
from .primes import PrimeTable, mobius, phi_int, primes_in, torus_norm

if TYPE_CHECKING:
    from .sieve import SumReport
    from .testfn import TestFunction

# Arc-cut exponents: P = N^P_EXP marks major denominators,
# Q = N^Q_EXP the dissection height.
P_EXP = 1.0 / 3.0 - 1.0 / 99.0
Q_EXP = 1.0 - 1.0 / 49.0

_SPLIT_BITS = 28
_SPLIT = float(1 << _SPLIT_BITS) + 1.0  # Veltkamp split point: n * theta_hi exact for n < 2^28

# expsum_discrepancy holds the rational phases (16 B per prime) of at most
# this many bytes' worth of a at once, read at call time.  Two phases of the
# largest window the budget admits, [2^26, 2^27] with 3,645,744 primes, fit,
# so a q with phi(q) <= 2 is always scanned in one block.
PHASE_BLOCK_BYTES = 1 << 27

# q^2 <= 2^63 - 1: every rational phase (n mod q) * a mod q is exact in int64.
# The main term's modulus D is held to it too, so that phi_int trial-divides
# no further than isqrt(MAX_Q) = 55,109.
MAX_Q = math.isqrt((1 << 63) - 1)

# expsum_discrepancy's work rule: phi(q) * (theta points scanned) *
# (window primes + SCAN_PAIR_COST) at most SCAN_BUDGET.  Measured on 2 vCPUs
# (Python 3.11, numpy 2.4): an (a, theta) pair costs about 14 us besides its
# primes, and a prime 14-40 ns (25 ns at the 70,435 primes of x = 1e6), so a
# pair costs as much as 560 primes and the budget is about 10 s of scanning.
SCAN_PAIR_COST = 560
SCAN_BUDGET = 400_000_000


def _require_modulus(m: int, name: str = "q") -> None:
    if m > MAX_Q:
        raise ParameterError(f"{name}={m} exceeds isqrt(2^63 - 1) = {MAX_Q}, "
                             "the largest modulus accepted (MAX_Q)")


@dataclass(frozen=True)
class RationalPoint:
    """Frequency a/q + theta with 1 <= a <= q, gcd(a, q) = 1."""

    a: int
    q: int
    theta: float = 0.0

    def __post_init__(self):
        if self.q < 1 or not 1 <= self.a <= self.q:
            raise ParameterError(f"need 1 <= a <= q, got a={self.a}, q={self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise ParameterError(f"a={self.a} and q={self.q} must be coprime")
        _require_modulus(self.q)
        if not math.isfinite(self.theta):
            raise ParameterError(f"theta offset must be finite, got {self.theta}")


@dataclass(frozen=True)
class ArcLabel:
    """Classification of a frequency: near a low (major) or high (minor)
    denominator rational at scale N."""

    kind: str  # "major" | "minor"
    a: int
    q: int
    P: float
    Q: float


def _require_split(theta: float, what: str) -> None:
    """Refuse a theta that _theta_frac cannot split: theta * _SPLIT must be
    finite, or the split gives NaN phases (|theta| above about 6.7e299)."""
    if not math.isfinite(theta * _SPLIT):
        raise ParameterError(
            f"{what}={theta} is too large: the phase split needs "
            f"{what} * (2^{_SPLIT_BITS} + 1) to be finite")


def _theta_frac(ns: np.ndarray, theta: float) -> np.ndarray:
    """frac(n * theta) with the integer part removed before precision is lost."""
    if len(ns) and int(ns.max()) >= (1 << _SPLIT_BITS):
        raise ParameterError(
            f"phase e(n theta) needs n < 2^{_SPLIT_BITS}, got n = {int(ns.max())}")
    c = theta * _SPLIT
    hi = c - (c - theta)   # leading ~25 bits of theta
    lo = theta - hi
    nh = ns * hi
    # nh - floor(nh) rounds the same real as np.mod(nh, 1.0), which is fmod
    # (exact) plus 1 when nh < 0, and it is the cheaper of the two
    return nh - np.floor(nh) + ns * lo


def _e(f: np.ndarray) -> np.ndarray:
    """e(f) = exp(2 pi i f) of a float64 array: np.exp(2j * np.pi * f), bit
    for bit.

    exp is taken of 0 + 2 pi f i, built in place.  The complex product
    2j * pi * f has imaginary part fl(2 pi f) and real part +-0, and
    exp(+-0) = 1, so this gives its bits without its complex multiply.
    Adding 0.0 turns an imaginary part of -0.0 (at f = -0.0) into the
    product's +0.0.
    """
    z = np.empty(len(f), dtype=np.complex128)
    z.real = 0.0
    z.imag = f * (2.0 * np.pi) + 0.0
    return np.exp(z)


def _rational_phase(ns: np.ndarray, a: int, q: int) -> np.ndarray:
    """e(n a/q), with n a reduced mod q exactly in int64 (q <= MAX_Q)."""
    return _e(((ns % q) * a % q) / q)


def _theta_phase(ns: np.ndarray, theta: float) -> np.ndarray:
    """e(n theta), with frac(n theta) taken by _theta_frac."""
    return _e(_theta_frac(ns, theta))


def _phase(ns: np.ndarray, pt: RationalPoint) -> np.ndarray:
    """e(n * (a/q + theta)) with the rational part reduced exactly.

    The product is always rational times theta, into a fresh array: numpy's
    complex multiply is not commutative bit for bit, ``out * tmp`` lets
    numpy reuse the temporary ``tmp`` for large arrays, which swaps the
    operands, and an in-place ``out *= tmp`` on one element takes a scalar
    loop that rounds differently from the vector loop, so a length-1 chunk
    would change the sum.
    """
    out = _rational_phase(ns, pt.a, pt.q)
    if pt.theta != 0.0:
        out = np.multiply(out, _theta_phase(ns, pt.theta), out=np.empty_like(out))
    return out


# Below this |t|, pi t can be subnormal and lose precision, while
# sin(pi n t) / sin(pi t) = n to double precision for every n < 2^400.
_TINY_THETA = 2.0 ** -600


def _cos_sin_pi(n: int, num: int, den: int) -> tuple[float, float]:
    """cos and sin of pi * n * num/den, reduced exactly mod 2 first."""
    r = n * num
    k = (2 * r + den) // (2 * den)  # nearest integer to r/den
    f = (r - k * den) / den         # in [-1/2, 1/2], correctly rounded
    sign = -1.0 if k % 2 else 1.0
    return sign * math.cos(math.pi * f), sign * math.sin(math.pi * f)


def geometric_phase_sum(x: int, theta: float) -> complex:
    """sum of e(n theta) over x <= n <= 2x, in closed form:

        e(3 x theta / 2) sin(pi (x+1) theta) / sin(pi theta).

    theta is first moved to t = theta - round(theta) in [-1/2, 1/2], which
    leaves every e(n theta) unchanged; t is a dyadic rational num/den, so
    (x+1) t and 3x t are reduced mod 2 in exact integer arithmetic before
    their sines and cosines are taken.
    """
    if theta == 0.0 or torus_norm(theta) == 0.0:
        return complex(x + 1, 0.0)
    t = theta - round(theta)
    num, den = t.as_integer_ratio()
    c, s = _cos_sin_pi(3 * x, num, den)
    if abs(t) < _TINY_THETA:
        r = float(x + 1)
    else:
        r = _cos_sin_pi(x + 1, num, den)[1] / math.sin(math.pi * t)
    return complex(c * r, s * r)


def _require_start(x: int) -> None:
    """Refuse a window [x, 2x] that starts below 1."""
    if x < 1:
        raise ParameterError(f"window [x, 2x] needs x >= 1, got x={x}")


def _require_class(x: int, D: int, b: int) -> None:
    """Refuse a window [x, 2x] that starts below 1, or a class b (mod D)
    that is not a reduced residue class."""
    _require_start(x)
    if D < 1:
        raise ParameterError(f"modulus D must be positive, got {D}")
    if math.gcd(b, D) != 1:
        raise ParameterError(f"gcd(b, D) must be 1, got b={b}, D={D}")


def prime_expsum(x: int, D: int, b: int, pt: RationalPoint, t: PrimeTable) -> complex:
    """sum over primes p in [x, 2x], p = b (mod D), of log(p) e(p (a/q + theta))."""
    _require_class(x, D, b)
    _require_split(pt.theta, "theta offset")
    ps = primes_in(range(x + (b - x) % D, 2 * x + 1, D), t)
    return complex(np.sum(np.log(ps.astype(np.float64)) * _phase(ps, pt)))


def zq_inverse(D: int, q: int) -> tuple[bool, int]:
    """Whether gcd(D, q) and q/gcd(D, q) are coprime; the inverse of
    q/(D,q) modulo (D,q) when they are (0 when the modulus is 1)."""
    u = math.gcd(D, q)
    v = q // u
    if math.gcd(u, v) != 1:
        return False, 0
    return True, (pow(v, -1, u) if u > 1 else 0)


def expsum_main_term(x: int, D: int, b: int, pt: RationalPoint) -> complex:
    """First-order prediction for prime_expsum:

        mu(q/(D,q)) e(a b vbar/(D,q)) / phi([D,q]) * sum_{x<=n<=2x} e(n theta),

    zero unless gcd(D, q) and q/(D, q) are coprime, with vbar the inverse of
    q/(D,q) mod (D,q).
    """
    _require_class(x, D, b)
    _require_modulus(D, "D")
    in_class, vbar = zq_inverse(D, pt.q)
    if not in_class:
        return 0j
    u = math.gcd(D, pt.q)
    v = pt.q // u
    mu_v = mobius(v)
    if mu_v == 0:
        return 0j
    phi_lcm = phi_int(D) * phi_int(pt.q) // phi_int(u)  # phi([D, q]) exactly
    phase = np.exp(2j * np.pi * ((pt.a * b % u) * vbar % u) / u) if u > 1 else 1.0
    return mu_v * phase / phi_lcm * geometric_phase_sum(x, pt.theta)


def expsum_discrepancy(q: int, delta: float, x: int, theta_grid: int,
                       t: PrimeTable) -> float:
    """Grid lower bound for the centered prime-sum discrepancy at level q:

        max over a coprime to q, theta on a grid in [-delta, delta], of
        | sum varpi(n) e(n(a/q + theta)) - mu(q)/phi(q) sum e(n theta) |.

    The true sup over theta is not computable; an evenly spaced grid of
    theta_grid points (one, theta = 0, when delta = 0) is scanned and the
    value reported as a lower bound.  A scan over SCAN_BUDGET is refused
    (see SCAN_PAIR_COST): before sieving when a proven floor on the window's
    prime count already breaks it, else once the window is sieved.

    Each grid value is prime_expsum(x, 1, 1, RationalPoint(a, q, theta), t)
    bit for bit: the primes and their logs are built once, the rational
    phases once per block of a, e(p theta) and the centring sum once per
    theta and block, and every term is the same log * (rational * theta)
    product that _phase forms.  A block holds as many a as fit in
    PHASE_BLOCK_BYTES (at least one), so memory stays bounded however large
    phi(q) is; the max does not depend on the order, so neither does the
    value.
    """
    if q < 1:
        raise ParameterError(f"need q >= 1, got q={q}")
    _require_modulus(q)
    if theta_grid < 3:
        raise ParameterError(f"theta grid needs at least 3 points, got {theta_grid}")
    if not 0.0 <= delta < math.inf:
        raise ParameterError(f"delta must be finite and non-negative, got {delta}")
    if delta - -delta == math.inf:
        raise ParameterError(
            f"delta={delta} is too large: the grid's span 2 delta overflows")
    _require_split(delta, "delta")  # every grid theta has |theta| <= delta
    _require_start(x)
    phi_q = phi_int(q)
    points = theta_grid if delta > 0 else 1
    _require_scan_budget(phi_q, points, _window_primes_floor(x), "at least ")
    ps = primes_in(range(x, 2 * x + 1), t)
    _require_scan_budget(phi_q, points, len(ps))
    fps = ps.astype(np.float64)  # exact: every p < 2^53
    # cast once, not once per product: logs * phase casts the same way
    logs = np.log(fps).astype(np.complex128)
    mu_over_phi = mobius(q) / phi_q
    per_block = max(1, PHASE_BLOCK_BYTES // (16 * max(1, len(ps))))
    coprime = (a for a in range(1, q + 1) if math.gcd(a, q) == 1)
    grid = np.linspace(-delta, delta, points).tolist()
    best = 0.0
    while block := list(islice(coprime, per_block)):
        rational = [_rational_phase(ps, a, q) for a in block]
        for theta in grid:
            center = mu_over_phi * geometric_phase_sum(x, theta)
            e = _theta_phase(fps, theta) if theta != 0.0 else None
            for r in rational:
                phase = r if e is None else r * e
                best = max(best, abs(complex(np.sum(logs * phase)) - center))
        del rational  # free this block before the next one is built
    return best


def _window_primes_floor(x: int) -> int:
    """A proven lower bound L on the number of primes in [x, 2x].

    Rosser and Schoenfeld (1962, Cor. 1): pi(y) > y / log y for y >= 17 and
    pi(y) < 1.25506 y / log y for y > 1, so pi(2x) - pi(x) exceeds their
    difference; one more is taken off for the rounding of the logs."""
    if 2 * x < 17:
        return 0
    bound = 2 * x / math.log(2 * x) - 1.25506 * x / math.log(x)
    return max(math.floor(bound) - 1, 0)


def _require_scan_budget(phi_q: int, points: int, primes: int,
                         at_least: str = "") -> None:
    """Refuse a discrepancy scan whose work (see SCAN_PAIR_COST) is over
    SCAN_BUDGET."""
    work = phi_q * points * (primes + SCAN_PAIR_COST)
    if work > SCAN_BUDGET:
        raise ParameterError(
            f"the scan of phi(q) = {phi_q} values of a at {points} theta "
            f"points over {at_least}{primes} primes costs {at_least}"
            f"{work:.3g} > {SCAN_BUDGET:.3g} (primes + {SCAN_PAIR_COST} a "
            f"pair); lower q (--q) or the theta grid (--grid)")


def weighted_expsum(p: SieveParams, F: TestFunction, i: int, pt: RationalPoint,
                    t: PrimeTable) -> SumReport:
    """Progression sum of varpi(n+h_i) e((n+h_i)(a/q+theta)) Omega_n.

    Predicted main term applies when q divides W:
        e(a(b+h_i)/q) J_i (log R)^-k W^k/phi(W)^(k+1) sum e(n theta);
    otherwise predicted is 0 and the suppression envelope
    N W^k / (w (log R)^k phi(W)^(k+1)) is attached as `bound`.
    """
    # the progression-sum pipeline loads only for the ops that use it
    from .sieve import SumReport, main_scale, points, prime_kernel
    from .testfn import J_i
    _require_split(pt.theta, "theta offset")
    hi = p.h[i]
    pts = points(p)
    top = pts[-1] + hi  # the largest n + h_i the scan would phase
    if pt.theta != 0.0 and top >= (1 << _SPLIT_BITS):
        raise ParameterError(
            f"phase e(n theta) needs n < 2^{_SPLIT_BITS}, got n = {top}")
    kern = prime_kernel(p, F, i, t, lambda m: _phase(m, pt))
    measured = chunked_sum(pts, kern)
    scale = J_i(F, i) * main_scale(p, p.k) / p.N  # per-n main scale
    params = p.echo()
    params.update({"i": i, "a": pt.a, "q": pt.q, "theta_offset": pt.theta})
    if p.W % pt.q == 0:
        phase = np.exp(2j * np.pi * ((pt.a * ((p.b + hi) % pt.q)) % pt.q) / pt.q)
        predicted = phase * scale * geometric_phase_sum(p.N, pt.theta)
        return SumReport("weighted_expsum", measured, complex(predicted),
                         len(pts), params)
    bound = main_scale(p, p.k) / p.w
    return SumReport("weighted_expsum", measured, 0j, len(pts), params,
                     bound=bound)


def convergents(alpha: float, q_cap: float) -> list[tuple[int, int]]:
    """Continued-fraction convergents (p, q) of alpha with q <= q_cap, in
    increasing q: exact, by Euclid's algorithm on the ratio of integers
    alpha is."""
    num, den = alpha.as_integer_ratio()
    (p0, q0), (p1, q1) = (0, 1), (1, 0)
    out = []
    while den:
        a, (num, den) = num // den, (den, num % den)
        (p0, q0), (p1, q1) = (p1, q1), (a * p1 + p0, a * q1 + q0)
        if q1 > q_cap:
            break
        out.append((p1, q1))
    return out


def dirichlet_approx(alpha: float, x: float) -> tuple[int, int]:
    """Reduced (a, q) with q <= x and |alpha - a/q| (mod 1) <= 1/(qx).

    Scans the convergents p/q of alpha in increasing q and returns the
    first that satisfies the inequality, tested exactly: with alpha = n/d
    and x = xn/xd the ratios of integers they are, and m = |n q - p d| mod
    q d, it reads min(m, q d - m) xn <= d xd.  One always does: the last
    convergent with q <= x is alpha itself or lies within 1/(q q') < 1/(q x)
    of it, q' > x being the next denominator.
    """
    if x < 1:
        raise ParameterError(f"need x >= 1, got {x}")
    n, d = alpha.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    return next((pnum % q or q, q) for pnum, q in convergents(alpha, x)
                if min(m := abs(n * q - pnum * d) % (q * d), q * d - m) * xn
                <= d * xd)


def classify_arc(alpha: float, N: int) -> ArcLabel:
    """Major if some q <= P = N^P_EXP has |alpha - a/q| (mod 1) <= 1/(q Q)
    with Q = N^Q_EXP; otherwise minor.  Either way labeled by the Dirichlet
    fraction at height Q.

    Q >> 2P makes every major witness a convergent (a best approximation),
    and dirichlet_approx tests the same inequality on the convergents in
    increasing q, so the first it accepts is the major witness if any.
    """
    if N < 100:
        raise ParameterError(f"need N >= 100, got {N}")
    P = float(N) ** P_EXP
    Q = float(N) ** Q_EXP
    a, q = dirichlet_approx(alpha, Q)
    return ArcLabel(kind="major" if q <= P else "minor", a=a, q=q, P=P, Q=Q)


def minor_arc_scan(p: SieveParams, F: TestFunction, i: int,
                   alphas: list[float], t: PrimeTable) -> list[dict]:
    """|weighted sum| at minor frequencies, against the theta=0 major
    main-term magnitude for contrast."""
    from .sieve import main_scale
    from .testfn import J_i
    records = []
    main_mag = abs(J_i(F, i) * main_scale(p, p.k) / p.N
                   * geometric_phase_sum(p.N, 0.0))
    for alpha in alphas:
        label = classify_arc(alpha, p.N)
        if label.kind != "minor":
            raise ParameterError(f"alpha={alpha} is not minor at N={p.N}")
        theta = alpha - label.a / label.q
        pt = RationalPoint(a=label.a, q=label.q, theta=theta)
        rep = weighted_expsum(p, F, i, pt, t)
        records.append({
            "alpha": alpha,
            "a": label.a,
            "q": label.q,
            "magnitude": abs(rep.measured),
            "main_magnitude": main_mag,
            "ratio": abs(rep.measured) / main_mag if main_mag > 0 else None,
        })
    return records
