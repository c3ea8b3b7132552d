"""Admissible shift tuples and the small-prime residue setup.

The progression n = b (mod W) with W = W0 * (primorial of w) is chosen so
that W, n+h_0, ..., n+h_k are pairwise coprime: b avoids -h_j mod every
prime p <= w, b = 1 (mod W0), and W0 divides every h_j.  The consecutive
variant additionally pins b = -a_j (mod rho_j) for every gap value a_j
between the shifts, which forces all shifted values outside the tuple to
be composite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

MAX_W = (1 << 63) - 1  # chosen residue moduli stay within a 64-bit word
# The seed of the randomized verify checks, echoed and hashed in every
# record's config; defined here so the CLI need not import the suite.
DEFAULT_SEED = 20250811


class ParameterError(ValueError):
    """A progression or tuple parameter violates its stated requirements."""


def _small_primes(m: int) -> list[int]:
    out = []
    for p in range(2, m + 1):
        if all(p % q for q in out):
            out.append(p)
    return out


def _shown(n: int) -> str:
    """n in full up to 30 digits; past that, its digit count, so that a
    refusal stays short."""
    big = abs(n) // 10 ** 30  # str() refuses a number past 4,300 digits
    return f"<{len(str(big)) + 30} digits>" if big else str(n)


def require_shift_count(count: int, flag: str) -> None:
    """Refuse a tuple of 53 or more shifts before it is built: no 63-bit W
    serves one.  W0 * primorial(w) <= MAX_W forces w <= 52 (compute_W), and
    53 or more admissible shifts miss a class mod 53, so two of them differ
    by a multiple of 53 > w, which the w rule forbids."""
    if count > 52:
        raise ParameterError(f"{flag} asks for {_shown(count)} shifts, past "
                             f"the 52-shift limit of a 63-bit W")


def is_admissible(h: list[int] | tuple[int, ...]) -> bool:
    """True iff {h_j mod p} misses a residue class for every prime p <= len(h).

    For p > len(h) a free class exists by counting, so only small primes
    need checking.
    """
    hs = list(h)
    if len(set(hs)) != len(hs):
        raise ParameterError(f"tuple entries must be distinct: {hs}")
    for p in _small_primes(len(hs)):
        if len({x % p for x in hs}) == p:
            return False
    return True


@dataclass(frozen=True)
class AdmissibleTuple:
    """Strictly increasing shifts h_0 < ... < h_k, admissible as a set."""

    h: tuple[int, ...]

    def __post_init__(self):
        if len(self.h) < 1:
            raise ParameterError("tuple must have at least one shift")
        if any(x < 0 for x in self.h):
            raise ParameterError(f"shifts must be non-negative: {self.h}")
        if any(a >= b for a, b in zip(self.h, self.h[1:])):
            raise ParameterError(f"shifts must be strictly increasing: {self.h}")
        if not is_admissible(self.h):
            raise ParameterError(f"assumption (I) violated: {self.h} is not admissible")

    @property
    def k(self) -> int:
        return len(self.h) - 1

    @property
    def diameter(self) -> int:
        return self.h[-1] - self.h[0]


def primorial(w: int) -> int:
    out = 1
    for p in _small_primes(w):
        out *= p
    return out


def compute_W(w: int, W0: int = 1) -> int:
    """W0 times the product of all primes <= w, refused above MAX_W.

    W0 * primorial(47) is the largest such product that can fit, and
    primorial(53) alone passes MAX_W, so the product stops at the primes up
    to min(w, 53): a larger w is refused as fast.
    """
    if w < 2:
        raise ParameterError(f"w must be at least 2, got {w}")
    if W0 < 1:
        raise ParameterError(f"W0 must be at least 1, got {W0}")
    W = W0 * primorial(min(w, 53))
    if W > MAX_W:
        raise ParameterError(f"W = W0 * primorial(w) exceeds the 63-bit modulus "
                             f"cap 2^63 - 1 at w = {_shown(w)}; desk-scale runs "
                             f"keep w <= 13")
    return W


def standard_tuple(k: int, W0: int) -> AdmissibleTuple:
    """Shifts j * W0 * prod(p <= k+1), j = 0..k: admissible multiples of W0."""
    if k < 1:
        raise ParameterError(f"k must be at least 1, got {k}")
    if W0 < 1:
        raise ParameterError(f"W0 must be at least 1, got {W0}")
    step = W0 * primorial(k + 1)
    return AdmissibleTuple(tuple(j * step for j in range(k + 1)))


def dense_tuple(k: int, W0: int) -> AdmissibleTuple:
    """Greedy admissible tuple of k+1 multiples of W0 with small diameter."""
    if k < 0 or W0 < 1:
        raise ParameterError(f"invalid k={k}, W0={W0}")
    chosen: list[int] = []
    j = 0
    while len(chosen) < k + 1:
        cand = chosen + [j * W0]  # j * W0 is a new multiple of W0
        if is_admissible(cand):
            chosen = cand
        j += 1
        if j > 10000 * (k + 1):
            raise ParameterError("greedy tuple search did not terminate")
    return AdmissibleTuple(tuple(chosen))


def _residue_modulus(tup: AdmissibleTuple, w: int, W0: int) -> int:
    """W = W0 * primorial(w), for a tuple and w that meet the rules of the
    residue setup: W0 >= 1 divides every shift (II), and every prime factor
    of a shift difference is at most w."""
    if W0 < 1:
        raise ParameterError(f"W0 must be at least 1, got {W0}")
    bad = [hj for hj in tup.h if hj % W0 != 0]
    if bad:
        raise ParameterError(f"assumption (II) violated: W0={W0} does not divide h in {bad}")
    W = compute_W(w, W0)
    ps = _small_primes(w)
    for i, hi in enumerate(tup.h):
        for hj in tup.h[i + 1:]:
            d = hj - hi
            for p in ps:
                while d % p == 0:
                    d //= p
            if d > 1:
                raise ParameterError(
                    f"w={w} too small: {_shown(hj)}-{_shown(hi)} has a prime "
                    f"factor > w (remaining factor {_shown(d)}); raise w")
    return W


def _crt(congruences: list[tuple[int, int]]) -> tuple[int, int]:
    """Combine pairwise-coprime congruences x = a (mod m) -> (residue, modulus)."""
    r, M = 0, 1
    for a, m in congruences:
        t = ((a - r) * pow(M, -1, m)) % m
        r += M * t
        M *= m
    return r % M, M


def choose_b(h: AdmissibleTuple | tuple[int, ...] | list[int],
             w: int,
             W0: int = 1,
             consecutive: bool = False) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Smallest b in [1, W] compatible with the residue requirements.

    Returns (b, forced) where forced lists the (gap value a_j, prime rho_j)
    congruences used in consecutive mode (empty otherwise).  W0 must divide
    every h_j (II); b satisfies gcd(b + h_j, W) = 1 for every j (III) and
    b = 1 (mod W0) (IV); in consecutive mode also b = -a_j (mod rho_j) for
    every integer a_j in [h_0, h_k] missing from the tuple, with distinct
    primes rho_j in (h_k, w] not dividing W0.
    """
    tup = h if isinstance(h, AdmissibleTuple) else AdmissibleTuple(tuple(sorted(h)))
    hs = tup.h
    W = _residue_modulus(tup, w, W0)

    forced: list[tuple[int, int]] = []
    if consecutive:
        gaps = [a for a in range(hs[0], hs[-1] + 1) if a not in set(hs)]
        rhos = [p for p in _small_primes(w) if p > hs[-1] and W0 % p != 0]
        if len(rhos) < len(gaps):
            raise ParameterError(
                f"consecutive mode needs {len(gaps)} distinct primes in "
                f"({hs[-1]}, {w}] not dividing W0, found {len(rhos)}")
        forced = list(zip(gaps, rhos[:len(gaps)]))

    congruences = [(1 % W0, W0)] if W0 > 1 else []
    r0, M0 = _crt(congruences + [((-a) % rho, rho) for a, rho in forced])
    first = r0 or M0  # the least b >= 1 in the class r0 (mod M0)
    for b in range(first, min(W, first + 10_000_000 * M0) + 1, M0):
        if all(math.gcd(b + hj, W) == 1 for hj in hs):
            return b, tuple(forced)
    raise ParameterError(
        f"no residue b in [1, {W}] avoids -h_j mod every prime <= {w}")


@dataclass(frozen=True)
class SieveParams:
    """Everything a progression sum needs: range, weight scale, residue setup.

    Invariants enforced at construction: theta in (0, 1/4) with R = floor(N^theta),
    the tuple admissible with every shift divisible by W0, every prime factor
    of a shift difference at most w, W = W0 * primorial(w), b = 1 (mod W0),
    and gcd(b + h_j, W) = 1 for every j.
    """

    N: int
    theta: float
    R: int
    w: int
    W0: int
    W: int
    b: int
    tuple: AdmissibleTuple
    forced: tuple[tuple[int, int], ...] = field(default=())

    @property
    def k(self) -> int:
        return self.tuple.k

    @property
    def h(self) -> tuple[int, ...]:
        return self.tuple.h

    @property
    def top(self) -> int:
        """The last value 2N + max h of the window the shifts reach."""
        return 2 * self.N + max(self.h)

    def echo(self) -> dict:
        return {"N": self.N, "theta": self.theta, "R": self.R, "w": self.w,
                "W0": self.W0, "W": self.W, "b": self.b, "k": self.k,
                "h": list(self.h),
                "consecutive": bool(self.forced)}


def make_sieve_params(N: int,
                      h: AdmissibleTuple | tuple[int, ...] | list[int],
                      theta: float = 0.1,
                      w: int = 5,
                      W0: int = 1,
                      b: int | None = None,
                      consecutive: bool = False) -> SieveParams:
    """Validate and assemble progression parameters; picks b when not given."""
    if N < 4:
        raise ParameterError(f"N must be at least 4, got {N}")
    if not 0.0 < theta < 0.25:
        raise ParameterError(f"theta must lie in (0, 1/4), got {theta}")
    R = int(N ** theta)
    if R < 2:
        raise ParameterError(
            f"R = floor(N^theta) = {R} degenerates every weight; "
            f"raise theta or N (N={N}, theta={theta})")
    tup = h if isinstance(h, AdmissibleTuple) else AdmissibleTuple(tuple(sorted(h)))
    W = _residue_modulus(tup, w, W0)
    if b is None:
        b, forced = choose_b(tup, w, W0, consecutive=consecutive)
    else:
        if consecutive:
            raise ParameterError("pass either an explicit b or consecutive=True, not both")
        forced = ()
        if not 1 <= b <= W:
            raise ParameterError(f"b={b} outside [1, W={W}]")
        if b % W0 != 1 % W0:
            raise ParameterError(f"assumption (IV) violated: b={b} is not 1 mod W0={W0}")
        bad = [hj for hj in tup.h if math.gcd(b + hj, W) != 1]
        if bad:
            raise ParameterError(
                f"assumption (III) violated: gcd(b+h, W) > 1 for h in {bad}")
    return SieveParams(N=N, theta=theta, R=R, w=w, W0=W0, W=W, b=b,
                       tuple=tup, forced=forced)
