"""Tensor-product test functions on the simplex and their functionals.

F(t_0,...,t_k) = prod_j f(t_j) with a single piecewise-polynomial factor f
supported on [0, 1/(k+1)], so the support of F sits inside the simplex
{t_j >= 0, sum t_j <= 1} automatically.  The functionals controlling the
progression sums reduce to one-dimensional closed forms:

    J_i = f(0)^2 * (int f'^2)^k        (independent of i by symmetry)
    J_* = (int f'^2)^(k+1)

with int f'(t)^2 dt computed exactly from the polynomial coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .admissible import ParameterError
from .primes import mobius

_EDGE_TOL = 1e-12


def _poly_eval(coeffs: Sequence[float], t: float) -> float:
    out = 0.0
    for c in reversed(coeffs):
        out = out * t + c
    return out


def _poly_derivative(coeffs: Sequence[float]) -> tuple[float, ...]:
    return tuple(i * c for i, c in enumerate(coeffs))[1:] or (0.0,)


def _poly_multiply(a: Sequence[float], b: Sequence[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_integral(coeffs: Sequence[float], lo: float, hi: float) -> float:
    out = 0.0
    for i, c in enumerate(coeffs):
        out += c * (hi ** (i + 1) - lo ** (i + 1)) / (i + 1)
    return out


@dataclass(frozen=True)
class TestFunction:
    """F = prod_j f(t_j); pieces are (right edge, coefficients) for f.

    Coefficients are ascending powers of t in absolute coordinates; the
    first piece starts at 0 and the last edge must equal 1/(k+1).  f must
    be continuous with f at the last edge equal to 0.
    """

    k: int
    pieces: tuple[tuple[float, tuple[float, ...]], ...]

    __test__ = False  # keep pytest collection away from the class name

    def __post_init__(self):
        if self.k < 0:
            raise ParameterError(f"k must be non-negative, got {self.k}")
        if not self.pieces:
            raise ParameterError("factor needs at least one piece")
        edges = [edge for edge, _ in self.pieces]
        if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])) or edges[0] <= 0:
            raise ParameterError(f"piece edges must increase from 0: {edges}")
        T = 1.0 / (self.k + 1)
        if abs(edges[-1] - T) > _EDGE_TOL:
            raise ParameterError(
                f"factor support must end at 1/(k+1) = {T}, got {edges[-1]}")
        for (edge, coeffs), nxt in zip(self.pieces, self.pieces[1:]):
            left = _poly_eval(coeffs, edge)
            right = _poly_eval(nxt[1], edge)
            if abs(left - right) > _EDGE_TOL:
                raise ParameterError(f"factor discontinuous at {edge}")
        if abs(_poly_eval(self.pieces[-1][1], edges[-1])) > _EDGE_TOL:
            raise ParameterError("factor must vanish at the right support edge")

    @property
    def upper(self) -> float:
        """Right edge of the factor support, 1/(k+1)."""
        return self.pieces[-1][0]

    @property
    def f0(self) -> float:
        return self.factor(0.0)

    def factor(self, t: float) -> float:
        """The one-variable factor f, zero outside [0, upper)."""
        if not 0.0 <= t < self.upper:
            return 0.0
        return _poly_eval(self._piece_at(t), t)

    def deriv_l2(self) -> float:
        """int_0^upper f'(t)^2 dt, exactly from the coefficients."""
        return self.deriv_cross(self)

    def deriv_cross(self, other: "TestFunction") -> float:
        """int f'(t) g'(t) dt over the common refinement of the pieces."""
        if self.k != other.k:
            raise ParameterError("cross integral needs matching k")
        edges = sorted({e for e, _ in self.pieces} | {e for e, _ in other.pieces})
        out, lo = 0.0, 0.0
        for edge in edges:
            mid = 0.5 * (lo + edge)
            da = _poly_derivative(self._piece_at(mid))
            db = _poly_derivative(other._piece_at(mid))
            out += _poly_integral(_poly_multiply(da, db), lo, edge)
            lo = edge
        return out

    def _piece_at(self, t: float) -> tuple[float, ...]:
        for edge, coeffs in self.pieces:
            if t < edge:
                return coeffs
        return (0.0,)


def default_test_function(k: int) -> TestFunction:
    """f(t) = 1/(k+1) - t on [0, 1/(k+1)]: the simplest factor with rational
    closed forms for all integrals."""
    T = 1.0 / (k + 1)
    return TestFunction(k=k, pieces=((T, (T, -1.0)),))


def piecewise_test_function(k: int, spec: Sequence[Sequence]) -> TestFunction:
    """Build a factor from (breakpoint, coefficient list) pairs."""
    try:
        pieces = tuple((float(edge), tuple(float(c) for c in coeffs))
                       for edge, coeffs in spec)
    except (TypeError, ValueError):
        raise ParameterError(
            "factor spec must be a list of [edge, [coefficients]] pairs, "
            f"got {spec!r}") from None
    if not all(math.isfinite(x) for edge, coeffs in pieces for x in (edge, *coeffs)):
        raise ParameterError(f"factor spec numbers must be finite, got {spec!r}")
    return TestFunction(k=k, pieces=pieces)


def eval_F(F: TestFunction, ts: Sequence[float]) -> float:
    """prod_j f(t_j); zero outside the support box."""
    if len(ts) != F.k + 1:
        raise ParameterError(f"expected {F.k + 1} coordinates, got {len(ts)}")
    out = 1.0
    for t in ts:
        out *= F.factor(t)
    return out


def lambda_weight(F: TestFunction, d: Sequence[int], R: int) -> float:
    """F(log d_0/log R, ..., log d_k/log R) * prod mu(d_j).

    Vanishes when any d_j is not squarefree or log d_j / log R leaves the
    factor support.
    """
    if R < 2:
        raise ParameterError(f"R must be at least 2, got {R}")
    if len(d) != F.k + 1:
        raise ParameterError(f"expected {F.k + 1} divisors, got {len(d)}")
    mu_prod = 1
    for dj in d:
        m = mobius(dj)
        if m == 0:
            return 0.0
        mu_prod *= m
    logR = math.log(R)
    return eval_F(F, [math.log(dj) / logR for dj in d]) * mu_prod


def J_i(F: TestFunction, i: int) -> float:
    """f(0)^2 (int f'^2)^k -- the prime-coordinate functional; equal for all i."""
    if not 0 <= i <= F.k:
        raise ParameterError(f"index {i} outside 0..{F.k}")
    return F.f0 ** 2 * F.deriv_l2() ** F.k


def J_star(F: TestFunction) -> float:
    """(int f'^2)^(k+1) -- the all-coordinates functional."""
    return F.deriv_l2() ** (F.k + 1)
