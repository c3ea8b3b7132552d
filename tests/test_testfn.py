import math
from itertools import permutations

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from recurgaps.admissible import ParameterError
from recurgaps.testfn import (J_i, J_star, TestFunction,
                              default_test_function, eval_F, lambda_weight,
                              piecewise_test_function)


def _tent(k):
    """Two-piece factor: up-slope then down-slope, continuous, zero at the edge."""
    T = 1.0 / (k + 1)
    return piecewise_test_function(
        k, [(T / 2, (0.0, 2.0)), (T, (2 * T, -2.0))])


def test_eval_examples():
    F = default_test_function(2)
    assert eval_F(F, (0.0, 0.0, 0.0)) == pytest.approx((1 / 3) ** 3, rel=1e-15)
    assert eval_F(F, (0.5, 0.0, 0.0)) == 0.0          # coordinate beyond support
    assert eval_F(F, (1 / 3, 0.0, 0.0)) == 0.0         # vanishes at the edge


def test_eval_arity_check():
    F = default_test_function(1)
    with pytest.raises(ParameterError):
        eval_F(F, (0.0,))


def test_J_closed_forms():
    F2 = default_test_function(2)
    assert J_i(F2, 0) == pytest.approx(1 / 81, rel=1e-14)
    assert J_star(F2) == pytest.approx(1 / 27, rel=1e-14)
    F1 = default_test_function(1)
    assert J_i(F1, 0) == pytest.approx(1 / 8, rel=1e-14)
    assert J_star(F1) == pytest.approx(1 / 4, rel=1e-14)


def test_J_index_symmetry():
    for k in (1, 2, 3):
        F = default_test_function(k)
        vals = {J_i(F, i) for i in range(k + 1)}
        assert len(vals) == 1  # tensor symmetry: all indices equal
    with pytest.raises(ParameterError):
        J_i(default_test_function(1), 2)


def _pointwise_derivative(F):
    """Derivative evaluated directly from the coefficients; integration is
    left entirely to the adaptive quadrature below."""
    def fp(t):
        for edge, coeffs in F.pieces:
            if t < edge:
                return sum(i * c * t ** (i - 1) for i, c in enumerate(coeffs) if i)
        return 0.0
    return fp


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("make", [default_test_function, _tent])
def test_J_against_adaptive_quadrature(k, make):
    F = make(k)
    fp = _pointwise_derivative(F)
    pieces = [0.0] + [edge for edge, _ in F.pieces]
    total = 0.0
    for lo, hi in zip(pieces, pieces[1:]):
        val, _ = quad(lambda t: fp(t) ** 2, lo, hi, limit=200)
        total += val
    assert F.deriv_l2() == pytest.approx(total, rel=1e-8)
    assert J_star(F) == pytest.approx(total ** (k + 1), rel=1e-8)
    assert J_i(F, 0) == pytest.approx(F.factor(0.0) ** 2 * total ** k, rel=1e-8)


def test_J_star_against_2d_quadrature():
    # direct two-dimensional check of the product structure for k = 1
    F = default_test_function(1)
    eps = 1e-6

    def mixed_sq(t0, t1):
        d0 = (F.factor(t0 + eps) - F.factor(t0 - eps)) / (2 * eps)
        d1 = (F.factor(t1 + eps) - F.factor(t1 - eps)) / (2 * eps)
        return (d0 * d1) ** 2

    val, _ = dblquad(mixed_sq, 2e-6, 0.5 - 2e-6, 2e-6, 0.5 - 2e-6)
    assert J_star(F) == pytest.approx(val, rel=1e-4)


def test_lambda_weight_examples():
    F = default_test_function(2)
    R = 100
    assert lambda_weight(F, (1, 1, 1), R) == eval_F(F, (0.0, 0.0, 0.0))
    assert lambda_weight(F, (4, 1, 1), R) == 0.0  # mu(4) = 0
    F1 = default_test_function(1)
    got = lambda_weight(F1, (2, 3), R)
    with mpmath.workdps(50):
        expected = float((mpmath.mpf(1) / 2 - mpmath.log(2) / mpmath.log(R))
                         * (mpmath.mpf(1) / 2 - mpmath.log(3) / mpmath.log(R)))
    assert got == pytest.approx(expected, rel=1e-13)
    assert got > 0  # mu(2) mu(3) = +1


def test_lambda_weight_support_cutoff():
    F1 = default_test_function(1)
    R = 100
    assert lambda_weight(F1, (11, 1), R) == 0.0  # 11 >= R^(1/2) = 10
    assert lambda_weight(F1, (7, 1), R) != 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 5, 6, 7]), min_size=3, max_size=3))
def test_lambda_weight_symmetric_under_permutation(d):
    # symmetric as a real number; reassociating the float product moves the
    # last bit, so compare within one part in 1e14
    F = default_test_function(2)
    vals = [lambda_weight(F, tuple(perm), 100)
            for perm in permutations(d)]
    lo, hi = min(vals), max(vals)
    assert hi - lo <= 1e-14 * max(abs(lo), abs(hi), 1e-300)


def test_piece_validation():
    with pytest.raises(ParameterError, match="support"):
        TestFunction(k=1, pieces=((0.4, (0.4, -1.0)),))  # wrong right edge
    with pytest.raises(ParameterError, match="vanish"):
        TestFunction(k=1, pieces=((0.5, (1.0, 0.0)),))  # f(T) != 0
    with pytest.raises(ParameterError, match="discontinuous"):
        TestFunction(k=1, pieces=((0.25, (0.0, 1.0)), (0.5, (1.0, -2.0))))


def test_factor_reads_its_piece_inside_the_support_and_0_outside():
    # f(t) = 2t on [0, 1/4), 1 - 2t on [1/4, 1/2): every value is exact
    F = piecewise_test_function(1, [(0.25, (0.0, 2.0)), (0.5, (1.0, -2.0))])
    cases = [(-0.25, 0.0), (-1e-300, 0.0), (0.0, 0.0), (0.125, 0.25),
             (0.25, 0.5), (0.375, 0.25), (0.5, 0.0), (0.75, 0.0),
             (math.nan, 0.0)]
    for t, want in cases:
        assert F.factor(t) == want, t


def test_tent_function_valid():
    F = _tent(2)
    assert F.factor(0.0) == 0.0
    assert F.factor(F.upper / 2) == pytest.approx(1 / 3, rel=1e-12)
    assert F.factor(F.upper) == 0.0
