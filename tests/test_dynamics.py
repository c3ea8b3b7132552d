import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurgaps.admissible import ParameterError, make_sieve_params
from recurgaps import accumulate
from recurgaps.dynamics import (BoxSet, BumpPsi, Cube, KroneckerSystem,
                                arc_overlap, build_bump, correlation,
                                correlation_kernel, khintchine_set, measure,
                                monte_carlo_correlation,
                                shifted_prime_recurrence_set,
                                weighted_correlation_sum)
from recurgaps.primes import is_prime, torus_norm
from recurgaps.sieve import omega_kernel, points, weighted_prime_sum
from recurgaps.testfn import default_test_function

SILVER = math.sqrt(2.0) - 1.0


def circle_system():
    return KroneckerSystem(g=1, d=1, gamma0=0, kappa=(SILVER,))


def half_circle():
    return BoxSet(g=1, d=1, pieces=((0, Cube((0.0,), 0.5)),))


def z4_origin():
    sys_ = KroneckerSystem.cyclic(4)
    return sys_, BoxSet(g=4, d=0, pieces=((0, Cube((), 1.0)),))


def test_torus_norm_examples():
    assert torus_norm(0.75) == 0.25
    assert torus_norm(3.0) == 0.0
    assert torus_norm(-0.4) == pytest.approx(0.4, abs=1e-15)


def test_arc_overlap_cases():
    assert arc_overlap(0.0, 0.5, 0.25, 0.5) == pytest.approx(0.25)
    assert arc_overlap(0.0, 0.5, 0.9, 0.3) == pytest.approx(0.2)   # wraps
    assert arc_overlap(0.0, 1.0, 0.3, 1.0) == pytest.approx(1.0)   # full circle
    assert arc_overlap(0.0, 0.2, 0.5, 0.2) == 0.0


def test_correlation_cyclic_pattern():
    sys_, A = z4_origin()
    for n in range(12):
        assert correlation(sys_, A, n) == (0.25 if n % 4 == 0 else 0.0)


def test_correlation_identity_shift_is_measure():
    sys_, A = z4_origin()
    assert correlation(sys_, A, 0) == measure(A)
    circ, half = circle_system(), half_circle()
    assert correlation(circ, half, 0) == measure(half)


def test_correlation_circle_closed_form():
    circ, half = circle_system(), half_circle()
    for n in range(1, 1001):
        closed = 0.5 - torus_norm(n * SILVER)
        assert correlation(circ, half, n) == pytest.approx(closed, abs=1e-12)


def test_correlation_symmetry_under_negated_shift():
    circ, half = circle_system(), half_circle()
    sys4, A4 = z4_origin()
    for n in (1, 2, 7, 100, 12345):
        assert correlation(circ, half, n) == pytest.approx(
            correlation(circ, half, -n), abs=1e-15)
        assert correlation(sys4, A4, n) == correlation(sys4, A4, -n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_correlation_bounded_by_measure(n):
    circ, half = circle_system(), half_circle()
    c = correlation(circ, half, n)
    assert -1e-15 <= c <= measure(half) + 1e-15


def test_correlation_monte_carlo_agreement():
    rng_cases = [
        (KroneckerSystem(g=3, d=1, gamma0=1, kappa=(0.3717,)),
         BoxSet(g=3, d=1, pieces=((0, Cube((0.1,), 0.25)), (2, Cube((0.6,), 0.25))))),
        (KroneckerSystem(g=1, d=2, gamma0=0, kappa=(SILVER, math.sqrt(3) % 1)),
         BoxSet(g=1, d=2, pieces=((0, Cube((0.0, 0.5), 0.5)),))),
    ]
    for idx, (sys_, A) in enumerate(rng_cases):
        for n in (0, 1, 17):
            exact = correlation(sys_, A, n)
            est = monte_carlo_correlation(sys_, A, n, samples=10 ** 5,
                                          seed=99 + idx)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 10 ** 5)
            assert abs(est - exact) <= 4 * sigma + 1e-12


def test_cesaro_average_tends_to_measure_squared():
    circ, half = circle_system(), half_circle()
    M = 10 ** 5
    ns = np.arange(1, M + 1)
    fr = (ns * SILVER) % 1.0
    vals = 0.5 - np.minimum(fr, 1.0 - fr)
    mean = float(vals.mean())
    assert mean == pytest.approx(measure(half) ** 2, rel=0.05)
    # spot-check the vectorized closed form against correlation()
    for n in (1, 1000, 99999):
        assert correlation(circ, half, n) == pytest.approx(
            float(vals[n - 1]), abs=1e-12)


def test_boxset_rejects_overlap():
    with pytest.raises(ParameterError, match="overlap"):
        BoxSet(g=1, d=1, pieces=((0, Cube((0.0,), 0.5)), (0, Cube((0.25,), 0.5))))
    # same cubes on different group elements are fine
    BoxSet(g=2, d=1, pieces=((0, Cube((0.0,), 0.5)), (1, Cube((0.0,), 0.5))))


def test_system_validation():
    with pytest.raises(ParameterError):
        KroneckerSystem(g=0, d=0, gamma0=0, kappa=())
    with pytest.raises(ParameterError):
        KroneckerSystem(g=2, d=1, gamma0=0, kappa=())
    with pytest.raises(ParameterError):
        Cube((0.5,), 0.0)


def test_khintchine_trivial_threshold():
    sys_, A = z4_origin()
    got = khintchine_set(sys_, A, 1.0, 50)  # eps >= measure^2: everything
    assert got.tolist() == list(range(51))


def test_khintchine_cyclic_multiples():
    sys_, A = z4_origin()
    got = khintchine_set(sys_, A, 0.01, 100)
    assert got.tolist() == list(range(0, 101, 4))


def test_khintchine_gap_stabilizes():
    circ, half = circle_system(), half_circle()
    s1 = khintchine_set(circ, half, 0.01, 10 ** 5)
    s2 = khintchine_set(circ, half, 0.01, 2 * 10 ** 5)
    assert int(np.diff(s1).max()) == int(np.diff(s2).max())


def test_shifted_prime_set_z4():
    sys_, A = z4_origin()
    got = shifted_prime_recurrence_set(sys_, A, 0.01, 10 ** 4)
    oracle = [q for q in range(2, 10 ** 4 + 1) if q % 4 == 1 and is_prime(q)]
    assert got.tolist() == oracle


def test_shifted_prime_set_trivial_system():
    sys_ = KroneckerSystem.cyclic(1)
    A = BoxSet.whole_space(sys_)
    got = shifted_prime_recurrence_set(sys_, A, 0.5, 100)
    assert got.tolist() == [q for q in range(2, 101) if is_prime(q)]


def test_shifted_prime_set_huge_eps_keeps_all():
    sys_, A = z4_origin()
    got = shifted_prime_recurrence_set(sys_, A, 1.0, 100)
    assert got.tolist() == [q for q in range(2, 101) if is_prime(q)]


# ---------------------------------------------------------------------------
# bump function
# ---------------------------------------------------------------------------

def test_bump_constant_term_exact():
    psi = build_bump(0.1, 0.01, K=100)
    assert psi.coeff(0) == complex(0.1 - 0.01, 0.0)


def test_bump_plateau_and_support():
    psi = build_bump(0.1, 0.01, K=10)
    assert psi.value(0.05) == 1.0
    assert psi.value(0.01) == 1.0
    assert psi.value(0.1) == 0.0
    assert psi.value(0.5) == 0.0
    assert 0.0 <= psi.value(0.005) <= 1.0


def test_bump_parameter_validation():
    with pytest.raises(ParameterError):
        build_bump(0.1, 0.06)   # delta1 >= delta0/2
    with pytest.raises(ParameterError):
        build_bump(1.2, 0.01)   # delta0/2 >= 1/2


def test_bump_coefficients_conjugate_symmetric():
    psi = build_bump(0.1, 0.01, K=50)
    for j in (1, 7, 50):
        assert psi.coeff(-j) == psi.coeff(j).conjugate()


def test_bump_envelope_holds():
    psi = build_bump(0.1, 0.01, K=2000)
    for j in range(1, 2001):
        assert abs(psi.coeff(j)) <= psi.envelope(j) * (1 + 1e-12)


def test_bump_reconstruction_bound():
    psi = build_bump(0.1, 0.01, K=1000)
    xs = np.arange(1000) / 1000.0
    exact = np.array([psi.value(float(x)) for x in xs])
    for K in (100, 1000):
        err = float(np.max(np.abs(psi.reconstruct(xs, K) - exact)))
        assert err <= 2.0 * psi.C0 / (psi.delta1 * K)


# ---------------------------------------------------------------------------
# weighted correlation sum
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def corr_setup():
    sys_ = KroneckerSystem.cyclic(4)
    p = make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4)
    return sys_, p, default_test_function(2)


def test_weighted_correlation_whole_space_equals_prime_sum(corr_setup):
    sys_, p, F = corr_setup
    full = BoxSet.whole_space(sys_)
    a = weighted_correlation_sum(p, F, sys_, full, 0, 0.01)
    b = weighted_prime_sum(p, F, 0)
    assert a.measured == b.measured


def test_weighted_correlation_empty_set_is_zero(corr_setup):
    sys_, p, F = corr_setup
    a = weighted_correlation_sum(p, F, sys_, BoxSet.empty(sys_), 0, 0.01)
    assert a.measured == 0.0


def test_weighted_correlation_group_alignment(corr_setup):
    # on this progression every n + h_i - 1 is divisible by 4, so the
    # correlation factor is exactly measure(A) throughout
    sys_, p, F = corr_setup
    A = BoxSet(g=4, d=0, pieces=((0, Cube((), 1.0)),))
    a = weighted_correlation_sum(p, F, sys_, A, 0, 0.01)
    b = weighted_prime_sum(p, F, 0)
    assert a.measured == pytest.approx(0.25 * b.measured, rel=1e-12)
    assert a.measured > 0
    # the asymptotic prediction is reported for comparison; at this scale the
    # measured value sits well below it (see the verification suite notes)
    assert a.predicted > 0


@pytest.mark.parametrize("chunk", [1, 7, 8192])
def test_weighted_correlation_equals_dense_fsum(chunk, monkeypatch):
    # the kernel evaluates Omega and the correlation only where n + h_i is
    # prime; the total must equal the fsum over every dense term
    sys_, A = circle_system(), half_circle()
    p = make_sieve_params(N=5000, h=(0,), theta=0.24999, w=2, W0=1)
    F = default_test_function(0)
    ns = np.array(points(p))
    m = ns + p.h[0]
    varpi = np.where([is_prime(x) for x in m.tolist()],
                     np.log(m.astype(np.float64)), 0.0)
    dense = (varpi * omega_kernel(p, F)(ns)
             * correlation_kernel(sys_, A)(m - 1))
    assert 0 < np.count_nonzero(dense) < len(dense)
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    rep = weighted_correlation_sum(p, F, sys_, A, 0, 0.01)
    assert rep.measured == math.fsum(dense.tolist())


def test_weighted_correlation_requires_group_divisibility():
    sys_ = KroneckerSystem.cyclic(4)
    A = BoxSet(g=4, d=0, pieces=((0, Cube((), 1.0)),))
    p = make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    with pytest.raises(ParameterError, match="group order"):
        weighted_correlation_sum(p, default_test_function(2), sys_, A, 0,
                                 0.01)
