import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurgaps import accumulate
from recurgaps.admissible import ParameterError, make_sieve_params
from recurgaps.primes import build_prime_table, is_prime
from recurgaps.sieve import (ProgressionError, bilinear_divisor_sum, omega_n,
                             omega_sum, progression, weighted_prime_sum,
                             _omega_kernel, _varpi_kernel)
from recurgaps.testfn import default_test_function


@pytest.fixture(scope="module")
def params_k0(small_table):
    # R = 17: composite squarefree divisors (15) fit under the cutoff
    return make_sieve_params(N=10 ** 5, h=(0,), theta=0.24999, w=2, W0=1)


@pytest.fixture(scope="module")
def params_k2(small_table):
    return make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)


def test_progression_bounds(params_k2):
    ns = progression(params_k2)
    assert ns[0] >= params_k2.N and ns[-1] <= 2 * params_k2.N
    assert np.all(ns % params_k2.W == params_k2.b % params_k2.W)
    assert np.all(np.diff(ns) == params_k2.W)


def test_progression_empty_error():
    p = make_sieve_params(N=10 ** 4, h=(0, 2), theta=0.2, w=13, W0=2)
    assert p.W == 60060 > p.N
    with pytest.raises(ProgressionError, match="empty progression"):
        progression(p)


def test_omega_prime_window_value(params_k2, small_table):
    # 5, 11, 17 all prime and above the divisor cutoff: only d = 1 contributes
    F = default_test_function(2)
    f0 = F.f0
    assert omega_n(5, params_k2, F, small_table) == (f0 * f0 * f0) ** 2


def test_omega_single_coordinate_prime(params_k0, small_table):
    # divisors of a prime q below R: 1 and q; weight collapses to log-ratio
    F = default_test_function(0)
    R = params_k0.R
    got = omega_n(7, params_k0, F, small_table)
    assert got == pytest.approx((math.log(7) / math.log(R)) ** 2, rel=1e-13)


def test_omega_oracle_agreement_nondegenerate(params_k0, small_table):
    F = default_test_function(0)
    ns = progression(params_k0)[:1500]
    distinct = set()
    for n in ns.tolist():
        fast = omega_n(n, params_k0, F, small_table)
        brute = omega_n(n, params_k0, F, small_table, brute_force=True)
        assert fast == pytest.approx(brute, rel=1e-12)
        distinct.add(fast)
    assert len(distinct) > 3  # genuinely non-degenerate weights


def test_omega_oracle_agreement_k1(small_table):
    p = make_sieve_params(N=10 ** 5, h=(0, 2), theta=0.2349, w=2, W0=1)
    F = default_test_function(1)
    for n in progression(p)[:300].tolist():
        fast = omega_n(n, p, F, small_table)
        brute = omega_n(n, p, F, small_table, brute_force=True)
        assert fast == pytest.approx(brute, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 5))
def test_omega_nonnegative(n):
    assert omega_n(n, _HYP_PARAMS, _HYP_F, _HYP_TABLE) >= 0.0


def test_omega_table_too_small(params_k2):
    tiny = build_prime_table(100)
    with pytest.raises(ParameterError, match="table"):
        omega_n(95, params_k2, default_test_function(2), tiny)


def test_omega_sum_report_fields(params_k2, small_table):
    F = default_test_function(2)
    rep = omega_sum(params_k2, F, small_table)
    assert rep.op == "omega_sum"
    assert rep.measured >= 0.0
    assert rep.predicted > 0.0
    assert rep.ratio == rep.measured / rep.predicted
    assert rep.count == len(progression(params_k2))
    assert rep.params["N"] == params_k2.N


def test_omega_sum_thread_invariance(params_k2, small_table):
    F = default_test_function(2)
    a = omega_sum(params_k2, F, small_table, threads=1)
    b = omega_sum(params_k2, F, small_table, threads=3)
    assert a.measured == b.measured


def test_omega_sum_subrange_additivity(params_k0, small_table, monkeypatch):
    # the total is bit-identical for every chunk size, and the exactly
    # rounded sum of the left and right subrange terms is the full value
    F = default_test_function(0)
    totals = set()
    for chunk in (1, 7, 8192):
        monkeypatch.setattr(accumulate, "CHUNK", chunk)
        totals.add(omega_sum(params_k0, F, small_table).measured)
    assert len(totals) == 1
    full = totals.pop()
    ns = progression(params_k0)
    mid = params_k0.N + 31_415
    kern = _omega_kernel(params_k0, F, small_table)
    left, right = kern(ns[ns <= mid]), kern(ns[ns > mid])
    assert len(left) and len(right)
    assert math.fsum(np.concatenate([left, right]).tolist()) == full


def test_omega_sum_scales_with_N(small_table):
    F = default_test_function(2)
    p1 = make_sieve_params(N=4 * 10 ** 4, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    p2 = make_sieve_params(N=8 * 10 ** 4, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    m1 = omega_sum(p1, F, small_table).measured
    m2 = omega_sum(p2, F, small_table).measured
    assert m2 == pytest.approx(2 * m1, rel=0.2)


def test_weighted_prime_sum_matches_direct_log_sum(params_k2, small_table):
    F = default_test_function(2)
    rep = weighted_prime_sum(params_k2, F, 0, small_table)
    ns = progression(params_k2)
    f0 = F.f0
    const = (f0 ** 3) ** 2  # degenerate weight at these parameters
    direct = const * math.fsum(
        math.log(int(n)) for n in ns if is_prime(int(n), small_table))
    assert rep.measured == pytest.approx(direct, rel=1e-12)
    assert rep.measured > 0


@pytest.mark.parametrize("chunk", [1, 7, 8192])
def test_weighted_prime_sum_equals_dense_fsum(chunk, small_table, monkeypatch):
    # the kernel drops the n with n + h_i composite; the total must equal the
    # fsum over every dense term wp(m) * omega(n), zeros included
    p = make_sieve_params(N=5000, h=(0,), theta=0.24999, w=2, W0=1)
    F = default_test_function(0)
    ns = progression(p)
    dense = (_varpi_kernel(small_table)(ns + p.h[0])
             * _omega_kernel(p, F, small_table)(ns))
    assert 0 < np.count_nonzero(dense) < len(dense)
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    assert weighted_prime_sum(p, F, 0, small_table).measured == math.fsum(dense.tolist())


# ---------------------------------------------------------------------------
# bilinear identity oracle
# ---------------------------------------------------------------------------

def test_bilinear_routes_agree_bitwise(small_table):
    F = default_test_function(0)
    for kind in ("lcm", "totient"):
        for R in (100, 1000):
            a = bilinear_divisor_sum(0, 6, R, F, F, kind, small_table, route="pairs")
            b = bilinear_divisor_sum(0, 6, R, F, F, kind, small_table, route="gcd")
            assert a.measured == b.measured
            assert a.count == b.count


def test_bilinear_diagonal_positivity(small_table):
    F = default_test_function(0)
    rep = bilinear_divisor_sum(0, 6, 1000, F, F, "lcm", small_table)
    assert rep.measured > 0.0
    assert rep.predicted > 0.0


def test_bilinear_direct_double_loop_oracle(small_table):
    # fully independent evaluation of the k = 0 sum
    F = default_test_function(0)
    R, W = 100, 6
    logR = math.log(R)
    ds = [d for d in range(1, R) if math.gcd(d, W) == 1 and _squarefree(d)]
    total = math.fsum(
        _mob(d) * _mob(e)
        * (1 - math.log(d) / logR) * (1 - math.log(e) / logR)
        / (d * e // math.gcd(d, e))
        for d in ds for e in ds)
    rep = bilinear_divisor_sum(0, W, R, F, F, "lcm", small_table)
    assert rep.measured == pytest.approx(total, rel=1e-12)


def test_bilinear_k1_routes_and_sign(small_table):
    F = default_test_function(1)
    a = bilinear_divisor_sum(1, 6, 100, F, F, "lcm", small_table, route="pairs")
    b = bilinear_divisor_sum(1, 6, 100, F, F, "lcm", small_table, route="gcd")
    assert a.measured == b.measured
    assert a.measured > 0.0


def test_bilinear_budget_error(small_table):
    F = default_test_function(1)
    with pytest.raises(ParameterError, match="tuples"):
        bilinear_divisor_sum(1, 6, 10 ** 4, F, F, "lcm", small_table,
                             pair_budget=1000)


def test_bilinear_kind_validation(small_table):
    F = default_test_function(0)
    with pytest.raises(ParameterError):
        bilinear_divisor_sum(0, 6, 100, F, F, "euler", small_table)


def _squarefree(d):
    for p in range(2, int(math.isqrt(d)) + 1):
        if d % (p * p) == 0:
            return False
    return True


def _mob(d):
    if d == 1:
        return 1
    cnt, m = 0, d
    for p in range(2, d + 1):
        if p * p > m:
            break
        if m % p == 0:
            m //= p
            cnt += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


_HYP_TABLE = build_prime_table(2 * 10 ** 5 + 20)
_HYP_PARAMS = make_sieve_params(N=10 ** 5, h=(0, 2), theta=0.2349, w=2, W0=1)
_HYP_F = default_test_function(1)
