import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from recurgaps import accumulate, primes, sieve
from recurgaps.acceptance import bilinear_divisor_sum
from recurgaps.admissible import ParameterError, make_sieve_params
from recurgaps.cluster import consecutive_filter, detector_sum, scan_clusters
from recurgaps.dynamics import (BoxSet, Cube, KroneckerSystem,
                                correlation_kernel, weighted_correlation_sum)
from recurgaps.expsum import RationalPoint, weighted_expsum, _phase
from recurgaps.primes import build_prime_table
from recurgaps.sieve import (SumReport, omega_kernel, omega_n, omega_period,
                             omega_sum, points, shift_primes,
                             weighted_prime_sum, _plan_primes)
from recurgaps.testfn import default_test_function


def _is_prime(m):
    """m is prime, elementwise, by a plain sieve of Eratosthenes up to
    max(m): a primality oracle that shares no code with the package."""
    flags = np.ones(int(m.max()) + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, math.isqrt(len(flags) - 1) + 1):
        if flags[q]:
            flags[q * q::q] = False
    return flags[m]


def _dense_varpi(m):
    """log m where m is prime, else 0.0."""
    return np.where(_is_prime(m), np.log(m.astype(np.float64)), 0.0)


@pytest.fixture(scope="module")
def params_k0(small_table):
    # R = 17: composite squarefree divisors (15) fit under the cutoff
    return make_sieve_params(N=10 ** 5, h=(0,), theta=0.24999, w=2, W0=1)


@pytest.fixture(scope="module")
def params_k2(small_table):
    return make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)


def test_progression_bounds(params_k2):
    ns = np.array(points(params_k2))
    assert ns[0] >= params_k2.N and ns[-1] <= 2 * params_k2.N
    assert np.all(ns % params_k2.W == params_k2.b % params_k2.W)
    assert np.all(np.diff(ns) == params_k2.W)


def test_progression_empty_error():
    p = make_sieve_params(N=10 ** 4, h=(0, 2), theta=0.2, w=13, W0=2)
    assert p.W == 60060 > p.N
    with pytest.raises(ParameterError, match="empty progression"):
        points(p)


def test_omega_prime_window_value(params_k2, small_table):
    # 5, 11, 17 all prime and above the divisor cutoff: only d = 1 contributes
    F = default_test_function(2)
    f0 = F.f0
    assert omega_n(5, params_k2, F) == (f0 * f0 * f0) ** 2


def test_omega_single_coordinate_prime(params_k0, small_table):
    # divisors of a prime q below R: 1 and q; weight collapses to log-ratio
    F = default_test_function(0)
    R = params_k0.R
    got = omega_n(7, params_k0, F)
    assert got == pytest.approx((math.log(7) / math.log(R)) ** 2, rel=1e-13)


def test_omega_oracle_agreement_nondegenerate(params_k0):
    F = default_test_function(0)
    js = np.arange(1500)
    table = omega_period(params_k0, F).at(js)
    for n, fast in zip(points(params_k0)[:1500], table.tolist()):
        assert fast == pytest.approx(omega_n(n, params_k0, F), rel=1e-12)
    assert len(set(table.tolist())) > 3  # genuinely non-degenerate weights


def test_omega_oracle_agreement_k1():
    p = make_sieve_params(N=10 ** 5, h=(0, 2), theta=0.2349, w=2, W0=1)
    F = default_test_function(1)
    js = np.arange(300)
    table = omega_period(p, F).at(js)
    for n, fast in zip(points(p)[:300], table.tolist()):
        assert fast == pytest.approx(omega_n(n, p, F), rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 5))
def test_omega_nonnegative(n):
    assert omega_n(n, _HYP_PARAMS, _HYP_F) >= 0.0


def test_omega_sum_report_fields(params_k2):
    F = default_test_function(2)
    rep = omega_sum(params_k2, F)
    assert rep.op == "omega_sum"
    assert rep.measured >= 0.0
    assert rep.predicted > 0.0
    assert rep.ratio == rep.measured / rep.predicted
    assert rep.count == len(points(params_k2))
    assert rep.params["N"] == params_k2.N


def test_sum_report_ratio_is_measured_over_a_nonzero_prediction():
    assert SumReport("op", 3.0, 2.0, 1, {}).ratio == 1.5
    ratio = SumReport("op", 1 + 2j, 2j, 1, {}).ratio
    assert ratio == 1 - 0.5j and isinstance(ratio, complex)
    for zero in (0.0, 0j):
        assert SumReport("op", 1.0, zero, 1, {}).ratio is None


def test_omega_sum_subrange_additivity():
    # one period of Omega (P = 15015) repeats across the split point: the
    # table reads the kernel's value bit for bit on both subranges, and the
    # exactly rounded sum of the left and right subrange terms is the total
    p = make_sieve_params(N=60_000, h=(0,), theta=0.24999, w=2, W0=1)
    F = default_test_function(0)
    om = omega_period(p, F)
    ns = np.array(points(p))
    js = np.arange(len(ns))
    assert len(om.vals) == 15015 < om.count == len(ns) < 2 * len(om.vals)
    mid = p.N + 31_415
    kern = omega_kernel(p, F)
    left, right = kern(ns[ns <= mid]), kern(ns[ns > mid])
    assert len(left) and len(right)
    assert np.array_equal(om.at(js[ns <= mid]), left)
    assert np.array_equal(om.at(js[ns > mid]), right)
    full = math.fsum(np.concatenate([left, right]).tolist())
    assert omega_sum(p, F).measured == full


def test_omega_sum_scales_with_N():
    F = default_test_function(2)
    p1 = make_sieve_params(N=4 * 10 ** 4, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    p2 = make_sieve_params(N=8 * 10 ** 4, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    m1 = omega_sum(p1, F).measured
    m2 = omega_sum(p2, F).measured
    assert m2 == pytest.approx(2 * m1, rel=0.2)


def test_weighted_prime_sum_matches_direct_log_sum(params_k2, small_table):
    F = default_test_function(2)
    rep = weighted_prime_sum(params_k2, F, 0, small_table)
    ns = np.array(points(params_k2))
    f0 = F.f0
    const = (f0 ** 3) ** 2  # degenerate weight at these parameters
    direct = const * math.fsum(
        math.log(int(n)) for n in ns[_is_prime(ns)])
    assert rep.measured == pytest.approx(direct, rel=1e-12)
    assert rep.measured > 0


@pytest.mark.parametrize("chunk", [1, 7, 8192])
def test_weighted_prime_sum_equals_dense_fsum(chunk, small_table, monkeypatch):
    # the kernel drops the n with n + h_i composite; the total must equal the
    # fsum over every dense term wp(m) * omega(n), zeros included
    p = make_sieve_params(N=5000, h=(0,), theta=0.24999, w=2, W0=1)
    F = default_test_function(0)
    ns = np.array(points(p))
    dense = (_dense_varpi(ns + p.h[0])
             * omega_kernel(p, F)(ns))
    assert 0 < np.count_nonzero(dense) < len(dense)
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    assert weighted_prime_sum(p, F, 0, small_table).measured == math.fsum(dense.tolist())


_HALF_ARC = KroneckerSystem.with_sqrt_kappa(g=1, d=1)
_HALF_SET = BoxSet(g=1, d=1, pieces=((0, Cube((0.0,), 0.5)),))


def _assert_sums_equal_dense_fsum(p, i, pt, chunk):
    """Every progression sum equals math.fsum over its dense per-n terms,
    zeros included, with Omega evaluated by the kernel at every n."""
    F = default_test_function(p.k)
    t = _HYP_TABLE
    ns = np.array(points(p))
    m = ns + p.h[i]
    omega = omega_kernel(p, F)(ns)
    base = _dense_varpi(m) * omega
    phased = base * _phase(m, pt)
    corr = base * correlation_kernel(_HALF_ARC, _HALF_SET)(m - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulate, "CHUNK", chunk)
        got = [omega_sum(p, F).measured,
               weighted_prime_sum(p, F, i, t).measured,
               weighted_expsum(p, F, i, pt, t).measured,
               weighted_correlation_sum(p, F, _HALF_ARC, _HALF_SET, i, 0.01,
                                        t).measured]
    want = [math.fsum(omega.tolist()), math.fsum(base.tolist()),
            complex(math.fsum(phased.real.tolist()),
                    math.fsum(phased.imag.tolist())),
            math.fsum(corr.tolist())]
    assert [x.hex() for x in got[:2] + got[3:]] == [
        x.hex() for x in want[:2] + want[3:]]
    assert ((got[2].real.hex(), got[2].imag.hex())
            == (want[2].real.hex(), want[2].imag.hex()))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2000, max_value=20_000),
       st.floats(min_value=0.1, max_value=0.2499),
       st.sampled_from([(0,), (0, 2), (0, 4), (0, 2, 6), (0, 4, 6),
                        (2, 6, 8)]),
       st.sampled_from([2, 3, 5]), st.integers(min_value=0, max_value=2),
       st.sampled_from([(1, 1, 0.0), (1, 3, 0.0), (2, 5, 1e-3),
                        (1, 2, -0.01)]),
       st.sampled_from([1, 7, 8192]))
def test_sums_equal_dense_fsum(N, theta, h, w, i, frac, chunk):
    try:
        p = make_sieve_params(N=N, h=h, theta=theta, w=w, W0=1)
    except ParameterError:  # no residue b for this tuple at this w
        assume(False)
    _assert_sums_equal_dense_fsum(p, i % len(h), RationalPoint(*frac), chunk)


@pytest.mark.parametrize("chunk", [1, 7, 8192])
@pytest.mark.parametrize("N,theta,k,period", [
    (50_000, 0.1, 1, 1),             # empty plan: Omega is constant
    (60_000, 0.24999, 0, 15015),     # P < L < 2P: one period and a part
])
def test_sums_equal_dense_fsum_at_the_period_extremes(N, theta, k, period,
                                                      chunk):
    p = make_sieve_params(N=N, h=(0, 2)[:k + 1], theta=theta, w=2, W0=1)
    F = default_test_function(k)
    assert len(omega_period(p, F).vals) == period
    _assert_sums_equal_dense_fsum(p, k, RationalPoint(1, 3, 0.01), chunk)


@pytest.mark.parametrize("chunk", [1, 7, 8192])
def test_sums_equal_dense_fsum_when_the_period_exceeds_the_run(chunk):
    # W0 = 64 keeps every odd plan prime: P = 15015 > L = 782, so the
    # table holds Omega at every point of the progression
    p = make_sieve_params(N=100_000, h=(0,), theta=0.24999, w=2, W0=64)
    F = default_test_function(0)
    om = omega_period(p, F)
    P = math.prod(_plan_primes(p, F))
    assert P == 15015 > om.count == len(om.vals)
    _assert_sums_equal_dense_fsum(p, 0, RationalPoint(1, 3, 0.01), chunk)


def _table_plan_primes(p, F, t):
    """The plan primes read from a prime table over the window's base
    primes: the oracle for ``_plan_primes``, which finds them by trial
    division."""
    cutoff = float(p.R) ** F.upper
    hi = min(t.limit, int(cutoff) + 1)
    return [int(q) for q in t.primes[t.primes <= hi]
            if q < cutoff and p.W % q != 0]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=100, max_value=10 ** 12),
       st.floats(min_value=0.01, max_value=0.2499),
       st.sampled_from([(0,), (0, 2), (0, 2, 6), (0, 4, 6, 10)]),
       st.sampled_from([2, 3, 5, 7]))
def test_plan_primes_need_no_table(N, theta, h, w):
    try:
        p = make_sieve_params(N=N, h=h, theta=theta, w=w, W0=1)
    except ParameterError:  # no residue b for this tuple at this w
        assume(False)
    F = default_test_function(p.k)
    t = build_prime_table(math.isqrt(p.top) + 1)
    assert _plan_primes(p, F) == _table_plan_primes(p, F, t)


def test_omega_table_is_shared_and_read_only():
    om = omega_period(_HYP_PARAMS, _HYP_F)
    assert omega_period(_HYP_PARAMS, _HYP_F) is om
    assert not om.vals.flags.writeable


# ---------------------------------------------------------------------------
# segmented primality along the shifted progressions
# ---------------------------------------------------------------------------

_SEGMENT_PARAMS = [
    make_sieve_params(N=5000, h=(0, 2), theta=0.24, w=2, W0=1),
    make_sieve_params(N=20_000, h=(0, 6, 12), theta=0.1, w=5, W0=1),
    make_sieve_params(N=10 ** 5, h=(0, 4), theta=0.2, w=11, W0=4,
                      consecutive=True),
]


def _base_table(p):
    return build_prime_table(math.isqrt(p.top) + 1)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("segment", [1, 3, 7])
@pytest.mark.parametrize("p", _SEGMENT_PARAMS, ids=["w2", "w5", "consecutive"])
def test_shift_primes_matches_the_table_at_segment_edges(p, segment, chunk,
                                                         monkeypatch):
    # chunks that straddle segments, and segments shorter than chunks
    monkeypatch.setattr(primes, "SEGMENT", segment)
    ns, base = np.array(points(p)), _base_table(p)
    for h in p.h:
        look = shift_primes(p, h, base)
        got = np.concatenate([look.at(i, min(i + chunk, len(ns)))
                              for i in range(0, len(ns), chunk)])
        assert np.array_equal(got, _is_prime(ns + h))


def test_shift_primes_reads_any_span_by_index(monkeypatch):
    # empty spans, a span inside the held mask, and spans behind it
    monkeypatch.setattr(primes, "SEGMENT", 7)
    p = _SEGMENT_PARAMS[0]
    want = _is_prime(np.array(points(p)))
    look = shift_primes(p, 0, _base_table(p))
    assert look.at(0, 0).tolist() == []
    for lo, hi in [(10, 30), (12, 15), (15, 15), (3, 9), (0, 40),
                   (len(want) - 2, len(want))]:
        assert np.array_equal(look.at(lo, hi), want[lo:hi])


def test_segment_is_a_multiple_of_chunk():
    assert primes.SEGMENT % accumulate.CHUNK == 0


@pytest.mark.parametrize("chunk,segment", [(1, 1), (1, 7), (3, 12), (5, 5)])
@pytest.mark.parametrize("p", _SEGMENT_PARAMS, ids=["w2", "w5", "consecutive"])
def test_forward_scan_sieves_each_point_once(p, chunk, segment, monkeypatch):
    # with CHUNK | SEGMENT a forward chunked_sum asks ap_primality for
    # ceil(L / SEGMENT) spans per shift, so no point is sieved twice
    calls = []

    def counted(first, step, count, base, inverses):
        calls.append(count)
        return primality(first, step, count, base, inverses)

    primality = primes.ap_primality
    monkeypatch.setattr(primes, "ap_primality", counted)
    monkeypatch.setattr(primes, "SEGMENT", segment)
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    pts, base = sieve.points(p), _base_table(p)
    for h in p.h:
        calls.clear()
        look = shift_primes(p, h, base)
        count = accumulate.chunked_sum(pts, lambda lo, hi: look.at(lo, hi) * 1.0)
        assert len(calls) == -(-len(pts) // segment)
        assert sum(calls) == len(pts)
        assert count == np.count_nonzero(_is_prime(np.array(points(p)) + h))


@pytest.mark.parametrize("p", _SEGMENT_PARAMS, ids=["w2", "w5", "consecutive"])
def test_a_walk_computes_the_step_inverses_once(p, monkeypatch):
    steps = []

    def counted(step, ps):
        steps.append(step)
        return inverses(step, ps)

    inverses = primes.step_inverses
    monkeypatch.setattr(primes, "step_inverses", counted)
    monkeypatch.setattr(primes, "SEGMENT", 5)
    monkeypatch.setattr(accumulate, "CHUNK", 5)
    look = shift_primes(p, p.h[0], _base_table(p))
    accumulate.chunked_sum(sieve.points(p), lambda lo, hi: look.at(lo, hi) * 1.0)
    primes.primes_in(range(p.N, p.top + 1, 3), _base_table(p))
    assert steps == [p.W, 3]


def _weighted_sums(p, t):
    F = default_test_function(p.k)
    pt = RationalPoint(1, 3, 0.01)
    out = []
    for i in range(p.k + 1):
        out.append(weighted_prime_sum(p, F, i, t).measured.hex())
        z = weighted_expsum(p, F, i, pt, t).measured
        out.append((z.real.hex(), z.imag.hex()))
        out.append(weighted_correlation_sum(p, F, _HALF_ARC, _HALF_SET, i,
                                            0.01, t).measured.hex())
    out.append(detector_sum(p, F, _HALF_ARC, _HALF_SET, 0.01, 1, t).measured.hex())
    # eps = 0.2 leaves the consecutive progression, of 11 points, 4 reports
    reports = consecutive_filter(
        scan_clusters(p, _HALF_ARC, _HALF_SET, 0.2, 1, t), p, t)
    assert reports
    return out + [(r.as_dict(), r.detector_value.hex()) for r in reports]


@pytest.mark.parametrize("p", _SEGMENT_PARAMS, ids=["w2", "w5", "consecutive"])
def test_weighted_sums_need_only_the_base_primes(p, small_table):
    base = _base_table(p)
    assert base.limit == math.isqrt(2 * p.N + max(p.h)) + 1
    assert _weighted_sums(p, base) == _weighted_sums(p, small_table)


@pytest.mark.parametrize("chunk", [1, 3])
@pytest.mark.parametrize("segment", [1, 3, 7])
def test_weighted_sums_ignore_segment_and_chunk_edges(segment, chunk,
                                                      small_table):
    for p in _SEGMENT_PARAMS:
        want = _weighted_sums(p, small_table)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(primes, "SEGMENT", segment)
            mp.setattr(accumulate, "CHUNK", chunk)
            assert _weighted_sums(p, _base_table(p)) == want


@pytest.mark.parametrize("p", _SEGMENT_PARAMS, ids=["w2", "w5", "consecutive"])
def test_consecutive_filter_never_steps_back(p, monkeypatch):
    # each report asks for the span from n - N, which ascends with n, so a
    # new segment always starts past the one held before it
    t = _base_table(p)
    reports = scan_clusters(p, _HALF_ARC, _HALF_SET, 0.2, 1, t)
    firsts = []

    def counted(first, step, count, base, inverses):
        firsts.append(first)
        return primality(first, step, count, base, inverses)

    primality = primes.ap_primality
    monkeypatch.setattr(primes, "ap_primality", counted)
    monkeypatch.setattr(primes, "SEGMENT", 7)
    consecutive_filter(reports, p, t)
    assert len(firsts) > 1
    assert all(a < b for a, b in zip(firsts, firsts[1:]))


def test_weighted_sums_name_the_base_bound():
    p = _SEGMENT_PARAMS[1]
    short = build_prime_table(math.isqrt(2 * p.N + max(p.h)) - 1)
    F = default_test_function(p.k)
    top = 2 * p.N + max(p.h)
    with pytest.raises(ParameterError, match=rf"isqrt\({top}\)"):
        weighted_prime_sum(p, F, 0, short)
    with pytest.raises(ParameterError, match="isqrt"):
        shift_primes(p, 0, short)


# ---------------------------------------------------------------------------
# bilinear identity oracle
# ---------------------------------------------------------------------------

def test_bilinear_routes_agree_bitwise():
    F = default_test_function(0)
    for kind in ("lcm", "totient"):
        for R in (100, 1000):
            a = bilinear_divisor_sum(6, R, F, F, kind, route="pairs")
            b = bilinear_divisor_sum(6, R, F, F, kind, route="gcd")
            assert a.measured == b.measured
            assert a.count == b.count


def test_bilinear_diagonal_positivity():
    F = default_test_function(0)
    rep = bilinear_divisor_sum(6, 1000, F, F, "lcm")
    assert rep.measured > 0.0
    assert rep.predicted > 0.0


def test_bilinear_direct_double_loop_oracle():
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
    rep = bilinear_divisor_sum(W, R, F, F, "lcm")
    assert rep.measured == pytest.approx(total, rel=1e-12)


def test_bilinear_kind_validation():
    F = default_test_function(0)
    with pytest.raises(ParameterError):
        bilinear_divisor_sum(6, 100, F, F, "euler")


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
