import math
from dataclasses import replace

import numpy as np
import pytest

from recurgaps.admissible import ParameterError, dense_tuple, make_sieve_params
from recurgaps.cluster import (ClusterReport, consecutive_filter, detector_sum,
                               scan_clusters)
from recurgaps.dynamics import (BoxSet, Cube, KroneckerSystem, correlation,
                                correlation_kernel, measure)
from recurgaps.primes import is_prime
from recurgaps.sieve import _plan_primes, omega_kernel, omega_n, points
from recurgaps.testfn import default_test_function


def z4_setup():
    sys_ = KroneckerSystem.cyclic(4)
    A = BoxSet(g=4, d=0, pieces=((0, Cube((), 1.0)),))
    return sys_, A


def test_scan_twin_primes_against_direct_scan():
    # trivial system, whole space: the recurrence constraint is vacuous and
    # the scan reduces to a plain twin-prime pattern search
    sys_ = KroneckerSystem.cyclic(1)
    A = BoxSet.whole_space(sys_)
    p = make_sieve_params(N=10 ** 4, h=(0, 2), theta=0.2, w=5, W0=1)
    reports = scan_clusters(p, sys_, A, 0.5, 1)
    got = sorted(r.n for r in reports)
    oracle = [n for n in points(p) if is_prime(n) and is_prime(n + 2)]
    assert got == oracle
    assert all(r.width == 2 for r in reports)
    assert len(got) > 0


def test_scan_z4_pairs():
    sys_, A = z4_setup()
    h6 = dense_tuple(5, 4)
    p = make_sieve_params(N=10 ** 5, h=h6, theta=0.1, w=5, W0=4)
    reports = scan_clusters(p, sys_, A, 0.01, 1)
    assert len(reports) >= 5
    thresh = measure(A) ** 2 - 0.01
    for rep in reports:
        assert len(rep.hit_indices) >= 2
        assert rep.width <= h6.diameter
        assert rep.primes == tuple(rep.n + h6.h[i] for i in rep.hit_indices)
        for q in rep.primes:
            assert is_prime(q)
            assert q % 4 == 1
            assert correlation(sys_, A, q - 1) >= thresh


def test_scan_vacuous_eps_equals_pure_pattern_scan():
    # eps >= measure^2 makes the recurrence constraint vacuous
    sys_, A = z4_setup()
    p = make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4)
    with_recur = scan_clusters(p, sys_, A, 1.0, 1)
    trivial = KroneckerSystem.cyclic(1)
    full = BoxSet.whole_space(trivial)
    pure = scan_clusters(p, trivial, full, 0.5, 1)
    assert [r.n for r in with_recur] == [r.n for r in pure]
    assert [r.hit_indices for r in with_recur] == [r.hit_indices for r in pure]


def test_detector_negative_when_m_too_large():
    sys_, A = z4_setup()
    p = make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4)
    F = default_test_function(2)
    rep = detector_sum(p, F, sys_, A, 0.01, m=3)  # m = k+1
    assert rep.measured < 0.0


def test_detector_whole_space_reduces_to_classical():
    # full space and eps = 1: threshold term drops to zero and the detector
    # is the plain weighted prime-count excess
    sys_ = KroneckerSystem.cyclic(1)
    A = BoxSet.whole_space(sys_)
    p = make_sieve_params(N=10 ** 4, h=(0, 6, 12), theta=0.13, w=5, W0=1)
    F = default_test_function(2)
    rep = detector_sum(p, F, sys_, A, 1.0, 1)
    cap = math.log(3 * p.N)
    manual = math.fsum(
        omega_n(n, p, F)
        * (math.fsum(math.log(n + h) for h in p.h if is_prime(n + h)) - cap)
        for n in points(p))
    assert rep.measured == pytest.approx(manual, rel=1e-12)


def test_detector_reads_omega_bit_for_bit_as_the_kernel():
    # plan primes [3] (2 divides W = 8): Omega takes more than one value,
    # and the detector's exactly rounded sum equals a dense fsum of terms
    # built on omega_kernel, bit for bit
    sys_, A = z4_setup()
    p = make_sieve_params(N=2 * 10 ** 5, h=(0, 4), theta=0.24, w=2, W0=4)
    F = default_test_function(1)
    assert _plan_primes(p, F) == [3]
    rep = detector_sum(p, F, sys_, A, 0.01, 1)
    ns = np.array(points(p))
    corr = correlation_kernel(sys_, A)
    thresh = measure(A) ** 2 - 0.01
    inner = np.zeros(len(ns))
    for h in p.h:
        m = ns + h
        varpi = np.where([is_prime(x) for x in m.tolist()],
                         np.log(m.astype(np.float64)), 0.0)
        inner = inner + varpi * (corr(m - 1) - thresh)
    omega = omega_kernel(p, F)(ns)
    assert len(set(omega.tolist())) > 1
    dense = omega * (inner - math.log(3 * p.N))
    assert rep.measured == math.fsum(dense.tolist())


def test_detector_positive_implies_scan_nonempty():
    sys_ = KroneckerSystem.cyclic(1)
    A = BoxSet.whole_space(sys_)
    p = make_sieve_params(N=10 ** 3, h=(0, 6, 12), theta=0.16, w=5, W0=1)
    F = default_test_function(2)
    rep = detector_sum(p, F, sys_, A, 1.0, 1)
    reports = scan_clusters(p, sys_, A, 1.0, 1)
    if rep.measured > 0:
        assert len(reports) > 0
    # the windows found must sit inside the tuple diameter either way
    assert all(r.width <= 12 for r in reports)


def test_scan_ignores_weights():
    # reports never read F; identical output whatever the weights would be
    sys_, A = z4_setup()
    p = make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4)
    r1 = scan_clusters(p, sys_, A, 0.01, 1)
    r2 = scan_clusters(p, sys_, A, 0.01, 1)
    assert [r.as_dict() for r in r1] == [r.as_dict() for r in r2]


def test_consecutive_filter_flags_and_error():
    sys_, A = z4_setup()
    p2 = make_sieve_params(N=10 ** 5, h=(0, 4), theta=0.1, w=11, W0=4,
                           consecutive=True)
    reports = scan_clusters(p2, sys_, A, 0.01, 1)
    flagged = consecutive_filter(reports, p2)
    assert len(flagged) >= 1
    for rep in flagged:
        assert rep.consecutive is True
        assert not any(map(is_prime, range(rep.primes[0] + 1, rep.primes[-1])))

    # breach detection: pretend a non-consecutive cluster came from
    # consecutive-mode parameters
    p_plain = make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4)
    plain = scan_clusters(p_plain, sys_, A, 0.01, 1)
    bad = [r for r in consecutive_filter(plain, p_plain)
           if not r.consecutive]
    assert bad, "expected some non-consecutive clusters in the plain setup"
    forged = replace(p_plain, forced=((1, 5),))
    with pytest.raises(AssertionError, match="invariant breach"):
        consecutive_filter(plain, forged)


def test_consecutive_filter_empty():
    p = make_sieve_params(N=10 ** 5, h=(0, 2), theta=0.1, w=5, W0=1)
    assert consecutive_filter([], p) == []


def test_cluster_report_dict_roundtrip():
    rep = ClusterReport(n=13, hit_indices=(0, 1), primes=(13, 17), width=4,
                        detector_value=-1.5, consecutive=True)
    d = rep.as_dict()
    assert d["primes"] == [13, 17] and d["width"] == 4


def test_scan_validates_group_divisibility():
    sys_, A = z4_setup()
    p = make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    with pytest.raises(ParameterError, match="group order"):
        scan_clusters(p, sys_, A, 0.01, 1)
