import json
import math
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from recurgaps.admissible import (MAX_W, AdmissibleTuple, ParameterError,
                                  choose_b, compute_W, dense_tuple,
                                  is_admissible, make_sieve_params, primorial,
                                  standard_tuple)
from recurgaps.cli import main


def _covers_all_residues(h, p):
    return len({x % p for x in h}) == p


def test_is_admissible_examples():
    assert is_admissible([0, 2, 6])
    assert not is_admissible([0, 2, 4])  # covers Z/3
    assert is_admissible([0])


def test_is_admissible_rejects_duplicates():
    with pytest.raises(ParameterError):
        is_admissible([0, 2, 2])


def test_standard_tuple_examples():
    assert standard_tuple(2, 1).h == (0, 6, 12)
    assert standard_tuple(1, 2).h == (0, 4)
    assert standard_tuple(1, 1).h == (0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=6))
def test_standard_tuple_always_admissible(k, W0):
    tup = standard_tuple(k, W0)
    assert is_admissible(tup.h)
    assert all(x % W0 == 0 for x in tup.h)


def test_dense_tuple_multiples_of_4():
    tup = dense_tuple(5, 4)
    assert len(tup.h) == 6
    assert all(x % 4 == 0 for x in tup.h)
    assert is_admissible(tup.h)
    assert tup.diameter <= standard_tuple(5, 4).diameter


def test_compute_W_examples():
    assert compute_W(5, 1) == 30
    assert compute_W(3, 4) == 24
    assert compute_W(13, 1) == 30030
    assert primorial(13) == 2 * 3 * 5 * 7 * 11 * 13


def test_compute_W_cap():
    with pytest.raises(ParameterError, match="63-bit"):
        compute_W(200, 1)


@pytest.mark.parametrize("w", [53, 10 ** 5, 10 ** 30])
def test_compute_W_refuses_past_the_cap_at_once_by_name(w):
    # primorial(53) alone passes the cap, so no larger w is multiplied out
    assert primorial(47) <= MAX_W < primorial(53)
    t0 = time.perf_counter()
    with pytest.raises(ParameterError, match="63-bit") as exc:
        compute_W(w, 1)
    assert time.perf_counter() - t0 < 1.0
    msg = str(exc.value)
    assert "w = " in msg and not re.search(r"\d{31}", msg)
    assert compute_W(52, 1) == compute_W(47, 1) == primorial(47)


def _refusal(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err) < 300
    return err


@pytest.mark.parametrize("args,named", [
    (["tuple", "--k", "52"], "--k asks for 53 shifts"),
    (["tuple", "--k", "52", "--tuple-style", "dense"], "--k asks for 53 shifts"),
    (["tuple", "--h", ",".join(str(4 * j) for j in range(53))],
     "--h asks for 53 shifts"),
    # k + 1 has 4,301 digits, more than str() converts
    (["tuple", "--k", "9" * 4300], "--k asks for <4301 digits> shifts"),
], ids=["standard", "dense", "h", "4300-digit-k"])
def test_a_tuple_past_52_shifts_is_refused_before_it_is_built(args, named,
                                                              monkeypatch,
                                                              capsys):
    for name in ("standard_tuple", "dense_tuple", "AdmissibleTuple"):
        monkeypatch.setattr(f"recurgaps.cli.{name}",
                            lambda *a: pytest.fail("built the tuple"))
    err = _refusal(args, capsys)
    assert named in err and "52-shift limit" in err


def test_the_largest_tuple_a_63_bit_W_serves_passes(capsys):
    # 52 shifts, the multiples of primorial(52) = primorial(47) = W
    assert main(["tuple", "--k", "51", "--w", "47"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert len(rec["h"]) == 52 and rec["W"] == primorial(47)


def test_a_long_shift_is_refused_in_a_short_message(capsys):
    big = 10 ** 39 + 2 * 3 * 5 * 7 * 11  # 40 digits, not 5-smooth
    err = _refusal(["tuple", "--h", f"0,{big}", "--w", "5"], capsys)
    assert "w=5 too small: <40 digits>-0 has a prime factor > w" in err
    assert not re.search(r"\d{31}", err)


def test_choose_b_examples():
    b, forced = choose_b((0, 2), 3, 1)
    assert b == 5 and forced == ()
    b, forced = choose_b((0, 6, 12), 5, 1)
    assert b == 1 and forced == ()


def test_choose_b_residues_coprime():
    for h, w, W0 in (((0, 2), 3, 1), ((0, 6, 12), 5, 1), ((0, 24, 48), 5, 4),
                     (dense_tuple(5, 4).h, 5, 4)):
        b, _ = choose_b(h, w, W0)
        W = compute_W(w, W0)
        assert 1 <= b <= W
        assert b % W0 == 1 % W0
        for hj in h:
            assert math.gcd(b + hj, W) == 1


@pytest.mark.parametrize("h,w,W0,consecutive", [
    ((0, 2), 3, 1, False), ((0, 2), 3, 1, True), ((0, 6, 12), 5, 1, False),
    ((0, 24, 48), 5, 4, False), (dense_tuple(5, 4).h, 5, 4, False),
    ((0, 4), 11, 4, True), ((0, 2), 7, 2, False), ((0, 6), 7, 3, False),
    ((0,), 13, 1, False),
])
def test_choose_b_is_the_least_b_meeting_the_rules(h, w, W0, consecutive):
    # brute force over [1, W]: (III) gcd(b + h_j, W) = 1, (IV) b = 1 mod W0,
    # and each forced congruence b = -a (mod rho)
    b, forced = choose_b(h, w, W0, consecutive=consecutive)
    assert bool(forced) == consecutive
    W = compute_W(w, W0)
    assert b == next(c for c in range(1, W + 1)
                     if all(math.gcd(c + hj, W) == 1 for hj in h)
                     and c % W0 == 1 % W0
                     and all((c + a) % rho == 0 for a, rho in forced))


def test_choose_b_checks_W0_divides_the_shifts():
    # (II) is the rule broken here, as make_sieve_params reports it
    for call in (lambda: choose_b((0, 2), 2, 3),
                 lambda: make_sieve_params(N=10 ** 5, h=(0, 2), w=2, W0=3)):
        with pytest.raises(ParameterError, match=r"assumption \(II\) violated: "
                           r"W0=3 does not divide h in \[2\]"):
            call()


def test_choose_b_requires_small_difference_factors():
    # 14 - 0 has the prime factor 7 > w = 5
    with pytest.raises(ParameterError, match="prime factor"):
        choose_b((0, 14), 5, 1)


def test_choose_b_consecutive_twin():
    b, forced = choose_b((0, 2), 3, 1, consecutive=True)
    assert forced == ((1, 3),)
    assert (b + 1) % 3 == 0


def test_choose_b_consecutive_forces_composites():
    b, forced = choose_b((0, 4), 11, 4, consecutive=True)
    W = compute_W(11, 4)
    assert [a for a, _ in forced] == [1, 2, 3]
    rhos = [r for _, r in forced]
    assert rhos == [5, 7, 11]
    for idx in range(100):
        n = b + idx * W
        for a, rho in forced:
            assert (n + a) % rho == 0  # n + a is composite once n + a > rho


def test_choose_b_consecutive_infeasible():
    with pytest.raises(ParameterError, match="consecutive"):
        choose_b(dense_tuple(5, 4), 13, 4, consecutive=True)


def test_make_sieve_params_validates():
    p = make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    assert p.R == 3 and p.W == 30 and p.b == 1
    assert p.top == 2 * 10 ** 5 + 12

    with pytest.raises(ParameterError, match="theta"):
        make_sieve_params(N=10 ** 5, h=(0, 2), theta=0.3, w=5)
    with pytest.raises(ParameterError, match="degenerates"):
        make_sieve_params(N=100, h=(0, 2), theta=0.1, w=5)
    with pytest.raises(ParameterError, match=r"\(II\)"):
        make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=4)
    with pytest.raises(ParameterError, match="admissible"):
        make_sieve_params(N=10 ** 5, h=(0, 2, 4), theta=0.1, w=5)


def test_make_sieve_params_explicit_b():
    p = make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1, b=7)
    assert p.b == 7  # gcd(7+h, 30) = 1 for h in (0, 6, 12): 7, 13, 19
    with pytest.raises(ParameterError, match=r"\(III\)"):
        make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1, b=3)
    with pytest.raises(ParameterError, match=r"\(IV\)"):
        make_sieve_params(N=10 ** 5, h=(0, 24, 48), theta=0.1, w=5, W0=4, b=30 * 4)


def test_make_sieve_params_explicit_b_keeps_the_w_rule():
    # 14 - 0 has the prime factor 7 > w = 5, whether or not b is given
    for b in (None, 17):
        with pytest.raises(ParameterError, match="w=5 too small: 14-0"):
            make_sieve_params(N=10 ** 5, h=(0, 14), theta=0.2, w=5, b=b)


def test_admissible_tuple_validation():
    with pytest.raises(ParameterError):
        AdmissibleTuple((2, 0))
    with pytest.raises(ParameterError):
        AdmissibleTuple((-2, 0))
    with pytest.raises(ParameterError):
        AdmissibleTuple((0, 2, 4))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=5))
def test_is_admissible_matches_bruteforce(hset):
    h = sorted(hset)
    expected = all(not _covers_all_residues(h, p)
                   for p in (2, 3, 5) if p <= len(h))
    assert is_admissible(h) == expected
