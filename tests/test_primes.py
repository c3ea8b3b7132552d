import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurgaps import primes
from recurgaps.admissible import ParameterError
from recurgaps.primes import (DEFAULT_LIMIT_BUDGET, ap_primality,
                              build_prime_table, factorize, is_prime, mobius,
                              phi_int, primes_in, squarefree_divisors,
                              step_inverses)

ORACLE_LIMIT = 10 ** 4


def _trial_division_primes(limit):
    """Independent oracle: trial division only."""
    out = []
    for n in range(2, limit + 1):
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def _bool_sieve_count(limit):
    """Second independent sieve implementation (plain boolean)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return int(flags.sum())


def _mask_sieve(limit):
    """Reference table: one whole-table masked pass per sieving prime."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    ns = np.arange(limit + 1, dtype=np.uint32)
    untouched = spf == 0
    untouched[:2] = False
    spf[untouched] = ns[untouched]
    primes = np.flatnonzero(spf == ns)
    return spf, primes[primes >= 2].astype(np.int64)


def _assert_matches_mask_sieve(limit):
    t = build_prime_table(limit)
    spf, primes = _mask_sieve(limit)
    assert t.spf.dtype == spf.dtype and t.primes.dtype == primes.dtype
    assert t.spf.tobytes() == spf.tobytes()
    assert t.primes.tobytes() == primes.tobytes()


def _oracle_factor(n):
    out = []
    m = n
    for p in range(2, n + 1):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out


def _oracle_mobius(n):
    fs = _oracle_factor(n)
    if any(e > 1 for _, e in fs):
        return 0
    return -1 if len(fs) % 2 else 1


def _oracle_totient(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


@pytest.fixture(scope="module")
def table():
    return build_prime_table(ORACLE_LIMIT)


def test_first_primes():
    assert build_prime_table(10).primes.tolist() == [2, 3, 5, 7]


def test_boundary_limit():
    assert build_prime_table(2).primes.tolist() == [2]


def test_prime_count_against_two_independent_implementations():
    limit = 10 ** 6
    t = build_prime_table(limit)
    assert len(t.primes) == 78498
    assert len(t.primes) == _bool_sieve_count(limit)
    td = _trial_division_primes(ORACLE_LIMIT)
    assert t.primes[:len(td)].tolist() == td


# around 2^16 and its multiples, where a cache-blocked build split the table
@pytest.mark.parametrize("limit", [2, 3, 4, 5, 65535, 65536, 65537, 131073])
def test_blocked_sieve_matches_mask_sieve(limit):
    _assert_matches_mask_sieve(limit)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=3 * 65536))
def test_blocked_sieve_matches_mask_sieve_property(limit):
    _assert_matches_mask_sieve(limit)


def test_table_dtypes_and_read_only():
    t = build_prime_table(65537)
    assert t.spf.dtype == np.uint32 and t.primes.dtype == np.int64
    for arr in (t.spf, t.primes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[2] = 0


def test_build_peak_memory_stays_near_table_size():
    tracemalloc.start()
    try:
        t = build_prime_table(2_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (t.spf.nbytes + t.primes.nbytes)


def test_limit_validation():
    with pytest.raises(ParameterError):
        build_prime_table(1)
    with pytest.raises(ParameterError, match="budget"):
        build_prime_table(DEFAULT_LIMIT_BUDGET + 1)


def test_spf_invariants(table):
    for n in range(2, 500):
        p = int(table.spf[n])
        assert n % p == 0
        assert all(n % q for q in range(2, p))
    assert all(int(table.spf[int(p)]) == int(p) for p in table.primes[:100])


def test_primes_strictly_increasing_and_mutually_indivisible(table):
    ps = table.primes
    assert np.all(np.diff(ps) > 0)
    head = ps[:60].tolist()
    for i, p in enumerate(head):
        assert all(q % p for q in head[i + 1:])


def test_mobius_examples():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1
    with pytest.raises(ValueError, match="cannot factorize 0: need n >= 1"):
        mobius(0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 9))
def test_mobius_matches_the_oracle(n):
    # trial division needs no table, so n may lie far past any table's reach
    assert mobius(n) == _oracle_mobius(n)


def test_totient_squarefree_examples():
    assert phi_int(30) == 8
    assert squarefree_divisors(12, 100) == [1, 2, 3, 6]
    assert squarefree_divisors(12, 2) == [1, 2]


def test_multiplicative_functions_match_trial_division():
    for n in range(1, ORACLE_LIMIT + 1, 7):  # dense sample
        assert mobius(n) == _oracle_mobius(n)
    for n in list(range(1, 2000)) + [9973, 9974, 10000]:
        assert mobius(n) == _oracle_mobius(n)
    for n in list(range(1, 300)) + [1024, 9973]:
        assert phi_int(n) == _oracle_totient(n)


def test_mobius_divisor_sum_identity():
    for n in range(1, 2001):
        s = sum(mobius(d) for d in range(1, n + 1) if n % d == 0)
        assert s == (1 if n == 1 else 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=ORACLE_LIMIT))
def test_factorize_roundtrip(n):
    t = _HYP_TABLE
    fs = factorize(n)
    assert [p for p, _ in fs] == sorted({p for p, _ in fs})
    prod = 1
    for p, e in fs:
        assert t.spf[p] == p and e >= 1
        prod *= p ** e
    assert prod == n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=ORACLE_LIMIT))
def test_is_prime_matches_the_table(n):
    assert is_prime(n) == (n >= 2 and _HYP_TABLE.spf[n] == n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=ORACLE_LIMIT))
def test_spf_is_least_prime_factor(n):
    t = _HYP_TABLE
    p = int(t.spf[n])
    assert n % p == 0
    assert all(n % q for q in range(2, min(p, 200)))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=ORACLE_LIMIT),
       st.integers(min_value=1, max_value=200))
def test_squarefree_divisors_properties(n, bound):
    ds = squarefree_divisors(n, bound)
    assert ds[0] == 1
    assert ds == sorted(set(ds))
    for d in ds:
        assert d <= bound and n % d == 0
        assert _oracle_mobius(d) != 0


def test_phi_int_matches_table(table):
    for n in (1, 2, 30, 9973, 9996):
        assert phi_int(n) == _oracle_totient(n)
    assert phi_int(2 ** 31 - 1) == 2 ** 31 - 2  # Mersenne prime


_HYP_TABLE = build_prime_table(ORACLE_LIMIT)


# ap_primality against the spf table, wherever the two overlap: the values
# first + j * step all lie in [0, ORACLE_LIMIT].

def _spf_primality(first, step, count, table):
    vals = first + step * np.arange(count, dtype=np.int64)
    return (vals >= 2) & (table.spf[vals] == vals)


def _ap(first, step, count, base):
    """ap_primality with the step's inverses over the whole base, of which
    it reads the prefix it sieves with."""
    return ap_primality(first, step, count, base, step_inverses(step, base))


def _assert_ap_matches_table(first, step, count, table):
    got = _ap(first, step, count, table.primes)
    assert got.dtype == bool and len(got) == count
    assert np.array_equal(got, _spf_primality(first, step, count, table))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 12))
def test_step_inverses_invert_the_step_or_mark_a_divisor(step):
    ps = _HYP_TABLE.primes
    inv = step_inverses(step, ps)
    assert inv.dtype == ps.dtype
    assert [(step * int(i)) % q for i, q in zip(inv.tolist(), ps.tolist())] == [
        0 if step % q == 0 else 1 for q in ps.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=ORACLE_LIMIT),
       st.integers(min_value=1, max_value=ORACLE_LIMIT),
       st.integers(min_value=0, max_value=400))
def test_ap_primality_matches_table(first, step, count):
    count = min(count, (ORACLE_LIMIT - first) // step + 1)
    _assert_ap_matches_table(first, step, count, _HYP_TABLE)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 97]),
       st.sampled_from([1, 2, 3, 4, 6, 9, 10, 30, 49, 210, 2310]),
       st.sampled_from(["0", "1", "2", "p", "p*p-step", "p*p", "any"]),
       st.integers(min_value=0, max_value=ORACLE_LIMIT),
       st.integers(min_value=1, max_value=300))
def test_ap_primality_edge_starts(p, step, which, any_first, count):
    # steps that share factors with the base primes, and progressions that
    # start at 0, 1, 2, a base prime p, or one step below p^2
    first = {"0": 0, "1": 1, "2": 2, "p": p, "p*p-step": p * p - step,
             "p*p": p * p, "any": any_first}[which]
    if first < 0:
        first += step * (-first // step + 1)
    count = min(count, (ORACLE_LIMIT - first) // step + 1)
    _assert_ap_matches_table(first, step, count, _HYP_TABLE)


def test_ap_primality_keeps_a_base_prime_on_a_step_it_divides(table):
    # every value is a multiple of 3, and only 3 itself is prime
    got = _ap(3, 3, 5, table.primes)
    assert got.tolist() == [True, False, False, False, False]
    assert _ap(0, 1, 4, table.primes).tolist() == [
        False, False, True, True]
    assert _ap(5, 7, 0, table.primes).tolist() == []


def test_ap_primality_needs_only_base_primes(table):
    # a window far above the table, checked against trial division
    first, step, count = 10 ** 7 + 1, 6, 500
    base = table.primes[table.primes <= math.isqrt(first + step * count)]
    got = _ap(first, step, count, base)
    want = [all((first + j * step) % q for q in base.tolist())
            for j in range(count)]
    assert got.tolist() == want
    assert 0 < sum(want) < count


def test_ap_primality_rejects_bad_shapes(table):
    with pytest.raises(ValueError, match="step"):
        _ap(1, 0, 5, table.primes)
    with pytest.raises(ValueError, match="count"):
        _ap(1, 2, -1, table.primes)


# primes_in against the table primes of the same range, with SEGMENT cut
# small so that most ranges span several segments.

@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-50, max_value=ORACLE_LIMIT),
       st.integers(min_value=-50, max_value=ORACLE_LIMIT + 1),
       st.integers(min_value=1, max_value=60),
       st.sampled_from([1, 2, 7, 64, 1 << 18]))
def test_primes_in_matches_table(start, stop, step, segment):
    r = range(start, stop, step)
    want = [v for v in r if v >= 2 and int(_HYP_TABLE.spf[v]) == v]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", segment)
        got = primes_in(r, _HYP_TABLE)
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_primes_in_segment_edges(table):
    # ranges that end on, or one value either side of, a segment boundary
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primes, "SEGMENT", 10)
        for stop in (19, 20, 21, 22, 31, 32, 33):
            for start in (0, 1, 2, 3, 10, 11):
                want = table.primes[(table.primes >= start)
                                    & (table.primes < stop)].tolist()
                assert primes_in(range(start, stop), table).tolist() == want
    assert primes_in(range(5, 5), None).tolist() == []


def test_primes_in_needs_only_base_primes_and_a_window_in_budget():
    small = build_prime_table(100)  # base primes for values up to 10200
    got = primes_in(range(9000, 10201, 3), small)
    assert got.tolist() == [v for v in range(9000, 10201, 3)
                            if all(v % q for q in range(2, math.isqrt(v) + 1))]
    with pytest.raises(ParameterError, match=r"isqrt\(10202\) = 101"):
        primes_in(range(9000, 10203), small)
    # the budget bounds the last value, inclusively, before any sieving
    top = DEFAULT_LIMIT_BUDGET
    assert primes_in(range(top - 1, top + 1),
                     build_prime_table(math.isqrt(top))).tolist() == []
    with pytest.raises(ParameterError, match=r"2\^27"):
        primes_in(range(top, top + 2), small)
