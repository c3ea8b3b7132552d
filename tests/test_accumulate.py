import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from recurgaps import accumulate
from recurgaps.accumulate import (SCALE, chunked_sum, exact_sum, periodic_sum,
                                  rounded)

# bounded so that no partial sum of a short list can overflow
finite = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False,
                   allow_infinity=False)
# cancellation-heavy terms: huge values of both signs next to tiny ones
scaled = st.builds(lambda m, e: math.ldexp(m, e),
                   st.floats(min_value=-1.0, max_value=1.0),
                   st.integers(min_value=-60, max_value=60))
terms_of = st.lists(st.one_of(finite, scaled), max_size=60)


def lookup(values: np.ndarray):
    """Kernel reading per-point terms off a span of point indices."""
    return lambda lo, hi: values[lo:hi]


@settings(max_examples=150, deadline=None)
@given(terms_of, st.integers(min_value=1, max_value=17))
def test_real_matches_fsum(terms, chunk):
    values = np.array(terms, dtype=np.float64)
    ns = range(len(values))
    want = math.fsum(values.tolist())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulate, "CHUNK", chunk)
        got = chunked_sum(ns, lookup(values))
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(finite, scaled), st.one_of(finite, scaled)),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=17))
def test_complex_matches_componentwise_fsum(pairs, chunk):
    values = np.array([complex(re, im) for re, im in pairs],
                      dtype=np.complex128)
    ns = range(len(values))
    want = complex(math.fsum(values.real.tolist()),
                   math.fsum(values.imag.tolist()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulate, "CHUNK", chunk)
        got = chunked_sum(ns, lookup(values))
    assert type(got) is complex
    assert got == want


# every finite double: the full 1e+-308 range, subnormals (multiples of the
# smallest, 5e-324), both zeros
anyfloat = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-2 ** 52, 2 ** 52).map(lambda m: m * 5e-324),
                     st.sampled_from([0.0, -0.0]), scaled)
# heavy cancellation: terms next to their negations, in any order, plus a
# few that survive
cancelling = st.tuples(
    st.lists(anyfloat, max_size=30).flatmap(
        lambda xs: st.permutations(xs + [-x for x in xs])),
    st.lists(anyfloat, max_size=3)).map(lambda t: t[0] + t[1])


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(anyfloat, max_size=60), cancelling))
# one exponent bin whose halves cancel (hi sums to -1, lo to 1) while its
# total, -(2^26 - 1) 2^-52, does not
@example([1.0, -(1 + (2 ** 26 - 1) * 2 ** -52)])
def test_exact_sum_is_the_exact_fraction_total(terms):
    exact = sum(map(Fraction, terms), Fraction(0))
    total = exact_sum(np.array(terms, dtype=np.float64))
    assert type(total) is int and total == exact * 2 ** SCALE
    try:
        want = float(exact)  # correctly rounded; +0.0 for an exact zero
    except OverflowError:
        with pytest.raises(OverflowError):
            rounded(total)
        return
    got = rounded(total)
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_term_raises_arithmetic_error(monkeypatch, bad):
    monkeypatch.setattr(accumulate, "CHUNK", 2)
    real = np.array([1.0, 2.0, bad])
    cplx = np.array([1.0, 2.0, complex(0.0, bad)])
    for run in (lambda: chunked_sum(range(3), lookup(real)),
                lambda: chunked_sum(range(3), lookup(cplx)),
                lambda: periodic_sum(real, 7)):
        with pytest.raises(ArithmeticError, match="nan or infinite") as exc:
            run()
        assert type(exc.value) is ArithmeticError


def test_an_overflowing_total_raises_overflow_error():
    # every term is finite; only the rounded total is not, as for fsum
    big = np.array([1e308, 1e308, -1.0])
    with pytest.raises(OverflowError):
        math.fsum(big.tolist())
    for run in (lambda: chunked_sum(range(3), lookup(big)),
                lambda: chunked_sum(range(3), lookup(big * 1j)),
                lambda: periodic_sum(big[:1], 2)):
        with pytest.raises(OverflowError):
            run()


@pytest.mark.parametrize("reps", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 2, 8192])
def test_ill_conditioned_terms(monkeypatch, chunk, reps):
    # the cancelling triple repeated, so chunk edges fall inside triples
    values = np.tile([1e16, 1.0, -1e16], reps)
    assert np.sum(values) != reps  # naive float summation loses the 1s
    ns = range(len(values))
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    assert chunked_sum(ns, lookup(values)) == float(reps)
    cvalues = values * (1 - 2j)
    assert chunked_sum(ns, lookup(cvalues)) == complex(reps, -2 * reps)


@pytest.mark.parametrize("chunk", [1, 3, 8192])
def test_kernel_sees_consecutive_index_spans(monkeypatch, chunk):
    # the spans are point indices, whatever the range's start and step
    points = range(1001, 1200, 6)
    spans = []

    def kernel(lo, hi):
        spans.append((lo, hi))
        return np.ones(hi - lo)

    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    assert chunked_sum(points, kernel) == len(points)
    assert spans == [(lo, min(lo + chunk, len(points)))
                     for lo in range(0, len(points), chunk)]


@pytest.mark.parametrize("chunk", [1, 3])
def test_empty_progression(monkeypatch, chunk):
    def kernel(lo, hi):
        raise AssertionError("kernel called on an empty progression")

    ns = range(0)
    monkeypatch.setattr(accumulate, "CHUNK", chunk)
    real = chunked_sum(ns, kernel)
    assert type(real) is float and real == 0.0


@settings(max_examples=150, deadline=None)
@given(st.lists(scaled, min_size=1, max_size=40),
       st.integers(min_value=0, max_value=3000))
def test_periodic_sum_matches_fsum_of_the_repeated_terms(period, length):
    vals = np.array(period, dtype=np.float64)
    want = math.fsum(np.resize(vals, length).tolist())
    got = periodic_sum(vals, length)
    assert type(got) is float
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=60, deadline=None)
@given(st.lists(scaled, min_size=1, max_size=40),
       st.integers(min_value=0, max_value=3000))
@example([float(v) for v in range(1, 21)], 23)  # rem = 3 ends before slice 2
def test_periodic_sum_is_the_same_in_any_chunk_slices(chunk, period, length):
    # the period's slices reach fsum one CHUNK at a time; the value is the
    # exact total's rounding, so the slicing cannot show in it
    vals = np.array(period, dtype=np.float64)
    want = periodic_sum(vals, length)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulate, "CHUNK", chunk)
        got = periodic_sum(vals, length)
    assert got == math.fsum(np.resize(vals, length).tolist())
    assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


@pytest.mark.parametrize("length", [1, 2, 3, 3 * 10 ** 9 + 1, 3 * 10 ** 9 + 2,
                                    2 ** 40 + 5])
def test_periodic_sum_ill_conditioned_counts(length):
    # counts far beyond any materialised list; the big terms cancel to
    # within one period, and the exact total still rounds correctly
    vals = np.array([1e16, 1.0, -1e16])
    q, rem = divmod(length, 3)
    exact = sum(Fraction(v) * (q + (r < rem)) for r, v in enumerate(vals))
    assert periodic_sum(vals, length) == float(exact)


def test_periodic_sum_of_a_period_longer_than_the_run_is_its_prefix_fsum():
    vals = np.array([0.1, 0.2, 0.3, 1e-20, -0.6])
    for length in range(len(vals) + 1):
        assert periodic_sum(vals, length) == math.fsum(vals[:length].tolist())
