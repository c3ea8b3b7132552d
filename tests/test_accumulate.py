import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recurgaps import accumulate
from recurgaps.accumulate import chunked_sum, periodic_sum

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
                max_size=60),
       st.integers(min_value=1, max_value=17))
def test_complex_matches_componentwise_fsum(pairs, chunk):
    values = np.array([complex(re, im) for re, im in pairs],
                      dtype=np.complex128)
    ns = range(len(values))
    want = complex(math.fsum(values.real.tolist()),
                   math.fsum(values.imag.tolist()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(accumulate, "CHUNK", chunk)
        got = chunked_sum(ns, lookup(values), complex_valued=True)
    assert type(got) is complex
    assert got == want


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
    assert chunked_sum(ns, lookup(cvalues),
                       complex_valued=True) == complex(reps, -2 * reps)


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
    cplx = chunked_sum(ns, kernel, complex_valued=True)
    assert type(real) is float and real == 0.0
    assert type(cplx) is complex and cplx == 0j


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
