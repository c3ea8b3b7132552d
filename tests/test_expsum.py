import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recurgaps
from recurgaps import expsum, sieve
from recurgaps.admissible import ParameterError, make_sieve_params
from recurgaps.expsum import (RationalPoint, classify_arc, convergents,
                              dirichlet_approx, expsum_discrepancy,
                              expsum_main_term, geometric_phase_sum,
                              minor_arc_scan, prime_expsum,
                              weighted_expsum, zq_inverse, _phase,
                              _rational_phase, _SPLIT, _theta_frac,
                              _theta_phase)
from recurgaps.primes import is_prime, mobius, phi_int, primes_in, torus_norm
from recurgaps.sieve import weighted_prime_sum
from recurgaps.testfn import default_test_function

GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def test_rational_point_validation():
    with pytest.raises(ParameterError):
        RationalPoint(2, 4, 0.0)
    with pytest.raises(ParameterError):
        RationalPoint(0, 3, 0.0)
    for theta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ParameterError, match="finite"):
            RationalPoint(1, 3, theta)


def test_prime_expsum_trivial_is_real_positive():
    s = prime_expsum(10 ** 3, 1, 1, RationalPoint(1, 1, 0.0))
    assert s.imag == 0.0
    assert s.real > 0.0


def test_prime_expsum_rejects_bad_residue():
    with pytest.raises(ParameterError, match="gcd"):
        prime_expsum(10 ** 3, 2, 2, RationalPoint(1, 1, 0.0))


def test_prime_expsum_matches_naive_loop():
    pt = RationalPoint(1, 4, 0.0)
    got = prime_expsum(10 ** 3, 3, 1, pt)
    naive = sum(
        math.log(n) * cmath.exp(2j * math.pi * ((n % 4) / 4))
        for n in range(10 ** 3, 2 * 10 ** 3 + 1)
        if is_prime(n) and n % 3 == 1)
    assert abs(got - naive) <= 1e-11 * abs(naive)


def test_prime_expsum_triangle_inequality():
    for q, a, theta in ((5, 2, 0.0), (7, 3, 1e-5), (1, 1, 0.37)):
        pt = RationalPoint(a, q, theta)
        s = prime_expsum(10 ** 4, 3, 2, pt)
        cap = prime_expsum(10 ** 4, 3, 2, RationalPoint(1, 1, 0.0)).real
        assert abs(s) <= cap * (1 + 1e-12) + 1e-9


def test_theta_frac_precision():
    # split arithmetic keeps frac(n theta) honest at large n
    theta = 0.123456789012345
    ns = np.array([10 ** 7 + 7, 2 * 10 ** 8 + 1], dtype=np.int64)
    got = _theta_frac(ns, theta)
    import mpmath
    with mpmath.workdps(40):
        want = [float(mpmath.fmod(int(n) * mpmath.mpf(theta), 1)) for n in ns]
    for g, w in zip(got, want):
        assert abs((g % 1.0) - w) < 1e-9
    # no op passes theta = 0, and the general formula gives +0.0 there too
    assert _theta_frac(ns, 0.0).tobytes() == np.zeros(len(ns)).tobytes()


def test_zq_membership_examples():
    ok, vbar = zq_inverse(4, 2)
    assert ok and vbar == 1  # inverse of 1 mod 2
    ok, _ = zq_inverse(2, 4)
    assert not ok
    ok, vbar = zq_inverse(7, 1)
    assert ok and vbar == 0


def test_rational_phases_are_exact_up_to_the_q_cap():
    q = expsum.MAX_Q
    assert q * q <= 2 ** 63 - 1 < (q + 1) ** 2
    ns = np.arange(q - 1000, q + 1000, dtype=np.int64)  # n mod q up to q - 1
    assert np.allclose(_rational_phase(ns, q - 1, q),
                       np.conj(_rational_phase(ns, 1, q)), rtol=0, atol=1e-12)
    for call in (lambda: RationalPoint(1, q + 1),
                 lambda: expsum_discrepancy(q + 1, 0.0, 10, 3)):
        with pytest.raises(ParameterError, match=rf"q={q + 1} exceeds"):
            call()


def test_main_term_holds_D_to_the_modulus_cap():
    q = expsum.MAX_Q
    assert expsum_main_term(100, q, 1, RationalPoint(1, 1)) == 1.0 / phi_int(q) * 101
    with pytest.raises(ParameterError, match=rf"D={q + 1} exceeds"):
        expsum_main_term(100, q + 1, 1, RationalPoint(1, 1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))
def test_totient_of_the_lcm_from_its_parts(D, q):
    # the main term's phi([D, q]) = phi(D) phi(q) / phi((D, q))
    u = math.gcd(D, q)
    assert phi_int(D) * phi_int(q) // phi_int(u) == phi_int(D * q // u)


@pytest.mark.parametrize("D,q", [(1, 1), (3, 4), (12, 18), (30, 7), (997, 1),
                                 (6, expsum.MAX_Q)])
def test_main_term_equals_the_totient_of_the_lcm(D, q):
    pt = RationalPoint(1, q, 1e-6)
    u = math.gcd(D, q)
    in_class, vbar = zq_inverse(D, q)
    phase = np.exp(2j * np.pi * (vbar % u) / u) if u > 1 else 1.0
    want = (mobius(q // u) * phase / phi_int(D * q // u)
            * geometric_phase_sum(1000, 1e-6)) if in_class else 0j
    assert expsum_main_term(1000, D, 1, pt) == want


def test_main_term_q1_reduces_to_phi_weight():
    x = 10 ** 3
    for D in (3, 4, 5):
        got = expsum_main_term(x, D, 1, RationalPoint(1, 1, 0.0))
        assert got == pytest.approx((x + 1) / phi_int(D), rel=1e-12)


def test_main_term_D1_is_centering_term():
    # with no progression constraint the prediction is mu(q)/phi(q) * count
    x = 10 ** 3
    for q in (1, 2, 3, 4, 5, 6, 8):
        got = expsum_main_term(x, 1, 1, RationalPoint(1, q, 0.0))
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 8: 0}[q]
        assert got == pytest.approx(mu / phi_int(q) * (x + 1), abs=1e-9)


def test_main_term_zero_class():
    got = expsum_main_term(10 ** 3, 2, 1, RationalPoint(1, 4, 0.0))
    assert got == 0j


def test_main_term_matches_measured_at_small_scale():
    x = 10 ** 4
    tol = 0.35 * x / math.log(x)  # generous at this small x
    for D, q in ((3, 1), (3, 2), (4, 2), (5, 5)):
        pt = RationalPoint(1, q, 0.0)
        s = prime_expsum(x, D, 1, pt)
        m = expsum_main_term(x, D, 1, pt)
        assert abs(s - m) <= tol


def test_discrepancy_trivial_level():
    x = 10 ** 4
    got = expsum_discrepancy(1, 0.0, x, 3)
    direct = abs(prime_expsum(x, 1, 1, RationalPoint(1, 1, 0.0)) - (x + 1))
    assert got == pytest.approx(direct, rel=1e-12)


def test_discrepancy_monotone_in_delta():
    # the coarse grid is a subset of the refined wide grid
    x = 10 ** 4
    lo = expsum_discrepancy(4, 1e-6, x, 3)
    hi = expsum_discrepancy(4, 3e-6, x, 7)
    assert lo <= hi + 1e-12


def test_discrepancy_validation():
    with pytest.raises(ParameterError, match="at least 3"):
        expsum_discrepancy(4, 0.0, 10 ** 3, 2)
    with pytest.raises(ParameterError, match="q >= 1"):
        expsum_discrepancy(0, 0.0, 10 ** 3, 3)
    for delta in (-1e-6, math.inf, math.nan):
        with pytest.raises(ParameterError, match="delta"):
            expsum_discrepancy(4, delta, 10 ** 3, 3)


@pytest.mark.parametrize("x", [0, -3])
def test_prime_sums_refuse_a_window_below_one(x):
    pt = RationalPoint(1, 3, 1e-6)
    for call in (lambda: prime_expsum(x, 1, 1, pt),
                 lambda: expsum_main_term(x, 1, 1, pt),
                 lambda: expsum_discrepancy(3, 1e-6, x, 3)):
        with pytest.raises(ParameterError, match=rf"x >= 1, got x={x}"):
            call()


def test_discrepancy_refuses_a_grid_span_that_overflows():
    # the span 2 delta of the largest delta accepted is the largest double
    top = sys.float_info.max / 2
    for delta in (1e308, math.nextafter(top, math.inf)):
        with pytest.raises(ParameterError, match="delta=.* is too large"):
            expsum_discrepancy(4, delta, 10 ** 3, 3)
    assert math.isfinite(top - -top)


def test_phase_sums_refuse_a_theta_the_split_cannot_hold():
    # the largest theta whose split theta * _SPLIT is finite, and the next
    top = sys.float_info.max / _SPLIT
    big = math.nextafter(top, math.inf)
    assert math.isfinite(top * _SPLIT) and not math.isfinite(big * _SPLIT)
    p = make_sieve_params(N=20_000, h=(0, 2), theta=0.1, w=2, W0=1)
    F = default_test_function(1)
    for theta in (top, -top):
        pt = RationalPoint(1, 3, theta)
        assert cmath.isfinite(prime_expsum(10 ** 3, 1, 1, pt))
        assert cmath.isfinite(weighted_expsum(p, F, 1, pt).measured)
    assert math.isfinite(expsum_discrepancy(3, top, 10 ** 3, 3))
    for theta in (big, -big, 1e300):
        pt = RationalPoint(1, 3, theta)
        with pytest.raises(ParameterError, match="theta offset=.* is too large"):
            prime_expsum(10 ** 3, 1, 1, pt)
        with pytest.raises(ParameterError, match="theta offset=.* is too large"):
            weighted_expsum(p, F, 1, pt)
    with pytest.raises(ParameterError, match="delta=.* is too large: the phase"):
        expsum_discrepancy(3, big, 10 ** 3, 3)
    # the closed-form main term splits no theta
    assert expsum_main_term(100, 1, 1, RationalPoint(1, 1, 1e300)) == 101


@pytest.mark.parametrize("grid", [3, 41, 1000, 8193, 100001])
@pytest.mark.parametrize("delta", [1e-6, 1.1e-6, 0.3, 5e-9])
def test_theta_grid_equals_linspace(delta, grid, monkeypatch):
    # the scan centres at each point of np.linspace's grid once, in order
    # (its phases are stubbed: only the points are read here)
    thetas = []
    monkeypatch.setattr(expsum, "geometric_phase_sum",
                        lambda x, theta: thetas.append(theta) or 0j)
    monkeypatch.setattr(expsum, "_theta_phase", lambda ns, theta: 1.0)
    expsum_discrepancy(1, delta, 1, grid)
    assert np.array(thetas).tobytes() == np.linspace(-delta, delta, grid).tobytes()


def test_discrepancy_refuses_a_billion_point_grid():
    # phi(4) * 1e9 theta points, refused before any of them is scanned
    with pytest.raises(ParameterError, match=r"--q.*--grid"):
        expsum_discrepancy(4, 1e-6, 10 ** 3, 10 ** 9)


# pi(2^27 - 2) - pi(2^26 - 2): the primes in [x, 2x] at x = 2^26 - 1
@pytest.mark.parametrize("x,count", [
    (250_000, None), (10 ** 6, None), (67_108_863, 3_645_744)])
def test_window_primes_floor_is_below_the_prime_count(x, count):
    if count is None:
        count = len(primes_in(range(x, 2 * x + 1)))
    assert 0 < expsum._window_primes_floor(x) < count


@pytest.mark.parametrize("x", range(1, 9))
def test_window_primes_floor_is_zero_where_the_bound_does_not_hold(x):
    # the lower bound pi(y) > y / log y holds from y = 17 on
    assert expsum._window_primes_floor(x) == 0


class _Admitted(Exception):
    pass


# the benchmark's first and last variants, README's example, CI's
# bounded-memory case and the 2^27 window at 41 points
@pytest.mark.parametrize("q,delta,x,grid", [
    (4, 1e-6, 250_000, 41), (4, 1.9e-6, 252_250, 41), (4, 1e-6, 10 ** 6, 41),
    (120_000, 0.0, 10 ** 4, 3), (4, 1e-6, 67_108_863, 41)])
def test_discrepancy_budget_admits(q, delta, x, grid, monkeypatch):
    def admitted(*args):
        raise _Admitted
    monkeypatch.setattr(expsum, "_rational_phase", admitted)
    with pytest.raises(_Admitted):
        expsum_discrepancy(q, delta, x, grid)


def test_discrepancy_budget_refuses_a_large_phi_of_q():
    # phi(1000003) = 1000002 pairs over 21 primes: 14 s of scanning on 2 vCPUs
    with pytest.raises(ParameterError, match=r"phi\(q\) = 1000002 .*"
                       r"lower q \(--q\) or the theta grid \(--grid\)"):
        expsum_discrepancy(1000003, 0.0, 100, 3)


def _discrepancy_loop(q, delta, x, grid):
    """The scan as one prime_expsum call per (a, theta) grid point."""
    mu_over_phi = mobius(q) / phi_int(q)
    thetas = np.linspace(-delta, delta, grid) if delta > 0 else np.array([0.0])
    return max(abs(prime_expsum(x, 1, 1, RationalPoint(a, q, theta))
                   - mu_over_phi * geometric_phase_sum(x, theta))
               for a in range(1, q + 1) if math.gcd(a, q) == 1
               for theta in thetas.tolist())


# x = 250000 has 19.5k primes in [x, 2x], past the 16384-element (256 KiB)
# size from which numpy may reuse a temporary operand; x = 1000 is below it
@pytest.mark.parametrize("x", [1000, 250_000])
@pytest.mark.parametrize("delta", [0.0, 1e-6, 0.37])
@pytest.mark.parametrize("q", [1, 3, 4, 6, 30])
def test_discrepancy_equals_per_point_loop(q, delta, x):
    got = expsum_discrepancy(q, delta, x, 5)
    assert got == _discrepancy_loop(q, delta, x, 5)


@pytest.mark.parametrize("per_block", [1, 2, 7])
@pytest.mark.parametrize("delta", [0.0, 1e-6])
def test_blocked_discrepancy_equals_one_block(per_block, delta,
                                              monkeypatch):
    # phi(210) = 48 values of a, in blocks of 1, 2 and 7 (the last one
    # short), against one block that holds all of them
    q, x, grid = 210, 1000, 5
    held = 16 * len(primes_in(range(x, 2 * x + 1)))  # bytes per a
    assert expsum.PHASE_BLOCK_BYTES >= 48 * held
    want = expsum_discrepancy(q, delta, x, grid)
    calls = []
    phase_sum = expsum.geometric_phase_sum
    monkeypatch.setattr(expsum, "geometric_phase_sum",
                        lambda x, theta: calls.append(theta) or phase_sum(x, theta))
    monkeypatch.setattr(expsum, "PHASE_BLOCK_BYTES", per_block * held)
    assert expsum_discrepancy(q, delta, x, grid) == want
    # the centring sum is taken once per grid point and block
    assert len(calls) == -(-48 // per_block) * (grid if delta > 0 else 1)


def test_phase_block_holds_two_phases_of_the_largest_window():
    # pi(2^27) - pi(2^26) = 7,603,553 - 3,957,809 primes in [2^26, 2^27]
    assert expsum.PHASE_BLOCK_BYTES >= 2 * 16 * (7_603_553 - 3_957_809)


def test_discrepancy_memory_is_bounded_by_the_block_budget(monkeypatch):
    # phi(2310) = 480 values of a hold about 1 MiB of phases at x = 1000;
    # with a 64 KiB budget the scan's peak stays near the budget
    monkeypatch.setattr(expsum, "PHASE_BLOCK_BYTES", 1 << 16)
    want = _discrepancy_loop(2310, 1e-6, 1000, 3)
    tracemalloc.start()
    try:
        got = expsum_discrepancy(2310, 1e-6, 1000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 18


@pytest.mark.parametrize("x", [1000, 250_000])
def test_phase_is_rational_times_theta(x):
    ps = primes_in(range(x, 2 * x + 1))
    for a, q, theta in ((1, 3, 1e-6), (7, 30, -0.37), (1, 1, 2.5e-3)):
        r = _rational_phase(ps, a, q)
        e = _theta_phase(ps, theta)
        want = r * e
        got = _phase(ps, RationalPoint(a, q, theta))
        assert got.tobytes() == want.tobytes()


# Run in a fresh interpreter, since numpy picks its SIMD loops at import:
# _phase gives the same bits per element whatever the length of the array
# (1, 7 or all of it), and weighted_expsum with one point per chunk equals
# math.fsum over the dense terms.
_CHUNK_PROBE = """
import math
import numpy as np
from recurgaps import accumulate
from recurgaps.admissible import make_sieve_params
from recurgaps.expsum import RationalPoint, weighted_expsum, _phase
from recurgaps.primes import is_prime
from recurgaps.sieve import omega_kernel, points
from recurgaps.testfn import default_test_function

p = make_sieve_params(N=20_000, h=(0, 2), theta=0.1, w=2, W0=1)
F = default_test_function(1)
pt = RationalPoint(1, 3, 0.01)
ns = np.array(points(p))
m = ns + p.h[1]
whole = _phase(m, pt)
for size in (1, 7):
    parts = [_phase(m[i:i + size], pt) for i in range(0, len(m), size)]
    assert np.concatenate(parts).tobytes() == whole.tobytes(), size
varpi = np.where([is_prime(x) for x in m.tolist()],
                 np.log(m.astype(np.float64)), 0.0)
dense = varpi * omega_kernel(p, F)(ns) * whole
accumulate.CHUNK = 1
got = weighted_expsum(p, F, 1, pt).measured
want = complex(math.fsum(dense.real.tolist()), math.fsum(dense.imag.tolist()))
assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
print("ok")
"""


def _simd_masks() -> list[str]:
    """NPY_DISABLE_CPU_FEATURES values that leave numpy each SIMD level it
    can dispatch to on this CPU, from all of them down to its baseline."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    return [" ".join(found[i:]) for i in range(len(found), -1, -1)]


def _run_probe(probe: str, mask: str) -> None:
    """Run probe in a fresh interpreter with the SIMD levels of mask off."""
    src = str(Path(recurgaps.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=mask)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


@pytest.mark.parametrize("mask", _simd_masks())
def test_phase_is_chunk_invariant_at_every_simd_level(mask):
    _run_probe(_CHUNK_PROBE, mask)


# The phase kernel against the formulas it replaced, which stay here as the
# oracle: frac(n theta) by np.mod, and e(f) by the complex product
# np.exp(2j * np.pi * f).  Primes from random windows below 2^28, as int64
# and as float64 (the discrepancy scan passes them as floats), theta of both
# signs, and f = -0.0, where the product's imaginary part is +0.0.
_KERNEL_PROBE = """
import numpy as np
from recurgaps.expsum import (_SPLIT, _e, _rational_phase, _theta_frac,
                              _theta_phase)
from recurgaps.primes import ap_primality, build_prime_table, step_inverses

def old_frac(ns, theta):
    c = theta * _SPLIT
    hi = c - (c - theta)
    lo = theta - hi
    return np.mod(ns * hi, 1.0) + ns * lo

def old_e(f):
    return np.exp(2j * np.pi * f)

base = build_prime_table(1 << 14).primes  # up to isqrt(2^28)
inverses = step_inverses(1, base)
rng = np.random.default_rng(2015)
width = 1 << 15
starts = [2] + rng.integers(2, (1 << 28) - width, 40).tolist()
ps = np.concatenate([np.flatnonzero(ap_primality(lo, 1, width, base,
                                                 inverses)) + lo
                     for lo in starts])
fps = ps.astype(np.float64)
thetas = [1e-6, -1e-6, -0.37, 2.5e-3, -2.5e-3, 0.5, -3.7, 1e-12]
thetas += rng.uniform(-0.5, 0.5, 8).tolist()
for theta in thetas:
    want = old_frac(ps, theta)
    assert _theta_frac(ps, theta).tobytes() == want.tobytes(), theta
    assert _theta_frac(fps, theta).tobytes() == want.tobytes(), theta
    assert _theta_phase(fps, theta).tobytes() == old_e(want).tobytes(), theta
for a, q in ((1, 1), (2, 3), (3, 4), (7, 30)):
    want = old_e(((ps % q) * a % q) / q)
    assert _rational_phase(ps, a, q).tobytes() == want.tobytes(), (a, q)
f = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 0.5, -0.5, 1.0 - 2.0 ** -53],
                    rng.uniform(-1.0, 1.0, 4096)])
assert _e(f).tobytes() == old_e(f).tobytes()
print("ok")
"""


@pytest.mark.parametrize("mask", _simd_masks())
def test_phase_kernel_matches_the_old_formulas_at_every_simd_level(mask):
    _run_probe(_KERNEL_PROBE, mask)


def test_geometric_phase_sum_theta_zero():
    assert geometric_phase_sum(100, 0.0) == complex(101, 0.0)


def test_geometric_phase_sum_matches_direct():
    theta = 0.01
    x = 500
    direct = sum(cmath.exp(2j * math.pi * n * theta) for n in range(x, 2 * x + 1))
    assert abs(geometric_phase_sum(x, theta) - direct) < 1e-9


# (x, theta) pairs for the closed form: tiny, negative, near 1/2, beyond
# [-1, 1], (x+1) theta next to an integer (x = 10^6, theta = 1e-6), and
# subnormal or near the small-theta cut
CLOSED_FORM_CASES = [
    (x, theta)
    for x in (10, 500, 250_000, 60_000_000)
    for theta in (1e-12, -1e-12, -0.3, 0.5 - 1e-9, -(0.5 - 1e-9), 2.7, -5.25)
] + [(10 ** 6, 1e-6), (10 ** 6, -1e-6), (2000, 5e-324), (2000, 1e-320),
     (2000, 2.0 ** -600), (2000, 2.0 ** -599)]


@pytest.mark.parametrize("x,theta", CLOSED_FORM_CASES)
def test_geometric_phase_sum_closed_form_tolerance(x, theta):
    import mpmath
    with mpmath.workdps(50):
        th = mpmath.mpf(theta)  # the double exactly
        want = (mpmath.expjpi(3 * x * th) * mpmath.sinpi((x + 1) * th)
                / mpmath.sinpi(th))
        err = abs(mpmath.mpc(geometric_phase_sum(x, theta)) - want)
        assert err <= 1e-14 * max(1, abs(want))


def _direct_phase_sum(x: int, theta: float) -> complex:
    """sum of e(n theta) term by term, each n theta reduced mod 1 exactly."""
    num, den = theta.as_integer_ratio()
    terms = [cmath.exp(2j * math.pi * (((n * num) % den) / den))
             for n in range(x, 2 * x + 1)]
    return complex(math.fsum(z.real for z in terms),
                   math.fsum(z.imag for z in terms))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2000),
       st.floats(min_value=-10.0, max_value=10.0,
                 allow_nan=False, allow_infinity=False))
def test_geometric_phase_sum_matches_direct_property(x, theta):
    direct = _direct_phase_sum(x, theta)
    assert abs(geometric_phase_sum(x, theta) - direct) <= 1e-12 * max(1, x)


def test_theta_frac_rejects_n_beyond_split_range():
    with pytest.raises(ParameterError, match=r"2\^28"):
        _theta_frac(np.array([5, 1 << 28], dtype=np.int64), 0.1)


def test_weighted_expsum_rejects_n_beyond_split_range_before_the_scan(
        monkeypatch):
    # 2N + max h >= 2^28 with a theta offset: the bound is checked before
    # the Omega table is built, not when the scan first reaches such an n
    def no_scan(*args, **kwargs):
        raise AssertionError("Omega table built before the range check")

    monkeypatch.setattr(sieve, "omega_period", no_scan)
    p = make_sieve_params(N=140_000_000, h=(0, 2), theta=0.24, w=2, W0=1)
    F = default_test_function(1)
    with pytest.raises(ParameterError, match=r"2\^28"):
        weighted_expsum(p, F, 0, RationalPoint(1, 3, 0.01))


# ---------------------------------------------------------------------------
# rational approximation and arc labels
# ---------------------------------------------------------------------------

def test_dirichlet_examples():
    assert dirichlet_approx(math.sqrt(2.0) - 1.0, 10) == (2, 5)
    assert dirichlet_approx(1.0 / 3.0, 10) == (1, 3)
    assert dirichlet_approx(0.5 - 1e-9, 10) == (1, 2)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=1, max_value=10 ** 6))
def test_dirichlet_defining_inequality(alpha, x):
    a, q = dirichlet_approx(alpha, x)
    assert 1 <= a <= q <= x
    assert math.gcd(a, q) == 1
    assert torus_norm(alpha - a / q) <= 1.0 / (q * x) + 1e-15


def test_classify_arc_examples():
    lab = classify_arc(0.0, 10 ** 6)
    assert (lab.kind, lab.a, lab.q) == ("major", 1, 1)
    lab = classify_arc(0.5, 10 ** 6)
    assert (lab.kind, lab.q) == ("major", 2)
    assert classify_arc(GOLD, 10 ** 6).kind == "minor"
    assert classify_arc(GOLD, 10 ** 4).kind == "minor"


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0,
                 allow_nan=False, allow_infinity=False),
       st.integers(min_value=100, max_value=10 ** 18))
def test_classify_arc_inequality_holds_exactly(alpha, N):
    lab = classify_arc(alpha, N)
    assert 1 <= lab.a <= lab.q <= lab.Q
    assert math.gcd(lab.a, lab.q) == 1
    dist = (Fraction(alpha) - Fraction(lab.a, lab.q)) % 1
    assert min(dist, 1 - dist) * lab.q * Fraction(lab.Q) <= 1
    assert (lab.kind == "major") == (lab.q <= lab.P)


def test_convergents_of_rational_terminate():
    cs = convergents(0.75, 100)
    assert (3, 4) in cs


# ---------------------------------------------------------------------------
# weighted exponential sums
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sieve_setup():
    p = make_sieve_params(N=10 ** 5, h=(0, 6, 12), theta=0.1, w=5, W0=1)
    return p, default_test_function(2)


def test_weighted_trivial_matches_prime_sum(sieve_setup):
    p, F = sieve_setup
    base = weighted_prime_sum(p, F, 0)
    rep = weighted_expsum(p, F, 0, RationalPoint(1, 1, 0.0))
    assert rep.measured.real == base.measured
    assert rep.measured.imag == 0.0
    assert abs(rep.measured - base.measured) <= 1e-9 * abs(base.measured)


def test_weighted_q2_parity_phase(sieve_setup):
    p, F = sieve_setup
    rep = weighted_expsum(p, F, 0, RationalPoint(1, 2, 0.0))
    # b + h_0 odd: predicted phase -1, measured exactly the negated prime sum
    assert rep.predicted.real < 0
    assert rep.measured.real < 0
    base = weighted_prime_sum(p, F, 0)
    assert rep.measured.real == pytest.approx(-base.measured, rel=1e-12)


def test_weighted_off_divisor_bound_attached(sieve_setup):
    p, F = sieve_setup
    rep = weighted_expsum(p, F, 0, RationalPoint(1, 7, 0.0))
    assert rep.predicted == 0j
    assert rep.ratio is None
    assert rep.bound is not None and rep.bound > 0
    assert abs(rep.measured) < rep.bound  # desk-scale sanity, not the theorem


def test_minor_arc_scan_records(sieve_setup):
    p, F = sieve_setup
    recs = minor_arc_scan(p, F, 0, [GOLD])
    assert len(recs) == 1
    rec = recs[0]
    assert rec["magnitude"] >= 0.0
    assert rec["q"] > 1 and math.gcd(rec["a"], rec["q"]) == 1
    assert rec["ratio"] <= 0.3  # far below the major main-term magnitude


def test_minor_arc_scan_rejects_major(sieve_setup):
    p, F = sieve_setup
    with pytest.raises(ParameterError, match="minor"):
        minor_arc_scan(p, F, 0, [0.5])
