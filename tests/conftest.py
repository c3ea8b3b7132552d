import pytest
from hypothesis import settings

from recurgaps import sieve
from recurgaps.acceptance import shared_table
from recurgaps.primes import build_prime_table

# CI runs with --hypothesis-profile=ci: the same examples on every run, so
# a property failure there reproduces locally with the same flag
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(autouse=True)
def fresh_omega_table():
    """Each test builds its own Omega table: none reads the cached one an
    earlier test built, perhaps with CHUNK or the kernel patched."""
    sieve.omega_period.cache_clear()


@pytest.fixture(scope="session")
def small_table():
    """Covers unit tests up to 2e5 plus the widest shift."""
    return build_prime_table(2 * 10 ** 5 + 700)


@pytest.fixture(scope="session")
def big_table():
    """The verification suite's table: the base primes of its widest
    window (N = 4e6)."""
    return shared_table()
