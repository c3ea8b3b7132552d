import pytest
from hypothesis import settings

from recurgaps import sieve
from recurgaps.primes import build_prime_table

# CI runs with --hypothesis-profile=ci: the same examples on every run, so
# a property failure there reproduces locally with the same flag
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(autouse=True)
def fresh_omega_table():
    """Each test builds its own Omega and prime tables: none reads the
    cached ones an earlier test built, perhaps with CHUNK or the kernel
    patched."""
    sieve.omega_period.cache_clear()
    build_prime_table.cache_clear()
