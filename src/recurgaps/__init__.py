"""Prime clusters with recurrent shifts on explicit rotation systems.

Sieve-weighted progression sums, prime exponential sums with arc labels,
exact return-time correlations on Z/g + T^d, and a scanner that exhibits
bounded windows of primes p whose shift p-1 is a strong return time.

Importing the package loads nothing else: import each name from the
submodule that defines it (``recurgaps.primes``, ``recurgaps.sieve``, ...),
so a CLI run loads only the modules its op uses.
"""

__version__ = "0.1.0"
