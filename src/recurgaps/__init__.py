"""Prime clusters with recurrent shifts on explicit rotation systems.

Sieve-weighted progression sums, prime exponential sums with arc labels,
exact return-time correlations on Z/g + T^d, and a scanner that exhibits
bounded windows of primes p whose shift p-1 is a strong return time.
"""

from .admissible import (AdmissibleTuple, ParameterError, SieveParams,
                         choose_b, compute_W, dense_tuple, is_admissible,
                         make_sieve_params, standard_tuple)
from .cluster import ClusterReport, consecutive_filter, detector_sum, scan_clusters
from .dynamics import (BoxSet, BumpPsi, Cube, KroneckerSystem, build_bump,
                       correlation, khintchine_set, measure,
                       shifted_prime_recurrence_set, torus_norm,
                       weighted_correlation_sum)
from .expsum import (ArcLabel, RationalPoint, classify_arc, dirichlet_approx,
                     expsum_discrepancy, expsum_main_term, minor_arc_scan,
                     prime_expsum, weighted_expsum)
from .primes import (PrimeTable, TableRangeError, build_prime_table, is_prime,
                     mobius, squarefree_divisors)
from .sieve import (SumReport, bilinear_divisor_sum, omega_n, omega_sum,
                    progression, weighted_prime_sum)
from .testfn import (TestFunction, J_cross, J_i, J_star, default_test_function,
                     eval_F, lambda_weight, piecewise_test_function)

__version__ = "0.1.0"
