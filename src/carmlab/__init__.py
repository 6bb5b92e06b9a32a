"""Carmichael-number analysis toolkit.

Exact Fermat-witness censuses, Korselt certification and enumeration, a
two-step-Newton lower bound on the smallest prime factor, a seeded Monte
Carlo detector labelling any n >= 2 as prime, Carmichael or other
composite, and the analytic accuracy model behind it.
"""

__version__ = "0.1.0"

from .accuracy import (AccuracyReport, ProportionHistogram, binomial_tail_exact,
                       carmichael_prior, empirical_proportion_distribution,
                       normal_cdf, posterior_composite_given, posterior_general,
                       prime_prior)
from .arith import natural_log_squared_floor
from .bench import BenchReport, composite_for_bits, run_benchmark
from .bound import (BoundEvaluation, BoundVerdict, bound_closed_form, bound_curve,
                    classify_by_bound, prime_factor_bound)
from .census import (CensusMethod, WitnessCensus, WitnessKind, census_brute_force,
                     census_exact, classify_witness)
from .detector import (Basis, DetectorConfig, Label, Verdict, default_sample_size,
                       detect_carmichael_general)
from .errors import CapExceededError, DomainError, FactorizationError
from .factoring import (DETERMINISTIC_WITNESS_BOUND, FactorBudget, Factorization,
                        PrimalityCheck, euler_phi, factorize, is_prime, prime_check,
                        primes_up_to)
from .korselt import (CarmichaelCertificate, chernick, enumerate_carmichael,
                      enumerate_carmichael_range, is_carmichael)
