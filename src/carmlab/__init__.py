"""Carmichael-number analysis toolkit.

Exact Fermat-witness censuses, Korselt certification and enumeration, a
two-step-Newton lower bound on the smallest prime factor, a seeded Monte
Carlo detector labelling any n >= 2 as prime, Carmichael or other
composite, and the analytic accuracy model behind it.

Each public name below is imported from its submodule on first access
(PEP 562), so `import carmlab` loads no submodule, and `import carmlab.cli`
loads only `carmlab.cli` and `carmlab.errors`; each command then imports
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "accuracy": ("AccuracyReport", "ProportionHistogram", "binomial_tail_exact",
                 "carmichael_prior", "empirical_proportion_distribution", "normal_cdf",
                 "posterior_composite_given", "posterior_general", "prime_prior"),
    "arith": ("natural_log_squared_floor",),
    "bench": ("BenchReport", "composite_for_bits", "run_benchmark"),
    "bound": ("BoundEvaluation", "BoundVerdict", "bound_closed_form", "bound_curve",
              "classify_by_bound", "prime_factor_bound"),
    "census": ("CensusMethod", "WitnessCensus", "WitnessKind", "census_brute_force",
               "census_exact", "classify_witness"),
    "detector": ("Basis", "DetectorConfig", "Label", "Verdict", "default_sample_size",
                 "detect_carmichael_general"),
    "errors": ("CapExceededError", "DomainError", "FactorizationError"),
    "factoring": ("DETERMINISTIC_WITNESS_BOUND", "FactorBudget", "Factorization",
                  "PrimalityCheck", "euler_phi", "factorize", "is_prime", "prime_check",
                  "primes_up_to"),
    "korselt": ("CarmichaelCertificate", "chernick", "enumerate_carmichael",
                "enumerate_carmichael_range", "is_carmichael"),
}.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
