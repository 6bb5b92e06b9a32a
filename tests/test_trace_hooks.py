"""What the traced benchmark (perfbench/) reads from carmlab from outside.

It counts builtin `pow` calls by the module whose code makes them, so a
detector powmod must be spelled in carmlab.detector; and it wraps or
counts a few module-level names, which must keep existing.
"""

import builtins
import functools
import importlib

import pytest
from conftest import builtin_calls_by_module

from carmlab.accuracy import empirical_proportion_distribution
from carmlab.detector import DetectorConfig, Label, detect_carmichael_general
from carmlab.korselt import chernick


# builtin pow calls made while fn runs, keyed by the caller's __name__
pow_calls_by_module = functools.partial(builtin_calls_by_module, builtins.pow)


# (n, t, seed) -> pow calls. 91 = 7 * 13 pays one pow per draw; the
# Carmichael numbers 561 and 1105 pay one per draw only until their draws
# prove them Carmichael, and a gcd per draw after that.
COMPOSITE_POWMODS = {(91, 9, 0): 9, (561, 40, 3): 1, (1105, 5, 7): 2}


@pytest.mark.parametrize("n, t, seed", COMPOSITE_POWMODS)
def test_composite_verdict_powmods_come_from_the_detector(n, t, seed):
    counts = pow_calls_by_module(detect_carmichael_general, n,
                                 DetectorConfig(t_override=t, rng_seed=seed))
    assert counts == {"carmlab.detector": COMPOSITE_POWMODS[n, t, seed]}


def test_histogram_powmods_come_from_the_detector():
    # four trials of five draws each; every trial proves 561 Carmichael anew
    counts = pow_calls_by_module(empirical_proportion_distribution, 561, t=5, trials=4)
    assert counts == {"carmlab.detector": 8}


def test_chernick_verdict_at_the_default_t_makes_few_detector_powmods():
    # 128 bits, t = 7,871: one pow per draw would be 7,871
    n = chernick(640341253625)
    counts = pow_calls_by_module(detect_carmichael_general, n)
    assert counts["carmlab.detector"] <= 8
    verdict = detect_carmichael_general(n)
    assert verdict.label is Label.CARMICHAEL and verdict.sample_size == 7871


def test_chernick_verdict_proves_each_prime_factor_once():
    # prime_check on n, then once on each part the proof splits off; the
    # Korselt check on the proven primes runs no second primality test
    counts = pow_calls_by_module(detect_carmichael_general, chernick(640341253625))
    assert counts["carmlab.factoring"] == 38


def test_semiprime_verdict_at_the_default_t_makes_only_the_proof_attempts_powmods():
    # 128 bits, t = 7,810: the proof attempt's first draw is a coprime
    # witness, and the other draws go to the batch test, which makes no pow
    n = 240675183209732824508913163728904131481
    counts = pow_calls_by_module(detect_carmichael_general, n)
    assert counts["carmlab.detector"] <= 8
    verdict = detect_carmichael_general(n)
    assert verdict.label is Label.OTHER_COMPOSITE and verdict.sample_size == 7810


def test_chernick_number_with_probable_prime_factors_pays_one_pow_per_draw():
    # 256 bits; its prime factors lie above DETERMINISTIC_WITNESS_BOUND, so
    # no proof is attempted from them and every draw is a plain Fermat test
    n = chernick(4470519183378038132861700)
    counts = pow_calls_by_module(detect_carmichael_general, n, DetectorConfig(t_override=64))
    assert counts["carmlab.detector"] == 64


@pytest.mark.parametrize("dotted", [
    "carmlab.detector.prime_check",
    "carmlab.detector.natural_log_squared_floor",
    "carmlab.korselt.primes_up_to",
    "carmlab.korselt._scan_block",
    "carmlab.census._census_chunk",
    "carmlab.randutil.uniform_below",
])
def test_traced_names_exist(dotted):
    module, name = dotted.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), name))
