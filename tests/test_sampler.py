"""The detector's sampler against the plain Fermat loop it replaces.

_sample_witnesses proves a Carmichael number from its first draws and then
counts witnesses by gcd. Seeded verdicts and histograms must be those of
one pow(a, n - 1, n) per draw, and the seeded stream must advance as far.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab import accuracy, detector
from carmlab.accuracy import empirical_proportion_distribution
from carmlab.detector import (DetectorConfig, Label, _sample_witnesses,
                              detect_carmichael_general)
from carmlab.factoring import DETERMINISTIC_WITNESS_BOUND, factorize
from carmlab.korselt import chernick, enumerate_carmichael
from carmlab.randutil import uniform_below

# Chernick numbers (6m+1)(12m+1)(18m+1) of 65, 97, 129, 161, 200 and 256 bits.
# The 256-bit one has prime factors above DETERMINISTIC_WITNESS_BOUND.
CHERNICK_M = (242396, 393935691, 640341253625, 1040873858937815,
              10743143507188486016, 4470519183378038132861700)


def reference_sample_witnesses(n, t, rng):
    exponent = n - 1
    witnesses = []
    for _ in range(t):
        a = 1 + uniform_below(rng, n - 1)
        if pow(a, exponent, n) != 1:
            witnesses.append(a)
    return witnesses


def assert_same_draws(n, t, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert _sample_witnesses(n, t, rng) == reference_sample_witnesses(n, t, reference_rng), \
        (n, t, seed)
    assert rng.getstate() == reference_rng.getstate(), (n, t, seed)


def assert_same_verdict(detect, n, cfg):
    got = detect(n, cfg).to_json_dict()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "_sample_witnesses", reference_sample_witnesses)
        assert got == detect(n, cfg).to_json_dict(), (n, cfg)


def test_every_small_n():
    for n in range(4, 3000):
        for seed in (0, 18):
            for t in (3, 40, None):
                assert_same_draws(n, t or detector.default_sample_size(n), seed)


def test_every_carmichael_number_to_1e5():
    for n in enumerate_carmichael(10**5):
        for seed in range(5):
            assert_same_verdict(detect_carmichael_general, n, DetectorConfig(rng_seed=seed))


@pytest.mark.parametrize("m", CHERNICK_M)
def test_chernick_numbers(m):
    n = chernick(m)
    for seed in (0, 7):
        cfg = DetectorConfig(t_override=64, rng_seed=seed)
        assert detect_carmichael_general(n, cfg).label is Label.CARMICHAEL
        assert_same_verdict(detect_carmichael_general, n, cfg)
    assert (6 * m + 1 > DETERMINISTIC_WITNESS_BOUND) == (m == CHERNICK_M[-1])


@pytest.mark.parametrize("n", [1009, 2**61 - 1, 2**127 - 1])
def test_prime_handed_to_the_sampler(n):
    # the detector labels a prime without drawing, but a histogram of a
    # prime draws: its first draw ends the proof attempt
    for seed in (0, 5):
        assert_same_draws(n, 40, seed)


@pytest.mark.parametrize("p", [3, 7, 1009, 7919, 2**31 - 1])
def test_prime_squares(p):
    for seed in (0, 5):
        assert_same_verdict(detect_carmichael_general, p * p,
                            DetectorConfig(t_override=40, rng_seed=seed))


@pytest.mark.parametrize("n", [91, 97, 561, 1105, 41041])
def test_histograms(n):
    got = empirical_proportion_distribution(n, factorize(n), t=40, trials=50, seed=3)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(accuracy, "_sample_witnesses", reference_sample_witnesses)
        want = empirical_proportion_distribution(n, factorize(n), t=40, trials=50, seed=3)
    assert got.to_json_dict() == want.to_json_dict()


@settings(max_examples=300)
@given(n=st.integers(4, 10**5 - 1) | st.sampled_from(enumerate_carmichael(10**5)),
       seed=st.integers(0, 2**64 - 1),
       t=st.integers(1, 64))
def test_same_draws_property(n, seed, t):
    assert_same_draws(n, t, seed)
