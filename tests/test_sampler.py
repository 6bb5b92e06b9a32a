"""The detector's sampler against the plain Fermat loop it replaces.

_sample_witnesses proves a Carmichael number from its first draws and then
counts witnesses by gcd. Seeded verdicts and histograms must be those of
one pow(a, n - 1, n) per draw, and the seeded stream must advance as far.
Batches of at least _BATCH_MIN draws are drawn as blocks of words by
_uniform_words, which must yield uniform_below's values and leave the
stream where as many uniform_below calls leave it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab import accuracy, detector
from carmlab.accuracy import empirical_proportion_distribution
from carmlab.detector import (_BATCH, _BATCH_MIN, DetectorConfig, Label, _sample_witnesses,
                              _uniform_words, default_sample_size, detect_carmichael_general)
from carmlab.factoring import DETERMINISTIC_WITNESS_BOUND, factorize, prime_check
from carmlab.korselt import chernick, enumerate_carmichael
from carmlab.randutil import uniform_below

# Chernick numbers (6m+1)(12m+1)(18m+1) of 65, 97, 129, 161, 200 and 256 bits.
# The 256-bit one has prime factors above DETERMINISTIC_WITNESS_BOUND.
CHERNICK_M = (242396, 393935691, 640341253625, 1040873858937815,
              10743143507188486016, 4470519183378038132861700)

# 128-bit inputs of the batched branches: a Chernick number, whose factors
# are proven primes, a semiprime and a p(2p - 1)
CHERNICK_128 = chernick(600000000561)
SEMIPRIME_128 = 240675183209732824508913163728904131481
P_2P_MINUS_1_128 = 255817307947078983013463192536477294453


def reference_sample_witnesses(n, t, rng, check):
    exponent = n - 1
    witnesses = []
    for _ in range(t):
        a = 1 + uniform_below(rng, n - 1)
        if pow(a, exponent, n) != 1:
            witnesses.append(a)
    return witnesses


def assert_same_draws(n, t, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    assert _sample_witnesses(n, t, rng, prime_check(n)) == \
        reference_sample_witnesses(n, t, reference_rng, prime_check(n)), \
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


def block_values(words):
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def assert_same_block(m, count, seed):
    rng, reference_rng = random.Random(seed), random.Random(seed)
    words = _uniform_words(rng, m, count)
    assert words.shape == (count, -(-m.bit_length() // 32))
    assert block_values(words) == [uniform_below(reference_rng, m) for _ in range(count)], \
        (m, count, seed)
    assert rng.getstate() == reference_rng.getstate(), (m, count, seed)


@pytest.mark.parametrize("bits", [33, 64, 65, 96, 127, 128, 129, 1024])
def test_block_draws_are_uniform_below_draws(bits):
    top = 1 << (bits - 1)
    for m in (random.Random(bits).getrandbits(bits) | top, 2 * top - 1, top):
        assert_same_block(m, 600, bits)


def test_block_draws_tied_on_the_top_word():
    # 2^96 + 2 has a 1-bit top word: every candidate's top word is 0 or 1,
    # and the half that tie with m's are settled on the three words below
    assert_same_block(2**96 + 2, 2000, 3)


@pytest.mark.parametrize("j", [1, 2, 3, 8])
def test_block_draws_just_above_a_word_boundary(j):
    # about half the candidates exceed 2^(32j) + 1, so the shortfall is
    # drawn again about log2(count) times
    assert_same_block((1 << 32 * j) + 1, 1000, j)


@settings(max_examples=200)
@given(m=st.integers(2, 2**1100), count=st.integers(1, 300), seed=st.integers(0, 2**64 - 1))
def test_block_draws_property(m, count, seed):
    assert_same_block(m, count, seed)


def test_batched_inputs_have_128_bits():
    assert {CHERNICK_128.bit_length(), SEMIPRIME_128.bit_length(),
            P_2P_MINUS_1_128.bit_length()} == {128}


@pytest.mark.parametrize("n, t, branches", [
    (CHERNICK_128, default_sample_size(CHERNICK_128), {"_product_tree"}),
    (CHERNICK_128, _BATCH + _BATCH_MIN + 1, {"_product_tree"}),
    (SEMIPRIME_128, _BATCH_MIN + 5, {"_fermat_liars", "_bases"}),
    (P_2P_MINUS_1_128, _BATCH_MIN + 5, {"_fermat_liars", "_bases"}),
    (561, 2000, {"_product_tree", "_bases"}),  # every block holds multiples of 3, 11 or 17
    (1105, 2000, {"_product_tree", "_bases"}),
])
def test_batched_branches(n, t, branches):
    called = set()
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_product_tree", "_fermat_liars", "_bases"):
            def spy(*args, name=name, original=getattr(detector, name)):
                called.add(name)
                return original(*args)
            patch.setattr(detector, name, spy)
        for seed in (0, 1):
            assert_same_draws(n, t, seed)
    assert called == branches


def prime_checks_of(n, run):
    """How often run() primality-checks n itself, through the detector or the histogram."""
    calls = []

    def counted(m):
        calls.append(m)
        return prime_check(m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detector, "prime_check", counted)
        patch.setattr(accuracy, "prime_check", counted)
        run()
    return calls.count(n)


# seeds whose first draw does not split n, so the proof attempt meets n unsplit
@pytest.mark.parametrize("n, seed", [(10585, 1), (10585, 17), (10585, 29),
                                     (chernick(640341253625), 22), (chernick(640341253625), 25)])
def test_verdict_checks_n_once(n, seed):
    cfg = DetectorConfig(t_override=40, rng_seed=seed)
    assert prime_checks_of(n, lambda: detect_carmichael_general(n, cfg)) == 1
    assert_same_verdict(detect_carmichael_general, n, cfg)


@pytest.mark.parametrize("n", [561, 10585, chernick(242396), chernick(640341253625)])
def test_histogram_checks_n_once(n):
    assert prime_checks_of(n, lambda: empirical_proportion_distribution(
        n, t=20, trials=10, seed=1)) == 1


@pytest.mark.parametrize("n", [561, 1105, CHERNICK_128, SEMIPRIME_128])
def test_histograms_of_batched_trials(n):
    # every trial draws a block from the one stream the trials share
    got = empirical_proportion_distribution(n, t=_BATCH_MIN + 88, trials=4, seed=11)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(accuracy, "_sample_witnesses", reference_sample_witnesses)
        want = empirical_proportion_distribution(n, t=_BATCH_MIN + 88, trials=4, seed=11)
    assert got.to_json_dict() == want.to_json_dict()
