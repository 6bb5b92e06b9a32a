"""The detector's batched Fermat test and the batches its sampler forms.

_fermat_liars is checked against pow(a, n - 1, n) == 1 whatever the
dispatch in _sample_witnesses would choose; the sampler is checked against
the definition of its output, the Fermat witnesses among its draws in
draw order, on each side of every dispatch boundary.
"""

import hashlib
import math
import random

import numpy as np
import pytest
from conftest import builtin_calls_by_module
from hypothesis import given
from hypothesis import strategies as st

from carmlab.detector import (_BATCH, _BATCH_MAX_BITS, _BATCH_MIN, _LIMB_BITS, DetectorConfig,
                              _base_limbs, _fermat_liars, _limb_count, _product_tree,
                              _sample_witnesses, _to_limbs, default_sample_size,
                              detect_carmichael_general)
from carmlab.korselt import chernick
from carmlab.randutil import uniform_below


def fermat_witnesses(n: int, t: int, seed: int) -> list[int]:
    """The draws a of _sample_witnesses(n, t, Random(seed)) with a^(n-1) != 1 mod n."""
    rng = random.Random(seed)
    draws = [1 + uniform_below(rng, n - 1) for _ in range(t)]
    return [a for a in draws if pow(a, n - 1, n) != 1]


def kernel_liars(bases: list[int], n: int) -> list[bool]:
    """_fermat_liars over bases given as Python ints."""
    return _fermat_liars(_to_limbs(bases, _limb_count(n)), n).tolist()


def detector_calls(builtin, fn, *args) -> int:
    """Calls of builtin made from carmlab.detector while fn runs."""
    return builtin_calls_by_module(builtin, fn, *args)["carmlab.detector"]


@st.composite
def modulus_and_bases(draw):
    """An odd n in [3, 2^_BATCH_MAX_BITS) with a known factor, and bases
    that include 1, n - 1 and multiples of that factor."""
    bits = draw(st.integers(2, _BATCH_MAX_BITS))
    factor = draw(st.integers(1, (1 << (bits // 2)) - 1)) | 1
    cofactor_bits = bits - factor.bit_length()
    cofactor = draw(st.integers(1, (1 << max(cofactor_bits, 1)) - 1)) | 1
    n = max(factor * cofactor, 3)
    bases = [1, n - 1] + draw(st.lists(st.integers(0, n - 1), max_size=12))
    bases += [factor * j % n for j in draw(st.lists(st.integers(1, n - 1), max_size=6))]
    return n, bases


# moduli whose exponent n - 1 has a bit pattern that the 4-bit window walk
# must handle at its edges
WINDOW_STRESS = {
    "2^m+1": lambda m: 2**m + 1,  # n - 1 is a one bit and then zeros
    "2^m-1": lambda m: 2**m - 1,  # ones and a final zero: full windows
    "3*2^m+1": lambda m: 3 * 2**m + 1,  # one window, 11, and then zeros
    "alternating": lambda m: int("10" * m, 2) + 1,  # windows 101 with a zero between
}


class TestKernel:
    @given(modulus_and_bases())
    def test_matches_pow(self, case):
        n, bases = case
        assert kernel_liars(bases, n) == [pow(a, n - 1, n) == 1 for a in bases]

    # the odd n from 3 to 33 have exponents of 2 to 6 bits, around one 4-bit window
    @pytest.mark.parametrize("n", sorted({243, 561, 1105, 1729, 2821, 3 * 5 * 7, 7**3 * 11}
                                         | set(range(3, 34, 2))))
    def test_every_base_of_small_moduli(self, n):
        bases = list(range(n))
        assert kernel_liars(bases, n) == [pow(a, n - 1, n) == 1 for a in bases]

    @pytest.mark.parametrize("m", [16, 61, 62, 63, 64, 127])
    @pytest.mark.parametrize("family", WINDOW_STRESS)
    def test_exponents_that_stress_the_window(self, family, m):
        # m from 61 to 64 varies the exponent's length mod 4
        n = WINDOW_STRESS[family](m)
        rng = random.Random(m)
        bases = [1, 2, n - 2, n - 1] + [rng.randrange(n) for _ in range(40)]
        assert kernel_liars(bases, n) == [pow(a, n - 1, n) == 1 for a in bases]

    def test_a_chernick_number_whose_units_are_all_liars(self):
        n = chernick(640341253625)  # 128 bits, (6m+1)(12m+1)(18m+1)
        rng = random.Random(5)
        bases = [1 + uniform_below(rng, n - 1) for _ in range(600)] + [6 * 640341253625 + 1]
        liars = kernel_liars(bases, n)
        assert liars == [pow(a, n - 1, n) == 1 for a in bases]
        assert liars[-1] is False and liars.count(True) >= 590

    @pytest.mark.parametrize("bits", [_LIMB_BITS - 2, _LIMB_BITS - 1, _LIMB_BITS, _LIMB_BITS + 1,
                                      2 * _LIMB_BITS - 2, 2 * _LIMB_BITS, _BATCH_MAX_BITS])
    def test_moduli_at_limb_boundaries(self, bits):
        # R = 2^(28k) > 4n sets the limb count k; these n sit at its steps
        rng = random.Random(bits)
        top = 1 << (bits - 1)
        for n in (2 * top - 1, top + 1, rng.getrandbits(bits) | top | 1):
            bases = [1, 2, n - 2, n - 1] + [rng.randrange(n) for _ in range(40)]
            assert kernel_liars(bases, n) == [pow(a, n - 1, n) == 1 for a in bases]

    def test_column_sums_fit_uint64_at_the_largest_routed_modulus(self):
        # A column of the Montgomery product sums k limb products from x * y,
        # k from q * n, and the carry out of the column below; every limb is
        # below 2^28 and k is the least with 2^(28k) > 4n. A squaring's
        # column holds the same sum, each doubled cross product 2 * x_i * x_j
        # standing for x_i * x_j and x_j * x_i. Below, n's limbs are all
        # ones, which maximises the q * n terms, and the walk over n - 1
        # runs a squaring for each of its bits after the first window.
        k = -(-(_BATCH_MAX_BITS + 2) // _LIMB_BITS)
        limb = (1 << _LIMB_BITS) - 1
        products = 2 * k * limb * limb
        carry = products // limb + 1  # carry <= (products + carry) / 2^28
        assert products + carry < 1 << 64
        n = (1 << _BATCH_MAX_BITS) - 1
        bases = [n - 1, n - 2, (1 << (_BATCH_MAX_BITS - 1)) - 1, 1]
        assert kernel_liars(bases, n) == [pow(a, n - 1, n) == 1 for a in bases]



class TestBlockLimbs:
    @pytest.mark.parametrize("bits", [33, 64, 65, 127, 128, 129, 1024])
    def test_one_plus_each_row_with_every_carry(self, bits):
        # 1 + v carries out of one limb, out of a 64-bit chunk, and through
        # every limb up to the top one
        n = (1 << bits) + 1
        w, k = -(-bits // 32), _limb_count(n)
        values = [0, 1, (1 << _LIMB_BITS) - 1, (1 << 56) - 1, (1 << 64) - 1,
                  (1 << bits) - 1, (1 << bits) - 2, random.Random(bits).getrandbits(bits)]
        values = [v for v in values if v < n - 1]
        raw = b"".join(v.to_bytes(4 * w, "little") for v in values)
        words = np.frombuffer(raw, dtype="<u4").reshape(len(values), w)
        assert (_base_limbs(words, k) == _to_limbs([1 + v for v in values], k)).all()

    @pytest.mark.parametrize("n, factor", [(3 * 5 * 7, 7), (561, 17),
                                           (chernick(640341253625), 6 * 640341253625 + 1),
                                           ((1 << 1024) - 1, 3)])
    def test_product_tree_keeps_the_gcd(self, n, factor):
        # widths that leave an odd column out at some level
        rng = random.Random(n)
        k = _limb_count(n)
        for count in (600, 777, 1001, 2 * _BATCH_MIN + 1):
            bases = [rng.randrange(1, n) for _ in range(count)]
            for planted in (None, factor * rng.randrange(1, n // factor)):
                if planted:
                    bases[rng.randrange(count)] = planted
                want = math.gcd(math.prod(bases) % n, n)
                assert math.gcd(_product_tree(_to_limbs(bases, k), n), n) == want
                assert want != 1 or planted is None


    @pytest.mark.parametrize("count", [600, 777, 1001])
    def test_product_tree_reads_every_column(self, count):
        # a single base sharing a factor with n, at each position in turn,
        # including those left over as an odd column out
        n = 561
        for position in range(count):
            bases = [2] * count
            bases[position] = 17
            assert math.gcd(_product_tree(_to_limbs(bases, 1), n), n) == 17, position

# a 64-bit semiprime: its proof attempt makes one draw, a coprime witness
SEMIPRIME_64 = 12186276502464459599


class TestBatches:
    @pytest.mark.parametrize("batch", [_BATCH - 1, _BATCH, _BATCH + 1])
    def test_around_one_batch(self, batch):
        t = 1 + batch
        assert _sample_witnesses(SEMIPRIME_64, t, random.Random(3)) == \
            fermat_witnesses(SEMIPRIME_64, t, 3)

    @pytest.mark.parametrize("batch, pows", [
        (_BATCH_MIN - 1, _BATCH_MIN),  # the proof attempt's pow, then one per draw
        (_BATCH_MIN, 1),
        (_BATCH + _BATCH_MIN - 1, 1 + _BATCH_MIN - 1),  # a short last batch pays pow
        (2 * _BATCH, 1),
    ])
    def test_batch_size_boundary(self, batch, pows):
        t = 1 + batch
        assert detector_calls(pow, _sample_witnesses, SEMIPRIME_64, t, random.Random(4)) == pows
        assert _sample_witnesses(SEMIPRIME_64, t, random.Random(4)) == \
            fermat_witnesses(SEMIPRIME_64, t, 4)

    def test_even_n_pays_one_pow_per_draw(self):
        n, t = 2 * SEMIPRIME_64, 1 + _BATCH_MIN
        assert detector_calls(pow, _sample_witnesses, n, t, random.Random(6)) == t
        assert _sample_witnesses(n, t, random.Random(6)) == fermat_witnesses(n, t, 6)

    @pytest.mark.parametrize("bits, routed", [(_BATCH_MAX_BITS, True),
                                              (_BATCH_MAX_BITS + 1, False)])
    def test_modulus_size_boundary(self, bits, routed):
        # odd and composite; the proof attempt ends within 20 draws on this seed
        n, t = (1 << bits) - 1, _BATCH_MIN + 20
        pows = detector_calls(pow, _sample_witnesses, n, t, random.Random(8))
        assert (pows < t) is routed
        assert _sample_witnesses(n, t, random.Random(8)) == fermat_witnesses(n, t, 8)


class TestProvenCarmichael:
    def test_draws_sharing_a_factor_are_found(self):
        # every batch of 561's draws holds multiples of 3, 11 or 17
        t = 2 * _BATCH + 3
        assert _sample_witnesses(561, t, random.Random(1)) == fermat_witnesses(561, t, 1)

    def test_coprime_batches_cost_one_gcd(self):
        n = chernick(640341253625)
        t = default_sample_size(n)
        assert _sample_witnesses(n, t, random.Random(2)) == fermat_witnesses(n, t, 2) == []
        # one per draw would be 7,871
        assert detector_calls(math.gcd, _sample_witnesses, n, t, random.Random(2)) < 100


# Verdicts at the default t before the batch test existed: (label, t,
# witnesses_found, evidence) for 64- and 128-bit semiprimes and p(2p - 1).
RECORDED = {
    (12186276502464459599, 0): ("OtherComposite", 1931, 1931, (7106521602475165646, 1)),
    (12298658091772237637, 5): ("OtherComposite", 1932, 1932, (4712128852136459334, 1)),
    (240675183209732824508913163728904131481, 0):
        ("OtherComposite", 7810, 7810, (47392387440050222334387056025351624212, 1)),
    (175742092974804675341856445822813852321, 5):
        ("OtherComposite", 7754, 7754, (122003312826609799601279071269261048902, 1)),
    (10529473796631697753, 0): ("OtherComposite", 1918, 951, (746805015404516438, 1)),
    (10529473796631697753, 5): ("OtherComposite", 1918, 947, (6613812840851947674, 1)),
    (255817307947078983013463192536477294453, 0):
        ("OtherComposite", 7821, 3985, (50008373285823983300663084911247910303, 1)),
    (255817307947078983013463192536477294453, 5):
        ("OtherComposite", 7821, 3918, (122003312826609799601279071269261048902, 1)),
}

# sha256 over ",".join of the witnesses of _sample_witnesses(n, t, Random(0))
# at the default t, recorded the same way, for the two p(2p - 1)
RECORDED_WITNESS_DIGESTS = {
    10529473796631697753: "64bd191cceacc24c71509c001b78a448857a94186da58de8a69ded0975bdefc1",
    255817307947078983013463192536477294453:
        "6eb247bad2ba33f2cc817b60b50e38bfa0b834c8f1bcf408b870f85db10f02df",
}


@pytest.mark.parametrize("n, seed", RECORDED)
def test_recorded_verdicts(n, seed):
    verdict = detect_carmichael_general(n, DetectorConfig(rng_seed=seed))
    assert (verdict.label.value, verdict.sample_size, verdict.witnesses_found,
            verdict.evidence) == RECORDED[n, seed]


@pytest.mark.parametrize("n", RECORDED_WITNESS_DIGESTS)
def test_recorded_witness_lists(n):
    witnesses = _sample_witnesses(n, default_sample_size(n), random.Random(0))
    digest = hashlib.sha256(",".join(map(str, witnesses)).encode()).hexdigest()
    assert digest == RECORDED_WITNESS_DIGESTS[n]
