import bisect
import dataclasses
import json
import math
import numbers
import random
import re
import time
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab import korselt
from carmlab.accuracy import (binomial_tail_exact, carmichael_prior,
                              empirical_proportion_distribution, posterior_composite_given,
                              posterior_general, prime_prior)
from carmlab.arith import natural_log_squared_floor
from carmlab.bench import composite_for_bits, run_benchmark
from carmlab.bound import bound_closed_form, bound_curve, prime_factor_bound
from carmlab.census import census_brute_force, census_exact, classify_witness
from carmlab.detector import DetectorConfig, default_sample_size, detect_carmichael_general
from carmlab.errors import CapExceededError, DomainError
from carmlab.factoring import Factorization, factorize, is_prime, prime_check, primes_up_to
from carmlab.korselt import (SIEVE_HI_CAP, CarmichaelCertificate, chernick,
                             enumerate_carmichael, enumerate_carmichael_range,
                             is_carmichael)

CARMICHAELS_TO_1E5 = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                      29341, 41041, 46657, 52633, 62745, 63973, 75361]
# Pinch, "The Carmichael numbers up to 10^21" (OEIS A055553)
PINCH_COUNTS = {10**6: 43, 10**7: 105, 10**8: 255}


def definitional_carmichael(n):
    """Oracle straight from the definition: composite, and every coprime
    base satisfies a^(n-1) == 1 (mod n)."""
    if n < 4:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        return False  # prime
    return all(pow(a, n - 1, n) == 1
               for a in range(2, n) if math.gcd(a, n) == 1)


class TestIsCarmichael:
    def test_classic_certificate(self):
        cert = is_carmichael(561)
        assert cert
        assert cert.squarefree
        assert cert.divisibility_checks == ((3, True), (11, True), (17, True))

    def test_21_fails_one_divisibility_check(self):
        cert = is_carmichael(21)
        assert not cert
        assert cert.divisibility_checks == ((3, True), (7, False))

    def test_taxicab_number(self):
        assert is_carmichael(1729)

    def test_primes_and_one_are_not_carmichael(self):
        for n in (1, 2, 3, 97, 10979):
            assert not is_carmichael(n)

    def test_square_factor_disqualifies(self):
        assert not is_carmichael(4)
        assert not is_carmichael(9)
        assert not is_carmichael(561 * 3)  # 3^2 divides it

    def test_accepts_precomputed_factorization(self):
        cert = is_carmichael(561, factorize(561))
        assert cert and cert.n == 561

    def test_factorization_subject_mismatch_rejected(self):
        with pytest.raises(DomainError):
            is_carmichael(561, factorize(562))

    def test_non_positive_rejected(self):
        with pytest.raises(DomainError):
            is_carmichael(0)

    def test_matches_definitional_oracle_to_3000(self):
        for n in range(1, 3001):
            assert bool(is_carmichael(n)) == definitional_carmichael(n), n

    def test_certificate_json(self):
        record = is_carmichael(561).to_json_dict()
        assert record["is_carmichael"] is True
        assert record["factors"] == [[3, 1], [11, 1], [17, 1]]
        assert record["squarefree"] is True


class TestChernick:
    def test_first_member(self):
        assert chernick(1) == 1729

    def test_composite_factor_yields_nothing(self):
        assert chernick(2) is None  # 12*2+1 = 25 is square

    def test_m_six(self):
        assert chernick(6) == 37 * 73 * 109 == 294409

    def test_every_product_is_carmichael(self):
        produced = [(m, chernick(m)) for m in range(1, 301)]
        hits = [(m, n) for m, n in produced if n is not None]
        assert hits, "expected at least one prime triple below m = 300"
        for _, n in hits:
            assert is_carmichael(n), n

    def test_below_one_rejected(self):
        with pytest.raises(DomainError):
            chernick(0)


class TestEnumerate:
    def test_first_three(self):
        assert enumerate_carmichael(2000) == [561, 1105, 1729]

    def test_below_smallest_is_empty(self):
        assert enumerate_carmichael(500) == []
        assert enumerate_carmichael(0) == []

    def test_full_list_to_1e5(self):
        assert enumerate_carmichael(100_000) == CARMICHAELS_TO_1E5

    def test_inclusive_limit(self):
        assert enumerate_carmichael(561) == [561]
        assert enumerate_carmichael(560) == []

    def test_above_cap_rejected(self):
        with pytest.raises(CapExceededError):
            enumerate_carmichael(10**9)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            enumerate_carmichael(-1)

    @given(st.integers(0, 30_000), st.integers(0, 30_000))
    @settings(max_examples=30)
    def test_prefix_consistency(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert enumerate_carmichael(hi)[:len(enumerate_carmichael(lo))] \
            == enumerate_carmichael(lo)

    def test_structural_properties_of_output(self):
        for n in enumerate_carmichael(100_000):
            assert n % 2 == 1
            f = factorize(n)
            assert f.squarefree
            assert len(f.factors) >= 3

    def test_range_split_matches_full_scan(self):
        full = enumerate_carmichael(100_000)
        split = enumerate_carmichael_range(3, 50_000) \
            + enumerate_carmichael_range(50_001, 100_000)
        assert split == full

    def test_range_handles_even_bounds(self):
        assert enumerate_carmichael_range(560, 562) == [561]
        assert enumerate_carmichael_range(562, 1106) == [1105]

    @pytest.mark.parametrize("lo, hi", [(2**63 - 10, 2**63), (3, SIEVE_HI_CAP + 1)])
    def test_range_above_sieve_cap_rejected_at_once(self, lo, hi):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            enumerate_carmichael_range(lo, hi)
        assert time.perf_counter() - start < 1

    def test_pinch_counts_to_1e8(self, carmichaels_to_1e8):
        counts = {limit: bisect.bisect_right(carmichaels_to_1e8, limit)
                  for limit in PINCH_COUNTS}
        assert counts == PINCH_COUNTS

    @pytest.mark.slow
    def test_pinch_count_to_1e9(self):
        # about 0.7 s on a shared 2-CPU Xeon; run with `pytest -m slow`
        assert len(enumerate_carmichael_range(3, 10**9)) == 646

    @pytest.mark.slow
    def test_pinch_count_to_1e10(self):
        # about 7.5 s on a shared 2-CPU Xeon; run with `pytest -m slow`
        assert len(enumerate_carmichael_range(3, 10**10)) == 1547


def reference_scan_block(lo, hi, primes):
    """The per-multiple sieve that _scan_block replaced: every multiple of
    every sieving prime is divided by p, reduced mod p^2 and mod p - 1."""
    count = (hi - lo) // 2 + 1
    n_vals = lo + 2 * np.arange(count, dtype=np.int64)
    remainder = n_vals.copy()
    ok = np.ones(count, dtype=bool)
    distinct = np.zeros(count, dtype=np.int64)
    for p in primes:
        if p * p > hi:
            break
        first = ((lo + p - 1) // p) * p
        if first % 2 == 0:
            first += p
        if first > hi:
            continue
        # odd multiples of p sit p index positions apart
        sl = slice((first - lo) // 2, count, p)
        nv = n_vals[sl]
        if p > 3:  # (n-1) % 2 == 0 always holds for odd n
            ok[sl] &= (nv - 1) % (p - 1) == 0
        ok[sl] &= nv % (p * p) != 0  # squarefree
        remainder[sl] //= p
        distinct[sl] += 1
    # what survives division is either 1 or a single prime above sqrt(hi)
    has_residual = remainder > 1
    ok &= distinct + has_residual >= 2  # composite: at least two distinct primes
    pending = ok & has_residual
    ok[pending] = (n_vals[pending] - 1) % (remainder[pending] - 1) == 0
    return n_vals[ok].tolist()


def reference_range(lo, hi):
    with mock.patch.object(korselt, "_scan_block", reference_scan_block):
        return enumerate_carmichael_range(lo, hi)


def assert_sieves_agree(lo, hi):
    listing = enumerate_carmichael_range(lo, hi)
    assert listing == reference_range(lo, hi), (lo, hi)
    return listing


class TestSieveAgainstReference:
    def test_every_small_lo(self):
        # blocks that hold n = p itself and the first multiples of p^2
        for lo in range(1200):
            for width in (0, 1, 7, 60, 500, 4000):
                assert_sieves_agree(lo, lo + width)

    def test_random_windows_below_3e6(self):
        rng = random.Random(2007)
        for _ in range(150):
            lo = rng.randrange(3 * 10**6)
            assert_sieves_agree(lo, lo + rng.randrange(300_000))

    def test_windows_around_chernick_numbers(self):
        numbers = [n for n in map(chernick, range(80, 400)) if n and 10**9 <= n <= 10**11]
        assert len(numbers) == 9
        for n in numbers:
            assert n in assert_sieves_agree(n - 500_000, n + 500_000)

    def test_window_at_1e12(self):
        assert_sieves_agree(10**12, 10**12 + 10**6)

    def test_window_below_1e10(self):
        assert_sieves_agree(10**10 - 2 * 10**6, 10**10)

    @pytest.mark.parametrize("p", [1031, 4099, 9973])
    def test_windows_around_powers_of_a_large_prime(self, p):
        # 1031 is the least prime whose progression n = p (mod p(p - 1))
        # steps over more than a full block's 2^19 odd slots, so these primes
        # are recorded by the one numpy scatter; p^2 and p^3 both lie on
        # that progression, and only p is recorded on them
        for n in (p**2, p**3):
            assert n not in assert_sieves_agree(n - 2**20, n + 2**20)

    def test_single_value_windows(self):
        # a one-slot block makes every sieving prime large, so the product
        # test alone decides: 45441 = 3^5 * 11 * 17 records 3 * 11 * 17 and
        # 238855 = 5 * 23 * 31 * 67 records 23 * 67, products short of n by
        # the factors 81 and 155 that pass (r - 1) | (n - 1)
        for center in (45441, 238855):
            for n in range(center - 100, center + 101):
                assert_sieves_agree(n, n)

    @given(st.integers(0, 10**7), st.integers(0, 300_000))
    @settings(max_examples=40)
    def test_random_window_property(self, lo, width):
        assert_sieves_agree(lo, lo + width)

    @pytest.mark.parametrize("lo", [0, 1, 2, 3, 4, 5, 7, 9, 11, 13, 14, 15, 169, 171])
    def test_windows_past_one_presieve_period(self, lo):
        # 30,030 odd slots carry the pattern of the primes 3 to 13, so a
        # window of 60,060 integers or more holds a copied period; the lo
        # values put n = p, p^2 and the slots before them at the window start
        for width in (60_060, 70_001):
            assert_sieves_agree(lo, lo + width)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_seeded_tiles_give_the_list_to_1e8(self, seed, carmichaels_to_1e8):
        # 2^20-integer tiles with a seeded first edge, as the benchmark's
        # sieve passes cut [3, 10^8]: each tile meets the period at its own phase
        tile = 1 << 20
        edges = [3] + list(range(3 + random.Random(seed).randrange(1, tile), 10**8 + 1, tile))
        edges.append(10**8 + 1)
        listing = [n for a, b in zip(edges, edges[1:])
                   for n in enumerate_carmichael_range(a, b - 1)]
        assert listing == carmichaels_to_1e8


def leaked_integers(value) -> list:
    """The integers inside value (a number, or a dataclass, Fraction, dict,
    list or tuple of them, at any depth) that are not Python ints."""
    if isinstance(value, numbers.Integral):
        return [] if type(value) in (int, bool) else [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    elif isinstance(value, Fraction):
        value = [value.numerator, value.denominator]
    elif isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return [x for item in value for x in leaked_integers(item)]
    return []


class TestIntegerArguments:
    """Every integer argument of the library passes through errors.integer:
    a table of fn(*args(value)) calls, one per gated argument, each in its
    domain at value = 600 unless ACCEPTED names another value."""

    CALLS = [(is_carmichael, "n", lambda v: (v,)),
             (chernick, "m", lambda v: (v,)),
             (enumerate_carmichael, "limit", lambda v: (v,)),
             (enumerate_carmichael_range, "lo", lambda v: (v, 1000)),
             (enumerate_carmichael_range, "hi", lambda v: (3, v)),
             (natural_log_squared_floor, "n", lambda v: (v,)),
             (default_sample_size, "n", lambda v: (v,)),
             (DetectorConfig, "t", lambda v: (v,)),
             (DetectorConfig, "seed", lambda v: (None, Fraction(9, 20), v)),
             (detect_carmichael_general, "n", lambda v: (v,)),
             (classify_witness, "a", lambda v: (v, 1000)),
             (classify_witness, "n", lambda v: (7, v)),
             (census_brute_force, "n", lambda v: (v,)),
             (census_exact, "n", lambda v: (v, factorize(600))),
             (prime_check, "n", lambda v: (v,)),
             (is_prime, "n", lambda v: (v,)),
             (factorize, "n", lambda v: (v,)),
             (primes_up_to, "limit", lambda v: (v,)),
             (Factorization, "subject", lambda v: (v, ((2, 3), (3, 1), (5, 2)))),
             (Factorization, "factor", lambda v: (601, ((v, 1),))),
             (Factorization, "exponent of 2", lambda v: (2**600, ((2, v),))),
             (bound_curve, "n", lambda v: (2, v)),
             (prime_factor_bound, "n", lambda v: (v,)),
             (bound_closed_form, "n", lambda v: (v,)),
             (carmichael_prior, "bit_length", lambda v: (v,)),
             (prime_prior, "bit_length", lambda v: (v,)),
             (posterior_composite_given, "t", lambda v: (v,)),
             (posterior_composite_given, "bit_length", lambda v: (40, Fraction(9, 20), v)),
             (empirical_proportion_distribution, "n", lambda v: (v, None, 5, 10)),
             (empirical_proportion_distribution, "t", lambda v: (561, None, v, 10)),
             (empirical_proportion_distribution, "trials", lambda v: (561, None, 5, v)),
             (empirical_proportion_distribution, "seed", lambda v: (561, None, 5, 10, v)),
             (binomial_tail_exact, "t", lambda v: (Fraction(1, 2), v, Fraction(1, 2))),
             (composite_for_bits, "bits", lambda v: (v,)),
             (composite_for_bits, "seed", lambda v: (64, v)),
             (run_benchmark, "bits", lambda v: ((16, v), 1, 1)),
             (run_benchmark, "t", lambda v: ((16, 32), v, 1)),
             (run_benchmark, "repeats", lambda v: ((16, 32), 1, v)),
             (run_benchmark, "seed", lambda v: ((16, 32), 1, 1, v))]
    # 600 is not prime, and 600 timing repeats would take seconds
    ACCEPTED = {"factor": 601, "repeats": 1}

    @pytest.mark.parametrize("value", [600.0, "600"])
    @pytest.mark.parametrize("fn, name, args", CALLS)
    def test_non_integers_rejected(self, fn, name, args, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
            fn(*args(value))

    @pytest.mark.parametrize("fn, name, args", CALLS)
    def test_numpy_integers_give_python_ints(self, fn, name, args):
        value = self.ACCEPTED.get(name, 600)
        for v in (value, np.int64(value)):
            result = fn(*args(v))
            if hasattr(result, "to_json_dict"):
                result = result.to_json_dict()
                json.dumps(result)
            assert leaked_integers(result) == []

    def test_inputs_that_leaked_before_the_gate(self):
        for call in (lambda: is_prime(7.5), lambda: factorize(561.0),
                     lambda: DetectorConfig(rng_seed=1.5),
                     lambda: Factorization(6.0, ((2, 1), (3, 1)))):
            with pytest.raises(DomainError, match="must be an integer"):
                call()
        assert json.loads(json.dumps(census_brute_force(np.int64(561)).to_json_dict())) == \
            census_brute_force(561).to_json_dict()
        assert detect_carmichael_general(np.int64(561)) == detect_carmichael_general(561)

    def test_ints_and_numpy_integers_accepted(self):
        for n in (561, np.int64(561), np.uint16(561)):
            cert = is_carmichael(n)
            assert cert and cert.n == 561 and type(cert.n) is int
        assert chernick(np.int32(1)) == 1729
        assert enumerate_carmichael(np.int64(2000)) == [561, 1105, 1729]
        assert enumerate_carmichael_range(np.int64(560), np.uint32(1106)) == [561, 1105]


class TestRationalArguments:
    """Every rational argument of the library passes through errors.rational:
    a table of fn(*args(value)) calls, one per gated argument, and kept(result),
    the Fraction the call stored; the exact tail stores none, so its kept
    value is the tail itself."""

    CALLS = [(DetectorConfig, "threshold", lambda v: (None, v), lambda r: r.threshold),
             (posterior_composite_given, "threshold", lambda v: (40, v),
              lambda r: r.threshold),
             (posterior_general, "threshold", lambda v: (40, v), lambda r: r.threshold),
             (posterior_composite_given, "fraction_A", lambda v: (40, Fraction(9, 20), 64, v),
              lambda r: r.fraction_A),
             (posterior_general, "fraction_A", lambda v: (40, Fraction(9, 20), 64, v),
              lambda r: r.fraction_A),
             (posterior_composite_given, "fraction_B",
              lambda v: (40, Fraction(9, 20), 64, None, v), lambda r: r.fraction_B),
             (posterior_general, "fraction_B", lambda v: (40, Fraction(9, 20), 64, None, v),
              lambda r: r.fraction_B),
             (binomial_tail_exact, "threshold", lambda v: (v, 40, Fraction(1, 2)), None),
             (binomial_tail_exact, "witness_fraction", lambda v: (Fraction(9, 20), 40, v),
              None)]
    # an int inside each closed domain; a threshold's (0, 1) holds none
    INTEGER = {"fraction_A": 0, "fraction_B": 0, "witness_fraction": 1}

    @pytest.mark.parametrize("value", ["abc", float("nan"), float("inf"), float("-inf"),
                                       "1/0", np.float32(0.25), None])
    @pytest.mark.parametrize("fn, name, args, kept", CALLS)
    def test_non_rationals_rejected(self, fn, name, args, kept, value):
        if value is None and name.startswith("fraction_"):  # the default, the worst case
            assert kept(fn(*args(value))) == Fraction(1, 2)
            return
        message = f"^{re.escape(f'{name} must be a rational, got {value!r}')}$"
        with pytest.raises(DomainError, match=message):
            fn(*args(value))

    @pytest.mark.parametrize("fn, name, args, kept", CALLS)
    def test_exact_fraction_kept(self, fn, name, args, kept):
        values = [Fraction(9, 20), 0.45, np.float64(0.45), Decimal("0.45"), "9/20",
                  Decimal("4.5e-1"), "4.5e-1", " 45E-2 "]
        if name in self.INTEGER:
            values.append(self.INTEGER[name])
        for value in values:
            result = fn(*args(value))
            if kept is None:  # the tail equals the tail at the exact Fraction
                got, want = result, fn(*args(Fraction(value)))
            else:
                got, want = kept(result), Fraction(value)
            assert got == want and type(got) is Fraction
            assert leaked_integers(got) == []

    @pytest.mark.parametrize("fn, name, args, kept", CALLS)
    def test_bounds(self, fn, name, args, kept):
        if name == "threshold":
            refusals = {0: "threshold must lie in (0, 1), got 0",
                        1: "threshold must lie in (0, 1), got 1",
                        "3/2": "threshold must lie in (0, 1), got 3/2"}
        else:
            refusals = {"-1/2": f"{name} must be >= 0, got -1/2",
                        Fraction(3, 2): f"{name} must be <= 1, got 3/2"}
        for value, message in refusals.items():
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                fn(*args(value))

    @pytest.mark.parametrize("fn, name, args, kept", CALLS)
    def test_huge_decimal_scale_refused_fast(self, fn, name, args, kept):
        # Fraction() would build 10^(10^7) first, which takes seconds
        for value in ("1e-10000000", "-1E+10_000_000 ", Decimal("1e-10000000"),
                      "1e-" + "9" * 5000, "4.5e-10001", "1e-4001", "1e4001",
                      "0." + "0" * 4000 + "1", "0." + "0" * 3999 + "1e-1", Decimal("1e-4001")):
            start = time.perf_counter()
            with pytest.raises(DomainError, match=f"^{re.escape(name)} must have at most 4000 "
                                                  "decimal places and an exponent of at most "
                                                  "4000"):
                fn(*args(value))
            assert time.perf_counter() - start < 0.1

    def test_decimal_scale_at_the_bound_is_written_out(self):
        # a denominator of 10^4000 has 4,001 digits, within str()'s 4,300
        for value in ("1e-4000", "0." + "0" * 3999 + "1", "0.1e-3999", Decimal("1e-4000")):
            threshold = DetectorConfig(threshold=value).threshold
            assert threshold == Fraction(1, 10**4000)
            assert str(threshold) == "1/1" + "0" * 4000

    def test_numpy_integers_give_python_ints(self):
        # Fraction(np.int64(1)) keeps a numpy numerator, which overflowed
        # the exact tail's powers and could not be written as JSON
        assert binomial_tail_exact(Fraction(9, 20), 100, np.int64(1)) == 0
        report = posterior_general(40, fraction_A=np.int64(0), fraction_B=np.int64(1))
        assert leaked_integers(report) == []
        json.dumps(report.to_json_dict())
        threshold = DetectorConfig(threshold=Fraction(np.int64(9), np.int64(20))).threshold
        assert threshold == Fraction(9, 20) and leaked_integers(threshold) == []


def test_integer_maximum_names_the_argument():
    for call, message in ((lambda: classify_witness(1000, 1000), "a must be <= 999, got 1000"),
                          (lambda: classify_witness(0, 1000), "a must be >= 1, got 0"),
                          (lambda: binomial_tail_exact(Fraction(9, 20), 10_001, Fraction(1, 2)),
                           "t must be <= 10000, got 10001")):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()
    assert classify_witness(999, 1000).value == "NonTrivialWitness"  # a = n - 1 is in range


class TestCertificateType:
    def test_truthiness_follows_criterion(self):
        cert = is_carmichael(561)
        assert isinstance(cert, CarmichaelCertificate)
        assert bool(cert) is cert.is_carmichael is True
