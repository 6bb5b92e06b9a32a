import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab.errors import DomainError, FactorizationError
from carmlab.factoring import (DETERMINISTIC_WITNESS_BOUND, FactorBudget,
                               Factorization, euler_phi, factorize, is_prime,
                               _small_primes, prime_check, primes_up_to)


def trial_factorize(n):
    """Oracle: plain trial division."""
    factors = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


class TestFactorize:
    def test_classic_carmichael(self):
        assert dict(factorize(561).factors) == {3: 1, 11: 1, 17: 1}

    def test_smallest_input(self):
        assert dict(factorize(2).factors) == {2: 1}

    def test_catalog_entry(self):
        expected = {3: 1, 5: 1, 17: 1, 23: 1, 83: 1, 353: 1, 10979: 1}
        assert dict(factorize(1886616373665).factors) == expected

    def test_below_two_rejected(self):
        for n in (1, 0, -5):
            with pytest.raises(DomainError):
                factorize(n)

    def test_product_invariant_exhaustive(self):
        for n in range(2, 100_001):
            f = factorize(n)
            assert math.prod(p**e for p, e in f.factors) == n

    @given(st.integers(2, 2**64 - 1))
    @settings(max_examples=25)
    def test_product_invariant_random_64_bit(self, n):
        f = factorize(n)
        assert math.prod(p**e for p, e in f.factors) == n

    @given(st.integers(2, 10**9))
    @settings(max_examples=40)
    def test_matches_trial_division_oracle(self, n):
        assert dict(factorize(n).factors) == trial_factorize(n)

    def test_rho_on_semiprime_beyond_trial_range(self):
        p, q = 1_000_003, 1_000_033
        assert dict(factorize(p * q).factors) == {p: 1, q: 1}

    def test_budget_exhaustion_names_the_unsplit_composite(self):
        p = 2305843009213693951          # 2^61 - 1
        q = 4611686018427387847          # prime near 2^62
        n = 3 * p * q
        tiny = FactorBudget(rho_restarts=1, rho_max_steps=8)
        with pytest.raises(FactorizationError, match=f"cofactor {p * q}$"):
            factorize(n, tiny)

    def test_ordering_and_exponents(self):
        f = factorize(2**4 * 3**2 * 97)
        assert f.factors == ((2, 4), (3, 2), (97, 1))
        assert not f.squarefree
        assert f.smallest_prime == 2


class TestFactorizationInvariants:
    def test_wrong_product_rejected(self):
        with pytest.raises(DomainError):
            Factorization(10, ((2, 1), (3, 1)))

    def test_composite_factor_rejected(self):
        with pytest.raises(DomainError):
            Factorization(12, ((4, 1), (3, 1)))

    def test_unsorted_factors_rejected(self):
        with pytest.raises(DomainError):
            Factorization(6, ((3, 1), (2, 1)))

    def test_zero_exponent_rejected(self):
        with pytest.raises(DomainError):
            Factorization(3, ((2, 0), (3, 1)))

    def test_empty_factorization_of_one(self):
        assert Factorization(1, ()).factors == ()


class TestEulerPhi:
    def test_worked_examples(self):
        assert euler_phi(factorize(561)) == 320
        assert euler_phi(factorize(1729)) == 1296
        assert euler_phi(factorize(1105)) == 768

    def test_matches_coprime_count_up_to_1e4(self):
        for n in range(2, 10_001):
            counted = int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))
            assert euler_phi(factorize(n)) == counted

    def test_prime_power(self):
        assert euler_phi(factorize(2**10)) == 512


class TestPrimality:
    def test_catalog_prime(self):
        assert is_prime(10979)

    def test_one_is_not_prime(self):
        assert not is_prime(1)
        assert not is_prime(0)

    def test_carmichael_is_composite(self):
        assert not is_prime(561)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            is_prime(-7)

    def test_matches_sieve_up_to_1e6(self):
        limit = 1_000_000
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                sieve[p * p::p] = b"\x00" * len(range(p * p, limit + 1, p))
        for n in range(limit + 1):
            assert is_prime(n) == bool(sieve[n]), n

    def test_deterministic_bound_covers_64_bits(self):
        assert DETERMINISTIC_WITNESS_BOUND > 2**64

    def test_strong_pseudoprime_to_small_bases(self):
        # 3215031751 fools bases 2, 3, 5, 7 individually but not the full set
        assert not is_prime(3215031751)

    def test_large_mersenne_prime_flagged_probabilistic(self):
        check = prime_check(2**521 - 1)
        assert check.is_prime and check.probabilistic

    def test_large_composite_verdict_is_certain(self):
        check = prime_check((2**521 - 1) * (2**607 - 1))
        assert not check.is_prime and not check.probabilistic

    def test_verdicts_below_bound_not_flagged(self):
        assert not prime_check(2**61 - 1).probabilistic
        assert not prime_check(2**61 - 3).probabilistic


class TestPrimesUpTo:
    def test_small(self):
        assert primes_up_to(20).tolist() == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1).tolist() == []

    def test_counts(self):
        assert len(primes_up_to(10**5)) == 9592

    def test_empty_below_two_and_int64(self):
        for limit in (-5, -1, 0, 1):
            primes = primes_up_to(limit)
            assert primes.dtype == np.int64 and primes.size == 0, limit
        assert primes_up_to(10**4).dtype == np.int64

    def test_matches_bytearray_sieve(self):
        # the odd-only numpy sieve starts each odd prime q's strike at q^2
        oracle = _small_primes(10**6)
        limits = set(range(3000)) | {10**6}
        limits |= {q * q + d for q in _small_primes(1000) for d in (-1, 0, 1)}
        for limit in sorted(limits):
            expected = oracle[:bisect.bisect_right(oracle, limit)]
            assert primes_up_to(limit).tolist() == list(expected), limit
