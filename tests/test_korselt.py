import bisect
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab import korselt
from carmlab.errors import CapExceededError, DomainError
from carmlab.factoring import factorize
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
        # about 20 s with two workers on a 2-CPU machine; run with `pytest -m slow`
        assert len(enumerate_carmichael(10**9, cap=10**9, jobs=2)) == 646


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

    @given(st.integers(0, 10**7), st.integers(0, 300_000))
    @settings(max_examples=40)
    def test_random_window_property(self, lo, width):
        assert_sieves_agree(lo, lo + width)


@pytest.fixture
def fake_pool(monkeypatch):
    """A 4-CPU machine whose process pool maps in-process; the list holds the
    max_workers of every pool built, in order."""
    built = []

    class FakePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(korselt.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(korselt.os, "cpu_count", lambda: 4)
    return built


class TestParallelEnumerate:
    def test_parallel_matches_serial(self):
        assert enumerate_carmichael(10**5, jobs=3) == enumerate_carmichael(10**5)

    def test_workers_clamped_to_cpu_count(self, fake_pool):
        assert enumerate_carmichael(10**5, jobs=100_000) == CARMICHAELS_TO_1E5
        assert enumerate_carmichael(10**5, jobs=3) == CARMICHAELS_TO_1E5
        assert fake_pool == [4, 3]

    def test_unknown_cpu_count_runs_serially(self, fake_pool, monkeypatch):
        monkeypatch.setattr(korselt.os, "cpu_count", lambda: None)
        assert enumerate_carmichael(2000, jobs=8) == [561, 1105, 1729]
        assert fake_pool == []

    @pytest.mark.parametrize("limit", [0, 2, 9, 560, 561, 1728, 1729])
    def test_spans_end_at_limit(self, fake_pool, limit):
        for jobs in (2, 3, 4):
            assert enumerate_carmichael(limit, jobs=jobs) == enumerate_carmichael(limit)

    def test_cap_checked_before_any_pool(self, fake_pool):
        with pytest.raises(CapExceededError):
            enumerate_carmichael(10**9, jobs=2)
        assert fake_pool == []

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, fake_pool, jobs):
        with pytest.raises(DomainError):
            enumerate_carmichael(100, jobs=jobs)
        assert fake_pool == []


class TestCertificateType:
    def test_truthiness_follows_criterion(self):
        cert = is_carmichael(561)
        assert isinstance(cert, CarmichaelCertificate)
        assert bool(cert) is cert.is_carmichael is True

    def test_composite_property(self):
        assert not is_carmichael(7).composite
        assert is_carmichael(21).composite
