import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab import korselt
from carmlab.errors import CapExceededError, DomainError
from carmlab.factoring import factorize
from carmlab.korselt import (CarmichaelCertificate, chernick, enumerate_carmichael,
                             enumerate_carmichael_range, is_carmichael)

CARMICHAELS_TO_1E5 = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                      29341, 41041, 46657, 52633, 62745, 63973, 75361]


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
