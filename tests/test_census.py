import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab.census import (_CHUNK, DEFAULT_BRUTE_FORCE_CAP, CensusMethod, WitnessCensus,
                            WitnessKind, _fermat_residues, census_brute_force,
                            census_exact, classify_witness)
from carmlab.errors import CapExceededError, DomainError
from carmlab.factoring import euler_phi, factorize, is_prime, primes_up_to
from carmlab.korselt import enumerate_carmichael
from carmlab.reproduce import HIGH_WITNESS_CATALOG


def naive_census(n):
    """Oracle: classify every base one at a time."""
    count_a = count_b = count_c = 0
    for a in range(1, n):
        if math.gcd(a, n) > 1:
            count_c += 1
        elif pow(a, n - 1, n) == 1:
            count_a += 1
        else:
            count_b += 1
    return count_a, count_b, count_c


class TestClassifyWitness:
    def test_coprime_witness(self):
        assert classify_witness(2, 21) is WitnessKind.NON_TRIVIAL_WITNESS

    def test_one_is_never_a_witness(self):
        for n in (3, 21, 561, 1729):
            assert classify_witness(1, n) is WitnessKind.NON_WITNESS

    def test_shared_factor(self):
        assert classify_witness(3, 561) is WitnessKind.TRIVIAL_WITNESS

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            classify_witness(0, 21)
        with pytest.raises(DomainError):
            classify_witness(21, 21)
        with pytest.raises(DomainError):
            classify_witness(1, 2)

    def test_agrees_with_census_counts(self):
        for n in (21, 45, 91, 561):
            kinds = [classify_witness(a, n) for a in range(1, n)]
            census = census_brute_force(n)
            assert kinds.count(WitnessKind.NON_WITNESS) == census.count_A
            assert kinds.count(WitnessKind.NON_TRIVIAL_WITNESS) == census.count_B
            assert kinds.count(WitnessKind.TRIVIAL_WITNESS) == census.count_C


class TestCensusBruteForce:
    def test_reference_n21(self):
        census = census_brute_force(21)
        assert (census.count_A, census.count_B, census.count_C) == (4, 8, 8)
        assert census.proportion_witnesses == Fraction(4, 5)

    def test_prime_has_only_non_witnesses(self):
        census = census_brute_force(3)
        assert (census.count_A, census.count_B, census.count_C) == (2, 0, 0)
        assert census.proportion_witnesses == 0

    def test_classic_carmichael(self):
        census = census_brute_force(561)
        assert census.count_A == 320
        assert census.count_B == 0
        assert census.proportion_witnesses == Fraction(240, 560)

    def test_matches_naive_oracle(self):
        for n in range(3, 400):
            census = census_brute_force(n)
            assert (census.count_A, census.count_B, census.count_C) == naive_census(n)

    def test_above_cap_points_to_exact_census(self):
        with pytest.raises(CapExceededError, match="census_exact"):
            census_brute_force(DEFAULT_BRUTE_FORCE_CAP + 1)

    def test_cap_keeps_uint64_products_exact(self):
        # the kernel stores residues below n as uint32 and multiplies two
        # of them in uint64
        assert DEFAULT_BRUTE_FORCE_CAP < 2**32

    def test_kernel_residues_and_units_below_600(self):
        # a base sharing a factor with n reads 0, the residue of no unit, so the zeros
        # are the non-units
        for n in range(3, 600):
            residue = _fermat_residues(n, n - 1)
            assert residue[1:].tolist() == [pow(a, n - 1, n) if math.gcd(a, n) == 1 else 0
                                            for a in range(1, n)], n

    # where the uint64 products come closest to 2^47 (the largest n under the
    # cap, odd and even), a power of two plus one, and a Carmichael number of
    # the benchmark band, whose zeros the sweep carries
    @pytest.mark.parametrize("n", [9_999_991, 10**7, 2**23 + 1, 2433601])
    def test_kernel_residues_on_sampled_bases_at_large_n(self, n):
        top = n - 1 if n % 2 == 0 else (n - 1) // 2
        residue = _fermat_residues(n, top)
        rng = random.Random(n)
        bases = [rng.randint(1, top) for _ in range(2000)]
        assert [int(residue[a]) for a in bases] == \
            [pow(a, n - 1, n) if math.gcd(a, n) == 1 else 0 for a in bases]

    def test_peak_memory_where_the_prime_powmods_set_it(self):
        # at this n the peak falls in the prime powmods: the residue, the primes
        # and three uint64 arrays of _CHUNK primes (6.20 bytes per base); an
        # out-of-place reduction keeps a fourth alive (6.73)
        n = 2_000_001
        census_brute_force(n)
        tracemalloc.start()
        try:
            census_brute_force(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / ((n - 1) // 2) < 6.5

    def test_peak_memory_per_evaluated_base(self):
        # the 4-byte residue is the one table left once the sieve flags are freed
        n = 9_999_991
        census_brute_force(n)
        tracemalloc.start()
        try:
            census_brute_force(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / ((n - 1) // 2) < 5.5

    def test_factors_nothing(self):
        # it stays an oracle for census_exact only while it never factors n
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            census_brute_force(561)
        finally:
            sys.setprofile(None)
        assert called.isdisjoint({"factorize", "census_exact", "euler_phi", "prime_check"})

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            census_brute_force(2)

    def test_sweep_properties_to_1e4(self):
        # composite with a coprime witness -> proportion > 1/2; prime -> 0
        prime = {n for n in range(10_001) if is_prime(n)}
        half = Fraction(1, 2)
        for n in range(3, 10_001):
            census = census_brute_force(n)
            assert census.count_A + census.count_B + census.count_C == n - 1
            if n in prime:
                assert census.proportion_witnesses == 0
            elif census.count_B > 0:
                assert census.proportion_witnesses > half, n


class TestCensusCarmichaelExact:
    def test_worked_examples(self):
        assert census_exact(1105, factorize(1105)).proportion_witnesses \
            == 1 - Fraction(768, 1104)
        assert census_exact(1729, factorize(1729)).proportion_witnesses \
            == Fraction(1, 4)

    def test_catalog_tail_row(self):
        n = 11947816523586945
        census = census_exact(n, factorize(n))
        assert round(float(census.proportion_witnesses) * 100, 2) == 53.26

    def test_agrees_with_brute_force_for_all_small_carmichaels(self):
        carmichaels = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841,
                       29341, 41041, 46657, 52633, 62745, 63973, 75361]
        for n in carmichaels:
            exact = census_exact(n, factorize(n))
            brute = census_brute_force(n)
            assert (exact.count_A, exact.count_B, exact.count_C) == \
                (brute.count_A, brute.count_B, brute.count_C)

    def test_prime_input_allowed(self):
        census = census_exact(97, factorize(97))
        assert census.count_A == 96 and census.count_C == 0

    def test_other_composite_counted(self):
        census = census_exact(21, factorize(21))
        assert (census.count_A, census.count_B, census.count_C) == (4, 8, 8)

    def test_subject_mismatch_rejected(self):
        with pytest.raises(DomainError):
            census_exact(561, factorize(1105))

    def test_method_tag(self):
        assert census_exact(561, factorize(561)).method \
            is CensusMethod.TOTIENT_EXACT


class TestCensusExact:
    """Monier's formula against brute force, for every kind of n."""

    @staticmethod
    def counts(census):
        return census.count_A, census.count_B, census.count_C

    @settings(max_examples=200)
    @given(st.integers(min_value=3, max_value=10**5 - 1))
    def test_matches_brute_force(self, n):
        assert self.counts(census_exact(n, factorize(n))) == \
            self.counts(census_brute_force(n))

    def test_matches_brute_force_exhaustively_below_3000(self):
        for n in range(3, 3000):
            assert self.counts(census_exact(n, factorize(n))) == \
                self.counts(census_brute_force(n)), n

    def test_matches_brute_force_around_chunk_edges(self):
        # the sweep of p = 2 splits its m at 4, 8, ..., 2 * _CHUNK and then
        # every _CHUNK, so its targets 2 m split at twice those; an even n
        # evaluates bases up to n - 1 and an odd n up to (n - 1) / 2, so both
        # parities reach each split in one of the windows, and an even n near
        # 6 * _CHUNK crosses a split made by the _CHUNK bound (a second batch
        # of _CHUNK prime powmods needs top >= 821647, tested at large n below)
        edges = [2**k for k in range(2, _CHUNK.bit_length())] + [2 * _CHUNK, 3 * _CHUNK]
        for edge in edges:
            for n in sorted({*range(edge - 40, edge + 41), *range(2 * edge - 40, 2 * edge + 41)}):
                if n >= 3:
                    assert self.counts(census_exact(n, factorize(n))) == \
                        self.counts(census_brute_force(n)), n

    def test_matches_brute_force_where_the_sweep_changes_shape(self):
        # a sieving prime q joins the sweep at top = q^2, and the sweep of p
        # splits its m at the powers of p; an odd n evaluates the bases up to
        # top = (n - 1) / 2 and an even n those up to top = n - 1
        tops = {q * q + d for q in primes_up_to(31).tolist() for d in (-1, 0, 1)}
        tops |= {p**j + d for p in (2, 3, 5, 7) for j in range(1, 18) if p**j <= 2**17
                 for d in range(-3, 4)}
        ns = {2 * top + 1 for top in tops} | {top + 1 for top in tops if top % 2}
        for n in sorted(n for n in ns if n >= 3):
            assert self.counts(census_exact(n, factorize(n))) == \
                self.counts(census_brute_force(n)), n

    # the four Carmichael numbers of the benchmark band, the largest odd n
    # under the cap, and the largest Carmichael number below 10^7; each
    # has more than _CHUNK prime bases, so its powmods run in several batches.
    # Then prime powers and products of squares, whose zeros the sweep
    # carries deep, and even n, which evaluate all n - 1 bases
    @pytest.mark.parametrize("n", [2433601, 2455921, 2508013, 2531845, 10**7 - 1, 9890881,
                                   3**14, 7**8, 2**23, 9 * 25 * 49 * 121, 2 * 3**13, 10**7])
    def test_matches_brute_force_at_large_n(self, n):
        assert self.counts(census_exact(n, factorize(n))) == self.counts(census_brute_force(n))

    def test_no_coprime_witness_for_primes_and_carmichaels(self):
        # every input the totient-only census accepted: count_A = phi(n)
        catalog = [math.prod(row.factors) for row in HIGH_WITNESS_CATALOG]
        inputs = (enumerate_carmichael(10**5) + primes_up_to(10**4)[1:].tolist() + catalog)
        for n in inputs:
            fac = factorize(n)
            census = census_exact(n, fac)
            assert census.count_A == euler_phi(fac) and census.count_B == 0, n


class TestWitnessCensusType:
    def test_partition_enforced(self):
        with pytest.raises(DomainError):
            WitnessCensus(21, 4, 8, 9, CensusMethod.BRUTE_FORCE)

    def test_json_round_trip_fields(self):
        record = census_brute_force(21).to_json_dict()
        assert record == {"n": 21, "count_A": 4, "count_B": 8, "count_C": 8,
                          "proportion_num": 4, "proportion_den": 5,
                          "method": "BruteForce"}
