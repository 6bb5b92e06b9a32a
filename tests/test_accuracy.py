import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from carmlab.accuracy import (binomial_tail_exact, carmichael_prior,
                              empirical_proportion_distribution, normal_cdf,
                              posterior_composite_given, posterior_general,
                              prime_prior)
from carmlab.census import census_brute_force
from carmlab.detector import DetectorConfig, detect_carmichael_general
from carmlab.errors import CapExceededError, DomainError
from carmlab.factoring import factorize


def quadrature_normal_cdf(z: float) -> float:
    """Oracle: composite Gauss-Legendre integration of the density from -40
    (the mass below -40 is ~7e-350, invisible at the tolerances used here)."""
    if z <= -40:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(50)
    total = 0.0
    edges = np.linspace(-40.0, z, max(2, int(math.ceil(z + 40)) + 1))
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        x = mid + half * nodes
        total += half * float(np.sum(weights * np.exp(-x * x / 2)))
    return total / math.sqrt(2 * math.pi)


class TestNormalCdf:
    def test_symmetry_point(self):
        assert normal_cdf(0) == mpf("0.5")

    def test_fifth_percentile(self):
        assert abs(normal_cdf(-1.6448536269514722) - mpf("0.05")) < mpf("1e-12")

    def test_symmetry_identity(self):
        for z in (-37.5, -8.0, -1.25, 0.3, 4.0, 21.0):
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1) < mpf("1e-30")

    def test_monotone(self):
        grid = [-40 + i for i in range(81)]
        values = [normal_cdf(z) for z in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        # strictly increasing wherever the upper tail is still representable
        # at the working precision (it saturates to 1 past z ~ 15)
        low = [v for z, v in zip(grid, values) if z <= 10]
        assert all(a < b for a, b in zip(low, low[1:]))

    def test_against_quadrature_oracle_spots(self):
        for z in (-3.0, -1.0, 0.0, 0.5, 2.0, 6.0):
            assert abs(float(normal_cdf(z)) - quadrature_normal_cdf(z)) < 1e-12

    def test_far_tail_keeps_magnitude(self):
        tail = normal_cdf(-40)
        assert 0 < tail < mpf("1e-300")


class TestZScore:
    """The worst-case z, (threshold - 1/2) / sqrt(1/(4t)), as the posterior
    report records it."""

    def test_textbook_point(self):
        z = posterior_composite_given(100, Fraction(45, 100)).z
        assert abs(z + 1) < mpf("1e-30")

    def test_threshold_at_mean(self):
        assert posterior_composite_given(7, Fraction(1, 2)).z == 0

    def test_half_width_grid_point(self):
        # t = 691^2 makes the z-score exactly -69.1
        z = posterior_composite_given(477481, Fraction(45, 100)).z
        assert abs(10 * z + 691) < mpf("1e-25")

    def test_validation(self):
        with pytest.raises(DomainError):
            posterior_composite_given(0, Fraction(45, 100))
        with pytest.raises(DomainError):
            posterior_composite_given(10, Fraction(3, 2))

    def test_tail_mass_decreases_with_t(self):
        masses = [posterior_composite_given(t, Fraction(45, 100)).p
                  for t in (10, 50, 100, 500, 1000, 5000)]
        assert all(a > b for a, b in zip(masses, masses[1:]))


class TestPriors:
    def test_carmichael_prior_small_scale_direct(self):
        with mp.workdps(60):
            direct = ((mpf(2)**20) ** mpf("0.34") - (mpf(2)**19) ** mpf("0.34")) / 2**19
        value = carmichael_prior(20)
        assert abs(value - direct) / direct < mpf("1e-15")

    def test_carmichael_prior_log_form_identity(self):
        with mp.workdps(60):
            rearranged = mp.exp(mpf("0.34") * 1024 * mp.log(2) - 1023 * mp.log(2)) \
                * (1 - mpf(2) ** mpf("-0.34"))
        value = carmichael_prior(1024)
        assert abs(value - rearranged) / rearranged < mpf("1e-15")

    def test_carmichael_prior_monotone_decreasing(self):
        values = [carmichael_prior(b) for b in (8, 16, 64, 256, 1024, 2048)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_prime_prior_1024(self):
        assert abs(prime_prior(1024) - mpf("0.0014075046697333598736")) < mpf("1e-15")

    def test_prime_prior_matches_unsimplified_form(self):
        with mp.workdps(60):
            b = 1024
            raw = (mpf(2)**b / mp.log(mpf(2)**b)
                   - mpf(2)**(b - 1) / mp.log(mpf(2)**(b - 1))) / mpf(2)**(b - 1)
        assert abs(prime_prior(1024) - raw) / raw < mpf("1e-15")

    def test_prime_prior_against_exact_count_at_10_bits(self):
        # 75 primes in [2^9, 2^10): the density law is approximate, so only
        # report-level closeness is expected here, not a strict tolerance
        exact = Fraction(75, 512)
        model = prime_prior(10)
        assert model > 0
        assert abs(float(model) - float(exact)) < 0.05

    def test_positivity(self):
        for b in range(8, 2049, 128):
            assert prime_prior(b) > 0

    def test_small_bit_length_rejected(self):
        for fn in (carmichael_prior, prime_prior):
            with pytest.raises(DomainError):
                fn(7)


class TestPosteriors:
    def test_worst_case_1024_bits_near_one(self):
        t = 503791  # floor((ln 2^1024)^2)
        for build in (posterior_composite_given, posterior_general):
            report = build(t, threshold=Fraction(45, 100), bit_length=1024)
            assert report.posterior >= 1 - mpf("1e-6")

    def test_single_sample_cannot_separate(self):
        report = posterior_composite_given(1)
        assert report.posterior < mpf("1e-100")

    def test_no_coprime_witness_term_reduces(self):
        report = posterior_composite_given(50, fraction_A=Fraction(1, 3),
                                           fraction_B=Fraction(0))
        with mp.workdps(50):
            p = report.p
            expected = p + (1 - p) * (1 - (mpf(1) / 3) ** 50)
        assert abs(report.likelihood_given_other - expected) < mpf("1e-40")

    def test_general_posterior_dominates(self):
        for t in (10, 100, 1000):
            for bits in (64, 256, 1024):
                general = posterior_general(t, bit_length=bits).posterior
                composite = posterior_composite_given(t, bit_length=bits).posterior
                assert general >= composite

    def test_log_space_consistency(self):
        # recompute the posterior through logarithms and compare
        report = posterior_composite_given(2000, bit_length=256)
        with mp.workdps(50):
            log_prior = mp.log(report.prior_carmichael)
            log_other = mp.log(1 - report.prior_carmichael) \
                + mp.log(report.likelihood_given_other)
            log_posterior = log_prior - mp.log(mp.exp(log_prior) + mp.exp(log_other))
            assert abs(mp.exp(log_posterior) - report.posterior) / report.posterior \
                < mpf("1e-9")

    def test_degenerate_fraction(self):
        report = posterior_composite_given(10, fraction_A=Fraction(1), fraction_B=Fraction(0))
        assert report.p == 1
        assert report.z == mp.inf

    def test_inconsistent_fractions_rejected(self):
        with pytest.raises(DomainError):
            posterior_composite_given(10, fraction_A=Fraction(2, 3),
                                      fraction_B=Fraction(1, 2))
        with pytest.raises(DomainError):
            posterior_composite_given(10, fraction_A=Fraction(3, 2))

    def test_intermediates_recorded(self):
        report = posterior_general(100)
        record = report.to_json_dict()
        for key in ("sigma", "z", "p", "prior_carmichael", "prior_prime",
                    "likelihood_given_other", "posterior"):
            assert key in record
        assert record["model"] == "general"
        assert report.sigma > 0


class TestEmpiricalDistribution:
    def test_classic_carmichael_statistics(self):
        hist = empirical_proportion_distribution(561, factorize(561), t=40,
                                                 trials=2000, seed=1)
        standard_error = hist.sigma_model / math.sqrt(2000)
        assert abs(hist.mean - 240 / 560) <= 3 * standard_error
        assert abs(hist.stddev - hist.sigma_model) <= 0.1 * hist.sigma_model
        assert hist.expected_mean == Fraction(240, 560)

    def test_counts_partition_trials(self):
        hist = empirical_proportion_distribution(91, factorize(91), t=10,
                                                 trials=300, seed=4)
        assert sum(hist.counts) == 300
        assert len(hist.counts) == 11

    def test_single_draw_is_bernoulli(self):
        hist = empirical_proportion_distribution(561, t=1, trials=200, seed=3)
        assert len(hist.counts) == 2
        assert sum(hist.counts) == 200

    def test_expected_mean_for_plain_composites_is_exact(self):
        hist = empirical_proportion_distribution(21, factorize(21), t=5,
                                                 trials=50, seed=0)
        assert hist.expected_mean == census_brute_force(21).proportion_witnesses
        fraction_a = Fraction(4, 20)
        assert hist.sigma_model == math.sqrt(float(fraction_a * (1 - fraction_a)) / 5)

    def test_prime_expected_mean_is_zero(self):
        hist = empirical_proportion_distribution(97, factorize(97), t=5,
                                                 trials=50, seed=0)
        assert hist.expected_mean == 0
        assert hist.counts[0] == 50

    def test_determinism(self):
        a = empirical_proportion_distribution(561, t=11, trials=100, seed=9)
        b = empirical_proportion_distribution(561, t=11, trials=100, seed=9)
        assert a == b

    def test_csv_rows(self):
        hist = empirical_proportion_distribution(561, t=4, trials=20, seed=0)
        rows = hist.csv_rows()
        assert rows[0][:2] == (0.0, 0.25)
        assert [count for _, _, count in rows] == list(hist.counts)

    def test_validation(self):
        with pytest.raises(DomainError):
            empirical_proportion_distribution(2, t=5, trials=10)
        with pytest.raises(DomainError):
            empirical_proportion_distribution(561, t=5, trials=0)
        with pytest.raises(DomainError, match="t must be >= 1, got 0"):
            empirical_proportion_distribution(561, t=0, trials=10)

    def test_draw_cap_is_checked_before_allocating(self):
        # t + 1 bins at t = 10^9 would be 8 GB of list
        with pytest.raises(CapExceededError):
            empirical_proportion_distribution(561, t=10**9, trials=1)
        with pytest.raises(CapExceededError):
            empirical_proportion_distribution(561, t=10**4, trials=10**3 + 1)

    def test_default_t_is_the_detectors(self):
        for n in (21, 561, 10**6 + 3):
            hist = empirical_proportion_distribution(n, trials=2)
            assert hist.t == DetectorConfig().sample_size(n)

    @pytest.mark.parametrize("n", [21, 91, 561, 1105, 1729, 8911, 10**6 + 9])
    def test_one_trial_is_one_detector_run(self, n):
        for t in (1, 7, 40):
            for seed in range(4):
                hist = empirical_proportion_distribution(n, t=t, trials=1, seed=seed)
                verdict = detect_carmichael_general(
                    n, DetectorConfig(t_override=t, rng_seed=seed))
                assert hist.counts[verdict.witnesses_found] == 1, (n, t, seed)

    @pytest.mark.parametrize("n, t, trials, seed, record", [
        (561, 40, 200, 3, {
            "n": 561, "t": 40, "trials": 200, "seed": 3,
            "counts": [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 8, 9, 15, 16, 18, 26, 26, 33,
                       14, 12, 8, 6, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "mean": 0.43525, "stddev": 0.07652100903752251,
            "expected_mean_num": 3, "expected_mean_den": 7,
            "sigma_model": 0.07824607964359516}),
        (91, 7, 300, 0, {
            "n": 91, "t": 7, "trials": 300, "seed": 0,
            "counts": [1, 7, 32, 63, 75, 79, 36, 7],
            "mean": 0.580952380952381, "stddev": 0.1945729213162854,
            "expected_mean_num": 3, "expected_mean_den": 5,
            "sigma_model": 0.1851640199545103}),
    ])
    def test_seeded_histogram_is_pinned(self, n, t, trials, seed, record):
        hist = empirical_proportion_distribution(n, factorize(n), t=t,
                                                 trials=trials, seed=seed)
        assert hist.to_json_dict() == record


class TestBinomialTailExact:
    def test_tiny_cases(self):
        assert binomial_tail_exact(Fraction(1, 2), 2, Fraction(1, 2)) == Fraction(1, 4)
        assert binomial_tail_exact(Fraction(1, 2), 4, Fraction(1, 2)) == Fraction(5, 16)

    def test_strict_inequality_at_integer_boundary(self):
        # k/t < 1/2 excludes k = 2 at t = 4
        value = binomial_tail_exact(Fraction(1, 2), 4, Fraction(1, 2))
        assert value == Fraction(math.comb(4, 0) + math.comb(4, 1), 16)

    def test_normal_approximation_error_is_small(self):
        exact = binomial_tail_exact(Fraction(45, 100), 2000, Fraction(1, 2))
        approx = posterior_composite_given(2000, Fraction(45, 100)).p
        assert abs(float(exact) - float(approx)) < 0.02

    def test_validation(self):
        with pytest.raises(DomainError):
            binomial_tail_exact(Fraction(45, 100), 0, Fraction(1, 2))
        with pytest.raises(DomainError):
            binomial_tail_exact(Fraction(45, 100), 20_000, Fraction(1, 2))
        with pytest.raises(DomainError):
            binomial_tail_exact(Fraction(45, 100), 10, Fraction(3, 2))
