"""Analytic accuracy model for the Monte Carlo classifier.

The sampled witness count is binomial.  Following the worst admissible
case for a composite with non-trivial witnesses -- a true witness share of
exactly one half -- the model approximates the sampled proportion by a
normal with mean 1 - fraction_A and standard deviation
sqrt(fraction_A * (1 - fraction_A) / t), takes the tail mass below the
decision threshold, and feeds it through Bayes' rule against bit-length
priors: Carmichael density from the x^0.34 growth of the Carmichael
counting function, prime density from the 1/ln x law.

Everything runs in mpmath: at 1024 bits the tail mass sits near
10^-1000, far below what doubles can hold, and the posteriors must stay
honest rather than saturate by underflow.  mpmath is imported on first
use, so the exact binomial tail and a histogram at a given t never load it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .detector import DEFAULT_THRESHOLD, DetectorConfig, _sample_witnesses
from .errors import CapExceededError, DomainError, integer
from .factoring import Factorization

if TYPE_CHECKING:
    from mpmath import mpf

_DPS = 50
_EXACT_TAIL_MAX_T = 10_000
HISTOGRAM_DRAW_CAP = 10**7  # t * trials; the reproduced figure uses 4 * 10^5


def _to_mpf(value) -> mpf:
    from mpmath import mpf

    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def normal_cdf(z) -> mpf:
    """Standard normal CDF as an mpmath value.

    Returned at 50 significant digits, so the far tail keeps its true
    magnitude instead of underflowing to zero.
    """
    from mpmath import mp

    with mp.workdps(_DPS):
        return mp.erfc(-_to_mpf(z) / mp.sqrt(2)) / 2


def carmichael_prior(bit_length: int) -> mpf:
    """Density of Carmichael numbers among b-bit integers under the x^0.34
    growth model: ((2^b)^0.34 - (2^(b-1))^0.34) / 2^(b-1), evaluated in
    exponent space so no intermediate overflows."""
    bit_length = integer("bit_length", bit_length, 8)
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        c = mpf("0.34")
        b = bit_length
        return mp.power(2, c * b - (b - 1)) - mp.power(2, c * (b - 1) - (b - 1))


def prime_prior(bit_length: int) -> mpf:
    """Density of primes among b-bit integers from the 1/ln x law:
    (2^b/ln(2^b) - 2^(b-1)/ln(2^(b-1))) / 2^(b-1), simplified to
    2/(b ln 2) - 1/((b-1) ln 2)."""
    bit_length = integer("bit_length", bit_length, 8)
    from mpmath import mp

    with mp.workdps(_DPS):
        ln2 = mp.log(2)
        b = bit_length
        return 2 / (b * ln2) - 1 / ((b - 1) * ln2)


@dataclass(frozen=True)
class AccuracyReport:
    """One posterior evaluation with every intermediate quantity recorded."""

    bit_length: int
    t: int
    threshold: Fraction
    fraction_A: Fraction
    fraction_B: Fraction
    sigma: mpf
    z: mpf
    p: mpf                      # mass of the sampled proportion below the threshold
    prior_carmichael: mpf
    prior_prime: mpf
    likelihood_given_other: mpf     # p + (1-p) * ((1 - fB)^t - fA^t)
    posterior: mpf
    model: str                  # "composite-given" or "general"

    def to_json_dict(self) -> dict:
        from mpmath import mp

        return {"bit_length": self.bit_length, "t": self.t,
                "threshold_num": self.threshold.numerator,
                "threshold_den": self.threshold.denominator,
                "fraction_A_num": self.fraction_A.numerator,
                "fraction_A_den": self.fraction_A.denominator,
                "fraction_B_num": self.fraction_B.numerator,
                "fraction_B_den": self.fraction_B.denominator,
                "sigma": mp.nstr(self.sigma, 17), "z": mp.nstr(self.z, 17),
                "p": mp.nstr(self.p, 17),
                "prior_carmichael": mp.nstr(self.prior_carmichael, 17),
                "prior_prime": mp.nstr(self.prior_prime, 17),
                "likelihood_given_other": mp.nstr(self.likelihood_given_other, 17),
                "posterior": mp.nstr(self.posterior, 17),
                "model": self.model}


def _posterior_report(model: str, t: int, threshold, bit_length: int,
                      fraction_A, fraction_B) -> AccuracyReport:
    t, bit_length = integer("t", t, 1), integer("bit_length", bit_length, 8)
    thr = DetectorConfig(threshold=threshold).threshold
    fa = Fraction(1, 2) if fraction_A is None else Fraction(fraction_A)
    fb = Fraction(1, 2) if fraction_B is None else Fraction(fraction_B)
    if not (0 <= fa <= 1 and 0 <= fb <= 1):
        raise DomainError("fraction_A and fraction_B must lie in [0, 1]")
    if fa + fb > 1:
        raise DomainError("fraction_A + fraction_B cannot exceed 1")
    from mpmath import mp, mpf

    with mp.workdps(_DPS):
        fa_m, fb_m, thr_m = _to_mpf(fa), _to_mpf(fb), _to_mpf(thr)
        sigma = mp.sqrt(fa_m * (1 - fa_m) / t)
        if sigma > 0:
            z = (thr_m - (1 - fa_m)) / sigma
            p = normal_cdf(z)
        else:
            # degenerate: all witness counts equal the mean exactly
            below = (1 - fa_m) < thr_m
            z = mp.inf if below else mp.ninf
            p = mpf(1 if below else 0)
        likelihood = p + (1 - p) * ((1 - fb_m) ** t - fa_m ** t)
        prior_c = carmichael_prior(bit_length)
        prior_p = prime_prior(bit_length)
        prior = prior_c if model == "composite-given" else prior_c + prior_p
        posterior = prior / (prior + (1 - prior) * likelihood)
        return AccuracyReport(bit_length=bit_length, t=t, threshold=thr,
                              fraction_A=fa, fraction_B=fb, sigma=sigma, z=z, p=p,
                              prior_carmichael=prior_c, prior_prime=prior_p,
                              likelihood_given_other=likelihood,
                              posterior=posterior, model=model)


def posterior_composite_given(t: int, threshold=DEFAULT_THRESHOLD,
                              bit_length: int = 1024,
                              fraction_A=None, fraction_B=None) -> AccuracyReport:
    """Posterior that a composite flagged on the Carmichael side really is
    Carmichael.  fraction_A / fraction_B default to the worst case 1/2."""
    return _posterior_report("composite-given", t, threshold, bit_length,
                             fraction_A, fraction_B)


def posterior_general(t: int, threshold=DEFAULT_THRESHOLD,
                      bit_length: int = 1024,
                      fraction_A=None, fraction_B=None) -> AccuracyReport:
    """Posterior when the input may be prime as well as composite: the
    hypothesis is "Carmichael or prime", so its prior is the sum of both
    densities."""
    return _posterior_report("general", t, threshold, bit_length,
                             fraction_A, fraction_B)


@dataclass(frozen=True)
class ProportionHistogram:
    """Monte Carlo trials of the sampled witness proportion for one n."""

    n: int
    t: int
    trials: int
    seed: int
    counts: tuple[int, ...]         # counts[k] = trials observing k witnesses
    mean: float
    stddev: float                   # sample standard deviation (ddof = 1)
    expected_mean: Fraction | None  # exact census proportion, when available
    sigma_model: float | None       # sqrt((A/(n-1))(1 - A/(n-1))/t), when available

    def csv_rows(self) -> list[tuple[float, float, int]]:
        """(bin_lo, bin_hi, count) rows; bin k covers proportion k/t."""
        return [(k / self.t, (k + 1) / self.t, c)
                for k, c in enumerate(self.counts)]

    def to_json_dict(self) -> dict:
        expected = self.expected_mean
        return {"n": self.n, "t": self.t, "trials": self.trials, "seed": self.seed,
                "counts": list(self.counts), "mean": self.mean, "stddev": self.stddev,
                "expected_mean_num": expected.numerator if expected else None,
                "expected_mean_den": expected.denominator if expected else None,
                "sigma_model": self.sigma_model}


def empirical_proportion_distribution(n: int, factorization: Factorization | None = None,
                                      t: int | None = None, trials: int = 1000,
                                      seed: int = 0) -> ProportionHistogram:
    """Draw `trials` independent t-base samples and histogram the witness
    proportion of each.

    Each trial is one call of the detector's sampler, all on a single
    random.Random(seed) stream; t defaults to the detector's floor((ln n)^2).
    When a factorization of n is supplied, the histogram carries the exact
    census mean and the model standard deviation for comparison. More than
    HISTOGRAM_DRAW_CAP draws in all raise CapExceededError.
    """
    n, trials, seed = integer("n", n, 3), integer("trials", trials, 1), integer("seed", seed)
    t = DetectorConfig(t_override=t).sample_size(n)
    if t * trials > HISTOGRAM_DRAW_CAP:
        raise CapExceededError(f"t * trials = {t * trials} draws exceeds the cap of "
                               f"{HISTOGRAM_DRAW_CAP}")
    rng = random.Random(seed)
    counts = [0] * (t + 1)
    for _ in range(trials):
        counts[len(_sample_witnesses(n, t, rng))] += 1
    mean = sum(k * c for k, c in enumerate(counts)) / (t * trials)
    variance = sum(c * (k / t - mean) ** 2 for k, c in enumerate(counts))
    variance /= (trials - 1) if trials > 1 else 1
    expected_mean = None
    sigma_model = None
    if factorization is not None:
        from .census import census_exact

        census = census_exact(n, factorization)
        expected_mean = census.proportion_witnesses
        fraction_a = Fraction(census.count_A, n - 1)  # share of liars among the bases drawn
        sigma_model = math.sqrt(float(fraction_a * (1 - fraction_a)) / t)
    return ProportionHistogram(n=n, t=t, trials=trials, seed=seed,
                               counts=tuple(counts), mean=mean,
                               stddev=math.sqrt(variance),
                               expected_mean=expected_mean,
                               sigma_model=sigma_model)


def binomial_tail_exact(threshold, t: int, witness_fraction) -> Fraction:
    """P[sampled proportion < threshold] for X ~ Binomial(t, witness_fraction),
    as an exact rational.

    Companion to the normal approximation so the approximation error is
    itself measurable; integer arithmetic keeps it exact up to t = 10^4.
    """
    t = integer("t", t)
    if not 1 <= t <= _EXACT_TAIL_MAX_T:
        raise DomainError(f"exact tail supports 1 <= t <= {_EXACT_TAIL_MAX_T}, got {t}")
    w = Fraction(witness_fraction)
    if not 0 <= w <= 1:
        raise DomainError(f"witness_fraction must lie in [0, 1], got {witness_fraction}")
    thr = DetectorConfig(threshold=threshold).threshold
    top = math.ceil(thr * t) - 1  # largest k with k/t < threshold
    num, den = w.numerator, w.denominator
    complement = den - num
    total = sum(math.comb(t, k) * num ** k * complement ** (t - k)
                for k in range(top + 1))
    return Fraction(total, den ** t)
