"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s` to see
them live).  Expected values come from independent oracles implemented in
this file, never from the code under test.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from carmlab.accuracy import (empirical_proportion_distribution, normal_cdf,
                              posterior_composite_given, posterior_general)
from carmlab.arith import natural_log_squared_floor
from carmlab.bench import run_benchmark
from carmlab.bound import bound_closed_form, prime_factor_bound
from carmlab.census import census_brute_force, census_exact
from carmlab.detector import DetectorConfig, derive_seed, detect_carmichael_composite
from carmlab.factoring import euler_phi, factorize, primes_up_to
from carmlab.korselt import chernick, enumerate_carmichael, is_carmichael
from carmlab.reproduce import (FERMAT_TABLE_RESIDUES, reproduce_proportion_examples,
                               reproduce_witness_catalog)


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:>2}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


# ------------------------------------------------------------ shared oracles

def smallest_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


def definitional_carmichael(n: int) -> bool:
    """Straight from the definition; exponentiation short-circuits at the
    first coprime base that fails."""
    if n < 4 or smallest_factor(n) == n:
        return False
    return all(pow(a, n - 1, n) == 1
               for a in range(2, n) if math.gcd(a, n) == 1)


@pytest.fixture(scope="module")
def korselt_sweep():
    """Definitional oracle over every n <= 1e5, compared against is_carmichael."""
    start = time.perf_counter()
    mismatches = []
    oracle_list = []
    for n in range(2, 100_001):
        by_definition = definitional_carmichael(n)
        if by_definition != bool(is_carmichael(n)):
            mismatches.append(n)
        if by_definition:
            oracle_list.append(n)
    return oracle_list, mismatches, time.perf_counter() - start


# ----------------------------------------------------------------- criteria

def test_criterion_01_fermat_table_reproduction():
    start = time.perf_counter()
    census = census_brute_force(21)
    residues = tuple(pow(a, 20, 21) for a in range(1, 21))
    elapsed = time.perf_counter() - start
    ok = (residues == FERMAT_TABLE_RESIDUES
          and census.proportion_witnesses == Fraction(4, 5)
          and elapsed < 1.0)
    report(1, ok, f"n=21 residue row exact, witness share 80%, {elapsed:.3f}s")


def test_criterion_02_worked_proportions():
    start = time.perf_counter()
    p561 = census_exact(561, factorize(561)).proportion_witnesses
    p1105 = census_exact(1105, factorize(1105)).proportion_witnesses
    p1729 = census_exact(1729, factorize(1729)).proportion_witnesses
    rows = {r["n"]: r for r in reproduce_proportion_examples()["rows"]}
    elapsed = time.perf_counter() - start
    ok = (p561 == 1 - Fraction(320, 560) and f"{float(p561):.4f}" == "0.4286"
          and p1105 == 1 - Fraction(768, 1104) and f"{float(p1105):.4f}" == "0.3043"
          and p1729 == Fraction(1, 4)
          and rows[1729]["match"] is False and rows[1729]["note"] is not None
          and rows[561]["match"] and rows[1105]["match"]
          and elapsed < 1.0)
    report(2, ok, f"561/1105 match to 4 decimals, 1729 = 0.25 with the "
                  f"published 0.2504 flagged, {elapsed:.3f}s")


def test_criterion_03_witness_catalog_reproduction():
    start = time.perf_counter()
    catalog = reproduce_witness_catalog()
    elapsed = time.perf_counter() - start
    rows = catalog["rows"]
    ok = (len(rows) == 16
          and all(r["is_carmichael"] for r in rows)
          and all(r["percent_match"] for r in rows)
          and catalog["flagged_rows"] == ["26,904,099,2399,565"]
          and next(r for r in rows if r["flags"])["n"] == 269040992399565
          and elapsed < 10.0)
    report(3, ok, f"16 rows rebuilt from factors, percentages within 0.01, "
                  f"malformed row reconstructed and flagged, {elapsed:.1f}s")


def test_criterion_04_korselt_oracle_equivalence(korselt_sweep):
    oracle_list, mismatches, elapsed = korselt_sweep
    ok = mismatches == [] and len(oracle_list) == 16 and elapsed < 600
    report(4, ok, f"is_carmichael vs definitional oracle on n <= 1e5: "
                  f"{len(mismatches)} mismatches, {elapsed:.1f}s")


def test_criterion_05_enumeration(korselt_sweep):
    oracle_list, _, _ = korselt_sweep
    start = time.perf_counter()
    listing_1e5 = enumerate_carmichael(100_000)
    listing_1e7 = enumerate_carmichael(10_000_000)
    elapsed = time.perf_counter() - start
    prefix_ok = listing_1e7[:len(listing_1e5)] == listing_1e5
    sorted_ok = all(a < b for a, b in zip(listing_1e7, listing_1e7[1:]))
    certified = all(is_carmichael(n) for n in listing_1e7)
    ok = (listing_1e5 == oracle_list and prefix_ok and sorted_ok and certified
          and elapsed < 120)
    report(5, ok, f"enumerate(1e5) equals the oracle list ({len(listing_1e5)} "
                  f"values); enumerate(1e7) = {len(listing_1e7)} values, "
                  f"prefix-consistent and all certified, {elapsed:.1f}s")


def test_criterion_06_chernick_family():
    start = time.perf_counter()
    first = chernick(1)
    produced = [(m, chernick(m)) for m in range(1, 10_001)]
    hits = [(m, n) for m, n in produced if n is not None]
    failures = [n for _, n in hits if not is_carmichael(n)]
    elapsed = time.perf_counter() - start
    ok = first == 1729 and not failures and len(hits) > 0
    report(6, ok, f"chernick(1) = 1729; {len(hits)} prime triples for m <= 1e4, "
                  f"all certified Carmichael, {elapsed:.1f}s")


def test_criterion_07_bound_soundness_sweep(carmichaels_to_1e8):
    start = time.perf_counter()
    carmichaels = carmichaels_to_1e8
    half = Fraction(1, 2)
    width_limit = mpf("1e-9") * (1 + mpf("1e-12"))
    guaranteed = 0
    violations = []
    for n in carmichaels:
        evaluation = prime_factor_bound(n)
        lo, hi = evaluation.root_bracket
        if hi - lo > width_limit or evaluation.x2 < lo:
            violations.append(("bracket", n))
            continue
        fac = factorize(n)
        if mpf(fac.smallest_prime) >= evaluation.x2:
            guaranteed += 1
            phi = euler_phi(fac)
            if Fraction(n - 1 - phi, n - 1) >= half:
                violations.append(("proportion", n))
    elapsed = time.perf_counter() - start
    ok = not violations and len(carmichaels) > 0
    report(7, ok, f"{len(carmichaels)} Carmichael numbers <= 1e8 swept, "
                  f"{guaranteed} cleared the bound, {len(violations)} "
                  f"counterexamples, {elapsed:.1f}s")


def test_criterion_08_bound_closed_form():
    cases = (561, 1729, 10**6 + 3, 2**256, 2**1024)
    worst = mpf(0)
    for n in cases:
        iterative = prime_factor_bound(n).x2
        closed = bound_closed_form(n)
        worst = max(worst, abs(iterative - closed) / abs(closed))
    ok = worst < mpf("1e-9")
    report(8, ok, f"iterative vs closed-form bound across {len(cases)} sizes "
                  f"up to 2^1024: max relative error {mp.nstr(worst, 3)}")


def test_criterion_09_detector_completeness():
    start = time.perf_counter()
    carmichaels = enumerate_carmichael(1_000_000)
    false_negatives = 0
    for n in carmichaels:
        for seed in range(100):
            verdict = detect_carmichael_composite(n, DetectorConfig(rng_seed=seed))
            if verdict.label.value != "Carmichael":
                false_negatives += 1
    elapsed = time.perf_counter() - start
    ok = false_negatives == 0 and len(carmichaels) == 43 and elapsed < 600
    report(9, ok, f"{len(carmichaels)} Carmichael numbers <= 1e6 x 100 seeds: "
                  f"{false_negatives} false negatives, {elapsed:.1f}s")


def test_criterion_10_detector_error_rate():
    start = time.perf_counter()
    primes = set(primes_up_to(100_000))
    carmichaels = set(enumerate_carmichael(100_000))
    total = 0
    misclassified = 0
    for n in range(10_001, 100_000, 2):
        if n in primes or n in carmichaels:
            continue
        total += 1
        cfg = DetectorConfig(rng_seed=derive_seed(0, n))
        if detect_carmichael_composite(n, cfg).label.value == "Carmichael":
            misclassified += 1
    rate = misclassified / total
    elapsed = time.perf_counter() - start
    ok = rate < 0.02
    report(10, ok, f"odd non-Carmichael composites in [1e4, 1e5]: "
                   f"{misclassified}/{total} misclassified "
                   f"({100 * rate:.4f}% < 2%), {elapsed:.1f}s")


def _quadrature_cdf_grid(grid):
    """Independent oracle: cumulative composite Gauss-Legendre integration of
    the standard normal density upward from -40 (the mass below -40 is
    ~7e-350, invisible at 1e-12)."""
    nodes, weights = np.polynomial.legendre.leggauss(50)
    values = {}
    accumulated = 0.0
    previous = grid[0]
    for z in grid:
        if z > previous:
            panels = max(1, int(math.ceil(z - previous)))
            edges = np.linspace(previous, z, panels + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid, half = (lo + hi) / 2, (hi - lo) / 2
                x = mid + half * nodes
                accumulated += half * float(np.sum(weights * np.exp(-x * x / 2)))
            previous = z
        values[z] = accumulated / math.sqrt(2 * math.pi)
    return values


def test_criterion_11_accuracy_model():
    t = natural_log_squared_floor(2**1024)
    composite = posterior_composite_given(t, threshold=Fraction(45, 100),
                                          bit_length=1024)
    general = posterior_general(t, threshold=Fraction(45, 100), bit_length=1024)
    posteriors_ok = (composite.posterior >= 1 - mpf("1e-6")
                     and general.posterior >= 1 - mpf("1e-6"))
    grid = [round(-40 + 0.5 * i, 4) for i in range(161)]
    oracle = _quadrature_cdf_grid(grid)
    worst = max(abs(float(normal_cdf(z)) - oracle[z]) for z in grid)
    ok = posteriors_ok and worst <= 1e-12
    report(11, ok, f"posteriors at t={t}, 1024 bits >= 1 - 1e-6 "
                   f"(composite and general); normal CDF vs quadrature oracle "
                   f"max |error| = {worst:.2e} on |z| <= 40")


def test_criterion_12_monte_carlo_consistency():
    start = time.perf_counter()
    hist = empirical_proportion_distribution(561, factorize(561), t=40,
                                             trials=10_000, seed=2026)
    elapsed = time.perf_counter() - start
    target = Fraction(240, 560)
    standard_error = hist.sigma_model / math.sqrt(10_000)
    mean_ok = abs(hist.mean - float(target)) <= 3 * standard_error
    sigma_ok = abs(hist.stddev - hist.sigma_model) <= 0.10 * hist.sigma_model
    ok = mean_ok and sigma_ok and hist.expected_mean == target
    report(12, ok, f"mean {hist.mean:.5f} within 3 SE of {float(target):.5f}; "
                   f"stddev {hist.stddev:.5f} within 10% of model sigma "
                   f"{hist.sigma_model:.5f}; {elapsed:.1f}s")


def test_criterion_13_complexity_growth():
    start = time.perf_counter()
    bench = run_benchmark(bit_lengths=(64, 128, 256, 512, 1024), t=16,
                          repeats=3, seed=0)
    elapsed = time.perf_counter() - start
    ok = bench.within_limit
    report(13, ok, f"fitted cost exponent {bench.slope:.2f} <= "
                   f"{bench.slope_limit} across 64..1024-bit composites, "
                   f"{elapsed:.1f}s")
