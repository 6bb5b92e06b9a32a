from fractions import Fraction

import pytest
from mpmath import mp, mpf

from carmlab import bound
from carmlab.bound import (BoundVerdict, bound_closed_form, bound_curve,
                           classify_by_bound, prime_factor_bound)
from carmlab.census import census_exact
from carmlab.errors import DomainError
from carmlab.factoring import factorize
from carmlab.korselt import chernick

# frozen from an independent 40-digit evaluation of the same expressions
# (parsed at high precision so the strings survive intact)
with mp.workprec(200):
    REF_561 = {
        "k": mpf("-0.1095067524944382256840408"),
        "x1": mpf("10.13185696060879284590717"),
        "x2": mpf("6.023343281054275043089901"),
        "f_at_x1": mpf("-1.269381409044554297089554"),
        "slope_at_x1": mpf("-0.3089636564584086052302635"),
    }


def rel_err(a, b):
    return abs(a - b) / abs(b)


def slope(a, n):
    """The curve's derivative (k+1) * a^k - 1 at the module's precision."""
    with mp.workprec(bound._PRECISION_BITS):
        return bound._slope(mpf(a), bound._half_exponent(n))


class TestCurve:
    def test_value_one_at_one(self):
        for n in (3, 561, 1729, 2**64, 2**1024):
            assert bound_curve(1, n) == 1

    def test_reference_point(self):
        value = bound_curve(REF_561["x1"], 561)
        assert rel_err(value, REF_561["f_at_x1"]) < mpf("1e-20")

    def test_below_one_rejected(self):
        for a in (0.5, float("nan"), float("inf"), float("-inf"), mpf("nan"), mpf("inf"),
                  None, "x", Fraction(3, 2)):
            with pytest.raises(DomainError, match="^a must be a finite real >= 1, got "):
                bound_curve(a, 561)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            bound_curve(2, 2)

    def test_shape_for_1729(self):
        # positive near 1, a single sign change, strictly decreasing
        values = [bound_curve(a, 1729) for a in range(1, 21)]
        assert values[0] > 0
        assert all(a > b for a, b in zip(values, values[1:]))
        changes = sum(1 for a, b in zip(values, values[1:]) if a > 0 >= b)
        assert changes == 1

    def test_slope_at_one_equals_k(self):
        for n in (3, 561, 10**6 + 3, 2**256):
            assert rel_err(slope(1, n),
                           prime_factor_bound(n).k) < mpf("1e-30")

    def test_slope_reference_point(self):
        value = slope(REF_561["x1"], 561)
        assert rel_err(value, REF_561["slope_at_x1"]) < mpf("1e-20")

    def test_slope_always_negative(self):
        for n in (3, 561, 2**64 + 13):
            for a in (1, 2, 10, 100, 1e6):
                assert slope(a, n) < 0


class TestPrimeFactorBound:
    def test_reference_561(self):
        ev = prime_factor_bound(561)
        assert rel_err(ev.k, REF_561["k"]) < mpf("1e-20")
        assert rel_err(ev.x1, REF_561["x1"]) < mpf("1e-20")
        assert rel_err(ev.x2, REF_561["x2"]) < mpf("1e-20")

    def test_1729_zero_in_figure_window(self):
        ev = prime_factor_bound(1729)
        lo, hi = ev.root_bracket
        assert 5 < lo and hi < 15
        assert ev.x2 >= lo

    def test_invariants_across_sizes(self):
        for n in (3, 4, 561, 1729, 10**6 + 3, 2**64 + 13, 2**256, 2**1024):
            ev = prime_factor_bound(n)
            lo, hi = ev.root_bracket
            assert -1 < ev.k < 0
            assert lo <= ev.x2 <= ev.x1
            assert hi - lo <= mpf("1e-9")
            assert bound_curve(lo, n) > 0 > bound_curve(hi, n)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            prime_factor_bound(2)

    def test_json_keys(self):
        record = prime_factor_bound(561).to_json_dict("Inconclusive")
        assert set(record) == {"n", "k", "x1", "x2", "root_lo", "root_hi", "verdict"}
        assert record["verdict"] == "Inconclusive"


class TestClosedForm:
    def test_matches_iteration(self):
        for n in (561, 1729, 10**6 + 3, 2**256, 2**1024):
            ev = prime_factor_bound(n)
            assert rel_err(ev.x2, bound_closed_form(n)) < mpf("1e-9")


class TestClassifyByBound:
    def test_small_prime_factor_is_inconclusive(self):
        assert classify_by_bound(561, factorize(561)) is BoundVerdict.INCONCLUSIVE

    def test_catalog_entries_never_guaranteed(self):
        # every catalog row has smallest prime 3, far below the bound
        for n in (1886616373665, 3852971941960065):
            assert classify_by_bound(n, factorize(n)) is BoundVerdict.INCONCLUSIVE

    def test_chernick_member_clears_bound(self):
        fac = factorize(294409)  # 37 * 73 * 109
        assert classify_by_bound(294409, fac) is BoundVerdict.GUARANTEED_BELOW_HALF

    def test_guaranteed_members_verified_by_exact_census(self):
        half = Fraction(1, 2)
        confirmed = 0
        for m in range(1, 101):
            n = chernick(m)
            if n is None:
                continue
            fac = factorize(n)
            if classify_by_bound(n, fac) is BoundVerdict.GUARANTEED_BELOW_HALF:
                confirmed += 1
                census = census_exact(n, fac)
                assert census.proportion_witnesses < half, n
        assert confirmed >= 2

    def test_non_carmichael_rejected(self):
        with pytest.raises(DomainError, match="not a Carmichael"):
            classify_by_bound(21, factorize(21))

    def test_subject_mismatch_rejected(self):
        with pytest.raises(DomainError, match="factorization does not describe n"):
            classify_by_bound(561, factorize(1105))
