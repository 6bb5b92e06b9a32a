"""Lower bound on the smallest prime factor of a Carmichael number that
forces its witness proportion below 50%.

The bound is the second Newton iterate, from a = 1, toward the zero of
the curve g(a) = a^(k+1) - a + 1, where k is the exponent with n^k = 1/2.
The curve is concave and strictly decreasing past a = 1, so every Newton
iterate lands at or above the true zero; a Carmichael number whose
smallest prime factor clears the iterate therefore clears the zero, and
its witness proportion (in the n-denominator approximation) stays below
one half.  The exponent k + 1 can be spelled either log_n(n/2) or
1 + log_n(1/2); the two are identical and this module uses k + 1
throughout.

All real arithmetic here runs at 192-bit precision: the expressions mix
exponentials of logarithms and lose digits in doubles once n reaches
RSA-size magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from mpmath import mp, mpf

from .errors import DomainError
from .factoring import Factorization
from .korselt import is_carmichael

_PRECISION_BITS = 192
DEFAULT_BRACKET_WIDTH = 1e-9


def _half_exponent(n: int) -> mpf:
    # k with n**k == 1/2; in (-1, 0) for every n >= 3
    return -mp.log(2) / mp.log(n)


def _curve(a: mpf, k: mpf) -> mpf:
    return a ** (k + 1) - a + 1


def _slope(a: mpf, k: mpf) -> mpf:
    return (k + 1) * a ** k - 1


def bound_curve(a, n: int) -> mpf:
    """a^(k+1) - a + 1 for the given n; positive at a = 1, one zero beyond."""
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    with mp.workprec(_PRECISION_BITS):
        point = mpf(a)
        if point < 1:
            raise DomainError(f"a must be >= 1, got {a}")
        return _curve(point, _half_exponent(n))


@dataclass(frozen=True)
class BoundEvaluation:
    """Both Newton iterates plus a verified bisection bracket of the true zero.

    Invariants: k in (-1, 0); root_bracket[0] <= x2 <= x1; the bracket
    endpoints straddle the zero (the curve changes sign across them).
    """

    n: int
    k: mpf
    x1: mpf
    x2: mpf
    root_bracket: tuple[mpf, mpf]

    def to_json_dict(self, verdict: str | None = None) -> dict:
        lo, hi = self.root_bracket
        return {"n": self.n, "k": mp.nstr(self.k, 17), "x1": mp.nstr(self.x1, 17),
                "x2": mp.nstr(self.x2, 17), "root_lo": mp.nstr(lo, 17),
                "root_hi": mp.nstr(hi, 17), "verdict": verdict}


def prime_factor_bound(n: int) -> BoundEvaluation:
    """Two Newton steps from a = 1, plus a bisection bracket of the zero.

    x1 = 1 + log2(n) (the first step lands there exactly), then
    x2 = x1 - g(x1)/g'(x1).  Bisection of [1, x1] verifies that the zero
    sits below x2, down to a bracket width of DEFAULT_BRACKET_WIDTH.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    with mp.workprec(_PRECISION_BITS):
        k = _half_exponent(n)
        x1 = 1 + mp.log(n) / mp.log(2)
        f_x1 = _curve(x1, k)
        if f_x1 >= 0:
            raise ArithmeticError(f"curve unexpectedly non-negative at x1 for n={n}")
        x2 = x1 - f_x1 / _slope(x1, k)
        lo, hi = mpf(1), x1  # g(1) = 1 > 0 > g(x1)
        while hi - lo > DEFAULT_BRACKET_WIDTH:
            mid = (lo + hi) / 2
            if _curve(mid, k) > 0:
                lo = mid
            else:
                hi = mid
        return BoundEvaluation(n, k, x1, x2, (lo, hi))


def bound_closed_form(n: int) -> mpf:
    """The second iterate written as a single closed-form expression.

    Kept as an independent spelling (no shared Newton code) so the two
    routes can cross-check each other.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    with mp.workprec(_PRECISION_BITS):
        log2_n = mp.log(n) / mp.log(2)
        k = -mp.log(2) / mp.log(n)           # log_n(1/2)
        k_plus_1 = (mp.log(n) - mp.log(2)) / mp.log(n)  # log_n(n/2)
        x1 = 1 + log2_n
        return x1 - (x1 ** k_plus_1 - log2_n) / (k_plus_1 * x1 ** k - 1)


class BoundVerdict(Enum):
    GUARANTEED_BELOW_HALF = "GuaranteedBelowHalf"
    INCONCLUSIVE = "Inconclusive"


def classify_by_bound(n: int, factorization: Factorization) -> BoundVerdict:
    """GuaranteedBelowHalf when the smallest prime factor clears the bound.

    The bound is a sufficient condition only: Inconclusive carries no
    information about the actual witness proportion.
    """
    if not is_carmichael(n, factorization):
        raise DomainError(f"{n} is not a Carmichael number")
    evaluation = prime_factor_bound(n)
    with mp.workprec(_PRECISION_BITS):
        if mpf(factorization.smallest_prime) >= evaluation.x2:
            return BoundVerdict.GUARANTEED_BELOW_HALF
    return BoundVerdict.INCONCLUSIVE
