import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab.arith import natural_log_squared_floor
from carmlab.errors import DomainError


def interval_floor(n: int) -> int:
    """floor((ln n)^2) from mpmath's interval arithmetic: an enclosure whose
    endpoints share a floor settles it, independently of the library's rule."""
    saved = mpmath.iv.prec
    try:
        for precision in (256, 1024, 4096, 16384):
            mpmath.iv.prec = precision
            enclosure = mpmath.iv.log(n) ** 2
            lo, hi = int(mpmath.floor(enclosure.a)), int(mpmath.floor(enclosure.b))
            if lo == hi:
                return lo
    finally:
        mpmath.iv.prec = saved
    raise AssertionError(f"(ln {n})^2 unresolved at 16384 bits")


def floor_exp_sqrt(k: int) -> int:
    # floor(e^sqrt(k)): the largest n with (ln n)^2 < k, so (ln n)^2 sits just
    # below the integer k and (ln (n + 1))^2 just above it
    with mpmath.mp.workprec(8192):
        return int(mpmath.floor(mpmath.e ** mpmath.sqrt(k)))


class TestNaturalLogSquaredFloor:
    def test_reference_values(self):
        # (ln 561)^2 = 40.0653...; (ln 3)^2 = 1.2069...; (ln 21)^2 = 9.2691...
        assert natural_log_squared_floor(561) == 40
        assert natural_log_squared_floor(3) == 1
        assert natural_log_squared_floor(21) == 9

    def test_near_integer_resolved_exactly(self):
        # (ln 22026)^2 = 99.99957705...; the floor is 99, not 100
        assert natural_log_squared_floor(22026) == 99

    @pytest.mark.parametrize("k", [764, 1967, 1968, 7871, 7872, 503791])
    def test_integers_just_below_and_above_an_integer_square(self, k):
        # n of 40, 64, 65, 128, 129 and 1024 bits; (ln n)^2 is within about
        # 2k^(1/2)/n of k, far inside a fixed 2^-30 margin
        n = floor_exp_sqrt(k)
        assert natural_log_squared_floor(n) == interval_floor(n) == k - 1
        assert natural_log_squared_floor(n + 1) == interval_floor(n + 1) == k

    def test_neighbourhood_of_a_near_integer(self):
        # around floor(e^sqrt(764)) = 1009574349859 every gap is below 2^-30
        centre = floor_exp_sqrt(764)
        for n in range(centre - 40, centre + 41):
            assert natural_log_squared_floor(n) == interval_floor(n)

    @given(st.integers(3, 2**1100))
    @settings(max_examples=200, deadline=None)
    def test_matches_interval_arithmetic(self, n):
        assert natural_log_squared_floor(n) == interval_floor(n)

    def test_huge_operand(self):
        # (1024 ln 2)^2 = 503791.4995...
        assert natural_log_squared_floor(2**1024) == 503791

    def test_below_three_rejected(self):
        for n in (2, 1, 0):
            with pytest.raises(DomainError):
                natural_log_squared_floor(n)

    def test_monotone_on_initial_range(self):
        values = [natural_log_squared_floor(n) for n in range(3, 3000)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(st.integers(3, 10**30), st.integers(0, 10**6))
    @settings(max_examples=200)
    def test_monotone_for_random_pairs(self, n, delta):
        assert natural_log_squared_floor(n) <= natural_log_squared_floor(n + delta)
