import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carmlab.arith import natural_log_squared_floor
from carmlab.errors import DomainError


class TestNaturalLogSquaredFloor:
    def test_reference_values(self):
        # (ln 561)^2 = 40.0653...; (ln 3)^2 = 1.2069...; (ln 21)^2 = 9.2691...
        assert natural_log_squared_floor(561) == 40
        assert natural_log_squared_floor(3) == 1
        assert natural_log_squared_floor(21) == 9

    def test_near_integer_resolved_exactly(self):
        # (ln 22026)^2 = 99.99957705...; the floor is 99, not 100
        assert natural_log_squared_floor(22026) == 99

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
