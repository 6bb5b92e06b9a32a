"""An exact floor of (ln n)^2.

It drives the default Monte Carlo sample size and must round the same way
on every platform, so it is evaluated in extended precision rather than
in doubles.
"""

from __future__ import annotations

from mpmath import mp

from .errors import DomainError

# escalate precision whenever (ln n)^2 lands this close to an integer
_NEAR_INTEGER_BITS = 30
_MAX_PRECISION = 1 << 16


def natural_log_squared_floor(n: int) -> int:
    """Exact floor((ln n)^2) for any integer n >= 3.

    Evaluates in extended precision and escalates whenever the value is
    within 2^-30 of an integer, so the floor provably lands on the right
    side.  (ln n)^2 is irrational for integer n >= 2, so escalation
    terminates; the hard cap below is pure paranoia.
    """
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    precision = 96
    while precision <= _MAX_PRECISION:
        with mp.workprec(precision):
            value = mp.log(n) ** 2
            floored = int(mp.floor(value))
            gap = min(value - floored, floored + 1 - value)
            if gap > mp.mpf(2) ** -_NEAR_INTEGER_BITS:
                return floored
        precision *= 2
    raise ArithmeticError(f"(ln {n})^2 is too close to an integer to resolve")
