"""An exact floor of (ln n)^2.

It drives the default Monte Carlo sample size and must round the same way
on every platform, so it is evaluated in extended precision rather than
in doubles.  mpmath is imported on first use.
"""

from __future__ import annotations

from .errors import integer

# bits of slack between the accepted gap and the rounding error of (ln n)^2
_SLACK_BITS = 30
_MAX_PRECISION = 1 << 16


def natural_log_squared_floor(n: int) -> int:
    """Exact floor((ln n)^2) for any integer n >= 3.

    At a working precision of p bits, the computed (ln n)^2 is off by a few
    units in its last place.  Its floor is accepted once the distance to the
    nearest integer exceeds value * 2^(30 - p), which leaves 30 bits of
    slack over that error, so the floor provably lands on the right side;
    otherwise p doubles.  ln n is transcendental for integer n >= 2
    (Lindemann-Weierstrass), so (ln n)^2 is never an integer, and the margin
    halves with each bit of precision, so escalation stops once the margin
    falls below the true gap.  The hard cap below is pure paranoia.
    """
    n = integer("n", n, 3)
    from mpmath import mp

    precision = 96
    while precision <= _MAX_PRECISION:
        with mp.workprec(precision):
            value = mp.log(n) ** 2
            floored = int(mp.floor(value))
            gap = min(value - floored, floored + 1 - value)
            if gap > mp.ldexp(value, _SLACK_BITS - precision):
                return floored
        precision *= 2
    raise ArithmeticError(f"(ln {n})^2 is too close to an integer to resolve")
