"""Shared exception types and the one argument check for each numeric kind.

Integer arguments accept ints and numpy integers, rational ones whatever Fraction()
converts; anything else, or a value out of bounds, raises DomainError naming the argument.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class CapExceededError(RuntimeError):
    """A request exceeds a configured size cap."""


class FactorizationError(RuntimeError):
    """Factoring ran out of budget on a composite it could not split."""


def integer(name: str, value, minimum: int | None = None, maximum: int | None = None) -> int:
    """value as a Python int, numpy integers included, in [minimum, maximum]."""
    return _gate(name, "an integer", operator.index, value, minimum, maximum)


def rational(name: str, value, low=None, high=None) -> Fraction:
    """value as an exact Fraction in [low, high]; refuses NaN, infinities, "1/0", None."""
    value = _gate(name, "a rational", Fraction, value, low, high)
    return Fraction(int(value.numerator), int(value.denominator))  # numpy numerators overflow


def _gate(name: str, kind: str, convert, value, low, high):
    try:
        value = convert(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(f"{name} must be {kind}, got {value!r}") from None
    if low is not None and value < low:
        raise DomainError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise DomainError(f"{name} must be <= {high}, got {value}")
    return value
