"""Shared exception types and the one argument check for each numeric kind.

Integer arguments accept ints and numpy integers, rational ones whatever Fraction()
converts; anything else, or a value out of bounds, raises DomainError naming the argument.
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from fractions import Fraction

# Fraction() of a decimal string or Decimal builds 10^k for its k decimal places, or for
# a positive exponent k, which takes seconds at k = 10^7; and str() refuses an int of
# more than 4,300 digits by default. Beyond this bound a value is refused first, so that
# every accepted denominator can be written out.
_MAX_DECIMAL_SCALE = 4_000
_DECIMAL = re.compile(r"\s*[-+]?\d*(?:_\d+)*(?:\.(\d*(?:_\d+)*))?(?:[eE]([-+]?\d+(?:_\d+)*))?\s*\Z")


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
    """value as an exact Fraction in [low, high]; refuses NaN, infinities, "1/0", None,
    and a string or Decimal with more than _MAX_DECIMAL_SCALE decimal places or a
    larger exponent."""
    if _scale_too_large(value):
        raise DomainError(f"{name} must have at most {_MAX_DECIMAL_SCALE} decimal places and "
                          f"an exponent of at most {_MAX_DECIMAL_SCALE}, got {value!r}")
    value = _gate(name, "a rational", Fraction, value, low, high)
    return Fraction(int(value.numerator), int(value.denominator))  # numpy numerators overflow


def _scale_too_large(value) -> bool:
    """Whether value is a string or Decimal whose decimal places or exponent exceed
    _MAX_DECIMAL_SCALE, decided without building the power of ten."""
    if isinstance(value, Decimal):
        exponent = value.as_tuple().exponent  # a letter for NaN and the infinities
        return isinstance(exponent, int) and abs(exponent) > _MAX_DECIMAL_SCALE
    match = _DECIMAL.match(value) if isinstance(value, str) else None
    if match is None:
        return False
    places, exponent = (group.replace("_", "") for group in match.groups(""))
    digits = exponent.lstrip("+-").lstrip("0")
    if len(digits) > len(str(_MAX_DECIMAL_SCALE)):
        return True
    shift = -int(digits or 0) if exponent.startswith("-") else int(digits or 0)
    return max(shift, len(places) - shift) > _MAX_DECIMAL_SCALE


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
