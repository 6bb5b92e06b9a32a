"""Shared exception types and the one integer argument check.

Integer arguments accept ints and numpy integers; anything else raises
DomainError naming the argument.
"""

from __future__ import annotations

import operator


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class CapExceededError(RuntimeError):
    """A request exceeds a configured size cap."""


class FactorizationError(RuntimeError):
    """Factoring ran out of budget on a composite it could not split."""


def integer(name: str, value, minimum: int | None = None) -> int:
    """value as a Python int, numpy integers included; DomainError naming
    the argument when value is not an integer or is below minimum."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value
