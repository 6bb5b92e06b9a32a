"""Shared exception types."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument is outside an operation's documented domain."""


class CapExceededError(RuntimeError):
    """A request exceeds a configured size cap."""


class FactorizationError(RuntimeError):
    """Factoring ran out of budget on a composite it could not split."""
