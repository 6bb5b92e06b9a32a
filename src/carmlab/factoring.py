"""Desk-scale factoring and primality.

Trial division plus Brent's cycle finder cover everything this package
needs (the catalog numbers peak near 10^17 with modest prime factors).
Primality is strong-pseudoprime testing with fixed witnesses, exact for
every n below DETERMINISTIC_WITNESS_BOUND; beyond that, extra rounds push
the error probability below 2^-128 and the answer is flagged.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, FactorizationError, integer
from .randutil import uniform_below

if TYPE_CHECKING:
    import numpy as np

# The first twelve primes witness correctly for every n below this bound
# (well past 2^64).
DETERMINISTIC_WITNESS_BOUND = 3_317_044_064_679_887_385_961_981
_FIXED_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_EXTRA_ROUNDS = 64  # error < 4**-64 past the deterministic bound


def primes_up_to(limit: int) -> np.ndarray:
    """All primes <= limit as an ascending int64 array, empty for limit < 2.

    A numpy bool sieve over the odd numbers only, half a byte per integer:
    odd[i] stands for 2i + 1, and each odd prime p <= sqrt(limit) strikes
    its odd multiples from p^2.  The flag for 1 is left standing, and its
    entry in the result becomes 2."""
    import numpy as np

    limit = integer("limit", limit)
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2::p] = False
    primes = 2 * np.flatnonzero(odd) + 1
    primes[0] = 2
    return primes


def _small_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit by a bytearray sieve, so that importing the
    package does not load numpy; the tests also hold primes_up_to to it."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(itertools.compress(range(limit + 1), sieve))


_SMALL_PRIMES = _small_primes(1000)
# below 1009^2, surviving trial division by _SMALL_PRIMES proves primality
_TRIAL_COMPLETE_BOUND = 1009 * 1009


def _strong_probable_prime(n: int, base: int) -> bool:
    # n odd, n > 2, and 2 <= base <= n - 2
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@dataclass(frozen=True)
class PrimalityCheck:
    is_prime: bool
    probabilistic: bool  # True only for prime verdicts above the witness bound


def prime_check(n: int) -> PrimalityCheck:
    """Primality with an explicit flag for the probabilistic regime.

    Composite verdicts are always certain (a failing witness is a proof);
    prime verdicts are certain below DETERMINISTIC_WITNESS_BOUND and carry
    probabilistic=True above it.
    """
    n = integer("n", n, 0)
    if n < 2:
        return PrimalityCheck(False, False)
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return PrimalityCheck(n == p, False)
        if p * p > n:
            break
    if n < _TRIAL_COMPLETE_BOUND:
        return PrimalityCheck(True, False)
    for base in _FIXED_WITNESSES:
        if not _strong_probable_prime(n, base):
            return PrimalityCheck(False, False)
    if n < DETERMINISTIC_WITNESS_BOUND:
        return PrimalityCheck(True, False)
    rng = random.Random(n ^ 0xD1B54A32D192ED03)
    for _ in range(_EXTRA_ROUNDS):
        base = 2 + uniform_below(rng, n - 3)
        if not _strong_probable_prime(n, base):
            return PrimalityCheck(False, False)
    return PrimalityCheck(True, True)


def is_prime(n: int) -> bool:
    return prime_check(n).is_prime


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization: strictly increasing (prime, exponent) pairs
    whose product reconstructs the subject."""

    subject: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        subject = integer("subject", self.subject)
        factors = tuple((integer("factor", p), integer(f"exponent of {p}", e, 1))
                        for p, e in self.factors)
        product = 1
        previous = 1
        for p, e in factors:
            if p <= previous:
                raise DomainError("primes must be strictly increasing")
            if not is_prime(p):
                raise DomainError(f"factor {p} is not prime")
            previous = p
            product *= p ** e
        if product != subject:
            raise DomainError(f"factors reconstruct {product}, not {subject}")
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "factors", factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def smallest_prime(self) -> int:
        if not self.factors:
            raise DomainError("an empty factorization has no prime factors")
        return self.factors[0][0]

    @property
    def squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


@dataclass(frozen=True)
class FactorBudget:
    """Effort limits for factorize; exceeding them raises rather than hangs."""

    rho_restarts: int = 24
    rho_max_steps: int = 1 << 21


DEFAULT_BUDGET = FactorBudget()


def euler_phi(factorization: Factorization) -> int:
    """Euler's totient from a complete factorization."""
    result = 1
    for p, e in factorization.factors:
        result *= p ** (e - 1) * (p - 1)
    return result


def factorize(n: int, budget: FactorBudget = DEFAULT_BUDGET) -> Factorization:
    """Complete factorization of n >= 2 within the given effort budget.

    Trial division by the cached small primes, then Brent's rho with
    per-n deterministic parameters; raises FactorizationError naming the
    composite it stopped at when the budget runs out.
    """
    n = integer("n", n, 2)
    found: dict[int, int] = {}
    remaining = n
    for p in _SMALL_PRIMES:
        if p * p > remaining:
            break
        while remaining % p == 0:
            found[p] = found.get(p, 0) + 1
            remaining //= p
    if remaining > 1:
        stack = [remaining]
        while stack:
            c = stack.pop()
            if prime_check(c).is_prime:
                found[c] = found.get(c, 0) + 1
                continue
            divisor = _split_composite(c, budget)
            if divisor is None:
                raise FactorizationError(
                    f"factorization incomplete for {n}: effort budget exhausted "
                    f"at composite cofactor {c}")
            stack.append(divisor)
            stack.append(c // divisor)
    return Factorization(n, tuple(sorted(found.items())))


def _split_composite(c: int, budget: FactorBudget) -> int | None:
    """One non-trivial divisor of the odd composite c, or None on budget exhaustion."""
    rng = random.Random(c)  # deterministic per c: reproducible results
    for _ in range(budget.rho_restarts):
        offset = 1 + uniform_below(rng, min(c - 3, 1 << 30))
        divisor = _brent_rho(c, offset, budget.rho_max_steps)
        if divisor is not None:
            return divisor
    return None


def _brent_rho(n: int, offset: int, max_steps: int) -> int | None:
    """Brent's variant of Pollard's rho with x -> x^2 + offset."""
    y, r, q = 2, 1, 1
    g = 1
    steps = 0
    x = ys = y
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + offset) % n
        k = 0
        while k < r and g == 1:
            ys = y
            window = min(128, r - k)
            for _ in range(window):
                y = (y * y + offset) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += window
            steps += window
            if steps > max_steps:
                return None
        r *= 2
    if g == n:
        # the batched gcd overshot; replay one step at a time
        g = 1
        while g == 1:
            ys = (ys * ys + offset) % n
            g = math.gcd(abs(x - ys), n)
    return g if g != n else None
