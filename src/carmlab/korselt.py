"""Korselt's criterion: certification, the (6m+1)(12m+1)(18m+1) family,
and bulk enumeration by a blocked sieve.

A composite n is Carmichael exactly when it is squarefree and (p - 1)
divides (n - 1) for every prime p dividing n.  For a prime p dividing n,
the divisibility is the residue class n = p (mod p(p - 1)), the form on
which Pinch's counts rest ("The Carmichael numbers up to 10^21", 2007);
the sieve strides along these classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CapExceededError, DomainError, integer
from .factoring import Factorization, factorize, is_prime, primes_up_to

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUMERATION_CAP = 100_000_000
# The sieve's upper end: its prime table up to sqrt(hi) stays near 10 MB and
# every int64 value and product in a block stays exact.
SIEVE_HI_CAP = 10**14
_BLOCK_ODDS = 1 << 19  # odd candidates per sieve block
_PRESIEVE_PRIMES = 5  # 3, 5, 7, 11 and 13: struck once per 30,030-slot period


@dataclass(frozen=True)
class CarmichaelCertificate:
    """Korselt evidence for one n: the factorization, squarefreeness, and
    the per-prime (p - 1) | (n - 1) outcomes.  Truthy iff n is Carmichael."""

    n: int
    factorization: Factorization

    @property
    def squarefree(self) -> bool:
        return self.factorization.squarefree

    @property
    def divisibility_checks(self) -> tuple[tuple[int, bool], ...]:
        return tuple((p, (self.n - 1) % (p - 1) == 0) for p in self.factorization.primes)

    @property
    def is_carmichael(self) -> bool:
        return (self.squarefree and len(self.factorization.factors) >= 2
                and all(ok for _, ok in self.divisibility_checks))

    def __bool__(self) -> bool:
        return self.is_carmichael

    def to_json_dict(self) -> dict:
        return {"n": self.n,
                "factors": [[p, e] for p, e in self.factorization.factors],
                "squarefree": self.squarefree,
                "divisibility_checks": [[p, ok] for p, ok in self.divisibility_checks],
                "is_carmichael": self.is_carmichael}


def is_carmichael(n: int, factorization: Factorization | None = None) -> CarmichaelCertificate:
    """Certificate for n; use its truth value for the plain verdict.

    Without a factorization, n is factored under the default budget.
    Primes and 1 yield a falsy certificate (not composite).
    """
    n = integer("n", n, 1)
    if factorization is None:
        factorization = Factorization(1, ()) if n == 1 else factorize(n)
    elif factorization.subject != n:
        raise DomainError("factorization does not describe n")
    return CarmichaelCertificate(n, factorization)


def chernick(m: int) -> int | None:
    """(6m+1)(12m+1)(18m+1) when all three factors are prime, else None.

    Any such product is Carmichael, so scanning m is a cheap generator of
    examples; absence (a composite factor) is expected, not an error.
    """
    m = integer("m", m, 1)
    parts = (6 * m + 1, 12 * m + 1, 18 * m + 1)
    if all(is_prime(x) for x in parts):
        return parts[0] * parts[1] * parts[2]
    return None


def enumerate_carmichael(limit: int) -> list[int]:
    """All Carmichael numbers <= limit, in increasing order.

    Blocked sieve over the odd candidates: each prime p below sqrt(limit)
    records itself on its Korselt residue class above p; no candidate is
    factored or divided, and one is kept when the product of its recorded
    primes equals it (see _scan_block).  A limit above the fixed
    DEFAULT_ENUMERATION_CAP raises CapExceededError;
    enumerate_carmichael_range(3, limit) runs the same sieve past it.
    """
    limit = integer("limit", limit, 0)
    if limit > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"limit {limit} exceeds the enumeration cap "
                               f"{DEFAULT_ENUMERATION_CAP}")
    return enumerate_carmichael_range(3, limit)


def enumerate_carmichael_range(lo: int, hi: int) -> list[int]:
    """Carmichael numbers in [lo, hi]; windows that tile a range give its
    list when their results are concatenated in order.  hi above
    SIEVE_HI_CAP raises CapExceededError before anything is allocated."""
    lo, hi = integer("lo", lo), integer("hi", hi)
    if hi > SIEVE_HI_CAP:
        raise CapExceededError(f"hi {hi} exceeds the sieve cap {SIEVE_HI_CAP}")
    lo = max(lo, 3)
    if hi < 9:  # smallest odd composite is 9
        return []
    if lo % 2 == 0:
        lo += 1
    primes = primes_up_to(math.isqrt(hi))[1:]  # odd primes
    found: list[int] = []
    for block_lo in range(lo, hi + 1, 2 * _BLOCK_ODDS):
        block_hi = min(block_lo + 2 * (_BLOCK_ODDS - 1), hi)
        if block_hi % 2 == 0:
            block_hi -= 1
        found.extend(_scan_block(block_lo, block_hi, primes))
    return found


def _scan_block(lo: int, hi: int, primes: np.ndarray) -> list[int]:
    """Korselt scan of the odd values in [lo, hi]; primes is an ascending
    int64 array of the odd primes up to at least sqrt(hi).

    For a prime p dividing n, (p - 1) | (n - 1) holds exactly when
    n = p (mod p(p - 1)), the residue-class form of Korselt's criterion
    that Pinch's counts rest on (Pinch, "The Carmichael numbers up to
    10^21", 2007). Each sieving prime multiplies itself into found on the
    slots of that class, which lie p(p - 1)/2 apart from the slot of
    (p - lo) mod p(p - 1). No p may be recorded on n = p, so a strided
    prime p >= lo starts at p^2 instead, the next member of its class.

    The primes 3 to 13 are pre-sieved, as segmented prime sieves do: their
    strides 3, 10, 21, 55 and 78 repeat together every lcm = 30,030 slots,
    so one period is struck from each class's first slot and copied across
    the block. That pattern holds p on the slot of n = p for p >= lo, which
    is divided back out after the copy. The pre-sieve stops at 13 because
    17 (stride 136) would make the period 2,042,040 slots, more than a
    block. Primes from 17 whose class recurs within the block store with
    one strided multiply each; a larger prime touches at most one slot, so
    all of them are recorded at once by one numpy expression: the bucket
    idea of segmented sieves (T. Oliveira e Silva) applied to Korselt's
    classes.

    A value is kept exactly when found equals n. Every recorded p divides
    n, passes (p - 1) | (n - 1) and is less than n, so found = n makes n a
    product of at least two distinct primes, each passing Korselt's check:
    squarefree, composite and Carmichael. No Carmichael number is missed:
    all its prime factors lie below sqrt(n), so every one is recorded and
    found is n.
    """
    import numpy as np

    count = (hi - lo) // 2 + 1
    primes = primes[:np.searchsorted(primes, math.isqrt(hi), side="right")]
    stride = primes * (primes - 1) // 2
    start = np.where(primes < lo, (primes - lo) % (2 * stride), primes * primes - lo) // 2
    small = np.searchsorted(stride, count)
    w = min(_PRESIEVE_PRIMES, small)
    pre_primes, pre_steps = primes[:w].tolist(), stride[:w].tolist()
    # product of the recorded primes, first over one period of the pre-sieve
    found = np.ones(min(math.lcm(*pre_steps), count), dtype=np.int64)
    for p, step in zip(pre_primes, pre_steps):
        found[(p - lo) % (2 * step) // 2::step] *= p
    found = np.resize(found, count)
    for p in pre_primes:
        if p >= lo:
            found[(p - lo) // 2] //= p  # the class from p itself holds n = p
    for p, first, step in zip(primes[w:small].tolist(), start[w:small].tolist(),
                              stride[w:small].tolist()):
        found[first::step] *= p
    hit = start[small:] < count
    np.multiply.at(found, start[small:][hit], primes[small:][hit])  # .at: slots can repeat
    index = np.flatnonzero(found >= lo)  # found = n needs found >= lo
    n_vals = lo + 2 * index
    return n_vals[found[index] == n_vals].tolist()
