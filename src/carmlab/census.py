"""Exact Fermat-witness censuses over {1, ..., n-1}.

count_A counts bases with a^(n-1) == 1 (mod n), count_B the coprime
("non-trivial") witnesses, count_C the witnesses sharing a factor with n.
Two methods give the same counts: brute force evaluates every base up to
a fixed cap, and the exact census derives them from the factorization of
any n >= 3 by Monier's formula.  Proportions are exact rationals with
denominator n - 1; decimals appear only at display time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import CapExceededError, DomainError
from .factoring import Factorization, euler_phi

# below 2^32, so the uint64 product of two residues mod n stays exact
DEFAULT_BRUTE_FORCE_CAP = 10_000_000
_CHUNK = 1 << 20


class CensusMethod(Enum):
    BRUTE_FORCE = "BruteForce"
    TOTIENT_EXACT = "TotientExact"


class WitnessKind(Enum):
    NON_WITNESS = "NonWitness"
    TRIVIAL_WITNESS = "TrivialWitness"
    NON_TRIVIAL_WITNESS = "NonTrivialWitness"


def classify_witness(a: int, n: int) -> WitnessKind:
    """Three-way Fermat classification of a single base a against n."""
    if n < 3:
        raise DomainError(f"n must be >= 3, got {n}")
    if not 1 <= a <= n - 1:
        raise DomainError(f"a must lie in [1, {n - 1}], got {a}")
    if math.gcd(a, n) > 1:
        # a is not invertible mod n, so a^(n-1) cannot be 1
        return WitnessKind.TRIVIAL_WITNESS
    if pow(a, n - 1, n) == 1:
        return WitnessKind.NON_WITNESS
    return WitnessKind.NON_TRIVIAL_WITNESS


@dataclass(frozen=True)
class WitnessCensus:
    n: int
    count_A: int
    count_B: int
    count_C: int
    method: CensusMethod

    def __post_init__(self):
        if self.count_A + self.count_B + self.count_C != self.n - 1:
            raise DomainError("census counts must partition {1, ..., n-1}")
        if self.count_A < 1:
            raise DomainError("count_A must be >= 1 (a = 1 is never a witness)")

    @property
    def proportion_witnesses(self) -> Fraction:
        return Fraction(self.count_B + self.count_C, self.n - 1)

    def to_json_dict(self) -> dict:
        proportion = self.proportion_witnesses
        return {"n": self.n, "count_A": self.count_A, "count_B": self.count_B,
                "count_C": self.count_C,
                "proportion_num": proportion.numerator,
                "proportion_den": proportion.denominator,
                "method": self.method.value}


def census_brute_force(n: int) -> WitnessCensus:
    """Exact counts by evaluating every base from 1 to n-1.

    The range is processed in chunks (vectorized powmod per chunk) and the
    chunk counts are summed, so memory stays flat up to the cap.
    """
    if n < 3:
        raise DomainError(f"census needs n >= 3, got {n}")
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"n = {n} exceeds the brute-force cap {DEFAULT_BRUTE_FORCE_CAP}; "
            f"census_exact counts any n from its factorization")
    exponent = n - 1
    count_a = 0
    count_c = 0
    for lo in range(1, n, _CHUNK):
        part_a, part_c = _census_chunk(lo, min(lo + _CHUNK, n), n, exponent)
        count_a += part_a
        count_c += part_c
    return WitnessCensus(n, count_a, n - 1 - count_a - count_c, count_c,
                         CensusMethod.BRUTE_FORCE)


def _census_chunk(lo: int, hi: int, n: int, exponent: int) -> tuple[int, int]:
    bases = np.arange(lo, hi, dtype=np.uint64)
    modulus = np.uint64(n)
    power = np.ones_like(bases)
    square = bases.copy()
    e = exponent
    while e:
        if e & 1:
            power = power * square % modulus
        e >>= 1
        if e:
            square = square * square % modulus
    count_a = int((power == 1).sum())
    count_c = int((np.gcd(bases.astype(np.int64), n) > 1).sum())
    return count_a, count_c


def census_exact(n: int, factorization: Factorization) -> WitnessCensus:
    """Census from the factorization of n, for every n >= 3.

    Monier's count of Fermat liars (Monier 1980; Baillie & Wagstaff 1980)
    is count_A = prod over primes p | n of gcd(n - 1, p - 1).  The bases
    sharing a factor with n number count_C = n - 1 - phi(n), and the
    coprime witnesses are the rest, count_B = phi(n) - count_A.  For a
    prime or a Carmichael number count_A = phi(n) and count_B = 0.
    """
    if n < 3:
        raise DomainError(f"census needs n >= 3, got {n}")
    if factorization.subject != n:
        raise DomainError("factorization does not describe n")
    count_a = math.prod(math.gcd(n - 1, p - 1) for p in factorization.primes)
    phi = euler_phi(factorization)
    return WitnessCensus(n, count_a, phi - count_a, n - 1 - phi,
                         CensusMethod.TOTIENT_EXACT)
