"""Exact Fermat-witness censuses over {1, ..., n-1}.

count_A counts bases with a^(n-1) == 1 (mod n), count_B the coprime
("non-trivial") witnesses, count_C the witnesses sharing a factor with n.
Two methods give the same counts, and neither uses the other, so each is
an oracle for the other.  Brute force, up to a fixed cap, finds the
residue a^(n-1) mod n and whether gcd(a, n) = 1 for every base without
factoring n: the map a -> a^(n-1) mod n is completely multiplicative, so
only prime bases pay a powmod and each composite base takes the product
of two residues already found, and for odd n the pairing a <-> n - a
halves the bases evaluated.  The exact census derives the counts from the
factorization of any n >= 3 by Monier's formula.  Proportions are exact
rationals with denominator n - 1; decimals appear only at display time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapExceededError, DomainError
from .factoring import Factorization, euler_phi

if TYPE_CHECKING:
    import numpy as np

# below 2^32, so residues mod n fit uint32 and the uint64 product of two
# stays exact; its square root is below 2^16, so the factor table fits uint16
DEFAULT_BRUTE_FORCE_CAP = 10_000_000
_CHUNK = 1 << 16


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
    """Exact counts from the residue a^(n-1) mod n of every base 1 <= a < n.

    No factorization of n is used, so this census is an oracle apart from
    census_exact and Monier's formula.  The map a -> a^(n-1) mod n is
    completely multiplicative, so a composite base a = p * (a / p) gets its
    residue as the product of two residues already known, and its unit
    flag gcd(a, n) == 1 as the and of theirs; only a prime base p pays a
    powmod, and it is a unit exactly when p does not divide n.  For odd n,
    (n - a)^(n-1) = a^(n-1) and gcd(n - a, n) = gcd(a, n), so the bases
    up to (n - 1) / 2 are evaluated and their counts doubled; an even n
    evaluates all of them.  The tables take 7 bytes per evaluated base.
    """
    if n < 3:
        raise DomainError(f"census needs n >= 3, got {n}")
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"n = {n} exceeds the brute-force cap {DEFAULT_BRUTE_FORCE_CAP}; "
            f"census_exact counts any n from its factorization")
    import numpy as np

    top = n - 1 if n % 2 == 0 else (n - 1) // 2
    residue, unit = _fermat_residues(n, top)
    count_a = int(np.count_nonzero(residue == 1))
    count_c = top - int(np.count_nonzero(unit))  # unit[0] is False
    if n % 2:
        count_a, count_c = 2 * count_a, 2 * count_c
    return WitnessCensus(n, count_a, n - 1 - count_a - count_c, count_c,
                         CensusMethod.BRUTE_FORCE)


def _fermat_residues(n: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """a^(n-1) mod n and gcd(a, n) == 1 for every base 0 <= a <= top < n.

    factor[a] is a prime p <= sqrt(a) dividing a composite a, and 0 when a
    is 0, 1 or prime.  The prime bases get their powmods first, _CHUNK at a
    time; the composites then run in chunks [lo, min(2 lo, lo + _CHUNK)),
    so every cofactor a / p <= a / 2 lies below lo and is already filled.
    """
    import numpy as np

    factor = np.zeros(top + 1, dtype=np.uint16)
    for p in range(2, math.isqrt(top) + 1):
        if factor[p] == 0:
            factor[p * p::p] = p
    residue = np.empty(top + 1, dtype=np.uint32)
    unit = np.empty(top + 1, dtype=bool)
    residue[:2] = 0, 1
    unit[:2] = False, True
    primes = np.flatnonzero(factor[2:] == 0) + 2
    modulus = np.uint64(n)
    for start in range(0, len(primes), _CHUNK):
        batch = primes[start:start + _CHUNK]
        bases = batch.astype(np.uint64)
        power = np.ones_like(bases)
        e = n - 1
        while e:
            if e & 1:
                power = power * bases % modulus
            e >>= 1
            if e:
                bases = bases * bases % modulus
        residue[batch] = power
        unit[batch] = n % batch != 0
    lo = 4
    while lo <= top:
        hi = min(2 * lo, lo + _CHUNK, top + 1)
        _census_chunk(lo, hi, factor, residue, unit, modulus)
        lo = hi
    return residue, unit


def _census_chunk(lo: int, hi: int, factor: np.ndarray, residue: np.ndarray,
                  unit: np.ndarray, modulus: np.uint64) -> None:
    """Fill residue and unit for the composite bases lo <= a < hi <= 2 lo."""
    import numpy as np

    composite = np.flatnonzero(factor[lo:hi]) + lo
    p = factor[composite].astype(np.intp)
    cofactor = composite // p
    residue[composite] = residue[p].astype(np.uint64) * residue[cofactor] % modulus
    unit[composite] = unit[p] & unit[cofactor]


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
