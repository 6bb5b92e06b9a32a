"""Exact Fermat-witness censuses over {1, ..., n-1}.

count_A counts bases with a^(n-1) == 1 (mod n), count_B the coprime
("non-trivial") witnesses, count_C the witnesses sharing a factor with n.
Two methods give the same counts, and neither uses the other, so each is
an oracle for the other.  Brute force, up to a fixed cap, finds the
residue a^(n-1) mod n of every base, 0 when gcd(a, n) > 1, without
factoring n, by one powmod per prime base and, a -> a^(n-1) mod n being
completely multiplicative, strided sweeps over the sieving primes for the
composites.  The exact census derives the counts from the factorization
of any n >= 3 by Monier's formula.  Proportions are exact rationals with
denominator n - 1; decimals appear only at display time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import CapExceededError, DomainError, integer
from .factoring import Factorization, euler_phi, primes_up_to

if TYPE_CHECKING:
    import numpy as np

# below 2^32, so residues mod n fit uint32 and the uint64 product of two stays exact
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
    n = integer("n", n, 3)
    a = integer("a", a, 1, n - 1)
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
    census_exact and Monier's formula.  As a -> a^(n-1) mod n is completely
    multiplicative, only prime bases pay a powmod and a composite a takes
    the product of the residues of its least prime p and of a / p; a prime
    dividing n reads 0, and so do its multiples.  For odd n,
    (n - a)^(n-1) = a^(n-1) and gcd(n - a, n) = gcd(a, n), so only the bases
    up to (n - 1) / 2 are evaluated, and their counts doubled.  The one
    table, the residue, takes 4 bytes per evaluated base; primes_up_to's
    sieve flags, half a byte per base, are freed before it is made.
    """
    n = integer("n", n, 3)
    if n > DEFAULT_BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"n = {n} exceeds the brute-force cap {DEFAULT_BRUTE_FORCE_CAP}; "
            f"census_exact counts any n from its factorization")
    import numpy as np

    top = n - 1 if n % 2 == 0 else (n - 1) // 2
    residue = _fermat_residues(n, top)
    count_a = int(np.count_nonzero(residue == 1))
    count_c = int(np.count_nonzero(residue == 0)) - 1  # residue[0] is 0
    if n % 2:
        count_a, count_c = 2 * count_a, 2 * count_c
    return WitnessCensus(n, count_a, n - 1 - count_a - count_c, count_c,
                         CensusMethod.BRUTE_FORCE)


def _fermat_residues(n: int, top: int) -> np.ndarray:
    """a^(n-1) mod n if gcd(a, n) = 1, else 0, for every base 0 <= a <= top < n.

    The primes up to top come from primes_up_to, whose odd-only sieve
    flags are freed when it returns, and get their powmods _CHUNK at a
    time, each product reduced in place by _reduce; a prime dividing n
    then gets residue 0.  Each sieving prime p, largest first,
    sets residue[p m] = residue[p] residue[m] for m >= p (odd m when p is
    odd) in sub-ranges [lo, min(p lo, lo + _CHUNK)) that keep sources below
    targets, so a composite is last written at its least prime p, from a
    cofactor whose least prime is at least p and whose residue is final;
    a unit's residue is a unit mod n, so never 0.
    """
    import numpy as np

    primes = primes_up_to(top)
    residue = np.empty(top + 1, dtype=np.uint32)
    residue[:2] = 0, 1
    modulus = np.uint64(n)
    for start in range(0, len(primes), _CHUNK):
        batch = primes[start:start + _CHUNK]
        bases = batch.astype(np.uint64)
        power = np.ones_like(bases)
        e = n - 1
        while e:
            if e & 1:
                power *= bases
                _reduce(power, modulus)
            e >>= 1
            if e:
                bases *= bases
                _reduce(bases, modulus)
        residue[batch] = power
    residue[primes[n % primes == 0]] = 0
    for p in primes[primes <= math.isqrt(top)][::-1].tolist():
        lo, end = p, top // p + 1
        while lo < end:
            hi = min(p * lo, lo + _CHUNK, end)
            _census_chunk(p, lo, hi, residue, modulus)
            lo = hi
    return residue


def _census_chunk(p: int, lo: int, hi: int, residue: np.ndarray, modulus: np.uint64) -> None:
    """Set residue[p * m] for lo <= m < hi, odd m only when p is odd."""
    import numpy as np

    step = 1 if p == 2 else 2
    product = residue[lo:hi:step].astype(np.uint64)
    product *= residue[p]
    _reduce(product, modulus)
    residue[p * lo:p * hi:p * step] = product


def _reduce(x: np.ndarray, modulus: np.uint64) -> None:
    """x %= modulus in place for uint64 x, by numpy's division by an
    invariant scalar, which uint64 % does not take; the quotient is the
    one temporary."""
    quotient = x // modulus
    quotient *= modulus
    x -= quotient


def census_exact(n: int, factorization: Factorization) -> WitnessCensus:
    """Census from the factorization of n, for every n >= 3.

    Monier's count of Fermat liars (Monier 1980; Baillie & Wagstaff 1980)
    is count_A = prod over primes p | n of gcd(n - 1, p - 1).  The bases
    sharing a factor with n number count_C = n - 1 - phi(n), and the
    coprime witnesses are the rest, count_B = phi(n) - count_A.  For a
    prime or a Carmichael number count_A = phi(n) and count_B = 0.
    """
    n = integer("n", n, 3)
    if factorization.subject != n:
        raise DomainError("factorization does not describe n")
    count_a = math.prod(math.gcd(n - 1, p - 1) for p in factorization.primes)
    phi = euler_phi(factorization)
    return WitnessCensus(n, count_a, phi - count_a, n - 1 - phi,
                         CensusMethod.TOTIENT_EXACT)
