"""Exact Fermat-witness censuses over {1, ..., n-1}.

count_A counts bases with a^(n-1) == 1 (mod n), count_B the coprime
("non-trivial") witnesses, count_C the witnesses sharing a factor with n.
Two methods give the same counts, and neither uses the other, so each is
an oracle for the other.  Brute force, up to a fixed cap, finds the
residue a^(n-1) mod n of every odd base, 0 when gcd(a, n) > 1, without
factoring n, by one powmod per odd prime base and, a -> a^(n-1) mod n being
completely multiplicative, strided sweeps over the odd sieving primes for
the odd composites; an even base is counted from its odd part.  The exact
census derives the counts from the factorization of any n >= 3 by
Monier's formula.  Proportions are exact rationals with denominator
n - 1; decimals appear only at display time.
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
    census_exact and Monier's formula.  For odd n,
    (n - a)^(n-1) = a^(n-1) and gcd(n - a, n) = gcd(a, n), so only the bases
    up to top = (n - 1) / 2 are evaluated, and their counts doubled; an even
    n evaluates all of them, top = n - 1.  _fermat_residues stores the
    residues of the odd bases only.  As f(a) = a^(n-1) mod n is completely
    multiplicative, an even base a = 2^j o of an odd n has f(a) = f(2)^j f(o),
    so it is a liar exactly when f(o) = g^j with g = f(2)^(-1) mod n, and
    shares a factor with n exactly when f(o) = 0: for each j the odd o up to
    top >> j, a prefix of the table, are counted against g^j and 0.  Every
    even base of an even n shares 2 with n.  The table takes 4 bytes per odd
    base, 2 per evaluated base; primes_up_to's sieve flags, half a byte per
    base, are freed before it is made.
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
    count_c = int(np.count_nonzero(residue == 0))
    if n % 2 == 0:
        count_c += (n - 1) // 2
    else:
        g = pow(pow(2, n - 1, n), -1, n)
        g_j = 1
        for j in range(1, top.bit_length()):
            g_j = g_j * g % n
            prefix = residue[:((top >> j) + 1) // 2]
            count_a += int(np.count_nonzero(prefix == g_j))
            count_c += int(np.count_nonzero(prefix == 0))
        count_a, count_c = 2 * count_a, 2 * count_c
    return WitnessCensus(n, count_a, n - 1 - count_a - count_c, count_c,
                         CensusMethod.BRUTE_FORCE)


def _fermat_residues(n: int, top: int) -> np.ndarray:
    """a^(n-1) mod n if gcd(a, n) = 1, else 0, for every odd base 1 <= a <= top < n,
    at index (a - 1) / 2.

    The odd primes up to top come from primes_up_to, whose odd-only sieve
    flags are freed when it returns, and get their powmods _CHUNK at a
    time, each product reduced in place by _reduce; an odd prime dividing n
    then gets residue 0.  Each odd sieving prime p, largest first, sets the
    residue of p m from those of p and m for odd m >= p: the source index j
    of m maps to p j + (p - 1) / 2, in sub-ranges
    [lo, min(p lo + (p - 1) / 2, lo + _CHUNK, end)) that keep sources below
    targets, so an odd composite is last written at its least prime p,
    from a cofactor whose least prime is at least p and whose residue is
    final; a unit's residue is a unit mod n, so never 0.
    """
    import numpy as np

    odd_primes = primes_up_to(top)[1:]
    residue = np.empty((top + 1) // 2, dtype=np.uint32)
    residue[0] = 1
    modulus = np.uint64(n)
    for start in range(0, len(odd_primes), _CHUNK):
        batch = odd_primes[start:start + _CHUNK]
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
        residue[batch // 2] = power
        residue[batch[n % batch == 0] // 2] = 0
    for p in odd_primes[odd_primes <= math.isqrt(top)][::-1].tolist():
        lo, end = p // 2, (top // p + 1) // 2
        while lo < end:
            hi = min(p * lo + p // 2, lo + _CHUNK, end)
            _census_chunk(p, lo, hi, residue, modulus)
            lo = hi
    return residue


def _census_chunk(p: int, lo: int, hi: int, residue: np.ndarray, modulus: np.uint64) -> None:
    """Set the residue of p m for the odd m at indices lo <= j < hi, at p j + (p - 1) / 2."""
    import numpy as np

    product = residue[lo:hi].astype(np.uint64)
    product *= residue[p // 2]
    _reduce(product, modulus)
    residue[p * lo + p // 2:p * hi:p] = product


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
