"""Seeded Monte Carlo classification.

detect_carmichael_general classifies any n >= 2 as Prime, Carmichael or
OtherComposite. It runs the primality test first. A prime is labelled
Prime at once: every base is a Fermat liar for a prime, so its t draws
would find 0 witnesses, and the verdict reports t and 0 witnesses without
making them. Above DETERMINISTIC_WITNESS_BOUND that test is probabilistic,
and such a Prime verdict carries basis ProbablePrime and is probabilistic.

A composite n is told apart from Carmichael numbers by sampling: draw t
bases with replacement from {1, ..., n-1}, mark the Fermat witnesses, and
either the marked proportion stays under the threshold (Carmichael) or the
marked bases are scanned for one coprime to n (a non-trivial witness
proves "other composite"; none found means Carmichael).

The draws are tested so that they can prove n Carmichael on the way,
without changing which bases are witnesses: with n - 1 = 2^s * d, each
a^(n-1) is a^d squared s times, and gcds with a witness or with the liar
chain's values minus one split n. Once its factors are proven primes and
pass Korselt's criterion, a base is a Fermat witness exactly when
gcd(a, n) > 1, and the remaining draws cost one gcd per batch: that of n
with their product mod n, which is 1 exactly when every draw is coprime.

When the attempt gives up, the remaining draws share one modulus and one
exponent, so a batch of at least _BATCH_MIN of them is tested at once by
Montgomery multiplication (Montgomery 1985) over numpy limb columns, which
makes a 128-bit verdict about four times faster than one pow per draw.
Smaller batches, even n and n above _BATCH_MAX_BITS, where numpy's
per-call cost or the limb products outweigh the lockstep, keep one pow
per draw. numpy is imported by the batch test alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import natural_log_squared_floor
from .errors import DomainError
from .factoring import PrimalityCheck, prime_check
from .randutil import uniform_below

if TYPE_CHECKING:
    import numpy as np

DEFAULT_THRESHOLD = Fraction(45, 100)

# The draws after the proof attempt are taken _BATCH at a time, which bounds
# the memory of a batch test. Below _BATCH_MIN bases numpy's per-call cost
# loses to one pow per base, and above _BATCH_MAX_BITS the batch test is no
# faster than pow. Both were read off the kernel-against-pow table in
# BENCH_17.json, not tuned end to end. The crossover moves with n: near 256
# bases at 16-64 bits, near 1,024 at 256-512 bits, so a short last batch of
# a 256- or 512-bit n runs about 12% slower than pow would.
_BATCH = 8192
_BATCH_MIN = 512
_BATCH_MAX_BITS = 512
_LIMB_BITS = 28
_LIMB_MASK = (1 << _LIMB_BITS) - 1


class Label(Enum):
    CARMICHAEL = "Carmichael"
    OTHER_COMPOSITE = "OtherComposite"
    PRIME = "Prime"


class Basis(Enum):
    PROPORTION_BELOW_THRESHOLD = "ProportionBelowThreshold"
    NO_NON_TRIVIAL_WITNESS_FOUND = "NoNonTrivialWitnessFound"
    NON_TRIVIAL_WITNESS_FOUND = "NonTrivialWitnessFound"
    DETERMINISTIC_PRIMALITY = "DeterministicPrimality"
    PROBABLE_PRIME = "ProbablePrime"


def default_sample_size(n: int) -> int:
    """floor((ln n)^2) for n >= 3, which is at least 1; one draw below 3."""
    if n < 3:
        return 1
    return natural_log_squared_floor(n)


@dataclass(frozen=True)
class DetectorConfig:
    """The detector's inputs, stored as an int t and an exact Fraction
    threshold whatever numeric types they were given as."""

    t_override: int | None = None          # default: floor((ln n)^2)
    threshold: Fraction = DEFAULT_THRESHOLD
    rng_seed: int = 0

    def __post_init__(self):
        if self.t_override is not None:
            try:
                t = operator.index(self.t_override)
            except TypeError:
                raise DomainError(f"t must be an integer, got {self.t_override!r}") from None
            if t < 1:
                raise DomainError(f"t must be >= 1, got {t}")
            object.__setattr__(self, "t_override", t)
        try:
            threshold = Fraction(self.threshold)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"threshold must be a rational, got {self.threshold!r}") from None
        if not 0 < threshold < 1:
            raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
        object.__setattr__(self, "threshold", threshold)

    def sample_size(self, n: int) -> int:
        return self.t_override if self.t_override is not None else default_sample_size(n)


@dataclass(frozen=True)
class Verdict:
    n: int
    label: Label
    basis: Basis
    sample_size: int
    witnesses_found: int
    evidence: tuple[int, int] | None  # (a, gcd(a, n)) exhibiting a coprime witness
    threshold: Fraction
    seed: int

    def __post_init__(self):
        if self.witnesses_found > self.sample_size:
            raise DomainError("witnesses_found cannot exceed sample_size")
        if self.label is Label.OTHER_COMPOSITE and self.evidence is None:
            raise DomainError("OtherComposite requires witness evidence")
        if self.basis is Basis.PROBABLE_PRIME and self.label is not Label.PRIME:
            raise DomainError("only a Prime verdict can have basis ProbablePrime")

    @property
    def probabilistic(self) -> bool:
        """True for a Prime verdict from the probabilistic primality regime."""
        return self.basis is Basis.PROBABLE_PRIME

    def to_json_dict(self) -> dict:
        return {"n": self.n, "label": self.label.value, "basis": self.basis.value,
                "t": self.sample_size,
                "threshold": f"{self.threshold.numerator}/{self.threshold.denominator}",
                "witnesses_found": self.witnesses_found,
                "evidence_a": self.evidence[0] if self.evidence else None,
                "seed": self.seed, "probabilistic": self.probabilistic}


def _sample_witnesses(n: int, t: int, rng: random.Random) -> list[int]:
    """The Fermat witnesses among t bases drawn from {1, ..., n-1} on rng;
    the detector and the accuracy histogram both sample through it.

    The first draws go to _proves_carmichael. The remaining draws are then
    taken _BATCH at a time. If n was proven Carmichael, a base is a
    witness exactly when it shares a factor with n, and a batch needs one
    gcd: gcd(prod a mod n, n) = 1 exactly when every a is coprime to n,
    and only a batch failing that is rescanned one gcd per base.
    Otherwise the batch is Fermat-tested, by _fermat_liars when it holds
    at least _BATCH_MIN bases and n is odd with at most _BATCH_MAX_BITS
    bits, and else by one pow per base. Either way the witnesses are the
    same, in draw order.
    """
    draws = (1 + uniform_below(rng, n - 1) for _ in range(t))
    witnesses: list[int] = []
    proven = _proves_carmichael(n, draws, witnesses)
    while batch := list(itertools.islice(draws, _BATCH)):
        if proven:
            product = 1
            for a in batch:
                product = product * a % n
            if math.gcd(product, n) != 1:
                witnesses += [a for a in batch if math.gcd(a, n) != 1]
        elif len(batch) >= _BATCH_MIN and n % 2 and n.bit_length() <= _BATCH_MAX_BITS:
            liars = _fermat_liars(batch, n).tolist()
            witnesses += [a for a, liar in zip(batch, liars) if not liar]
        else:
            exponent = n - 1
            witnesses += [a for a in batch if pow(a, exponent, n) != 1]
    return witnesses


def _fermat_liars(bases: list[int], n: int) -> np.ndarray:
    """The mask pow(a, n - 1, n) == 1 over bases, for an odd n >= 3 and
    every 0 <= a < n, from one Montgomery ladder run over all bases at once.

    A value is a column of k 28-bit limbs in a (k, len(bases)) uint64
    array, with R = 2^(28k) > 4n. A Montgomery product (Montgomery 1985)
    of x, y < 2n is a schoolbook product into 2k columns, k word-by-word
    REDC steps that each add q * n to clear the lowest column, and one
    carry pass; it leaves a value congruent to x * y / R mod n and below
    2n, so no value is ever compared with n. A column then sums at most 2k
    limb products below 2^56 and a carry, which fits uint64 for every
    k < 128. The exponent n - 1 is walked bit by bit from the top, and a
    base is a liar when REDC(x, 1) = 1.
    """
    import numpy as np

    k = (n.bit_length() + 2 + _LIMB_BITS - 1) // _LIMB_BITS
    mask, shift = np.uint64(_LIMB_MASK), np.uint64(_LIMB_BITS)
    inverse = n  # 1/n mod 2^28 by Newton's iteration, from n * n = 1 mod 8
    for _ in range(4):
        inverse = inverse * (2 - n * inverse) & _LIMB_MASK
    q_factor = np.uint64(-inverse & _LIMB_MASK)
    modulus = _to_limbs([n], k)
    cols = np.empty((2 * k, len(bases)), dtype=np.uint64)
    row = np.empty((k, len(bases)), dtype=np.uint64)
    q = np.empty(len(bases), dtype=np.uint64)

    def montgomery(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> None:
        np.multiply(x[0], y, out=cols[:k])
        cols[k:] = 0
        for i in range(1, k):
            np.multiply(x[i], y, out=row)
            cols[i:i + k] += row
        for i in range(k):
            np.multiply(cols[i], q_factor, out=q)
            np.bitwise_and(q, mask, out=q)
            np.multiply(q, modulus, out=row)
            cols[i:i + k] += row
            cols[i] >>= shift
            cols[i + 1] += cols[i]
        for i in range(k, 2 * k - 1):
            cols[i + 1] += cols[i] >> shift
            cols[i] &= mask
        out[:] = cols[k:]

    base = _to_limbs(bases, k)
    montgomery(base, _to_limbs([(1 << 2 * _LIMB_BITS * k) % n], k), base)  # a * R mod n
    x = base.copy()
    for bit in bin(n - 1)[3:]:
        montgomery(x, x, x)
        if bit == "1":
            montgomery(x, base, x)
    montgomery(x, _to_limbs([1], k), x)
    return (x[0] == 1) & ~x[1:].any(axis=0)


def _to_limbs(values: list[int], k: int) -> np.ndarray:
    """values, each below 2^(28k), as k rows of 28-bit limbs, low limb first."""
    import numpy as np

    pairs = (k + 1) // 2  # two limbs per 7 bytes
    raw = b"".join(v.to_bytes(7 * pairs, "little") for v in values)
    words = np.zeros((len(values), pairs, 8), dtype=np.uint8)
    words[..., :7] = np.frombuffer(raw, dtype=np.uint8).reshape(len(values), pairs, 7)
    words = words.view("<u8")[..., 0].T
    limbs = np.empty((2 * pairs, len(values)), dtype=np.uint64)
    limbs[0::2] = words & np.uint64(_LIMB_MASK)
    limbs[1::2] = words >> np.uint64(_LIMB_BITS)
    return limbs[:k]


def _proves_carmichael(n: int, draws: Iterator[int], witnesses: list[int]) -> bool:
    """Fermat-test draws until they prove n Carmichael (True) or show that
    they cannot (False), appending the witnesses met on the way.

    With n - 1 = 2^s * d, a^(n-1) is computed as a^d squared s times. A
    witness sharing no factor with n proves n is not Carmichael. Otherwise
    the factors of n are refined by gcd(a, n) for a witness, and by
    gcd(c - 1, n) for every value c of a liar's chain: since lambda(n)
    divides n - 1 for a Carmichael n, at least 3/4 of its units split it
    this way (Miller 1976; Monier 1980). Once every factor is a proven
    prime, Korselt's criterion decides on those primes, which multiply to
    n: it is squarefree when none repeats. A factor that is only probably
    prime ends the attempt, and so does a prime n, on its first draw.
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    factors = [n]
    checks: dict[int, PrimalityCheck] = {}
    for a in draws:
        x = pow(a, d, n)
        splitters = [x - 1]
        for _ in range(s):
            x = x * x % n
            splitters.append(x - 1)
        if x != 1:
            witnesses.append(a)
            g = math.gcd(a, n)
            if g == 1:
                return False
            splitters = [g]
        factors = [part for m in factors for part in _split(m, splitters)]
        checks = {m: checks.get(m) or prime_check(m) for m in factors}
        if any(check.probabilistic for check in checks.values()):
            return False
        if all(check.is_prime for check in checks.values()):
            return (len(set(factors)) == len(factors) > 1
                    and all((n - 1) % (p - 1) == 0 for p in factors))
    return False


def _split(m: int, splitters: list[int]) -> list[int]:
    """m broken into the parts that gcds with the splitters expose."""
    parts = [m]
    for g in splitters:
        refined = []
        for part in parts:
            h = math.gcd(g, part)
            refined += [h, part // h] if 1 < h < part else [part]
        parts = refined
    return parts


def detect_carmichael_general(n: int, cfg: DetectorConfig | None = None) -> Verdict:
    """Classify any n >= 2 as Prime, Carmichael, or OtherComposite.

    The primality test runs first. A prime gets a Prime verdict with t
    draws and 0 witnesses reported, without drawing, since a prime has no
    Fermat witness. A composite is Carmichael when its sampled witness
    share is under the threshold, else OtherComposite if a sampled witness
    is coprime to n, else Carmichael.
    """
    if n < 2:
        raise DomainError(f"classification needs n >= 2, got {n}")
    cfg = cfg or DetectorConfig()
    check = prime_check(n)
    t = cfg.sample_size(n)
    common = dict(n=n, sample_size=t, threshold=cfg.threshold, seed=cfg.rng_seed)
    if check.is_prime:
        basis = Basis.PROBABLE_PRIME if check.probabilistic else Basis.DETERMINISTIC_PRIMALITY
        return Verdict(label=Label.PRIME, basis=basis, witnesses_found=0, evidence=None, **common)
    witnesses = _sample_witnesses(n, t, random.Random(cfg.rng_seed))
    common["witnesses_found"] = len(witnesses)
    if Fraction(len(witnesses), t) < cfg.threshold:
        return Verdict(label=Label.CARMICHAEL, basis=Basis.PROPORTION_BELOW_THRESHOLD,
                       evidence=None, **common)
    for a in witnesses:
        if math.gcd(a, n) == 1:
            return Verdict(label=Label.OTHER_COMPOSITE,
                           basis=Basis.NON_TRIVIAL_WITNESS_FOUND,
                           evidence=(a, 1), **common)
    return Verdict(label=Label.CARMICHAEL, basis=Basis.NO_NON_TRIVIAL_WITNESS_FOUND,
                   evidence=None, **common)
