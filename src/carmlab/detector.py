"""Seeded Monte Carlo classification.

detect_carmichael_general classifies any n >= 2 as Prime, Carmichael or
OtherComposite. It runs the primality test first. A prime is labelled
Prime at once: every base is a Fermat liar for a prime, so its t draws
would find 0 witnesses, and the verdict reports t and 0 witnesses without
making them. Above DETERMINISTIC_WITNESS_BOUND that test is probabilistic,
and such a Prime verdict carries basis ProbablePrime and probabilistic=True.

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
gcd(a, n) > 1, so each remaining draw costs a gcd, not a powmod.
"""

from __future__ import annotations

import math
import operator
import random
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .arith import natural_log_squared_floor
from .errors import DomainError
from .factoring import Factorization, PrimalityCheck, prime_check
from .korselt import is_carmichael
from .randutil import uniform_below

DEFAULT_THRESHOLD = Fraction(45, 100)


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
    """floor((ln n)^2), clamped to at least one draw."""
    if n < 3:
        return 1
    return max(1, natural_log_squared_floor(n))


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
    probabilistic: bool = False  # a Prime verdict from the probabilistic primality regime

    def __post_init__(self):
        if self.witnesses_found > self.sample_size:
            raise DomainError("witnesses_found cannot exceed sample_size")
        if self.label is Label.OTHER_COMPOSITE and self.evidence is None:
            raise DomainError("OtherComposite requires witness evidence")
        if self.probabilistic and self.label is not Label.PRIME:
            raise DomainError("only a Prime verdict can be probabilistic")
        if self.probabilistic != (self.basis is Basis.PROBABLE_PRIME):
            raise DomainError("a verdict is probabilistic exactly when its basis is ProbablePrime")

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

    The first draws go to _proves_carmichael. If they prove n Carmichael,
    a base is a witness exactly when it shares a factor with n, so the
    remaining draws need a gcd each; otherwise they are tested with
    a^(n-1) mod n. Either way the witnesses are the same, in draw order.
    """
    draws = (1 + uniform_below(rng, n - 1) for _ in range(t))
    witnesses: list[int] = []
    if _proves_carmichael(n, draws, witnesses):
        witnesses += [a for a in draws if math.gcd(a, n) != 1]
    else:
        exponent = n - 1
        witnesses += [a for a in draws if pow(a, exponent, n) != 1]
    return witnesses


def _proves_carmichael(n: int, draws: Iterator[int], witnesses: list[int]) -> bool:
    """Fermat-test draws until they prove n Carmichael (True) or show that
    they cannot (False), appending the witnesses met on the way.

    With n - 1 = 2^s * d, a^(n-1) is computed as a^d squared s times. A
    witness sharing no factor with n proves n is not Carmichael. Otherwise
    the factors of n are refined by gcd(a, n) for a witness, and by
    gcd(c - 1, n) for every value c of a liar's chain: since lambda(n)
    divides n - 1 for a Carmichael n, at least 3/4 of its units split it
    this way (Miller 1976; Monier 1980). Once every factor is a proven
    prime, Korselt's criterion decides. A factor that is only probably
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
            found = Factorization(n, tuple(sorted(Counter(factors).items())))
            return bool(is_carmichael(n, found))
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
        return Verdict(label=Label.PRIME, basis=basis, witnesses_found=0, evidence=None,
                       probabilistic=check.probabilistic, **common)
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
