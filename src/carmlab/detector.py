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
with their product, which is 1 exactly when every draw is coprime.

After the attempt, an odd n of at most _BATCH_MAX_BITS bits takes each
batch of at least _BATCH_MIN draws as one block of Mersenne Twister words
(Matsumoto and Nishimura 1998): one getrandbits call holds the candidates
that per-draw rejection sampling would draw next, in order, and those
rejected are made up by further calls. numpy rejects them, cuts the rest
into 28-bit limbs and adds 1 without a Python int per draw, and the
seeded stream ends where per-draw sampling leaves it. A proven n
multiplies the block down by a tree of Montgomery products (Montgomery
1985), whose factors 1/R do not change the gcd with n. Any other n tests
the block with one Montgomery exponentiation over all its bases, with a
sliding window over the exponent and a dedicated squaring. On a 2-CPU
EPYC that exponentiation makes a 128-bit composite's verdict about 5.5
times faster than one pow per draw, and the draws of a 1024-bit one
about 2.7 times. Smaller batches, where numpy's per-call cost outweighs
the lockstep, even n and n above _BATCH_MAX_BITS keep one draw and one
pow or one multiplication per base. numpy is imported by the block path
alone.
"""

from __future__ import annotations

import math
import random
import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING

from .arith import natural_log_squared_floor
from .errors import DomainError, integer
from .factoring import PrimalityCheck, prime_check
from .randutil import uniform_below

if TYPE_CHECKING:
    import numpy as np

DEFAULT_THRESHOLD = Fraction(45, 100)

# The draws after the proof attempt are taken _BATCH at a time, which bounds
# the memory of a batch test: at _BATCH_MAX_BITS, k = 37 limbs, its table of
# odd powers is 8 * k * 8,192 words (19 MB) and the whole test peaks near
# 40 MB. Below _BATCH_MIN bases numpy's per-call cost loses to one pow per
# base. Both were read off the kernel-against-pow table in BENCH_21.json,
# not tuned end to end. At 512 bases the batch test is 1.2-2.0 times as
# fast as pow from 16 to 2048 bits, and at 256 it loses at 16 bits and
# from 128 to 512. Full batches are 2.7 times as fast at 1024 bits and 2.4
# at 2048, but no larger n is routed: 1024 bits is the top of the sizes the
# detector is measured at, and a 2048-bit batch needs twice the memory.
_BATCH = 8192
_BATCH_MIN = 512
_BATCH_MAX_BITS = 1024
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
    n = integer("n", n)
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
            object.__setattr__(self, "t_override", integer("t", self.t_override, 1))
        object.__setattr__(self, "rng_seed", integer("seed", self.rng_seed))
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

    The first draws go to _proves_carmichael, one uniform_below each. The
    remaining draws are then taken _BATCH at a time. When n is odd with at
    most _BATCH_MAX_BITS bits and a batch holds at least _BATCH_MIN draws,
    _uniform_words draws it as one block of Mersenne Twister words, which
    become numpy limbs without a Python int per draw. If n was proven
    Carmichael, a base is a witness exactly when it shares a factor with n:
    the block is multiplied down by _product_tree, gcd(product, n) = 1
    exactly when every base is coprime to n, and only a block failing that
    is rescanned one gcd per base. Otherwise _fermat_liars tests the block,
    and only its witnesses become Python ints. A smaller batch, an even n
    or one above _BATCH_MAX_BITS bits draws one uniform_below per base and
    needs one multiplication mod n (proven) or one pow per base. Either way
    the witnesses are the same, in draw order, and rng ends where t calls
    of uniform_below leave it.
    """
    order = iter(range(t))
    witnesses: list[int] = []
    proven = _proves_carmichael(n, (1 + uniform_below(rng, n - 1) for _ in order), witnesses)
    left = t - next(order, t)  # the draws the proof attempt did not make
    routed = n % 2 and n.bit_length() <= _BATCH_MAX_BITS
    while left:
        size = min(left, _BATCH)
        left -= size
        if routed and size >= _BATCH_MIN:
            words = _uniform_words(rng, n - 1, size)
            limbs = _base_limbs(words, _limb_count(n))
            if not proven:
                witnesses += _bases(words[~_fermat_liars(limbs, n)])
            elif math.gcd(_product_tree(limbs, n), n) != 1:
                witnesses += [a for a in _bases(words) if math.gcd(a, n) != 1]
            continue
        batch = [1 + uniform_below(rng, n - 1) for _ in range(size)]
        if not proven:
            exponent = n - 1
            witnesses += [a for a in batch if pow(a, exponent, n) != 1]
            continue
        product = 1
        for a in batch:
            product = product * a % n
        if math.gcd(product, n) != 1:
            witnesses += [a for a in batch if math.gcd(a, n) != 1]
    return witnesses


def _uniform_words(rng: random.Random, m: int, count: int) -> np.ndarray:
    """count values of uniform_below(rng, m), m >= 2, in draw order, as the
    rows of a (count, w) array of 32-bit words, low word first, where w =
    ceil(bits / 32) for the bit length bits of m. rng is left where count
    calls of uniform_below leave it.

    CPython's getrandbits(bits) takes w outputs of the Mersenne Twister
    (Matsumoto and Nishimura 1998) as the words of its value, lowest first,
    and shifts the last one right by (-bits) mod 32. So one
    getrandbits(32 * w * j) holds uniform_below's next j candidates, w words
    each, and only each top word needs the shift. A candidate is accepted
    when it is below m: its top word is compared with m's, and a tie is
    settled on the words below. The accepted rows keep their order and the
    shortfall is drawn again. Every candidate drawn is one that the count
    calls of uniform_below would draw, so the stream never overshoots.
    """
    import numpy as np

    bits = m.bit_length()
    w = -(-bits // 32)
    shift = np.uint32(-bits % 32)
    bound = np.frombuffer(m.to_bytes(4 * w, "little"), dtype="<u4")
    values, filled = np.empty((count, w), dtype="<u4"), 0
    while filled < count:
        need = count - filled
        raw = rng.getrandbits(32 * w * need).to_bytes(4 * w * need, "little")
        words = np.frombuffer(raw, dtype="<u4").reshape(need, w)
        top = words[:, -1] >> shift
        below = top < bound[-1]
        tie = top == bound[-1]
        for j in range(w - 2, -1, -1):
            if not tie.any():
                break
            below |= tie & (words[:, j] < bound[j])
            tie &= words[:, j] == bound[j]
        kept = values[filled:filled + np.count_nonzero(below)]
        np.compress(below, words, axis=0, out=kept)
        np.compress(below, top, out=kept[:, -1])
        filled += len(kept)
    return values


def _bases(words: np.ndarray) -> list[int]:
    """1 + v as a Python int for each row v of _uniform_words's words."""
    raw, size = words.tobytes(), 4 * words.shape[1]
    return [1 + int.from_bytes(raw[i:i + size], "little") for i in range(0, len(raw), size)]


def _limb_count(n: int) -> int:
    """The least k with R = 2^(28k) > 4n."""
    return (n.bit_length() + 2 + _LIMB_BITS - 1) // _LIMB_BITS


def _to_limbs(values: list[int], k: int) -> np.ndarray:
    """values, each below 2^(28k), as k rows of 28-bit limbs, low limb first."""
    import numpy as np

    return np.array([[v >> (_LIMB_BITS * i) & _LIMB_MASK for v in values] for i in range(k)],
                    dtype=np.uint64)


def _base_limbs(words: np.ndarray, k: int) -> np.ndarray:
    """The k limbs of 1 + v, as _to_limbs lays them out, for each row v of
    _uniform_words's words, each 1 + v below 2^(28k).

    The words are read as little-endian 64-bit chunks, zero-padded to span
    28k bits, and limb j is cut from bit 28j of them; 1 is then added to
    the lowest limb with a carry.
    """
    import numpy as np

    mask, shift = np.uint64(_LIMB_MASK), np.uint64(_LIMB_BITS)
    chunks = np.zeros((len(words), -(-_LIMB_BITS * k // 64)), dtype="<u8")
    chunks.view("<u4")[:, :words.shape[1]] = words
    limbs = np.empty((k, len(words)), dtype=np.uint64)
    for j, limb in enumerate(limbs):
        c, offset = divmod(_LIMB_BITS * j, 64)
        np.right_shift(chunks[:, c], np.uint64(offset), out=limb)
        if offset > 64 - _LIMB_BITS:
            limb |= chunks[:, c + 1] << np.uint64(64 - offset)
        limb &= mask
    limbs[0] += np.uint64(1)
    for i in range(k - 1):  # a carry out of the low limbs, 1 in 2^28 draws
        carry = limbs[i] >> shift
        if not carry.any():
            break
        limbs[i] &= mask
        limbs[i + 1] += carry
    return limbs


class _Montgomery:
    """Montgomery products mod an odd n >= 3 over numpy columns, up to
    width columns at once.

    A value is a column of k 28-bit limbs in a (k, columns) uint64 array,
    with R = 2^(28k) > 4n. A Montgomery product (Montgomery 1985) of x, y
    < 2n is a schoolbook product into 2k columns, k word-by-word REDC steps
    that each add q * n to clear the lowest column, and one carry pass; it
    leaves a value congruent to x * y / R mod n and below 2n, so no value
    is ever compared with n. A squaring forms each cross product x_i * x_j
    (i < j) once, from 2 * x_i, and each x_i^2, so its columns hold the
    same sums as the schoolbook product's: a doubled cross product, below
    2^57, stands for the two terms x_i * x_j and x_j * x_i. Either way a
    column sums at most 2k limb products below 2^56 and a carry, which fits
    uint64 for every k < 128. Products take turns between two column
    buffers, so each result is read in place from the upper half of its
    buffer while the next product fills the other one, and the product
    after that overwrites it.
    """

    def __init__(self, n: int, width: int):
        import numpy as np

        self.k = k = _limb_count(n)
        inverse = n  # 1/n mod 2^28 by Newton's iteration, from n * n = 1 mod 8
        for _ in range(4):
            inverse = inverse * (2 - n * inverse) & _LIMB_MASK
        self.q_factor = np.uint64(-inverse & _LIMB_MASK)
        self.modulus = _to_limbs([n], k)
        self.buffers = [np.empty((2 * k, width), dtype=np.uint64) for _ in range(2)]
        self.row = np.empty((k, width), dtype=np.uint64)
        self.doubled = np.empty((k, width), dtype=np.uint64)
        self.q = np.empty(width, dtype=np.uint64)

    def _reduce(self, cols: np.ndarray) -> np.ndarray:
        import numpy as np

        k, width = self.k, cols.shape[1]
        mask, shift = np.uint64(_LIMB_MASK), np.uint64(_LIMB_BITS)
        q, row, q_factor, modulus = self.q[:width], self.row[:, :width], self.q_factor, self.modulus
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
        self.buffers.reverse()  # the next product must not overwrite this one
        return cols[k:]

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x * y / R mod n, below 2n, over x's columns; y has as many
        columns or one."""
        import numpy as np

        k, width = self.k, x.shape[1]
        cols, row = self.buffers[0][:, :width], self.row[:, :width]
        np.multiply(x[0], y, out=cols[:k])
        cols[k:] = 0
        for i in range(1, k):
            np.multiply(x[i], y, out=row)
            cols[i:i + k] += row
        return self._reduce(cols)

    def square(self, x: np.ndarray) -> np.ndarray:
        """x * x / R mod n, below 2n."""
        import numpy as np

        k, width = self.k, x.shape[1]
        cols, row = self.buffers[0][:, :width], self.row[:, :width]
        doubled = self.doubled[:, :width]
        np.multiply(x, x, out=cols[0::2])
        cols[1::2] = 0
        np.left_shift(x, np.uint64(1), out=doubled)
        for i in range(k - 1):
            cross = row[:k - 1 - i]
            np.multiply(doubled[i], x[i + 1:], out=cross)
            cols[2 * i + 1:i + k] += cross
        return self._reduce(cols)


def _fermat_liars(limbs: np.ndarray, n: int) -> np.ndarray:
    """The mask pow(a, n - 1, n) == 1 over the bases a given as the columns
    of limbs (k = _limb_count(n) rows), for an odd n >= 3 and every
    0 <= a < n, from one Montgomery exponentiation run over all bases at
    once by _Montgomery.

    The exponent n - 1 is walked from the top in sliding windows of at
    most 4 bits that start and end with a one (Menezes, van Oorschot and
    Vanstone 1996, section 14.6): each bit costs a squaring and each
    window one product with a precomputed odd power a, a^3, ..., a^15, so
    a 128-bit n takes about 160 products where bit by bit takes about 192.
    A base is a liar when REDC(x, 1) = 1.
    """
    import numpy as np

    mont = _Montgomery(n, limbs.shape[1])
    k, product, square = mont.k, mont.product, mont.square
    table = np.empty((8, k, limbs.shape[1]), dtype=np.uint64)  # a, a^3, ..., a^15 times R mod n
    table[0] = product(limbs, _to_limbs([(1 << 2 * _LIMB_BITS * k) % n], k))
    base_squared = square(table[0]).copy()
    for j in range(1, 8):
        table[j] = product(table[j - 1], base_squared)
    exponent = bin(n - 1)[2:]
    windows = re.finditer("1(?:[01]{0,2}1)?", exponent)  # at most 4 bits, 1 at each end
    first = next(windows)
    x, done = table[int(first[0], 2) // 2], first.end()
    for window in windows:
        for _ in range(window.end() - done):
            x = square(x)
        x = product(x, table[int(window[0], 2) // 2])
        done = window.end()
    for _ in range(len(exponent) - done):
        x = square(x)
    x = product(x, _to_limbs([1], k))
    return (x[0] == np.uint64(1)) & ~x[1:].any(axis=0)


def _product_tree(limbs: np.ndarray, n: int) -> int:
    """A number with the same gcd with n as the product of the columns of
    limbs, each column a value below 2n, for an odd n >= 3.

    Each level multiplies the left half of the columns by the right half
    with _Montgomery's product, setting aside an odd column out. A product
    carries a factor 1/R mod n, a unit since R is a power of 2, so no gcd
    with n changes. From 32 columns on, Python ints finish the product.
    """
    mont = _Montgomery(n, limbs.shape[1] // 2)
    x, values = limbs, []
    while x.shape[1] > 32:
        half = x.shape[1] // 2
        values += _columns(x[:, 2 * half:])
        x = mont.product(x[:, :half], x[:, half:2 * half])
    product = 1
    for value in values + _columns(x):
        product = product * value % n
    return product


def _columns(limbs: np.ndarray) -> list[int]:
    """The values of the columns of limbs as Python ints."""
    values = [0] * limbs.shape[1]
    for row in limbs[::-1].tolist():
        values = [value << _LIMB_BITS | limb for value, limb in zip(values, row)]
    return values


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
    n = integer("n", n, 2)
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
