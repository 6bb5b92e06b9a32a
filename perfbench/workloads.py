"""Seeded inputs for the four workloads, built with sympy and never with carmlab.

Each workload is a pool of rounds; a round is a list of operations of one
kind at one input size. The worker runs whole rounds, cycling through the
pool, so every run attempts the same mix whatever its length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import sympy

# Carmichael numbers up to 10^6, 10^7 and 10^8 (R. G. E. Pinch, "The
# Carmichael numbers up to 10^21", 2007; OEIS A055553).
PINCH_COUNTS = {10**6: 43, 10**7: 105, 10**8: 255}

WORKLOADS = ("classify-composite", "classify-carmichael", "sieve", "census")


@dataclass(frozen=True)
class Scale:
    classify_bits: int
    sieve_limit: int
    tile: int                      # integers per sieve tile
    census_band: tuple[int, int]
    pool_rounds: int               # distinct rounds per classify or census pool
    sieve_passes: int              # distinct tile offsets before the pool cycles


# The sizes the benchmark measures: a tile is one sieve block (2^19 odd
# candidates), and [2.4, 2.6]·10^6 keeps the census cost within a few percent
# while holding four Carmichael numbers.
FULL = Scale(classify_bits=128, sieve_limit=10**8, tile=1 << 20,
             census_band=(2_400_000, 2_600_000), pool_rounds=8, sieve_passes=64)
# A size small enough for the benchmark's own tests.
TINY = Scale(classify_bits=48, sieve_limit=10**6, tile=1 << 16,
             census_band=(20_000, 70_000), pool_rounds=2, sieve_passes=2)


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime drawn from [lo, hi) by rejection."""
    while True:
        candidate = rng.randrange(lo, hi) | 1
        if candidate < hi and sympy.isprime(candidate):
            return candidate


def _semiprime(rng: random.Random, bits: int) -> tuple[int, list[int]]:
    # both factors above 2^((bits-1)/2), so the product has exactly `bits` bits
    lo, hi = math.isqrt(1 << (bits - 1)) + 1, 1 << (bits // 2)
    while True:
        p, q = random_prime(rng, lo, hi), random_prime(rng, lo, hi)
        if p != q and (p * q).bit_length() == bits:
            return p * q, sorted([p, q])


def _half_liar(rng: random.Random, bits: int) -> tuple[int, list[int]]:
    """p(2p-1) with both factors prime: exactly half of its units are Fermat
    liars, the worst case of the accuracy model."""
    lo, hi = math.isqrt(1 << (bits - 2)), math.isqrt(1 << (bits - 1)) + 1
    while True:
        p = random_prime(rng, lo, hi)
        n = p * (2 * p - 1)
        if n.bit_length() == bits and sympy.isprime(2 * p - 1):
            return n, [p, 2 * p - 1]


def _chernick(rng: random.Random, bits: int) -> tuple[int, list[int]]:
    """(6m+1)(12m+1)(18m+1) with all three factors prime."""
    lo = sympy.integer_nthroot((1 << (bits - 1)) // 1296, 3)[0]
    hi = sympy.integer_nthroot((1 << bits) // 1296, 3)[0] + 2
    while True:
        m = rng.randrange(lo, hi)
        factors = [6 * m + 1, 12 * m + 1, 18 * m + 1]
        n = factors[0] * factors[1] * factors[2]
        if n.bit_length() == bits and all(sympy.isprime(f) for f in factors):
            return n, factors


def carmichael_in_band(lo: int, hi: int) -> list[int]:
    """Every Carmichael number in [lo, hi], built from Korselt's criterion.

    A Carmichael number is squarefree with at least three prime factors, and
    for its largest prime r and m = n / r, (r - 1) | (n - 1) holds exactly
    when (r - 1) | (m - 1). So each r is a divisor of m - 1 plus one.
    """
    primes = list(sympy.primerange(3, math.isqrt(hi) + 2))
    found = set()

    def extend(m: int, factors: list[int], last: int) -> None:
        if len(factors) >= 2:
            for d in sympy.divisors(m - 1):
                n = m * (d + 1)
                if (d + 1 > factors[-1] and lo <= n <= hi and sympy.isprime(d + 1)
                        and all((n - 1) % (p - 1) == 0 for p in factors)):
                    found.add(n)
        for i in range(last + 1, len(primes)):
            p = primes[i]
            if m * p * p >= hi:
                break
            extend(m * p, factors + [p], i)

    extend(1, [], -1)
    return sorted(found)


def build(workload: str, seed: int, scale: Scale = FULL) -> list[list[dict]]:
    """The pool of rounds for one workload; the same seed gives the same pool."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sieve":
        return [_sieve_pass(rng, scale) for _ in range(scale.sieve_passes)]
    if workload == "census":
        carmichaels = carmichael_in_band(*scale.census_band)
        return [_census_round(rng, scale, carmichaels) for _ in range(scale.pool_rounds)]
    make = {"classify-composite": _composite_round, "classify-carmichael": _carmichael_round}[workload]
    return [make(rng, scale.classify_bits) for _ in range(scale.pool_rounds)]


def _composite_round(rng, bits):
    ops = []
    for _ in range(4):
        for kind, make in (("semiprime", _semiprime), ("half-liar", _half_liar)):
            n, factors = make(rng, bits)
            ops.append({"n": n, "seed": rng.getrandbits(64), "kind": kind, "factors": factors})
    return ops


def _carmichael_round(rng, bits):
    ops = []
    for _ in range(4):
        n, factors = _chernick(rng, bits)
        ops.append({"n": n, "seed": rng.getrandbits(64), "kind": "chernick", "factors": factors})
        p = random_prime(rng, 1 << (bits - 1), 1 << bits)
        ops.append({"n": p, "seed": rng.getrandbits(64), "kind": "prime", "factors": [p]})
    return ops


def _census_round(rng, scale, carmichaels):
    lo, hi = scale.census_band
    ops = []
    for _ in range(2):
        ops.append({"n": rng.choice(carmichaels), "kind": "carmichael"})
        ops.append({"n": random_prime(rng, lo, hi), "kind": "prime"})
        while True:
            n = rng.randrange(lo, hi) | 1
            if n not in carmichaels and not sympy.isprime(n):
                break
        ops.append({"n": n, "kind": "other"})
    return ops


def _sieve_pass(rng, scale):
    """Tiles partitioning [3, limit], their boundaries shifted by a seeded offset."""
    edges = [3] + list(range(3 + rng.randrange(1, scale.tile), scale.sieve_limit + 1, scale.tile))
    edges.append(scale.sieve_limit + 1)
    return [{"lo": a, "hi": b - 1} for a, b in zip(edges, edges[1:]) if b > a]


def worker_view(op: dict) -> dict:
    """The fields of an operation that the worker passes to carmlab."""
    return {k: v for k, v in op.items() if k in ("n", "seed", "lo", "hi")}
