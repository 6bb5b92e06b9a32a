"""Timing harness: per-call classification cost versus operand size.

Each point times detect_carmichael_general (its primality test, then t
draws) on a deterministic semiprime of the requested bit length with a
fixed sample size t, then a least squares line through (ln bits,
ln seconds) estimates the growth exponent of the per-call cost in log n.
The asymptotic claim under test is that one call costs O(t * (log n)^3);
with t held fixed the fitted exponent should stay at or below
SLOPE_LIMIT.  Absolute times are machine-dependent and deliberately not
asserted anywhere.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from dataclasses import dataclass

from .detector import DetectorConfig, detect_carmichael_general
from .errors import CapExceededError, DomainError, integer
from .factoring import is_prime

DEFAULT_BIT_LENGTHS = (64, 128, 256, 512, 1024)
SLOPE_LIMIT = 3.5
# the largest bit length timed: generating a 4096-bit semiprime already
# takes seconds, and the prime search slows steeply with size
MAX_BENCH_BITS = 4096
_MIN_SAMPLE_SECONDS = 0.01


@dataclass(frozen=True)
class BenchPoint:
    bits: int
    n: int
    t: int
    calls: int
    seconds_per_call: float

    def to_json_dict(self) -> dict:
        return {"bits": self.bits, "n": str(self.n), "t": self.t,
                "calls": self.calls, "seconds_per_call": self.seconds_per_call}


@dataclass(frozen=True)
class BenchReport:
    points: tuple[BenchPoint, ...]
    slope: float
    t: int
    seed: int

    @property
    def slope_limit(self) -> float:
        return SLOPE_LIMIT

    @property
    def within_limit(self) -> bool:
        return self.slope <= SLOPE_LIMIT

    def to_json_dict(self) -> dict:
        return {"points": [p.to_json_dict() for p in self.points],
                "slope": self.slope, "slope_limit": self.slope_limit,
                "within_limit": self.within_limit, "t": self.t, "seed": self.seed}


def _random_prime(bits: int, rng: random.Random) -> int:
    # top bit and low bit forced so candidates keep the requested size
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_prime(candidate):
            return candidate


def composite_for_bits(bits: int, seed: int = 0) -> int:
    """Deterministic semiprime of (approximately) the requested bit length."""
    bits, seed = integer("bits", bits, 8), integer("seed", seed)
    rng = random.Random((seed << 16) ^ bits)
    half = bits // 2
    return _random_prime(half, rng) * _random_prime(bits - half, rng)


def _seconds_per_call(n: int, cfg: DetectorConfig, repeats: int) -> tuple[float, int]:
    detect_carmichael_general(n, cfg)  # warm-up
    start = time.perf_counter()
    detect_carmichael_general(n, cfg)
    single = max(time.perf_counter() - start, 1e-9)
    calls = max(1, int(_MIN_SAMPLE_SECONDS / single))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            detect_carmichael_general(n, cfg)
        best = min(best, (time.perf_counter() - start) / calls)
    return best, calls


def run_benchmark(bit_lengths: tuple[int, ...] = DEFAULT_BIT_LENGTHS, t: int = 16,
                  repeats: int = 3, seed: int = 0) -> BenchReport:
    """Time the classifier across bit lengths and fit the log-log slope."""
    if len(bit_lengths) < 2:
        raise DomainError("need at least two bit lengths to fit a slope")
    bit_lengths = [integer("bits", bits, 8) for bits in bit_lengths]
    t, repeats = integer("t", t, 1), integer("repeats", repeats, 1)
    seed = integer("seed", seed)
    if max(bit_lengths) > MAX_BENCH_BITS:
        raise CapExceededError(f"bit length {max(bit_lengths)} exceeds the bench cap "
                               f"{MAX_BENCH_BITS}")
    moduli = [composite_for_bits(bits, seed) for bits in bit_lengths]
    if len({n.bit_length() for n in moduli}) == 1:
        raise DomainError(f"bit lengths {':'.join(map(str, bit_lengths))} all produce "
                          f"{moduli[0].bit_length()}-bit moduli; a slope needs two sizes")
    cfg = DetectorConfig(t_override=t, rng_seed=seed)
    points = []
    for n in moduli:
        per_call, calls = _seconds_per_call(n, cfg, repeats)
        points.append(BenchPoint(bits=n.bit_length(), n=n, t=t, calls=calls,
                                 seconds_per_call=per_call))
    slope = statistics.linear_regression([math.log(p.bits) for p in points],
                                         [math.log(p.seconds_per_call) for p in points]).slope
    return BenchReport(points=tuple(points), slope=slope, t=t, seed=seed)
