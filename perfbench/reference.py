"""Reference timings that are not workloads, because one call takes
milliseconds: the smallest-prime-factor bound and the accuracy model at
1024 bits. Prints the median of several calls of each.

    python3 perfbench/reference.py
"""

import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from carmlab import (default_sample_size, posterior_composite_given,  # noqa: E402
                     posterior_general, prime_factor_bound)

CALLS = 21


def median_ms(fn, *args) -> float:
    times = []
    for _ in range(CALLS):
        start = perf_counter()
        fn(*args)
        times.append((perf_counter() - start) * 1e3)
    return statistics.median(times)


if __name__ == "__main__":
    n = random.Random(1024).getrandbits(1024) | (1 << 1023) | 1
    t = default_sample_size(n)
    print(f"prime_factor_bound, 1024 bits: {median_ms(prime_factor_bound, n):.2f} ms")
    print(f"posterior_composite_given, t = {t}: {median_ms(posterior_composite_given, t):.2f} ms")
    print(f"posterior_general, t = {t}: {median_ms(posterior_general, t):.2f} ms")
