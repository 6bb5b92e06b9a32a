"""Uniform sampling built on getrandbits only.

Mersenne Twister's bit stream is reproducible across platforms and Python
versions; the higher-level random.Random methods are not all guaranteed to
be, so seeded code in this package draws through this helper. The one
exception is the detector's batched draws: carmlab.detector._uniform_words
reads the same candidates from one getrandbits call per block, as 32-bit
words, and rejects them as this helper would, so its values and the state
it leaves are those of as many uniform_below calls.
"""

from __future__ import annotations

import random


def uniform_below(rng: random.Random, m: int) -> int:
    """Uniform integer in [0, m) by rejection on m.bit_length() bits."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    bits = m.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value < m:
            return value
