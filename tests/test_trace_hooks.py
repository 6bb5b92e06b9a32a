"""What the traced benchmark (perfbench/) reads from carmlab from outside.

It counts builtin `pow` calls by the module whose code makes them, so a
detector powmod must be spelled in carmlab.detector; and it wraps or
counts a few module-level names, which must keep existing.
"""

import builtins
import importlib
import sys
from collections import Counter

import pytest

from carmlab.accuracy import empirical_proportion_distribution
from carmlab.detector import DetectorConfig, detect_carmichael_composite


def pow_calls_by_module(fn, *args, **kwargs) -> Counter:
    """Builtin pow calls made while fn runs, keyed by the caller's __name__."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and arg is builtins.pow:
            counts[frame.f_globals.get("__name__")] += 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts


@pytest.mark.parametrize("n, t, seed", [(91, 9, 0), (561, 40, 3), (1105, 5, 7)])
def test_composite_verdict_powmods_come_from_the_detector(n, t, seed):
    counts = pow_calls_by_module(detect_carmichael_composite, n,
                                 DetectorConfig(t_override=t, rng_seed=seed))
    assert counts == {"carmlab.detector": t}


def test_histogram_powmods_come_from_the_detector():
    counts = pow_calls_by_module(empirical_proportion_distribution, 561, t=5, trials=4)
    assert counts == {"carmlab.detector": 20}


@pytest.mark.parametrize("dotted", [
    "carmlab.detector.prime_check",
    "carmlab.detector.natural_log_squared_floor",
    "carmlab.korselt.primes_up_to",
    "carmlab.korselt._scan_block",
    "carmlab.census._census_chunk",
    "carmlab.randutil.uniform_below",
])
def test_traced_names_exist(dotted):
    module, name = dotted.rsplit(".", 1)
    assert callable(getattr(importlib.import_module(module), name))
