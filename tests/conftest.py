import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings

from carmlab.korselt import enumerate_carmichael

settings.register_profile("integer-heavy", deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("integer-heavy")


@pytest.fixture(scope="session")
def carmichaels_to_1e8():
    """Every Carmichael number up to 10^8, listed once per test session."""
    return enumerate_carmichael(10**8)


def builtin_calls_by_module(builtin, fn, *args, **kwargs) -> Counter:
    """Calls of builtin (pow, math.gcd, ...) made while fn runs, keyed by
    the __name__ of the module whose code makes them."""
    counts: Counter = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and arg is builtin:
            counts[frame.f_globals.get("__name__")] += 1

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts
