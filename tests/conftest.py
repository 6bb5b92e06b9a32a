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
