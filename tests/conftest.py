import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI runs four times the examples: HYPOTHESIS_PROFILE=ci
settings.register_profile("ci", settings.get_profile("suite"), max_examples=200)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
