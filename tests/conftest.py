import importlib

import pytest
from hypothesis import HealthCheck, settings

# Property tests draw the same examples on every run, so the suite is
# reproducible and its run time is bounded.
settings.register_profile(
    "xdiscord",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("xdiscord")


@pytest.fixture
def grid_points(monkeypatch):
    """The number of (row, theta) points of each kernel call that
    minimize_numeric makes, in call order."""
    module = importlib.import_module("xdiscord.discord")
    kernel = module._cond_entropy_grid
    points = []

    def spy(states, s2, coh):
        values = kernel(states, s2, coh)
        points.append(values.size)
        return values

    monkeypatch.setattr(module, "_cond_entropy_grid", spy)
    return points
