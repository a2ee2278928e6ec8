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
