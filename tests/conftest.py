"""Shared test settings.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples and the suite stays deterministic.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile(
        "lowdisc", derandomize=True, deadline=None, max_examples=100, database=None
    )
    settings.load_profile("lowdisc")
