"""Shared test configuration.

Every property test runs under one fixed hypothesis profile: derandomized,
with no example database, so a run is reproducible, and with a fixed
example count, so tier-1 time stays bounded.
"""

from hypothesis import settings

settings.register_profile("nestedrisk", derandomize=True, database=None,
                          max_examples=30, deadline=None)
settings.load_profile("nestedrisk")
