"""Shared test settings: every property test replays the same draws."""

from hypothesis import settings

settings.register_profile("footplan", deadline=None, derandomize=True, database=None)
settings.load_profile("footplan")
