"""Tier-1 draws the same hypothesis examples on every run: a failure seen once
is seen again, and a pass does not depend on the day's random seed."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
