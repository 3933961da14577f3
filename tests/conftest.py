"""Shared test settings: every hypothesis test draws the same examples on
every run and keeps no example database, so a tier-1 run is reproducible."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
