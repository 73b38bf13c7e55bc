"""Shared test settings: property tests draw the same examples every run."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
