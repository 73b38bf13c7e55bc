"""Shared test settings and fixtures.  Property tests draw the same
examples every run."""

import tracemalloc

import pytest
from hypothesis import settings

from arraylight import _taylor

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def term_counts(monkeypatch):
    """The term count of every Taylor step the test runs, in order
    (_taylor._term_count is called once per step)."""
    counts = []
    term_count = _taylor._term_count

    def counting(*args):
        counts.append(term_count(*args))
        return counts[-1]

    monkeypatch.setattr(_taylor, "_term_count", counting)
    return counts


@pytest.fixture
def above_live():
    """above_live(fn, *args, **kwargs) -> (fn's result, peak, kept): the
    tracemalloc allocation peak during the call and the memory still
    allocated after it, both in bytes above the memory live before it."""
    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak - live, now - live

    return measure
