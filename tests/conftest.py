"""Shared test settings and fixtures.  Property tests draw the same
examples every run."""

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
