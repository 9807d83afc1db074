"""The margin ledger: each figure a test holds against a bound, kept.

A test records a figure and its bound through the ``ledger`` fixture. At
the end of the session the recorded entries are merged into pytest's
cache under ``acmag/ledger``, keyed by test and figure, as
``[figure, bound]``; ``pytest --cache-show acmag/ledger`` prints them. A
change to the numerics can then be read against the last ledger: how far
each figure moved towards or away from its bound. Recording changes no
verdict, and a run without the cache plugin records nothing.
"""

import pytest

_LEDGER = pytest.StashKey[dict]()


@pytest.fixture
def ledger(request):
    """record(what, figure, bound): keep one compared figure and its
    bound, under this test's name and ``what``."""
    entries = request.config.stash.setdefault(_LEDGER, {})

    def record(what: str, figure: float, bound: float):
        entries[f"{request.node.name}: {what}"] = [float(figure), float(bound)]
    return record


def pytest_sessionfinish(session):
    entries = session.config.stash.get(_LEDGER, {})
    cache = getattr(session.config, "cache", None)
    if entries and cache is not None:
        cache.set("acmag/ledger", {**cache.get("acmag/ledger", {}), **entries})
