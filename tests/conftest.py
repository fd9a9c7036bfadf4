"""Fixtures shared by the test modules."""

import numpy as np
import pytest


def _trajectories_equal(a, b) -> bool:
    """Bit-exact comparison of frames, actions and seed."""
    if a.length != b.length or a.seed != b.seed:
        return False
    if a.actions.dtype != b.actions.dtype or not np.array_equal(a.actions, b.actions):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if fa.points.dtype != fb.points.dtype or not np.array_equal(fa.points, fb.points):
            return False
    return True


@pytest.fixture
def trajectories_equal():
    return _trajectories_equal


def _run_order(item) -> int:
    """0 for unit tests, 1 for the acceptance suite, 2 for its desk runs."""
    if "desk_runs" in getattr(item, "fixturenames", ()):
        return 2
    return int(item.path.name == "test_acceptance.py")


def pytest_collection_modifyitems(items):
    """Run the unit tests first and the desk-scale acceptance tests last.

    The acceptance suite takes nearly all of the wall time: the gradient-check
    suite about 100 s, and the session-scoped `desk_runs` fixture, which
    trains four desk-scale models, about 800 s on a 2-CPU box. The unit tests
    take about 30 s, so they report first. Sorting is stable, so the order
    within each group is kept.
    """
    items.sort(key=_run_order)
