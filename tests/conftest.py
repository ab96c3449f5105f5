import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import pytest

from maxoid.graph import Dag
from maxoid.tropical import weighted_dag_from_list


def pytest_collection_modifyitems(items):
    """Skip the tests marked long unless MAXOID_LONG_TESTS=1."""
    if os.environ.get("MAXOID_LONG_TESTS") == "1":
        return
    skip = pytest.mark.skip(reason="long-running size; set MAXOID_LONG_TESTS=1")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)


@pytest.fixture
def diamond() -> Dag:
    return Dag(4, [(1, 2), (1, 3), (2, 4), (3, 4)])


@pytest.fixture
def fig2_instance():
    """The five-edge diamond-with-chord and its reference weights."""
    g = Dag(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    return weighted_dag_from_list(g, [1, 1, 1, 3, 1])
