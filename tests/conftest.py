import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matchforce import PerfectMatching, gen_complete_multipartite

from graphs import complete_graph, cycle_graph, path_graph


@pytest.fixture(scope="session")
def k2():
    return complete_graph(2)


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def k6():
    return complete_graph(6)


@pytest.fixture(scope="session")
def k33():
    return gen_complete_multipartite([3, 3])


@pytest.fixture(scope="session")
def c6():
    return cycle_graph(6)


@pytest.fixture(scope="session")
def p4():
    return path_graph(4)


@pytest.fixture(scope="session")
def c6_matching():
    return PerfectMatching.from_pairs([(0, 1), (2, 3), (4, 5)])


@pytest.fixture(scope="session")
def k4_matching():
    return PerfectMatching.from_pairs([(0, 1), (2, 3)])
