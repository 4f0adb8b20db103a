import sys
import sysconfig
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from matchforce import PerfectMatching, _core, gen_complete_multipartite, graph

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


@pytest.fixture
def build_dir(monkeypatch, tmp_path):
    """An empty build directory for `_core`, which loads or builds its
    native code again on next use."""
    path = tmp_path / "build"
    monkeypatch.setattr(_core, "_BUILD", path)
    _core._native.cache_clear()
    graph._kernel_cached.cache_clear()
    graph._connectivity_cached.cache_clear()
    yield path
    _core._native.cache_clear()
    graph._kernel_cached.cache_clear()
    graph._connectivity_cached.cache_clear()


@pytest.fixture
def failing_compiler(monkeypatch, tmp_path):
    """sysconfig's CC becomes a script that writes part of its output file
    and exits 1."""
    script = tmp_path / "failing-cc"
    script.write_text(
        '#!/bin/sh\nwhile [ "$1" != -o ]; do shift; done\n'
        'echo partial > "$2"\nexit 1\n'
    )
    script.chmod(0o755)
    get = sysconfig.get_config_var
    monkeypatch.setattr(
        sysconfig, "get_config_var", lambda name: str(script) if name == "CC" else get(name)
    )


@pytest.fixture
def pure_core(build_dir, failing_compiler):
    """`_core` forced to the pure path: its build fails on next use."""
    return build_dir
