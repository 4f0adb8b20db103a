"""The native stages against their pure twins, and the build that makes them.

`_core` compiles ``native.c`` on first import and serves graphs of order
<= 64 from it: ``Kernel.forcing_numbers`` and ``switch_pass`` must give
what `pure` gives on every graph.  The build must never load a file made
from other source, and a failed build leaves the pure path and no file.
"""

import io
import shlex
import shutil
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES

import pytest

from matchforce import Graph, builtin_corpus, gen_random, to_graph6
from matchforce import _core
from matchforce._core import pure
from matchforce.cli import main

from graphs import complete_graph, cycle_graph


def _both(g: Graph):
    """(pure, package) forcing numbers and switch pass of g's matchings."""
    flats = pure.Kernel(g.rows).enumerate_pms(g.full_mask, 10**6)
    made = _core.make_kernel(g.rows)
    return (
        (pure.Kernel(g.rows).forcing_numbers(g.full_mask, flats),
         pure.switch_pass(g.rows, flats)),
        (made.forcing_numbers(g.full_mask, flats),
         _core.switch_pass(g.rows, flats)),
    )


def _assert_same(graphs) -> int:
    checked = 0
    for g in graphs:
        if pure.Kernel(g.rows).count2(g.full_mask):
            reference, made = _both(g)
            assert made == reference, to_graph6(g)
            checked += 1
    return checked


def test_same_on_exhaustive_6():
    assert _assert_same(builtin_corpus("exhaustive-6")) == 24823


def test_same_on_families_10():
    assert _assert_same(builtin_corpus("families-10")) > 0


@pytest.mark.parametrize("seed", range(3))
def test_same_on_random_order_14(seed):
    assert _assert_same([gen_random(14, "2/3", seed)]) == 1


def test_order_64_takes_the_native_path():
    # a 64-cycle with four chords: 17 matchings, and vertex 63 is matched
    pairs = [(i, (i + 1) % 64) for i in range(64)]
    g = Graph.from_edges(64, pairs + [(0, 3), (16, 19), (32, 35), (48, 51)])
    native = _core.kernel_backend() == "compiled"
    assert isinstance(_core.make_kernel(g.rows), _core.NativeKernel) == native
    reference, made = _both(g)
    assert made == reference
    assert sorted(reference[0]) == [1] + [4] * 16


def test_order_66_cycle_takes_the_pure_path(monkeypatch, capsys):
    # past order 64 the package kernel is the pure one, through the CLI
    searched = []
    forcing_numbers = pure.Kernel.forcing_numbers

    def counted(self, *args):
        searched.append(type(self))
        return forcing_numbers(self, *args)

    monkeypatch.setattr(pure.Kernel, "forcing_numbers", counted)
    edges = "".join(f"{i} {(i + 1) % 66}\n" for i in range(66))
    monkeypatch.setattr("sys.stdin", io.StringIO(f"66 66\n{edges}"))
    assert main(["analyze", "-", "--format", "edge-list", "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "matching,forcing"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["1", "1"]
    assert searched == [pure.Kernel]
    assert type(_core.make_kernel(cycle_graph(66).rows)) is pure.Kernel


def test_switch_edge_past_edge_rank_63():
    # K12 on 0..11, a pendant 12 + i at each i, and the edge 12-13: 79
    # edges and two matchings, which differ on the 4-cycle 0-1-13-12 and
    # whose one switch edge needs the last edge rank, 78
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    pairs += [(i, 12 + i) for i in range(12)] + [(12, 13)]
    g = Graph.from_edges(24, pairs)
    assert g.edge_count() == 79
    reference, made = _both(g)
    assert made == reference
    assert reference[1] == (((1,), (0,)), (1, 1))


def test_native_rejects_what_it_cannot_hold():
    native = _core._native()
    if native is None:
        return  # no compiler: nothing native to check
    with pytest.raises(ValueError):
        native.forcing_numbers((0,) * 65, 0, [()])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 1), (0, 1, 2, 3)])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 64)])


def _built(build_dir):
    return sorted(p.name for p in build_dir.iterdir()) if build_dir.exists() else []


def test_failing_compiler_leaves_pure_and_no_file(pure_core):
    assert _core.kernel_backend() == "pure"
    assert type(_core.make_kernel((0b10, 0b01))) is pure.Kernel
    assert _built(pure_core) == []


def test_build_of_other_source_is_never_loaded(build_dir, failing_compiler, monkeypatch, tmp_path):
    # every build of the package's native.c sits in the build directory,
    # but the source has changed and its own build fails
    build_dir.mkdir()
    for built in _core._SOURCE.with_name("build").glob("native-*"):
        shutil.copy(built, build_dir)
    before = _built(build_dir)
    source = tmp_path / "native.c"
    source.write_bytes(_core._SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_core, "_SOURCE", source)
    assert _core._native() is None
    assert _built(build_dir) == before


def test_build_names_the_file_by_source_and_interpreter(build_dir):
    # an empty build directory: the first use compiles native.c into it
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    if not shutil.which(cc):
        assert _core._native() is None
        return
    module = _core._native()
    assert module is not None and _core.kernel_backend() == "compiled"
    (name,) = _built(build_dir)
    assert name.startswith("native-") and name.endswith(EXTENSION_SUFFIXES[0])
    assert module.__file__ == str(build_dir / name)
    g = complete_graph(6)
    flats = pure.Kernel(g.rows).enumerate_pms(g.full_mask, 100)
    assert module.forcing_numbers(g.rows, g.full_mask, flats) == [2] * 15
