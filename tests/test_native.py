"""The native stages against their pure twins, and the build that makes them.

`_core` compiles ``native.c`` on first import and serves graphs of order
<= 64 from it through `NativeKernel`: its six whole-graph methods,
``enumerate_pms``, ``forcing_numbers``, ``switch_pass``,
``matching_facts``, ``vertex_connectivity`` and ``bicritical``, must give
what `pure.Kernel` gives on every graph, in the same order.  The
build must never load a file made from other source, a failed build leaves
the pure path and no file, and a new build leaves no older one of the
running interpreter's.  A build under AddressSanitizer and UBSan gives the
same answers with no sanitizer report.
"""

import io
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

from matchforce import Graph, builtin_corpus, gen_random, to_graph6
from matchforce import _core, build_switch_graph
from matchforce._core import pure
from matchforce.cli import main
from matchforce.errors import MatchingOverflowError
from matchforce.extend import is_bicritical

from graphs import complete_graph, cycle_graph


def _both(g: Graph):
    """(pure, package) matchings of g, the forcing numbers, switch pass
    and matching facts of the pure kernel's matchings, and g's vertex
    connectivity and bicriticality."""
    reference = pure.Kernel(g.rows)
    made = _core.make_kernel(g.rows)
    flats = reference.enumerate_pms(10**6)
    forcing = reference.forcing_numbers(flats)
    return tuple(
        (
            kern.enumerate_pms(10**6),
            kern.forcing_numbers(flats),
            kern.switch_pass(flats),
            kern.matching_facts(flats, forcing),
            kern.vertex_connectivity(),
            kern.bicritical(),
        )
        for kern in (reference, made)
    )


def _assert_same(graphs) -> int:
    """Hold every graph's kernels to each other, and its switch pass to
    a sorted list of edges (i, j), i < j; the number of graphs with a
    perfect matching."""
    checked = 0
    for g in graphs:
        reference, made = _both(g)
        assert made == reference, to_graph6(g)
        edges = reference[2]
        assert type(edges) is list and edges == sorted(set(edges)), to_graph6(g)
        assert all(i < j for i, j in edges), to_graph6(g)
        checked += bool(reference[0])
    return checked


def _enumerations(rows, cap) -> list:
    """The matchings up to ``cap``, or the overflow message, from each
    kernel class the package can make."""
    classes = [pure.Kernel]
    if _core.kernel_backend() == "compiled":
        classes.append(_core.NativeKernel)
    out = []
    for cls in classes:
        try:
            out.append(cls(rows).enumerate_pms(cap))
        except MatchingOverflowError as err:
            out.append(str(err))
    return out


def _switch_passes(monkeypatch, g) -> list:
    """The classes whose ``switch_pass`` and ``matching_facts`` the switch
    graph of g runs as it reads its edges and then its facts."""
    ran = []
    for cls in (pure.Kernel, _core.NativeKernel):
        for name in ("switch_pass", "matching_facts"):
            def counted(self, *args, cls=cls, name=name, original=cls.__dict__[name]):
                ran.append((cls, name))
                return original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    sg = build_switch_graph(g)
    sg.edges()  # each read runs its kernel pass
    sg.facts
    return ran


def test_same_on_exhaustive_6():
    assert _assert_same(builtin_corpus("exhaustive-6")) == 24823


def test_same_on_families_10():
    assert _assert_same(builtin_corpus("families-10")) > 0


@pytest.mark.parametrize("seed", range(3))
def test_same_on_random_order_14(seed):
    assert _assert_same([gen_random(14, "2/3", seed)]) == 1


# a 64-cycle with four chords (8i, 8i + 3): bipartite, 2-connected, with
# 17 matchings, and vertex 63 is matched
_CYCLE_64_CHORDS = [(i, (i + 1) % 64) for i in range(64)] + [
    (0, 3), (16, 19), (32, 35), (48, 51)
]


def test_order_64_takes_the_native_path(monkeypatch):
    g = Graph.from_edges(64, _CYCLE_64_CHORDS)
    native = _core.kernel_backend() == "compiled"
    assert isinstance(_core.make_kernel(g.rows), _core.NativeKernel) == native
    reference, made = _both(g)
    assert made == reference
    assert len(reference[0]) == 17
    assert all(63 in flat for flat in reference[0])
    assert sorted(reference[1]) == [1] + [4] * 16
    cls = _core.NativeKernel if native else pure.Kernel
    assert _switch_passes(monkeypatch, g) == [
        (cls, "switch_pass"), (cls, "matching_facts")
    ]


# graphs at the native kernel's top orders, their vertex connectivity,
# whether they are bicritical and whether the kernels' own probes are
# asked: K64's split network uses node 127, its top bit; K32,32's first
# probe leaves K30,32, whose count2 search walks the subsets of its larger
# side, so only `is_bicritical`, which answers a bipartite graph without a
# probe, is asked; vertex 0 alone beside a K63 is disconnected; K63 leaves
# odd sets, which have no perfect matching and are not searched
@pytest.mark.parametrize(
    "order, pairs, kappa, bicritical, probed",
    [
        (64, [(u, v) for u in range(64) for v in range(u + 1, 64)], 63, True, True),
        (64, [(u, v) for u in range(32) for v in range(32, 64)], 32, False, False),
        (64, _CYCLE_64_CHORDS, 2, False, True),
        (64, [(u, v) for u in range(1, 64) for v in range(u + 1, 64)], 0, False, True),
        (63, [(u, v) for u in range(63) for v in range(u + 1, 63)], 62, False, True),
    ],
    ids=["k64", "k32-32", "cycle-64-chords", "isolated-and-k63", "k63"],
)
def test_connectivity_and_bicriticality_at_top_orders(
    order, pairs, kappa, bicritical, probed
):
    g = Graph.from_edges(order, pairs)
    classes = [pure.Kernel]
    if _core.kernel_backend() == "compiled":
        classes.append(_core.NativeKernel)
        assert type(_core.make_kernel(g.rows)) is _core.NativeKernel
    for cls in classes:
        assert cls(g.rows).vertex_connectivity() == kappa, cls
        if probed:
            assert cls(g.rows).bicritical() == bicritical, cls
    assert is_bicritical(g) == bicritical


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
    assert _core.make_kernel(cycle_graph(66).rows).vertex_connectivity() == 2
    assert _switch_passes(monkeypatch, cycle_graph(66)) == [
        (pure.Kernel, "switch_pass"), (pure.Kernel, "matching_facts")
    ]


def test_switch_edge_past_edge_rank_63():
    # K12 on 0..11, a pendant 12 + i at each i, and the edge 12-13: 79
    # edges and two matchings, which differ on the 4-cycle 0-1-13-12 and
    # whose one switch edge needs the last edge rank, 78; they share the
    # pendant edges 2-14 .. 11-23, and the lowest of those is the bond
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    pairs += [(i, 12 + i) for i in range(12)] + [(12, 13)]
    g = Graph.from_edges(24, pairs)
    assert g.edge_count() == 79
    reference, made = _both(g)
    assert made == reference
    assert reference[2] == [(0, 1)]
    switched, covered, bond, jump, reach = reference[3]
    assert (switched, bond, jump) == ((1, 1), (2, 14), None)


@pytest.mark.parametrize(
    "rows, cap, expected",
    [
        ((), 1, [()]),
        ((), 0, "more than 0 perfect matchings"),
        (complete_graph(5).rows, 0, []),
        (complete_graph(6).rows, 15, 15),
        (complete_graph(6).rows, 14, "more than 14 perfect matchings"),
        (complete_graph(6).rows, 0, "more than 0 perfect matchings"),
    ],
    ids=["order-0", "order-0-cap-0", "odd-order", "k6-cap-count",
         "k6-cap-count-less-1", "k6-cap-0"],
)
def test_enumeration_edges(rows, cap, expected):
    # both classes give the same list, or overflow with the same message,
    # at the same count
    first, *rest = _enumerations(rows, cap)
    assert all(other == first for other in rest)
    assert (len(first) if isinstance(expected, int) else first) == expected


# runs one kernel call on the graph made by argv[1] and prints the kernel
# class's name when a timer's signal stops the call after 0.2 s, within
# 10 s: a call that runs no pending signal ends first, and then its
# handler raises
_INTERRUPTED = """
import signal, sys, time
from matchforce import _core, gen_random
from matchforce.graph import Graph

class Stop(Exception):
    pass

def stop(*_):
    raise Stop

g = eval(sys.argv[1])
kern = _core.make_kernel(g.rows)
signal.signal(signal.SIGALRM, stop)
start = time.perf_counter()
signal.setitimer(signal.ITIMER_REAL, 0.2)
try:
    eval(sys.argv[2])
except Stop:
    if time.perf_counter() - start < 10:
        print(type(kern).__name__)
"""


def _interrupted(graph: str, call: str) -> None:
    run = subprocess.run(
        [sys.executable, "-c", _INTERRUPTED, graph, call],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(_core.__file__).parents[2])},
    )
    assert run.returncode == 0, run.stderr[-4000:]
    native = _core.kernel_backend() == "compiled"
    assert run.stdout == ("NativeKernel\n" if native else "Kernel\n")


def test_enumeration_stops_on_a_signal():
    # K_{31,33} has no perfect matching but leaves about 33!/2 dead ends
    # to walk
    _interrupted(
        "Graph.from_edges(64, [(u, v) for u in range(31) for v in range(31, 64)])",
        "kern.enumerate_pms(1)",
    )


def test_bicriticality_probes_stop_on_a_signal():
    # the two-vertex deletion probes of this sparse order-44 graph take
    # about half a minute uninterrupted; the count2 search runs the
    # pending signals
    _interrupted("gen_random(44, '1/4', 2)", "kern.bicritical()")


def test_native_rejects_what_it_cannot_hold():
    native = _core._native()
    if native is None:
        return  # no compiler: nothing native to check
    with pytest.raises(ValueError):
        native.forcing_numbers((0,) * 65, [()])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 1), (0, 1, 2, 3)])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 64)])
    k4 = complete_graph(4).rows
    with pytest.raises(ValueError, match="one forcing number per matching"):
        native.matching_facts(k4, [(0, 1, 2, 3)], [1, 1])
    with pytest.raises(ValueError, match="order above 64"):
        native.matching_facts((0,) * 65, [()], [0])
    with pytest.raises(ValueError, match="differ in length"):
        native.matching_facts(k4, [(0, 1), (0, 1, 2, 3)], [0, 0])
    with pytest.raises(ValueError, match="vertex out of range"):
        native.matching_facts((0,) * 64, [(0, 64)], [0])
    with pytest.raises(ValueError, match="not in the graph"):
        native.matching_facts((0b10, 0b01, 0, 0), [(0, 1, 2, 3)], [0])
    with pytest.raises(ValueError, match="vertex repeated"):
        native.switch_pass([(0, 1, 0, 2)])
    with pytest.raises(ValueError, match="vertex repeated"):
        native.forcing_numbers(k4, [(0, 1, 2, 3), (0, 2, 1, 2)])
    with pytest.raises(ValueError, match="order above 64"):
        native.enumerate_pms((0,) * 65, 1)
    for name in ("vertex_connectivity", "bicritical"):
        with pytest.raises(ValueError, match="order above 64"):
            getattr(native, name)((0,) * 65)
    # a row bit at or above the order names a vertex the graph does not
    # have: at order 4, an edge (0, 40); at order 63, a bit 63
    phantom = (0b10 | 1 << 40, 0b01, 0b1000, 0b0100)
    top = (1 << 63,) + (0,) * 62
    for call in (
        lambda: native.enumerate_pms(phantom, 10),
        lambda: native.forcing_numbers(phantom, [(0, 1, 2, 3)]),
        lambda: native.matching_facts(phantom, [(0, 1, 2, 3)], [0]),
        lambda: native.vertex_connectivity(phantom),
        lambda: native.bicritical(phantom),
        lambda: native.vertex_connectivity(top),
        lambda: native.bicritical(top),
    ):
        with pytest.raises(ValueError, match="row bit at or above the order"):
            call()


def test_native_takes_reversed_pairs():
    # an edge given as (v, u) is read as (u, v), and the edges of a
    # matching in any order
    native = _core._native()
    if native is None:
        return  # no compiler: nothing native to check
    k4 = complete_graph(4).rows
    flats = [(0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2)]
    turned = [(3, 2, 1, 0), (2, 0, 3, 1), (1, 2, 0, 3)]
    assert native.forcing_numbers(k4, turned) == native.forcing_numbers(k4, flats)
    assert native.switch_pass(turned) == native.switch_pass(flats)
    assert native.switch_pass(flats) == [(0, 1), (0, 2), (1, 2)]
    assert native.matching_facts(k4, [(1, 0, 3, 2)], [0])[2] == (0, 1)


def _built(build_dir):
    return sorted(p.name for p in build_dir.iterdir()) if build_dir.exists() else []


def _cc() -> list[str]:
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def _copy_own_builds(build_dir):
    """Copy the package's builds for the running interpreter into
    build_dir; another interpreter's builds are not this one's to load or
    remove."""
    build_dir.mkdir()
    own = _core._SOURCE.with_name("build").glob(f"native-*{EXTENSION_SUFFIXES[0]}")
    for built in own:
        shutil.copy(built, build_dir)


def test_failing_compiler_leaves_pure_and_no_file(pure_core):
    assert _core.kernel_backend() == "pure"
    assert type(_core.make_kernel((0b10, 0b01))) is pure.Kernel
    assert _built(pure_core) == []


def test_build_of_other_source_is_never_loaded(build_dir, failing_compiler, monkeypatch, tmp_path):
    # every build of the package's native.c sits in the build directory,
    # but the source has changed and its own build fails
    _copy_own_builds(build_dir)
    before = _built(build_dir)
    source = tmp_path / "native.c"
    source.write_bytes(_core._SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_core, "_SOURCE", source)
    assert _core._native() is None
    assert _built(build_dir) == before


def test_build_names_the_file_by_source_and_interpreter(build_dir):
    # an empty build directory: the first use compiles native.c into it
    if not shutil.which(_cc()[0]):
        assert _core._native() is None
        return
    module = _core._native()
    assert module is not None and _core.kernel_backend() == "compiled"
    (name,) = _built(build_dir)
    assert name.startswith("native-") and name.endswith(EXTENSION_SUFFIXES[0])
    assert module.__file__ == str(build_dir / name)
    g = complete_graph(6)
    flats = pure.Kernel(g.rows).enumerate_pms(100)
    assert module.forcing_numbers(g.rows, flats) == [2] * 15


def test_new_build_removes_older_builds(build_dir, monkeypatch, tmp_path):
    # the build directory holds the current build; a changed source is
    # built beside it, and only the new build is left
    _copy_own_builds(build_dir)
    before = _built(build_dir)
    source = tmp_path / "native.c"
    source.write_bytes(_core._SOURCE.read_bytes() + b"/* changed */\n")
    monkeypatch.setattr(_core, "_SOURCE", source)
    if not shutil.which(_cc()[0]):
        assert _core._native() is None
        assert _built(build_dir) == before
        return
    module = _core._native()
    assert module is not None
    assert _built(build_dir) == [Path(module.__file__).name]
    assert module.__file__ not in {str(build_dir / name) for name in before}


def test_source_builds_without_warnings(build_dir, tmp_path):
    # sysconfig's compiler with -Wall -Werror; with no compiler on PATH the
    # package takes the pure path
    cc = _cc()
    if not shutil.which(cc[0]):
        assert _core._native() is None
        return
    include = sysconfig.get_paths()["include"]
    done = subprocess.run(
        [*cc, "-shared", "-fPIC", "-O2", "-Wall", "-Werror", "-I", include,
         "-o", str(tmp_path / f"native{EXTENSION_SUFFIXES[0]}"), str(_core._SOURCE)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


# loads the build named by argv[1] alone, without the package, and writes
# its answers on the inputs in the JSON file argv[2]
_RUN_BUILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("native", sys.argv[1])
native = importlib.util.module_from_spec(spec)
spec.loader.exec_module(native)
with open(sys.argv[2]) as f:
    cases = json.load(f)
out = []
for rows, flats in cases:
    forcing = native.forcing_numbers(rows, flats)
    out.append((native.enumerate_pms(rows, len(flats)),
                native.enumerate_pms(rows, len(flats) - 1), forcing,
                native.switch_pass(flats),
                native.matching_facts(rows, flats, forcing),
                native.vertex_connectivity(rows), native.bicritical(rows)))
json.dump(out, sys.stdout)
"""


def _sanitizer_runtimes(cc) -> list[str] | None:
    """The compiler's ASan and UBSan runtimes, or None when it has none:
    for a library it cannot find, ``-print-file-name`` prints the bare name."""
    found = [
        subprocess.run(
            [*cc, f"-print-file-name={lib}"], capture_output=True, text=True
        ).stdout.strip()
        for lib in ("libasan.so", "libubsan.so")
    ]
    return found if all(Path(p).is_absolute() for p in found) else None


def test_native_under_sanitizers(tmp_path):
    # native.c built with AddressSanitizer and UBSan gives the pure
    # kernel's matchings (and None with a cap one short of them), forcing
    # numbers, switch pass, matching facts, vertex connectivity and
    # bicriticality, computed here, on
    # families-10 and random graphs of order 12-16 (233 graphs, 36,109
    # matchings), and the run ends with no sanitizer report.  PYTHONMALLOC
    # sends the PyMem blocks through ASan's allocator.  With no compiler
    # the package takes the pure path; with no sanitizer runtimes the same
    # inputs run through a plain build.
    cc = _cc()
    if not shutil.which(cc[0]):
        assert _core.kernel_backend() == "pure"
        return
    runtimes = _sanitizer_runtimes(cc)
    if runtimes is None:
        flags, env = ["-O2"], {}
    else:
        flags = ["-O1", "-g", "-fsanitize=address,undefined",
                 "-fno-sanitize-recover=undefined"]
        env = {"LD_PRELOAD": " ".join(runtimes),
               "ASAN_OPTIONS": "detect_leaks=0", "PYTHONMALLOC": "malloc"}
    build = tmp_path / f"native{EXTENSION_SUFFIXES[0]}"
    include = sysconfig.get_paths()["include"]
    done = subprocess.run(
        [*cc, "-shared", "-fPIC", *flags, "-I", include,
         "-o", str(build), str(_core._SOURCE)],
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    graphs = [
        *builtin_corpus("families-10"),
        *(gen_random(n, "1/2", seed) for n in (12, 14, 16) for seed in range(3)),
    ]
    cases, expected = [], []
    for g in graphs:
        kern = pure.Kernel(g.rows)
        flats = kern.enumerate_pms(10**6)
        if flats:
            cases.append((g.rows, flats))
            forcing = kern.forcing_numbers(flats)
            expected.append((
                flats, None, forcing,
                kern.switch_pass(flats), kern.matching_facts(flats, forcing),
                kern.vertex_connectivity(), kern.bicritical(),
            ))
    assert (len(cases), sum(len(flats) for _, flats in cases)) == (233, 36109)
    inputs = tmp_path / "cases.json"
    inputs.write_text(json.dumps(cases))
    run = subprocess.run(
        [sys.executable, "-c", _RUN_BUILD, str(build), str(inputs)],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    assert run.returncode == 0, run.stderr[-4000:]
    assert "Sanitizer" not in run.stderr, run.stderr[-4000:]
    assert json.loads(run.stdout) == json.loads(json.dumps(expected))
