"""The native stages against their pure twins, and the build that makes them.

`_core` compiles ``native.c`` on first import and serves graphs of order
<= 64 from it through `NativeKernel`: its ``forcing_numbers`` and
``switch_pass`` must give what `pure.Kernel` gives on every graph.  The
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

from graphs import complete_graph, cycle_graph


def _both(g: Graph):
    """(pure, package) forcing numbers and switch pass of g's matchings."""
    reference = pure.Kernel(g.rows)
    made = _core.make_kernel(g.rows)
    flats = reference.enumerate_pms(10**6)
    return tuple(
        (kern.forcing_numbers(flats), kern.switch_pass(flats))
        for kern in (reference, made)
    )


def _assert_same(graphs) -> int:
    checked = 0
    for g in graphs:
        if pure.Kernel(g.rows).count2(g.full_mask):
            reference, made = _both(g)
            assert made == reference, to_graph6(g)
            checked += 1
    return checked


def _switch_passes(monkeypatch, g) -> list:
    """The classes whose ``switch_pass`` `build_switch_graph` runs on g."""
    ran = []
    for cls in (pure.Kernel, _core.NativeKernel):
        def counted(self, matchings, cls=cls, original=cls.__dict__["switch_pass"]):
            ran.append(cls)
            return original(self, matchings)

        monkeypatch.setattr(cls, "switch_pass", counted)
    build_switch_graph(g)
    return ran


def test_same_on_exhaustive_6():
    assert _assert_same(builtin_corpus("exhaustive-6")) == 24823


def test_same_on_families_10():
    assert _assert_same(builtin_corpus("families-10")) > 0


@pytest.mark.parametrize("seed", range(3))
def test_same_on_random_order_14(seed):
    assert _assert_same([gen_random(14, "2/3", seed)]) == 1


def test_order_64_takes_the_native_path(monkeypatch):
    # a 64-cycle with four chords: 17 matchings, and vertex 63 is matched
    pairs = [(i, (i + 1) % 64) for i in range(64)]
    g = Graph.from_edges(64, pairs + [(0, 3), (16, 19), (32, 35), (48, 51)])
    native = _core.kernel_backend() == "compiled"
    assert isinstance(_core.make_kernel(g.rows), _core.NativeKernel) == native
    reference, made = _both(g)
    assert made == reference
    assert sorted(reference[0]) == [1] + [4] * 16
    assert _switch_passes(monkeypatch, g) == [
        _core.NativeKernel if native else pure.Kernel
    ]


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
    assert _switch_passes(monkeypatch, cycle_graph(66)) == [pure.Kernel]


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
        native.forcing_numbers((0,) * 65, [()])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 1), (0, 1, 2, 3)])
    with pytest.raises(ValueError):
        native.switch_pass([(0, 64)])


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
json.dump(
    [(native.forcing_numbers(rows, flats), native.switch_pass(flats))
     for rows, flats in cases],
    sys.stdout,
)
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
    # kernel's forcing numbers and switch pass, computed here, on
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
            expected.append((kern.forcing_numbers(flats), kern.switch_pass(flats)))
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
