"""Every function and method under src/ is reached by a command or the
README example.

The commands run in this process under a profile hook that records each
code object it enters: the README's Python example, every `generate`
family piped to `analyze`, `analyze --csv`, `verify` on families-10 and on
a graph6 file of those families (with one worker and with two), a usage
error and a graph6 parse error.  The hook sees only this process, so the
two-worker run reaches the pool path, not the workers.  The commands run
twice: as the package loads, on its native stages wherever they build,
and then with `_core` forced to the pure path by a failing build, which
is what a machine without a C compiler runs.

The rule covers every module-level function and every method, property,
classmethod, staticmethod and cached_property of a class whose code lives
in a file under ``src/matchforce/``.  Code that dataclasses or namedtuple
generate (``__init__``, ``__repr__``, ``__eq__``, ``_make``) lives
elsewhere, so it is not counted.  A function that none of the commands
enters is dead code.
"""

import contextlib
import importlib
import inspect
import io
import re
import sys
from functools import cached_property
from pathlib import Path

import matchforce
from matchforce import kernel_backend
from matchforce.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(matchforce.__file__).resolve().parent

FAMILIES = [
    ["multipartite", "--sizes", "2,2,1,1"],
    ["knnplus", "--n", "3", "--extra", "3-4"],
    ["hk", "--n", "4", "--k", "1"],
    ["signature", "--n", "3", "--parallel", "0-1"],
    ["non2ext", "--case", "i", "--n", "4"],
    ["non2ext", "--case", "ii", "--n", "3"],
    ["random", "--order", "6", "--p", "2/3", "--seed", "3"],
]

# Each entry is reached by no command, with the reason it stays.
UNREACHED_BY_DESIGN = {
    # names the kernel in perfbench's meta record (perfbench/child.py)
    "matchforce._core.kernel_backend",
}


def _run(argv, stdin="", code=0):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv
    finally:
        sys.stdin = saved
    return out.getvalue()


def _every_command(tmp_path):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(block, {})
    graph6 = []
    for i, family in enumerate(FAMILIES):
        fmt = "edge-list" if i == 0 else "graph6"
        text = _run(["generate", *family, "--format", fmt])
        _run(["analyze", "-", "--format", fmt], stdin=text)
        if fmt == "graph6":
            graph6.append(text)
    _run(["analyze", "-", "--format", "graph6", "--csv"], stdin=graph6[0])
    corpus = tmp_path / "families.g6"
    corpus.write_text("".join(graph6))
    _run(["verify", "--corpus", "families-10"])
    _run(["verify", "--corpus", str(corpus)])
    _run(["verify", "--corpus", str(corpus), "--workers", "2"])
    _run(["verify", "--no-such-option"], code=1)
    _run(["analyze", "-", "--format", "graph6"], stdin="A~~\n", code=1)


def _functions(obj):
    """A function, or a class's own methods and property functions."""
    if not inspect.isclass(obj):
        fn = inspect.unwrap(obj)
        if inspect.isfunction(fn):
            yield fn
        return
    for member in vars(obj).values():
        if isinstance(member, (classmethod, staticmethod)):
            yield member.__func__
        elif isinstance(member, property):
            yield from (f for f in (member.fget, member.fset, member.fdel) if f)
        elif isinstance(member, cached_property):
            yield member.func
        elif inspect.isfunction(member):
            yield member


def _defined_under_src() -> dict:
    """Qualified name of every function and method whose code lives in a
    file under src/matchforce/, by code object."""
    names = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__main__.py":  # runs the CLI when imported as main
            continue
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = importlib.import_module(".".join(parts).removesuffix(".__init__"))
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported; counted where it is defined
            for fn in _functions(obj):
                if Path(fn.__code__.co_filename).resolve().is_relative_to(SRC):
                    names[fn.__code__] = f"{fn.__module__}.{fn.__qualname__}"
    return names


def _entered(tmp_path) -> set:
    """Code objects that the commands enter."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    tmp_path.mkdir()
    saved = sys.getprofile()
    sys.setprofile(hook)
    try:
        _every_command(tmp_path)
    finally:
        sys.setprofile(saved)
    return entered


def test_every_function_and_method_is_reached(request, tmp_path):
    expected = set(UNREACHED_BY_DESIGN)
    if kernel_backend() == "pure":  # no C compiler: no native stage can run
        expected |= {
            "matchforce._core.NativeKernel.enumerate_pms",
            "matchforce._core.NativeKernel.forcing_numbers",
            "matchforce._core.NativeKernel.switch_pass",
            "matchforce._core.NativeKernel.matching_facts",
            "matchforce._core.NativeKernel.vertex_connectivity",
            "matchforce._core.NativeKernel.bicritical",
        }
    entered = _entered(tmp_path / "loaded")
    request.getfixturevalue("pure_core")  # from here on, the pure path
    entered |= _entered(tmp_path / "pure")
    assert kernel_backend() == "pure"
    defined = _defined_under_src()
    unreached = {name for code, name in defined.items() if code not in entered}
    assert unreached == expected
