"""Every public function is reached by a command or the README example.

The commands run in this process under a profile hook that records each
code object it enters: every `generate` family piped to `analyze`, and
`verify` on families-10 and on a graph6 file of those families.  A public
function that none of them calls is dead API.
"""

import contextlib
import inspect
import io
import re
import sys
from pathlib import Path

import matchforce
from matchforce.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

FAMILIES = [
    ["multipartite", "--sizes", "2,2,1,1"],
    ["knnplus", "--n", "3", "--extra", "3-4"],
    ["hk", "--n", "4", "--k", "1"],
    ["signature", "--n", "3", "--parallel", "0-1"],
    ["non2ext", "--case", "i", "--n", "4"],
    ["non2ext", "--case", "ii", "--n", "3"],
    ["random", "--order", "6", "--p", "2/3", "--seed", "3"],
]

# kernel_backend names the kernel in perfbench's meta record; no command
# reads it.
UNREACHED_BY_DESIGN = {"kernel_backend"}


def _run(argv, stdin=""):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
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
    corpus = tmp_path / "families.g6"
    corpus.write_text("".join(graph6))
    _run(["verify", "--corpus", "families-10"])
    _run(["verify", "--corpus", str(corpus)])


def test_every_exported_function_is_reached(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(hook)
    try:
        _every_command(tmp_path)
    finally:
        sys.setprofile(saved)
    exported = {
        name: inspect.unwrap(obj)
        for name, obj in vars(matchforce).items()
        if inspect.isfunction(obj)
    }
    unreached = {name for name, fn in exported.items() if fn.__code__ not in entered}
    assert unreached == UNREACHED_BY_DESIGN
