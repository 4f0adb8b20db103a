"""The README's Python API example runs as written."""

import re
from pathlib import Path

import matchforce

README = Path(__file__).resolve().parent.parent / "README.md"


def test_api_example_runs_and_its_values_hold():
    # each line runs in turn; a line whose comment is a Python expression
    # over the package's names (a literal, `ClassTag.X`, a repr) is an
    # expression that must evaluate to it, and any other comment is prose
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    names = {"__builtins__": {}, **vars(matchforce)}
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            expected = eval(comment.strip(), names)
        except (NameError, SyntaxError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert "switch_path" in block
    assert checked >= 4
