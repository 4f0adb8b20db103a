"""The README's Python API example runs as written."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_api_example_runs_and_its_values_hold():
    # each line runs in turn; a line whose comment is a Python literal is
    # an expression that must evaluate to it
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        try:
            expected = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            exec(line, namespace)
            continue
        assert eval(code, namespace) == expected, line
        checked += 1
    assert "switch_path" in block
    assert checked >= 4
