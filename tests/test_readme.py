"""README's Python examples run as written, and print what they say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def _stated_outputs(block):
    """Comment lines right below a print line: that print's documented output."""
    lines = block.splitlines()
    return [cur[2:] for prev, cur in zip(lines, lines[1:])
            if prev.startswith("print(") and cur.startswith("# ")]


def test_readme_has_python_examples():
    assert _python_blocks()


def test_readme_python_blocks_run():
    for block in _python_blocks():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        printed = out.getvalue().splitlines()
        for line in _stated_outputs(block):
            assert line in printed
