"""Every fenced `python` block of README.md runs as written.

Each block runs on its own, in a fresh namespace, against whichever
`cbkit` the import finds: `src/` on PYTHONPATH, or the installed package.
A failing block's traceback names README.md and the line in it.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks() -> list[tuple[int, str]]:
    """(first line, source) of each python block, lines counted from 1."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start(1)) + 1, m.group(1))
        for m in re.finditer(r"^```python\n(.*?)^```$", text, re.DOTALL | re.MULTILINE)
    ]


BLOCKS = _blocks()


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize(("line", "source"), BLOCKS, ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source):
    # blank lines ahead of the block keep its line numbers the README's
    code = compile("\n" * (line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "__readme__"})
