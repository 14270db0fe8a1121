"""The README's Python examples run, and print what their comments say.

For each ``print(...)`` line of a python block that ends in a comment,
the printed text must be a prefix of the comment.
"""

import io
import re
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_example_prints_its_comments(source):
    printed = {}

    def record(*args, **kwargs):
        buf = io.StringIO()
        print(*args, file=buf, **kwargs)
        printed[sys._getframe(1).f_lineno] = buf.getvalue().rstrip("\n")

    exec(compile(source, str(README), "exec"), {"print": record})
    commented = {i: line.split("#", 1)[1].strip()
                 for i, line in enumerate(source.splitlines(), 1)
                 if line.startswith("print(") and "#" in line}
    assert commented
    for lineno, comment in commented.items():
        assert comment.startswith(printed[lineno]), (lineno, printed[lineno], comment)
