"""The README's library tour runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)


def test_library_tour_prints_its_comments():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 1
    code = blocks[0]
    # the comment on each print line is the line it prints
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
