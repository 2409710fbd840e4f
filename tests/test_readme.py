"""The README's library quick start prints what its comments say it prints."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_quick_start_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected
