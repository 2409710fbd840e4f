"""The README's library quick start prints what its comments say it prints,
and its command-line examples run as written."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from matchgames import cli

README = Path(__file__).parents[1] / "README.md"


def _command_lines() -> list[str]:
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("matchgames ")]


def test_quick_start_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert expected and out.getvalue().splitlines() == expected


def test_command_line_block_spells_options_both_ways():
    lines = _command_lines()
    assert any(line.startswith("matchgames --output ") for line in lines)
    assert any(line.endswith(" --output machine") for line in lines)


@pytest.mark.parametrize("line", _command_lines())
def test_command_line_example_runs(line, monkeypatch, capsys):
    monkeypatch.chdir(README.parent)
    assert cli.main(shlex.split(line)[1:]) == cli.EXIT_OK
    assert capsys.readouterr().out
