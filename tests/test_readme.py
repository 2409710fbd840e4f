"""The README's library quick start prints what its comments say it prints,
and its command-line examples run as written."""

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from matchgames import cli, formats

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


def _keys(kind) -> set[str]:
    """Every object key in a report layout, at any depth."""
    if isinstance(kind, dict):
        return set(kind).union(*map(_keys, kind.values()))
    if isinstance(kind, (list, tuple)):
        return set().union(*map(_keys, kind))
    return set()


def test_report_layout_table_names_every_payload_key():
    rows = [line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("  | `")]
    by_command = {row.split("`")[1]: row for row in rows}
    assert set(by_command) == set(formats._PAYLOADS)
    for command, layout in formats._PAYLOADS.items():
        # pipeline's row names its two nested payloads by command, not key by key.
        nested = _keys(formats._PAYLOADS["assign"]) | _keys(formats._PAYLOADS["bargain"]) if command == "pipeline" else set()
        missing = {key for key in _keys(layout) - nested if f"`{key}`" not in by_command[command]}
        assert not missing, (command, missing)


def test_file_formats_section_names_every_input_key():
    section = README.read_text(encoding="utf-8").split("### File formats", 1)[1].split("\n## ", 1)[0]
    missing = {key for key in {**formats._MARKET, **formats._BIMATRIX} if f"`{key}`" not in section}
    assert not missing, missing
