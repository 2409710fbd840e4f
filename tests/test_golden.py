"""Byte-for-byte checks of the CLI's reports on the bundled data and on two
fixed markets, n = 5 and n = 12.

Each file under ``tests/golden/`` is one report as ``matchgames`` writes it
to stdout, except ``market-n5.json`` and ``market-n12.json``, the inputs.  After a change that
is meant to alter a report, regenerate the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
``PYTHONPATH=src python tests/test_golden.py --check`` compares instead, without
pytest, and exits 1 naming the first case that differs.  Both also require every
machine report to read back: ``render_report(parse_report(b)) == b``, byte for byte,
and to render as its command's text: the ``.txt`` file of the same name.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from matchgames import RenderMode, parse_report, render_report
from matchgames.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parents[1] / "demos" / "data"
LABOR = str(DATA / "labor_market.json")
JOBS = str(DATA / "job_market.json")
UNION = str(DATA / "union_game.json")
# A fixed n = 5 market (negative, zero and p/q cells, 8 compromise members):
# its situations and least_satisfied lists are long enough for the record template.
MARKET_N5 = str(GOLDEN / "market-n5.json")
# A fixed tie-heavy n = 12 market (int cells 0..3): its assignment grids have
# rows long enough for the scalar memo, and every side and objective has many
# optimal matchings, so the lex-smallest tie-break rotates the first one found.
MARKET_N12 = str(GOLDEN / "market-n12.json")

COMMANDS = {
    **{
        f"assign-{market}-{side}-{objective}": [
            "assign", "--market", path, "--side", side,
            *(["--minimize"] if objective == "min" else []),
        ]
        for market, path in (("labor", LABOR), ("jobs", JOBS), ("n12", MARKET_N12))
        for side in ("workers", "enterprises")
        for objective in ("max", "min")
    },
    "game-labor": ["game", "--market", LABOR],
    "game-jobs": ["game", "--market", JOBS],
    "game-n5": ["game", "--market", MARKET_N5],
    "bargain": ["bargain", "--game", UNION],
    "bargain-disagreement": ["bargain", "--game", UNION, "--disagreement", "3/2", "3/2"],
    "pipeline": ["pipeline", "--market", LABOR, "--union-game", UNION],
}
CASES = [(name, mode) for name in COMMANDS for mode in ("text", "machine")]


def _golden_path(name: str, mode: str) -> Path:
    return GOLDEN / f"{name}.{'json' if mode == 'machine' else 'txt'}"


def _render(name: str, mode: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*COMMANDS[name], "--output", mode])
    assert code == EXIT_OK
    return out.getvalue()


def pytest_generate_tests(metafunc):  # parametrizes without importing pytest here
    metafunc.parametrize(("name", "mode"), CASES)


def _reads_back(name: str, golden: bytes) -> bool:
    """The machine report golden reads back as itself, and as the text report of the same name."""
    report = parse_report(golden)
    text = _golden_path(name, "text").read_bytes()
    return render_report(report).encode("utf-8") == golden and render_report(report, RenderMode.TEXT).encode("utf-8") == text


def test_report_bytes_match_golden(name, mode):
    expected = _golden_path(name, mode).read_bytes()
    assert _render(name, mode).encode("utf-8") == expected
    assert mode == "text" or _reads_back(name, expected)


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    GOLDEN.mkdir(exist_ok=True)
    for name, mode in CASES:
        rendered = _render(name, mode).encode("utf-8")
        if not check:
            _golden_path(name, mode).write_bytes(rendered)
        elif rendered != _golden_path(name, mode).read_bytes():
            sys.exit(f"{name} ({mode}) differs from {_golden_path(name, mode)}")
        elif mode == "machine" and not _reads_back(name, rendered):
            sys.exit(f"{name} ({mode}) does not read back through parse_report and render_report, in both modes")
    print(f"{len(CASES)} cases {'checked' if check else 'written'}")
