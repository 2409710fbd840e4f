"""Byte-for-byte checks of the CLI's reports on the bundled data, on three
fixed markets, n = 5, n = 6 and n = 12, and on one degenerate bimatrix game,
and of its errors on refused requests.

Each file under ``tests/golden/`` is one report as ``matchgames`` writes it
to stdout, except ``market-n5.json``, ``market-n6.json``, ``market-n12.json``
and ``bimatrix-degenerate.json``, the inputs.  Each
case under ``tests/golden/errors/`` is a request that the CLI refuses: in both
output modes it exits with the case's code in ``ERRORS``, writes nothing to
stdout and writes exactly ``<case>.err`` to stderr.  A case whose kind (the
name's first word) has a reader in ``READERS`` is an input file,
``<case>.json``, that this reader's command reads: ``pipeline`` cases are
markets and ``union`` cases union games, each read by ``pipeline`` beside the
bundled file of the other kind.  Any other case is an argument list,
``<case>.argv``, a JSON list in which ``{data}`` stands for ``demos/data``.
That directory is the one table of refused requests: the other tests run its
cases through ``_refused_argv`` rather than build refused requests of their
own.  A few refusals stay code in ``tests/test_cli.py``: argparse's ``invalid
choice`` messages, whose words change between CPython patch releases, checked
by substring; a missing file, whose text is the OS's; generated inputs too
large to keep (hundreds of long denominators, a 200,000-digit integer; ten of
them, a 10 KB market, are the kept case ``assign-denominator-too-large``); a
refusal that must follow successes on the same file; and write errors, which
depend on where the report goes.  Every request must end within 1 s, which
catches a parse or render that runs without bound, and ``tests/golden/`` must
hold exactly the files these tables name.
After a change that is meant to alter a report or an error, regenerate the files
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
``PYTHONPATH=src python tests/test_golden.py --check`` compares instead, without
pytest, and exits 1 naming the first case that differs; CI also runs it from
outside the checkout on the installed package, with ``PYTHONINTMAXSTRDIGITS``
unset and set to 0.  Both also require every machine report to read back:
``render_report(parse_report(b)) == b``, byte for byte, and to render as its
command's text: the ``.txt`` file of the same name.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from matchgames import RenderMode, parse_report, render_report
from matchgames.cli import EXIT_INPUT, EXIT_OK, EXIT_SIZE, main

GOLDEN = Path(__file__).parent / "golden"
DATA = Path(__file__).parents[1] / "demos" / "data"
LABOR = str(DATA / "labor_market.json")
JOBS = str(DATA / "job_market.json")
UNION = str(DATA / "union_game.json")
# A fixed n = 5 market (negative, zero and p/q cells, 8 compromise members):
# its situations and least_satisfied lists are long enough for the record template.
MARKET_N5 = str(GOLDEN / "market-n5.json")
# A fixed n = 6 market (negative, zero, p/q and decimal cells, 10 compromise members): above the equilibrium
# enumeration cap, so its game report says "enumerated": false.
MARKET_N6 = str(GOLDEN / "market-n6.json")
# A fixed tie-heavy n = 12 market (int cells 0..3): its assignment grids have
# rows long enough to be written a column at a time, and every side and
# objective has many optimal matchings, so the lex-smallest tie-break rotates
# the first one found.
MARKET_N12 = str(GOLDEN / "market-n12.json")
# A 2x2 game whose outcomes lie on one line: the feasible hull is the segment (1, 1)-(3, 3), and the Pareto
# frontier is the one point (3, 3), the bargaining solution.
DEGENERATE = str(GOLDEN / "bimatrix-degenerate.json")

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
    "game-n6": ["game", "--market", MARKET_N6],
    "bargain": ["bargain", "--game", UNION],
    "bargain-disagreement": ["bargain", "--game", UNION, "--disagreement", "3/2", "3/2"],
    "bargain-degenerate": ["bargain", "--game", DEGENERATE],
    "pipeline": ["pipeline", "--market", LABOR, "--union-game", UNION],
}
CASES = [(name, mode) for name in COMMANDS for mode in ("text", "machine")]

ERRORS_DIR = GOLDEN / "errors"
# Each refused request and its exit code: an input file read by its kind's reader, or an argument list (see above).
ERRORS = {
    "market-unknown-key": EXIT_INPUT,
    "market-workers-not-a-list": EXIT_INPUT,
    "market-repeated-label": EXIT_INPUT,
    "market-bool-cell": EXIT_INPUT,
    "market-short-row": EXIT_INPUT,
    "market-zero-denominator": EXIT_INPUT,
    "market-count-mismatch": EXIT_INPUT,
    "market-trailing-comma": EXIT_INPUT,
    "bimatrix-bad-pair": EXIT_INPUT,
    "market-n9": EXIT_SIZE,  # a well-formed market too large for game's full enumeration
    "assign-total-past-print-limit": EXIT_INPUT,  # a total whose denominator is past the 4300-digit print limit
    "market-not-json": EXIT_INPUT,
    "market-not-utf8": EXIT_INPUT,  # a label holding the byte 0xff
    "market-empty-lists": EXIT_INPUT,
    "assign-repeated-key": EXIT_INPUT,  # json.loads alone would answer from the second "A", with exit 0
    "disagreement-outside-hull": EXIT_INPUT,  # the union game with a threat point off its feasible hull
    # ten A cells "1/q", q = 10**989 + k pairwise coprime: each literal is in bounds, their lcm is 32,854 bits
    "assign-denominator-too-large": EXIT_INPUT,
    **dict.fromkeys([
        *(f"{kind}-{fault}" for kind in ("union", "pipeline") for fault in ("not-json", "trailing-comma", "repeated-key", "unknown-key")),
        "union-not-an-object", "bimatrix-empty-labels", "bimatrix-three-by-three",  # maximin needs a 2x2 game
        "market-missing-row", "bimatrix-row-count", "bimatrix-short-row", "market-bad-exponent",
        # numbers too large to read (Fraction would build 1e1000000 as a million-digit int) or to echo, and input nested too deep
        "market-exponent-cell", "market-huge-exponent", "market-long-integer", "assign-long-non-number",
        "market-long-literal", "market-long-decimal",  # a string cell and a JSON decimal past the 1000-character bound
        "bimatrix-long-threat-point", "market-nested-too-deeply", "bimatrix-nested-too-deeply",
        # argument lists: usage errors, and --disagreement literals refused as read ("1_000" and "1 / 2" on every
        # Python, though Fraction reads them from 3.11 and 3.12)
        "usage-missing-market", "usage-no-subcommand",
        *(f"usage-disagreement-{literal}" for literal in ("exponent", "word", "underscore", "spaces", "trailing-letter")),
    ], EXIT_INPUT),
}
READERS = {"market": ["game", "--market"], "bimatrix": ["bargain", "--game"],
           "assign": ["assign", "--side", "workers", "--market"],
           "disagreement": ["bargain", "--disagreement", "3/2", "-1/4", "--game"],
           "pipeline": ["pipeline", "--union-game", UNION, "--market"],
           "union": ["pipeline", "--market", JOBS, "--union-game"]}
ERROR_CASES = [(case, mode) for case in ERRORS for mode in ("text", "machine")]


def _golden_path(name: str, mode: str) -> Path:
    return GOLDEN / f"{name}.{'json' if mode == 'machine' else 'txt'}"


def _run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI request, which must end within 1 s."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1, (argv, time.perf_counter() - start)
    return code, out.getvalue(), err.getvalue()


def _render(name: str, mode: str) -> str:
    code, out, err = _run([*COMMANDS[name], "--output", mode])
    assert (code, err) == (EXIT_OK, ""), (name, mode, code)
    return out


def _request(case: str) -> Path:
    """The file that holds case's request: its input file if its kind has a reader, else its argument list."""
    return ERRORS_DIR / f"{case}.{'json' if case.split('-')[0] in READERS else 'argv'}"


def _refused_argv(case: str, mode: str) -> list[str]:
    """case's request in mode: its input file through its kind's reader, or its argument list with {data} made DATA."""
    path = _request(case)
    if path.suffix == ".json":
        return [*READERS[case.split("-")[0]], str(path), "--output", mode]
    return [*(arg.replace("{data}", str(DATA)) for arg in json.loads(path.read_bytes())), "--output", mode]


def _refuse(case: str, mode: str) -> str:
    """The stderr of the CLI on case's input file in mode, once it has exited with the case's code and no stdout."""
    code, out, err = _run(_refused_argv(case, mode))
    assert (code, out) == (ERRORS[case], ""), (case, mode, code)
    return err


def _stray_files() -> set[Path]:
    """The files under tests/golden/ that no table names, with the named ones that are missing.  The tables name
    each CASES output, both files of each ERRORS case, and the four fixed inputs."""
    named = {*(_golden_path(*c) for c in CASES), *(ERRORS_DIR / f"{c}.err" for c in ERRORS), *map(_request, ERRORS)}
    return {p for p in GOLDEN.rglob("*") if p.is_file()} ^ (named | {*map(Path, (MARKET_N5, MARKET_N6, MARKET_N12, DEGENERATE))})


def pytest_generate_tests(metafunc):  # parametrizes without importing pytest here
    if "case" in metafunc.fixturenames:
        metafunc.parametrize(("case", "mode"), ERROR_CASES)
    elif "name" in metafunc.fixturenames:
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


def test_refused_input_matches_golden(case, mode):
    assert _refuse(case, mode).encode("utf-8") == (ERRORS_DIR / f"{case}.err").read_bytes()


def test_every_golden_file_is_named():
    assert not _stray_files()


if __name__ == "__main__":
    check = sys.argv[1:] == ["--check"]
    if sys.argv[1:] and not check:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    GOLDEN.mkdir(exist_ok=True)
    if check and _stray_files():
        sys.exit(f"tests/golden/ and the case tables differ in {sorted(map(str, _stray_files()))}")
    for name, mode in CASES:
        rendered = _render(name, mode).encode("utf-8")
        if not check:
            _golden_path(name, mode).write_bytes(rendered)
        elif rendered != _golden_path(name, mode).read_bytes():
            sys.exit(f"{name} ({mode}) differs from {_golden_path(name, mode)}")
        elif mode == "machine" and not _reads_back(name, rendered):
            sys.exit(f"{name} ({mode}) does not read back through parse_report and render_report, in both modes")
    for case, mode in ERROR_CASES:
        written, golden = _refuse(case, mode).encode("utf-8"), ERRORS_DIR / f"{case}.err"
        if not check:
            golden.write_bytes(written)
        elif written != golden.read_bytes():
            sys.exit(f"{case} ({mode}) writes another error than {golden}")
    print(f"{len(CASES)} reports and {len(ERROR_CASES)} refusals {'checked' if check else 'written'}")
