import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames import (
    DisagreementPoint,
    MatchGamesError,
    RenderMode,
    Side,
    cmd_assign,
    cmd_bargain,
    cmd_game,
    cmd_pipeline,
    nash_solution,
    parse_bimatrix,
    parse_market,
    parse_report,
    render_report,
)
from matchgames import cli
from matchgames.cli import EXIT_INPUT, EXIT_OK, EXIT_SIZE, main
from matchgames.core import MAX_DENOMINATOR_BITS
from test_golden import CASES, COMMANDS, ERROR_CASES, ERRORS, ERRORS_DIR, LABOR, UNION, _golden_path, _refused_argv


@pytest.fixture
def job_market_path(demo_data_dir):
    return str(demo_data_dir / "job_market.json")


@pytest.fixture
def union_path(demo_data_dir):
    return str(demo_data_dir / "union_game.json")


# A 2x2 game with negative payoffs, in which (1, -1/4) and (1, 0) are feasible.
SIGNED_GAME = {
    "row_labels": ["r1", "r2"],
    "col_labels": ["c1", "c2"],
    "payoffs": [[[6, 2], [0, -1]], [[-1, 0], [2, 6]]],
}


def run_machine(args, capsys):
    code = main(args + ["--output", "machine"])
    captured = capsys.readouterr()
    return code, captured.out


class TestSubcommands:
    def test_bargain_override_allows_larger_games(self, capsys):
        # maximin refuses this 3x3 game (tests/golden/errors/); an override skips it.
        game = str(ERRORS_DIR / "bimatrix-three-by-three.json")
        assert run_machine(["bargain", "--game", game, "--disagreement", "0", "0"], capsys)[0] == EXIT_OK

    def test_pipeline_agreeing_market(self, tmp_path, union_path, capsys):
        # A's optimum is the identity; B's optimum selects the same pairs.
        doc = {
            "workers": ["w1", "w2"],
            "enterprises": ["e1", "e2"],
            "A": [[9, 0], [0, 9]],
            "B": [[9, 0], [0, 9]],
        }
        path = tmp_path / "agree.json"
        path.write_text(json.dumps(doc))
        code, out = run_machine(["pipeline", "--market", str(path), "--union-game", union_path], capsys)
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["mismatch"]["coincide"] is True
        assert report.payload["bargaining"]["solution"] == [4, 4]

    def test_out_writes_file(self, union_path, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code = main(["bargain", "--game", union_path, "--output", "machine", "--out", str(out_file)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert parse_report(out_file.read_text()).payload["solution"] == [4, 4]

    def test_bargain_negative_fraction_disagreement(self, tmp_path, capsys):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED_GAME))
        code, out = run_machine(
            ["bargain", "--game", str(path), "--disagreement", "1", "-1/4"], capsys
        )
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["disagreement"] == [1, Fraction(-1, 4)]
        expected = nash_solution(
            parse_bimatrix(json.dumps(SIGNED_GAME)).game, DisagreementPoint(v1=Fraction(1), v2=Fraction(-1, 4))
        )
        assert report.payload["solution"] == list(expected.solution)

    # argparse's own pattern takes an exponent or a trailing point for an option.
    @pytest.mark.parametrize(
        ("literal", "value"),
        [("-25e-2", Fraction(-1, 4)), ("-2.5E-1", Fraction(-1, 4)), ("-.25e0", Fraction(-1, 4)), ("-0.", 0)],
    )
    def test_bargain_negative_literal_disagreement(self, tmp_path, capsys, literal, value):
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED_GAME))
        code, out = run_machine(["bargain", "--game", str(path), "--disagreement", "1", literal], capsys)
        assert code == EXIT_OK
        assert parse_report(out).payload["disagreement"] == [1, value]

class TestConsecutiveCalls:
    """The parser is built once; no call's options leak into the next."""

    def test_minimize_then_default_maximizes(self, job_market_path, capsys):
        argv = ["assign", "--market", job_market_path, "--side", "workers"]
        assert run_machine(argv + ["--minimize"], capsys)[0] == EXIT_OK
        code, out = run_machine(argv, capsys)
        assert code == EXIT_OK
        market = parse_market(Path(job_market_path).read_bytes())
        assert out == render_report(cmd_assign(market, Side.WORKERS), RenderMode.MACHINE)
        assert parse_report(out).payload["objective"] == "maximize"

    def test_disagreement_then_maximin(self, tmp_path, capsys):
        doc = json.dumps(SIGNED_GAME)
        path = tmp_path / "signed.json"
        path.write_text(doc)
        code, _ = run_machine(["bargain", "--game", str(path), "--disagreement", "1", "-1/4"], capsys)
        assert code == EXIT_OK
        code, out = run_machine(["bargain", "--game", str(path)], capsys)
        assert code == EXIT_OK
        expected = cmd_bargain(parse_bimatrix(doc))
        assert out == render_report(expected, RenderMode.MACHINE)
        assert parse_report(out).payload["maximin"] is not None

    def test_out_then_stdout(self, union_path, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        assert main(["bargain", "--game", union_path, "--out", str(out_file)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(["bargain", "--game", union_path]) == EXIT_OK
        assert capsys.readouterr().out == out_file.read_text()


class TestOptionPosition:
    """--output and --out go before or after the subcommand, with the same bytes
    either way; when both positions give a value, the one after it wins."""

    @pytest.mark.parametrize("mode", ["text", "machine"])
    @pytest.mark.parametrize("name", ["assign-jobs-enterprises-min", "game-labor", "bargain-disagreement", "pipeline"])
    def test_output_before_the_subcommand(self, name, mode, capsys):
        assert main(["--output", mode, *COMMANDS[name]]) == EXIT_OK
        assert capsys.readouterr().out.encode("utf-8") == _golden_path(name, mode).read_bytes()

    def test_value_after_the_subcommand_wins(self, capsys):
        for before, after in (("text", "machine"), ("machine", "text")):
            assert main(["--output", before, *COMMANDS["game-labor"], "--output", after]) == EXIT_OK
            assert capsys.readouterr().out.encode("utf-8") == _golden_path("game-labor", after).read_bytes()
        # Nothing given before one call is left over for the next.
        assert main(COMMANDS["game-labor"]) == EXIT_OK
        assert capsys.readouterr().out.encode("utf-8") == _golden_path("game-labor", "text").read_bytes()

    def test_out_before_the_subcommand(self, tmp_path, capsys):
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        golden = _golden_path("bargain", "machine").read_bytes()
        assert main(["--out", str(before), "--output", "machine", *COMMANDS["bargain"]]) == EXIT_OK
        assert before.read_bytes() == golden
        before.unlink()
        assert main(["--out", str(before), *COMMANDS["bargain"], "--output", "machine", "--out", str(after)]) == EXIT_OK
        assert not before.exists() and after.read_bytes() == golden
        assert capsys.readouterr().out == ""

    def test_errors_name_the_right_word(self, capsys):
        assert main(["--output", "machine", "frobnicate"]) == EXIT_INPUT
        assert "'frobnicate'" in capsys.readouterr().err
        assert main(["--output", "json", *COMMANDS["bargain"]]) == EXIT_INPUT
        assert "'json'" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["assign", "--market", "no-such.json", "--side", "workers"]) == EXIT_INPUT

    def test_one_grid_never_bounds_the_other_sides_solve(self, tmp_path, capsys):
        # A and B share one literal memo, and B holds A's literals too; only B's twelve "1/q",
        # q = 10**872 + k pairwise coprime, of 2897 bits (873 digits), pass the bound together.
        # The literals are written digit by digit: the test converts no long int.
        ks = []
        for k in range(1, 100, 2):
            if len(ks) < 12 and all(math.gcd(10**872 + k, 10**872 + j) == 1 for j in ks):
                ks.append(k)
        assert len(ks) == 12 and 12 * (10**872).bit_length() > MAX_DENOMINATOR_BITS
        a = [["1/2", 3, "2/3", 0], [1, "5/4", 2, "1/2"], [4, 0, "7/3", 1], ["3/4", 2, 1, "1/6"]]
        big = iter(f"1/1{k:0872}" for k in ks)
        b = [[next(big) for _ in range(4)] for _ in range(3)] + [a[0]]
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"workers": list("wxyz"), "enterprises": list("efgh"), "A": a, "B": b}))
        assert main(["assign", "--market", str(path), "--side", "workers"]) == EXIT_OK
        assert main(["game", "--market", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["assign", "--market", str(path), "--side", "enterprises"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"matchgames: error: the entries' common denominator has more than {MAX_DENOMINATOR_BITS} bits\n"

    def test_size_cap(self, capsys):
        # game refuses this n = 9 market (tests/golden/errors/); the assignment solver itself has no size cap.
        assert main(["assign", "--market", str(ERRORS_DIR / "market-n9.json"), "--side", "workers"]) == EXIT_OK

    def test_unencodable_stdout_is_an_input_error(self, tmp_path, monkeypatch):
        doc = {"workers": ["é", "w"], "enterprises": ["e", "f"], "A": [[1, 2], [3, 4]], "B": [[1, 2], [3, 4]]}
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        argv = ["assign", "--market", str(path), "--side", "workers", "--output"]
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        err = io.StringIO()
        with redirect_stderr(err):
            assert main(argv + ["text"]) == EXIT_INPUT
        assert err.getvalue().startswith("matchgames: error: cannot write the report to stdout: 'ascii' codec")
        assert err.getvalue().count("\n") == 1
        stdout.flush()
        assert stdout.buffer.getvalue() == b""
        # Machine output escapes every non-ASCII character, so it is written.
        assert main(argv + ["machine"]) == EXIT_OK
        stdout.flush()
        assert b'"\\u00e9"' in stdout.buffer.getvalue()

    def test_out_file_is_utf8(self, tmp_path, capsys):
        doc = {"workers": ["é"], "enterprises": ["日"], "A": [[1]], "B": [[2]]}
        path, out = tmp_path / "market.json", tmp_path / "report.txt"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["game", "--market", str(path), "--out", str(out)]) == EXIT_OK
        assert "workers: é\nenterprises: 日\n" in out.read_bytes().decode("utf-8")


class TestOversizeNumbers:
    """Common denominators too long to form are refused, or never formed, within 1 s.  The other
    numbers too large to parse or print are cases of tests/golden/errors/."""

    def assert_input_error(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("matchgames: error: ")
        assert captured.err.count("\n") == 1, captured.err
        return captured.err

    def test_long_common_denominator_is_refused_fast(self, tmp_path, capsys):
        # Distinct 490-digit "p/q" cells are each within the literal bound,
        # but their common denominator would run to about 650,000 bits.
        rng = random.Random(20)
        n = 20

        def cell():
            return f"{rng.randrange(10**489, 10**490)}/{rng.randrange(10**489, 10**490)}"

        doc = {
            "workers": [f"w{i}" for i in range(n)],
            "enterprises": [f"e{i}" for i in range(n)],
            "A": [[cell() for _ in range(n)] for _ in range(n)],
            "B": [[cell() for _ in range(n)] for _ in range(n)],
        }
        path = tmp_path / "market.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        self.assert_input_error(["assign", "--market", str(path), "--side", "workers"], capsys)
        assert time.perf_counter() - start < 1.0

    def test_long_common_denominator_in_the_hull_is_arbitrated_fast(self, tmp_path, capsys):
        # 128 payoffs "k/q" with distinct odd 991-digit q, each within the literal bound; any two q
        # share at most a factor of their small difference, so their common denominator would run to
        # about 420,000 bits.  The hull forms none: each turn multiplies three points' own numbers.
        # q = 10**990 + 2k - 1 is written digit by digit: the test converts no long int.
        cells = iter(f"{k}/1{2 * k - 1:0990}" for k in range(1, 129))
        labels = [f"s{i}" for i in range(8)]
        game = {"row_labels": labels, "col_labels": labels, "payoffs": [[[next(cells), next(cells)] for _ in labels] for _ in labels]}
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game))
        start = time.perf_counter()
        assert main(["bargain", "--game", str(path), "--disagreement", *game["payoffs"][0][0]]) == EXIT_OK
        assert time.perf_counter() - start < 1.0
        assert "solution: " in capsys.readouterr().out
        start = time.perf_counter()
        err = self.assert_input_error(["bargain", "--game", str(path), "--disagreement", "0", "0"], capsys)
        assert time.perf_counter() - start < 1.0
        assert err.endswith("is not a feasible payoff vector\n")


def failing_requests(tmp_path):
    """(argv, exit code) of failing requests, text and machine: every case of tests/golden/errors/, a missing
    file, whose error text is the OS's, and an unknown subcommand, whose text is argparse's."""
    missing = ["assign", "--market", str(tmp_path / "missing.json"), "--side", "workers"]
    return [(_refused_argv(case, mode), ERRORS[case]) for case, mode in ERROR_CASES] + [
        ([*argv, "--output", mode], EXIT_INPUT) for argv in (missing, ["frobnicate"]) for mode in ("text", "machine")]


def run_quietly(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


class TestCollector:
    """main pauses the cyclic collector for each request, which is safe only because no request
    leaves a reference cycle, and hands the collector back in the state it found it."""

    @staticmethod
    def garbage_after(argv):
        """(exit code, objects the collector frees) of one request, the collector off throughout."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            code = run_quietly(argv)
            return code, gc.collect()
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize(("name", "mode"), CASES)
    def test_golden_request_leaves_no_cycle(self, name, mode):
        assert self.garbage_after([*COMMANDS[name], "--output", mode]) == (EXIT_OK, 0)

    def test_failing_request_leaves_no_cycle(self, tmp_path):
        for argv, code in failing_requests(tmp_path):
            assert self.garbage_after(argv) == (code, 0), argv

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_restored_on_every_way_out(self, enabled, tmp_path, union_path, monkeypatch):
        requests = [
            (["bargain", "--game", union_path], EXIT_OK),
            *failing_requests(tmp_path),
            (["bargain", "--game", union_path, "--out", str(tmp_path)], EXIT_INPUT),  # a write error
        ]

        def broken(*args):
            raise RuntimeError("unexpected")

        was, digits = gc.isenabled(), sys.get_int_max_str_digits()
        try:
            (gc.enable if enabled else gc.disable)()
            for limit in (0, 640, 4300):  # the caller's int-digit limit, which main sets aside
                sys.set_int_max_str_digits(limit)
                for argv, code in requests:
                    assert run_quietly(argv) == code, argv
                    assert (gc.isenabled(), sys.get_int_max_str_digits()) == (enabled, limit), argv
                with monkeypatch.context() as patch:
                    patch.setattr(cli, "cmd_bargain", broken)
                    with pytest.raises(RuntimeError, match="unexpected"):
                        run_quietly(["bargain", "--game", union_path])
                assert (gc.isenabled(), sys.get_int_max_str_digits()) == (enabled, limit)
        finally:
            sys.set_int_max_str_digits(digits)
            (gc.enable if was else gc.disable)()

    def test_collector_is_off_during_the_request(self, union_path, monkeypatch):
        seen = []

        def recording(*args):
            seen.append(gc.isenabled())
            return cmd_bargain(*args)

        monkeypatch.setattr(cli, "cmd_bargain", recording)
        assert gc.isenabled()
        assert run_quietly(["bargain", "--game", union_path]) == EXIT_OK
        assert seen == [False] and gc.isenabled()


# (interpreter options, PYTHONINTMAXSTRDIGITS): the default, then three settings that lift or lower the limit.
DIGIT_SETTINGS = [([], None), ([], "0"), ([], "640"), (["-X", "int_max_str_digits=0"], None)]


def run_under(options, digits, argv):
    """(exit code, stdout, stderr, seconds) of one CLI request in a fresh interpreter."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONINTMAXSTRDIGITS"}
    if digits is not None:
        env["PYTHONINTMAXSTRDIGITS"] = digits
    start = time.perf_counter()
    result = subprocess.run([sys.executable, *options, "-m", "matchgames", *argv], env=env, capture_output=True)
    return result.returncode, result.stdout, result.stderr, time.perf_counter() - start


class TestIntDigitLimit:
    """main holds Python's default int-digit limit, 4300, for each request: the interpreter's
    setting changes neither the exit code nor a byte of the output."""

    @pytest.mark.parametrize("name", ["long-json-integer", "long-disagreement", "total-past-print-limit"])
    def test_one_verdict_under_every_setting(self, tmp_path, union_path, name):
        long_json_integer = tmp_path / "long.json"
        long_json_integer.write_text(
            '{"workers": ["w0", "w1"], "enterprises": ["e0", "e1"], "A": [[1, 2], [3, 4]], "B": [['
            + "9" * 200_000
            + ", 2], [3, 4]]}"
        )
        argv, error = {
            "long-json-integer": (
                ["assign", "--market", str(long_json_integer), "--side", "enterprises", "--output", "machine"],
                b"market: input has an oversize number: an integer of more than 4300 digits\n",
            ),
            "long-disagreement": (
                ["bargain", "--game", union_path, "--disagreement", "1e700", "0"],
                b"disagreement (a rational of 2327 bits, 0) is not a feasible payoff vector\n",
            ),
            "total-past-print-limit": (
                _refused_argv("assign-total-past-print-limit", "text"),
                b"cannot render the assign report: it holds an integer of more than 4300 digits\n",
            ),
        }[name]
        runs = [run_under(options, digits, argv) for options, digits in DIGIT_SETTINGS]
        assert len({run[:3] for run in runs}) == 1, [run[:3] for run in runs]
        code, out, err, _ = runs[0]
        assert (code, out) == (EXIT_INPUT, b"")
        assert err == b"matchgames: error: " + error  # the package's words, the same on every interpreter
        assert max(run[3] for run in runs) < 1.0


UNION_GAME = Path(UNION).read_text()

# Short literals of every accepted kind, and the characters most likely to
# break JSON, numbers and argument parsing when spliced into a document;
# "\udcff" is written as the invalid UTF-8 byte 0xff.  No "h", so no
# spliced argument can spell --help.
short_cells = st.one_of(
    st.integers(-9, 99), st.sampled_from(["1/2", "-3/4", "0.5", "-2.25", "2e3", "1e-3"])
)
JUNK = '[]{}",:-/.0123456789eE nul\\\u00e9\x00\udcff'


def as_bytes(text):
    return text.encode("utf-8", "surrogateescape")


@st.composite
def spliced(draw, text):
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, min(len(text), start + 4)))
    return text[:start] + draw(st.text(JUNK, max_size=6)) + text[stop:]


@st.composite
def hostile_files(draw):
    n = draw(st.integers(1, 4))
    grid = st.lists(st.lists(short_cells, min_size=n, max_size=n), min_size=n, max_size=n)
    market = json.dumps(
        {
            "workers": [f"w{i}" for i in range(n)],
            "enterprises": [f"e{i}" for i in range(n)],
            "A": draw(grid),
            "B": draw(grid),
        }
    )
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = st.lists(short_cells, min_size=2, max_size=2)
    bimatrix = json.dumps(
        {
            "row_labels": [f"r{i}" for i in range(rows)],
            "col_labels": [f"c{j}" for j in range(cols)],
            "payoffs": draw(
                st.lists(
                    st.lists(pair, min_size=cols, max_size=cols), min_size=rows, max_size=rows
                )
            ),
        }
    )
    instance, union = parse_market(market), parse_bimatrix(UNION_GAME)
    reports = [
        cmd_assign(instance, Side.WORKERS),
        cmd_game(instance),
        cmd_bargain(union, draw(st.sampled_from([None, ("3/2", "3/2")]))),
        cmd_pipeline(instance, union),
    ]
    disagreement = draw(st.lists(st.text(JUNK, min_size=1, max_size=4), min_size=2, max_size=2))
    return draw(spliced(market)), draw(spliced(bimatrix)), [draw(spliced(render_report(r))) for r in reports], disagreement


@pytest.fixture(scope="module")
def hostile_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


@settings(max_examples=200, deadline=None)
@given(files=hostile_files(), limit=st.sampled_from([0, 640, 4300]))
def test_hostile_input_ends_in_a_report_or_a_matchgames_error(hostile_dir, files, limit):
    """Junk spliced into market, bimatrix and report files (one report of each
    command): every subcommand in both modes exits 0, 1 or 2, whatever the
    caller's int-digit limit, and parse_report raises only MatchGamesError."""
    market, bimatrix, reports, disagreement = files
    market_path, game_path = hostile_dir / "market.json", hostile_dir / "game.json"
    market_path.write_bytes(as_bytes(market))
    game_path.write_bytes(as_bytes(bimatrix))
    commands = [
        ["assign", "--market", str(market_path), "--side", "workers"],
        ["assign", "--market", str(market_path), "--side", "enterprises", "--minimize"],
        ["game", "--market", str(market_path)],
        ["bargain", "--game", str(game_path)],
        ["bargain", "--game", str(game_path), "--disagreement", *disagreement],
        ["pipeline", "--market", str(market_path), "--union-game", str(game_path)],
    ]
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for argv in commands:
            for mode in ("text", "machine"):
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    assert main(argv + ["--output", mode]) in (EXIT_OK, EXIT_INPUT, EXIT_SIZE)
    finally:
        sys.set_int_max_str_digits(digits)
    for report in reports:
        try:
            parse_report(as_bytes(report))
        except MatchGamesError:
            pass


def test_module_entry_point():
    # python -m matchgames runs __main__.py, which no in-process test reaches: its stdout is the golden report, byte for byte.
    result = subprocess.run([sys.executable, "-m", "matchgames", "--output", "machine", "game", "--market", LABOR],
                            capture_output=True)
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, _golden_path("game-labor", "machine").read_bytes(), b"")
