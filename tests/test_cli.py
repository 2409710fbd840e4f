import gc
import io
import json
import math
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
from test_golden import CASES, COMMANDS, UNION, _golden_path


@pytest.fixture
def market_path(demo_data_dir):
    return str(demo_data_dir / "labor_market.json")


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
    def test_assign_workers(self, job_market_path, capsys):
        code, out = run_machine(["assign", "--market", job_market_path, "--side", "workers"], capsys)
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["total"] == 78
        assert report.payload["matching"] == [0, 2, 1]
        assert report.payload["assignment_grid"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]

    def test_assign_enterprises(self, job_market_path, capsys):
        code, out = run_machine(
            ["assign", "--market", job_market_path, "--side", "enterprises"], capsys
        )
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["total"] == 50
        assert report.notes  # known-quirk note for the bundled dataset

    def test_assign_minimize(self, job_market_path, capsys):
        code, out = run_machine(
            ["assign", "--market", job_market_path, "--side", "workers", "--minimize"], capsys
        )
        assert code == EXIT_OK
        assert parse_report(out).payload["objective"] == "minimize"

    def test_game(self, market_path, capsys):
        code, out = run_machine(["game", "--market", market_path], capsys)
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["ideal_point"] == [94, 86, 54, 94, 85, 38]
        assert report.payload["compromise"]["members"] == [[0, 2, 1]]
        assert report.payload["equilibria"]["equilibrium_count"] == 6

    def test_bargain(self, union_path, capsys):
        code, out = run_machine(["bargain", "--game", union_path], capsys)
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["solution"] == [4, 4]

    def test_bargain_with_override(self, union_path, capsys):
        code, out = run_machine(
            ["bargain", "--game", union_path, "--disagreement", "0", "0"], capsys
        )
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["maximin"] is None
        assert report.payload["solution"] == [4, 4]

    def test_bargain_override_allows_larger_games(self, tmp_path, capsys):
        doc = {
            "row_labels": ["r1", "r2", "r3"],
            "col_labels": ["c1", "c2", "c3"],
            "payoffs": [[[i, j] for j in range(3)] for i in range(3)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out = run_machine(["bargain", "--game", str(path), "--disagreement", "0", "0"], capsys)
        assert code == EXIT_OK
        code, _ = run_machine(["bargain", "--game", str(path)], capsys)
        assert code == EXIT_INPUT  # maximin needs a 2x2 game

    def test_pipeline(self, job_market_path, union_path, capsys):
        code, out = run_machine(
            ["pipeline", "--market", job_market_path, "--union-game", union_path], capsys
        )
        assert code == EXIT_OK
        report = parse_report(out)
        assert report.payload["mismatch"]["count"] > 0
        assert report.payload["bargaining"]["solution"] == [4, 4]

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

    def test_text_output_default(self, union_path, capsys):
        code = main(["bargain", "--game", union_path])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "solution: 4, 4" in out


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

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["game", "--market", str(path)]) == EXIT_INPUT

    def test_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"workers": [], "enterprises": [], "A": [], "B": []}')
        assert main(["game", "--market", str(path)]) == EXIT_INPUT

    def test_repeated_key(self, tmp_path, capsys):
        # json.loads alone would answer from the second "A", with exit 0.
        path = tmp_path / "twice.json"
        path.write_text('{"workers": ["w", "v"], "enterprises": ["e", "f"], "A": [[1, 2], [3, 4]], "A": [[4, 3], [2, 1]], "B": [[1, 2], [3, 4]]}')
        assert main(["assign", "--market", str(path), "--side", "workers"]) == EXIT_INPUT
        assert capsys.readouterr().err == "matchgames: error: market: the key 'A' appears more than once in one object\n"

    @pytest.mark.parametrize("broken", ["market", "bimatrix"])
    def test_json_errors_name_the_file(self, tmp_path, market_path, union_path, broken, capsys):
        # pipeline reads two files: an error in either names the one it comes from.
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        paths = {"market": market_path, "bimatrix": union_path, broken: str(bad)}
        assert main(["pipeline", "--market", paths["market"], "--union-game", paths["bimatrix"]]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"matchgames: error: {broken}: input is not valid JSON: ")
        bad.write_text('{"row_labels": ["a"], "row_labels": ["b"]}')
        assert main(["pipeline", "--market", paths["market"], "--union-game", paths["bimatrix"]]) == EXIT_INPUT
        assert capsys.readouterr().err == f"matchgames: error: {broken}: the key 'row_labels' appears more than once in one object\n"

    @pytest.mark.parametrize("broken", ["market", "bimatrix"])
    def test_unknown_key(self, tmp_path, market_path, union_path, broken, capsys):
        paths = {"market": market_path, "bimatrix": union_path}
        doc = json.loads(Path(paths[broken]).read_text(encoding="utf-8"))
        paths[broken] = str(tmp_path / "extra.json")
        Path(paths[broken]).write_text(json.dumps({**doc, "comment": "a note"}))
        assert main(["pipeline", "--market", paths["market"], "--union-game", paths["bimatrix"]]) == EXIT_INPUT
        assert capsys.readouterr().err == f"matchgames: error: {broken}: unexpected key 'comment'\n"

    def test_one_grid_never_bounds_the_other_sides_solve(self, tmp_path, capsys):
        # A and B share one literal memo, and B holds A's literals too; only B's twelve "1/q",
        # q a distinct prime's power of about 2900 bits (under 900 digits), pass the bound together.
        qs = [p ** int(2900 / math.log2(p)) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)]
        a = [["1/2", 3, "2/3", 0], [1, "5/4", 2, "1/2"], [4, 0, "7/3", 1], ["3/4", 2, 1, "1/6"]]
        big = iter(f"1/{q}" for q in qs)
        b = [[next(big) for _ in range(4)] for _ in range(3)] + [a[0]]
        path = tmp_path / "market.json"
        path.write_text(json.dumps({"workers": list("wxyz"), "enterprises": list("efgh"), "A": a, "B": b}))
        assert main(["assign", "--market", str(path), "--side", "workers"]) == EXIT_OK
        assert main(["game", "--market", str(path)]) == EXIT_OK
        capsys.readouterr()
        assert main(["assign", "--market", str(path), "--side", "enterprises"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"matchgames: error: the entries' common denominator has more than {MAX_DENOMINATOR_BITS} bits\n"

    def test_bad_usage(self, capsys):
        assert main(["assign", "--side", "workers"]) == EXIT_INPUT
        assert main(["frobnicate"]) == EXIT_INPUT
        # no subcommand: argparse stops before any subcommand's run is looked up
        assert main([]) == EXIT_INPUT
        assert main(["--output", "machine"]) == EXIT_INPUT

    def test_size_cap(self, tmp_path, capsys):
        n = 9
        doc = {
            "workers": [f"w{i}" for i in range(n)],
            "enterprises": [f"e{i}" for i in range(n)],
            "A": [[1] * n for _ in range(n)],
            "B": [[1] * n for _ in range(n)],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["game", "--market", str(path)]) == EXIT_SIZE
        # the assignment solver itself has no size cap
        assert main(["assign", "--market", str(path), "--side", "workers"]) == EXIT_OK

    def test_malformed_union_game_fails_before_solving(self, job_market_path, tmp_path, capsys):
        path = tmp_path / "bad-union.json"
        path.write_text("[1, 2]")
        assert main(["pipeline", "--market", job_market_path, "--union-game", str(path)]) == EXIT_INPUT

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

    def test_infeasible_disagreement_prints_rationals(self, union_path, capsys):
        assert main(["bargain", "--game", union_path, "--disagreement", "3/2", "-1/4"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == "matchgames: error: disagreement (3/2, -1/4) is not a feasible payoff vector\n"
        assert "Fraction(" not in err


def write_market(tmp_path, a):
    n = len(a)
    doc = {
        "workers": [f"w{i}" for i in range(n)],
        "enterprises": [f"e{i}" for i in range(n)],
        "A": a,
        "B": [[1] * n for _ in range(n)],
    }
    path = tmp_path / "market.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestOversizeNumbers:
    """Numbers too large to parse or print, and input nested too deep, end in
    exit 1, never a traceback."""

    def assert_input_error(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("matchgames: error: ")
        assert captured.err.count("\n") == 1, captured.err
        return captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["assign", "--side", "workers", "--output", "machine"],
            ["game", "--output", "text"],
        ],
    )
    def test_exponent_cell(self, tmp_path, argv, capsys):
        path = write_market(tmp_path, [["1e5000", 1], [2, 3]])
        self.assert_input_error(argv + ["--market", path], capsys)

    def test_huge_exponent_cell(self, tmp_path, capsys):
        # Fraction("1e1000000") would build a million-digit integer first.
        path = write_market(tmp_path, [["1e1000000", 1], [2, 3]])
        self.assert_input_error(["assign", "--market", path, "--side", "workers"], capsys)

    def test_long_json_integer(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        path.write_text('{"workers": ["w"], "enterprises": ["e"], "A": [[' + "9" * 5000 + ']], "B": [[1]]}')
        self.assert_input_error(["assign", "--market", str(path), "--side", "workers"], capsys)

    # "1_000" and "1 / 2" are refused on every Python, though Fraction reads them from 3.11 and 3.12.
    @pytest.mark.parametrize("value", ["1e5000", "abc", "1_000", "1 / 2", "-1x"])
    def test_bad_disagreement(self, union_path, value, capsys):
        err = self.assert_input_error(["bargain", "--game", union_path, "--disagreement", value, "0"], capsys)
        assert err.startswith("matchgames: error: argument --disagreement: ")  # refused as read, not as infeasible

    @pytest.mark.parametrize(
        "argv",
        [
            ["assign", "--side", "workers", "--market"],
            ["bargain", "--game"],
        ],
    )
    def test_deeply_nested_json(self, tmp_path, argv, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        self.assert_input_error(argv + [str(path)], capsys)

    def test_total_past_print_limit(self, tmp_path, capsys):
        # Each 1/q fits the literal bound; the total's denominator, their
        # product, has about 4950 digits, past the 4300-digit print limit.
        qs = [10**990 + k for k in (1, 3, 7, 9, 13)]
        assert all(math.gcd(q, r) == 1 for i, q in enumerate(qs) for r in qs[i + 1 :])
        grid = [[f"1/{q}" if i == j else 0 for j in range(5)] for i, q in enumerate(qs)]
        path = write_market(tmp_path, grid)
        for mode in ("machine", "text"):
            self.assert_input_error(
                ["assign", "--market", path, "--side", "workers", "--output", mode], capsys
            )

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
        cells = iter(f"{k}/{10**990 + 2 * k - 1}" for k in range(1, 129))
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
    """(argv, exit code) of requests that fail past argument parsing, text and machine."""
    bad_json, bad_cell, big = tmp_path / "bad.json", tmp_path / "cell.json", tmp_path / "big.json"
    bad_json.write_text("{nope")
    bad_cell.write_text(json.dumps({"workers": ["w"], "enterprises": ["e"], "A": [["1/0"]], "B": [[1]]}))
    labels = list("abcdefghi")  # n = 9, past the situation-table cap
    big.write_text(json.dumps({"workers": labels, "enterprises": labels, "A": [[1] * 9] * 9, "B": [[1] * 9] * 9}))
    # Each 1/q is within the literal bound; the total's denominator is past the print limit.
    qs = [10**990 + k for k in (1, 3, 7, 9, 13)]
    huge_total = write_market(tmp_path, [[f"1/{q}" if i == j else 0 for j in range(5)] for i, q in enumerate(qs)])
    requests = [
        (["game", "--market", str(bad_json)], EXIT_INPUT),
        (["assign", "--market", str(bad_cell), "--side", "workers"], EXIT_INPUT),
        (["assign", "--market", str(tmp_path / "missing.json"), "--side", "workers"], EXIT_INPUT),
        (["assign", "--market", huge_total, "--side", "workers"], EXIT_INPUT),
        (["bargain", "--game", UNION, "--disagreement", "3/2", "-1/4"], EXIT_INPUT),
        (["game", "--market", str(big)], EXIT_SIZE),
    ]
    return [(argv + ["--output", mode], code) for argv, code in requests for mode in ("text", "machine")]


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
            (["frobnicate"], EXIT_INPUT),
            (["bargain", "--game", union_path, "--out", str(tmp_path)], EXIT_INPUT),  # a write error
        ]
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            for argv, code in requests:
                assert run_quietly(argv) == code, argv
                assert gc.isenabled() is enabled, argv

            def broken(*args):
                raise RuntimeError("unexpected")

            monkeypatch.setattr(cli, "cmd_bargain", broken)
            with pytest.raises(RuntimeError, match="unexpected"):
                run_quietly(["bargain", "--game", union_path])
            assert gc.isenabled() is enabled
        finally:
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
@given(files=hostile_files())
def test_hostile_input_ends_in_a_report_or_a_matchgames_error(hostile_dir, files):
    """Junk spliced into market, bimatrix and report files (one report of each
    command): every subcommand in both modes exits 0, 1 or 2, and
    parse_report raises only MatchGamesError."""
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
    for argv in commands:
        for mode in ("text", "machine"):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv + ["--output", mode]) in (EXIT_OK, EXIT_INPUT, EXIT_SIZE)
    for report in reports:
        try:
            parse_report(as_bytes(report))
        except MatchGamesError:
            pass


def test_module_entry_point(demo_data_dir):
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "matchgames",
            "assign",
            "--market",
            str(demo_data_dir / "job_market.json"),
            "--side",
            "workers",
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "total: 78" in result.stdout
