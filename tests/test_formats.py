import json
import os
import random
import re
import string
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import chain, islice
from operator import getitem, itemgetter
from pathlib import Path
from types import NoneType
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixFile,
    BimatrixGame,
    DisagreementOutsideHull,
    Objective,
    ParseError,
    RenderMode,
    Report,
    SchemaError,
    Side,
    as_rational,
    cmd_assign,
    cmd_bargain,
    cmd_game,
    cmd_pipeline,
    datasets,
    format_rational,
    parse_bimatrix,
    parse_market,
    parse_report,
    render_report,
)
from matchgames import formats
from matchgames.formats import ReportTooLarge
from test_golden import CASES, _render

MARKET_DOC = """
{
  "workers": ["s1", "s2", "s3"],
  "enterprises": ["h1", "h2", "h3"],
  "A": [[76, 22, 94], [33, 41, 86], [45, 13, 54]],
  "B": [[94, 71, 17], [30, 32, 18], [59, 85, 38]]
}
"""

UNION_DOC = """
{
  "row_labels": ["r1", "r2"],
  "col_labels": ["c1", "c2"],
  "payoffs": [[[6, 2], [0, 0]], [[0, 0], [2, 6]]]
}
"""


def nesting(value):
    """Containers from value down to its deepest leaf, value itself included."""
    if isinstance(value, dict):
        value = list(value.values())
    return 1 + max(map(nesting, value), default=0) if isinstance(value, list) else 0


def edited(report, path, text):
    """The machine text of report with the value at path (keys and list indexes from the
    document down) replaced by the JSON text, or deleted when text is None."""
    doc = json.loads(render_report(report, RenderMode.MACHINE))
    holder = doc
    for step in path[:-1]:
        holder = holder[step]
    if text is None:
        del holder[path[-1]]
        return json.dumps(doc)
    holder[path[-1]] = "@@"
    return json.dumps(doc).replace('"@@"', text)


def seeded_market(n, seed):
    rng = random.Random(seed)
    grid = lambda: [[rng.randint(-9, 99) for _ in range(n)] for _ in range(n)]
    return parse_market(json.dumps({"workers": [f"w{i}" for i in range(n)], "enterprises": [f"e{i}" for i in range(n)],
                                    "A": grid(), "B": grid()}))


def random_market(rng):
    n = rng.randint(1, 4)
    labels = lambda prefix: [f"{prefix}{''.join(rng.choices(string.ascii_lowercase, k=3))}{i}" for i in range(n)]
    number = lambda: rng.choice(
        [
            rng.randint(0, 99),
            f"{rng.randint(0, 99)}/{rng.randint(1, 9)}",
            f"{rng.randint(0, 9)}.{rng.randint(0, 99):02d}",
        ]
    )
    doc = {
        "workers": labels("w"),
        "enterprises": labels("e"),
        "A": [[number() for _ in range(n)] for _ in range(n)],
        "B": [[number() for _ in range(n)] for _ in range(n)],
    }
    return json.dumps(doc)


class TestParseMarket:
    def test_reference_market(self):
        market = parse_market(MARKET_DOC)
        assert market.n == 3
        assert market.worker_utilities.row_labels == ("s1", "s2", "s3")
        assert market.worker_utilities.entries[0][0] == 76
        assert market.enterprise_utilities.entries[2][1] == 85

    def test_numbers_parse_exactly(self):
        market = parse_market(
            '{"workers": ["w"], "enterprises": ["e"], "A": [["3/2"]], "B": [[0.1]]}'
        )
        assert market.worker_utilities.entries[0][0] == Fraction(3, 2)
        assert market.enterprise_utilities.entries[0][0] == Fraction(1, 10)

    def test_bytes_accepted(self):
        assert parse_market(MARKET_DOC.encode()).n == 3

    def test_empty_grid_rejected(self):
        with pytest.raises(SchemaError):
            parse_market('{"workers": [], "enterprises": [], "A": [], "B": []}')

    def test_worker_count_mismatch_rejected(self):
        doc = json.loads(MARKET_DOC)
        doc["workers"] = ["s1", "s2"]
        with pytest.raises(SchemaError):
            parse_market(json.dumps(doc))

    def test_non_square_grid_rejected(self):
        doc = json.loads(MARKET_DOC)
        doc["A"] = [[1, 2, 3], [4, 5, 6]]
        with pytest.raises(SchemaError):
            parse_market(json.dumps(doc))

    def test_bad_number_rejected(self):
        doc = json.loads(MARKET_DOC)
        doc["A"][0][0] = "not-a-number"
        with pytest.raises(SchemaError):
            parse_market(json.dumps(doc))

    def test_repeated_literals_parse_once_per_grid(self):
        # A parsed literal is reused within its market, but True is not the
        # integer 1, a list is no key, and an error names the row it is in.
        doc = '{"workers": ["w0", "w1"], "enterprises": ["e0", "e1"], "A": %s, "B": [[1, 1], [1, 1]]}'
        market = parse_market(doc % '[[1, "1/2"], ["1/2", 1]]')
        assert market.worker_utilities.entries == ((1, Fraction(1, 2)), (Fraction(1, 2), 1))
        for grid, row in [("[[1, 2], [3, true]]", 1), ("[[1, 2], [[1], 1]]", 1), ('[["x", 2], [1, "x"]]', 0)]:
            with pytest.raises(SchemaError, match=rf"market\.A\[{row}\]"):
                parse_market(doc % grid)
        # The first bad literal in reading order is named, with its row.
        for grid, row, bad in [('[[1, "2"], ["x", "y"]]', 1, "x"), ('[["1/0", "y"], [3, "x"]]', 0, "1/0"), ('[[1, "2"], [2, "x"]]', 1, "x")]:
            with pytest.raises(SchemaError, match=rf"market\.A\[{row}\]: .*'{bad}'"):
                parse_market(doc % grid)

    def test_literals_read_alike_on_every_python(self):
        # Fraction(str) reads "1_000" from Python 3.11 and "1 / 2" from 3.12; the parser refuses both everywhere.
        doc = '{"workers": ["w0", "w1"], "enterprises": ["e0", "e1"], "A": [[1, 2], [3, "%s"]], "B": [[1, 1], [1, 1]]}'
        for literal in ("1_000", "1/2_0", "1 / 2", "1/ 2"):
            with pytest.raises(SchemaError, match=rf"market\.A\[1\]: cannot interpret '{literal}'"):
                parse_market(doc % literal)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_market('{"workers": ["w"], "enterprises": ["e"], "A": [[1]]}')

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match=r"^market: unexpected key 'C'$"):
            parse_market(MARKET_DOC.replace('"A":', '"C": [[1]], "A":'))

    def test_wrong_top_level_types_rejected(self):
        for key, value, message in [("A", {}, "market.A: expected list, got dict"), ("workers", "s1", "market.workers: expected list, got str"),
                                    ("enterprises", ["h1", 2, "h3"], "market.enterprises[]: expected str, got int")]:
            doc = json.loads(MARKET_DOC)
            doc[key] = value
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                parse_market(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^market: expected dict, got list$"):
            parse_market("[]")

    def test_errors_echo_at_most_40_characters_of_a_value(self):
        label = "x" * 10**6
        for doc in [
            {"workers": ["w"], "enterprises": ["e"], "A": [[list(range(200_000))]], "B": [[1]]},
            {"workers": [label, label], "enterprises": ["e", "f"], "A": [[1, 1], [1, 1]], "B": [[1, 1], [1, 1]]},
        ]:
            with pytest.raises(SchemaError) as error:
                parse_market(json.dumps(doc))
            assert len(str(error.value)) < 120, str(error.value)[:200]

    def test_repeated_key_rejected(self):
        # json.loads alone would answer from the second "A".
        with pytest.raises(SchemaError, match="'A' appears more than once"):
            parse_market('{"workers": ["w"], "enterprises": ["e"], "A": [[1]], "A": [[2]], "B": [[1]]}')

    def test_duplicate_labels_rejected(self):
        for key, labels, repeated in [
            ("workers", ["a", "a", "b"], "a"),
            ("enterprises", ["x", "y", "x"], "x"),
        ]:
            doc = json.loads(MARKET_DOC)
            doc[key] = labels
            with pytest.raises(SchemaError, match=f"market.{key}: label '{repeated}'"):
                parse_market(json.dumps(doc))

    def test_oversize_numbers_rejected(self):
        for cell, error in [
            ('"1e5000"', SchemaError),
            ('"' + "1" * 1001 + '"', SchemaError),
            ("1e5000", ParseError),
            ("1." + "0" * 1000, ParseError),
            ("9" * 5000, ParseError),
        ]:
            with pytest.raises(error):
                parse_market('{"workers": ["w"], "enterprises": ["e"], "A": [[' + cell + ']], "B": [[1]]}')

    def test_malformed_json_rejected(self):
        with pytest.raises(ParseError):
            parse_market("{not json")
        with pytest.raises(ParseError):
            parse_market(b"\xff\xfe\x00")

    def test_round_trip_random_markets(self):
        rng = random.Random(21)
        for _ in range(30):
            market = parse_market(random_market(rng))
            a, b = market.worker_utilities, market.enterprise_utilities
            grid = lambda m: [list(map(format_rational, row)) for row in m.entries]
            text = json.dumps({"workers": a.row_labels, "enterprises": a.col_labels, "A": grid(a), "B": grid(b)})
            assert parse_market(text) == market


class TestParseBimatrix:
    def test_reference_game(self):
        bimatrix = parse_bimatrix(UNION_DOC)
        assert bimatrix.game.payoffs[0][0] == (6, 2)
        assert bimatrix.game.payoffs[1][1] == (2, 6)

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match=r"^bimatrix: unexpected key 'note'$"):
            parse_bimatrix(UNION_DOC.replace('"payoffs":', '"note": "", "payoffs":'))

    def test_repeated_key_rejected(self):
        with pytest.raises(SchemaError, match="'row_labels' appears more than once"):
            parse_bimatrix(UNION_DOC.replace('"row_labels": ["r1", "r2"]', '"row_labels": ["r1", "r2"], "row_labels": ["a", "b"]'))

    def test_round_trip(self):
        bimatrix = parse_bimatrix(UNION_DOC.replace("6, 2", '"-1/2", 2'))
        payoffs = [[list(map(format_rational, pair)) for pair in row] for row in bimatrix.game.payoffs]
        text = json.dumps({"row_labels": bimatrix.row_labels, "col_labels": bimatrix.col_labels, "payoffs": payoffs})
        assert parse_bimatrix(text) == bimatrix

    def test_bad_cell_rejected(self):
        with pytest.raises(SchemaError):
            parse_bimatrix(
                '{"row_labels": ["r"], "col_labels": ["c"], "payoffs": [[[1]]]}'
            )

    def test_duplicate_labels_rejected(self):
        for key in ("row_labels", "col_labels"):
            doc = json.loads(UNION_DOC)
            doc[key] = ["r", "r"]
            with pytest.raises(SchemaError, match=f"bimatrix.{key}: label 'r'"):
                parse_bimatrix(json.dumps(doc))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            parse_bimatrix(
                '{"row_labels": ["r1", "r2"], "col_labels": ["c"], "payoffs": [[[1, 2]]]}'
            )


class TestReports:
    def _all_reports(self):
        market1 = parse_market(MARKET_DOC)
        union = parse_bimatrix(UNION_DOC)
        return [
            cmd_assign(market1, Side.WORKERS),
            cmd_assign(market1, Side.ENTERPRISES),
            cmd_game(market1),
            cmd_bargain(union),
            cmd_bargain(union, disagreement_override=("3/2", "3/2")),
            cmd_pipeline(market1, union),
        ]

    def _first(self, command):
        return next(r for r in self._all_reports() if r.command == command)

    def test_machine_round_trip(self):
        for report in self._all_reports():
            rendered = render_report(report, RenderMode.MACHINE)
            assert parse_report(rendered) == report, report.command

    def test_machine_round_trip_fraction_like_labels(self):
        doc = json.loads(MARKET_DOC)
        doc["workers"] = ["1/2", "-4/7", "w"]
        doc["enterprises"] = ["-4/7", "e", "1/2"]
        market = parse_market(json.dumps(doc))
        union = json.loads(UNION_DOC)
        union["row_labels"] = ["1/2", "-4/7"]
        union["col_labels"] = ["-4/7", "1/2"]
        union_game = parse_bimatrix(json.dumps(union))
        for report in (cmd_game(market), cmd_pipeline(market, union_game)):
            decoded = parse_report(render_report(report, RenderMode.MACHINE))
            assert decoded == report, report.command

    def test_machine_rendering_deterministic(self):
        market = parse_market(MARKET_DOC)
        union = parse_bimatrix(UNION_DOC)
        first = render_report(cmd_pipeline(market, union), RenderMode.MACHINE)
        second = render_report(
            cmd_pipeline(parse_market(MARKET_DOC), parse_bimatrix(UNION_DOC)),
            RenderMode.MACHINE,
        )
        assert first.encode() == second.encode()

    def test_machine_rationals_are_exact(self):
        union = parse_bimatrix(UNION_DOC)
        rendered = render_report(cmd_bargain(union), RenderMode.MACHINE)
        assert '"3/2"' in rendered
        assert "1.5" not in rendered
        assert '"25/4"' in rendered

    def test_override_skips_maximin(self):
        union = parse_bimatrix(UNION_DOC)
        report = cmd_bargain(union, disagreement_override=(0, 0))
        assert report.payload["maximin"] is None
        assert report.payload["disagreement"] == [0, 0]

    def test_text_rendering_readable(self):
        market = parse_market(MARKET_DOC)
        text = render_report(cmd_assign(market, Side.WORKERS), RenderMode.TEXT)
        assert "assignment_grid" in text
        assert "Fraction" not in text
        game_text = render_report(cmd_game(market), RenderMode.TEXT)
        assert "Fraction" not in game_text
        assert "ideal_point: 94, 86, 54, 94, 85, 38" in game_text

    def test_parse_report_rejects_junk(self):
        with pytest.raises(ParseError):
            parse_report("{oops")
        # A report no command writes: an unknown command, or a layout that is not its command's.
        for doc in ('{"command": "assign"}', '{"command": "frobnicate", "payload": {"total": "1/2", "x": [1]}, "notes": []}',
                    '{"command": "game", "payload": {}, "notes": []}'):
            with pytest.raises(SchemaError):
                parse_report(doc)

    def test_parse_report_rejects_deep_payload(self):
        # No command writes a list at a rational position: deep or not, it is the wrong kind;
        # deeper than json.loads can follow, it is a ParseError.
        report = cmd_assign(parse_market(MARKET_DOC), Side.WORKERS)
        for depth, error in ((500, SchemaError), (100_000, ParseError)):
            with pytest.raises(error):
                parse_report(edited(report, ("payload", "total"), "[" * depth + "]" * depth))

    def test_parse_report_rejects_oversize_number(self):
        report = cmd_assign(parse_market(MARKET_DOC), Side.WORKERS)
        with pytest.raises(ParseError, match="oversize number"):
            parse_report(edited(report, ("payload", "total"), '"1/' + "9" * 5000 + '"'))
        # Parts past as_rational's 1000-character literal bound still parse.
        big = parse_report(edited(report, ("payload", "total"), '"' + "7" * 600 + "/" + "3" * 600 + '"')).payload["total"]
        assert big == Fraction(int("7" * 600), int("3" * 600))

    @pytest.mark.parametrize(
        "command, path",
        [
            ("assign", ("payload", "total")),
            ("game", ("payload", "ideal_point", 2)),
            ("game", ("payload", "situations", 4, "payoffs", 1)),
            ("pipeline", ("payload", "bargaining", "pareto_frontier", 0, 1, 0)),
        ],
    )
    def test_oversize_part_is_a_parse_error_at_every_rational_position(self, command, path):
        # int() refuses the 5000-digit denominator with ValueError, inside the JSON read.
        report = self._first(command)
        with pytest.raises(ParseError, match="oversize number"):
            parse_report(edited(report, path, '"1/' + "9" * 5000 + '"'))

    @pytest.mark.parametrize(
        ("payload", "number"),
        [
            # Read as 1/2 under a key that is not rational, n would be written "1/2" and read back as a string.
            ('{"n": 0.5, "total": 1.5}', "0.5"),
            ('{"total": 1.5}', "1.5"),
            ('{"payoffs": [1, 2e1]}', "2e1"),
            ('{"n": [NaN]}', "NaN"),
            ('{"n": {"k": -Infinity}}', "-Infinity"),
        ],
    )
    def test_parse_report_refuses_json_decimals(self, payload, number):
        doc = '{"command": "game", "payload": %s, "notes": []}' % payload
        with pytest.raises(SchemaError, match=f"JSON number {re.escape(number)} is not an integer"):
            parse_report(doc)

    def test_first_bad_string_is_named_under_every_hash_seed(self):
        # New texts in a column are read in list order, not in an order the hash seed decides.
        bad = '["1/2", "bad-a", "bad-b", "bad-c", "bad-d"]'
        doc = edited(cmd_game(parse_market(MARKET_DOC)), ("payload", "situations", 1, "payoffs"), bad)
        script = f"from matchgames import parse_report\ntry:\n    parse_report({doc!r})\nexcept Exception as exc:\n    print(exc)"
        env = {**os.environ, "PYTHONPATH": str(Path(formats.__file__).parents[1])}
        for seed in ("1", "2", "3", "4", "5", "6"):
            result = subprocess.run([sys.executable, "-c", script], env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            assert "report.payload.situations[].payoffs[]" in result.stdout and "'bad-a'" in result.stdout, (seed, result.stdout)

    def test_command_reports_are_well_within_the_bound(self, labor_market, union_game):
        union = BimatrixFile(("a", "b"), ("c", "d"), union_game)
        reports = (cmd_assign(labor_market, Side.WORKERS), cmd_game(labor_market), cmd_bargain(union))
        for report in (*reports, cmd_pipeline(labor_market, union)):
            assert nesting(json.loads(render_report(report, RenderMode.MACHINE))) <= 6

    def test_deep_report_is_refused_by_its_layout(self):
        # A value nested past the recursion limit stands where the layout has a number: both
        # writers refuse it with parse_report's error before they go down into it.
        deep: list = []
        for _ in range(1200):
            deep = [deep]
        report = self._first("game")
        report.payload["situations"][0]["payoffs"] = deep
        for mode in RenderMode:
            with pytest.raises(SchemaError, match=re.escape("report.payload.situations[].payoffs[]: expected an int or a Fraction, got list")):
                render_report(report, mode)

    @pytest.mark.parametrize("text", ["abc", "5", "1/0", "1/2/3", "1.5", "1e999999999", "+1/2", " 1/2", "1_0/3", "-/2", "１/2"])
    def test_foreign_string_under_rational_key_rejected(self, text):
        for command, path, named in (
            ("assign", ("payload", "total"), "report.payload.total:"),
            ("pipeline", ("payload", "bargaining", "hull_vertices", 1, 0), "report.payload.bargaining.hull_vertices[][]:"),
        ):
            doc = edited(self._first(command), path, json.dumps(text))
            start = time.perf_counter()
            with pytest.raises(SchemaError, match=re.escape(named)):
                parse_report(doc)
            assert time.perf_counter() - start < 0.5  # no exponent or decimal is ever expanded

    def test_strings_outside_rational_keys_stay_strings(self):
        # Labels, notes and reasons that read as rationals stay strings; at a Fraction position the same text is one.
        doc = json.loads(MARKET_DOC)
        doc["workers"], doc["enterprises"] = ["1/2", "-4/7", "w"], ["-4/7", "e", "1/2"]
        game = cmd_game(parse_market(json.dumps(doc)))
        equilibria = {"enumerated": False, "situation_count": 6, "reason": "3/4"}
        report = Report("game", {**game.payload, "equilibria": equilibria}, ("1/2",))
        decoded = parse_report(render_report(report, RenderMode.MACHINE))
        assert decoded == report
        labels = [*decoded.payload["workers"], *decoded.payload["enterprises"], *decoded.notes, decoded.payload["equilibria"]["reason"]]
        assert labels == ["1/2", "-4/7", "w", "-4/7", "e", "1/2", "1/2", "3/4"] and {type(v) for v in labels} == {str}
        value = parse_report(render_report(cmd_bargain(parse_bimatrix(UNION_DOC)))).payload["maximin"]["player1"]["value"]
        assert value == Fraction(3, 2) and type(value) is Fraction

    @pytest.mark.parametrize(
        "command, path, text, message",
        [
            ("game", ("command",), '"frobnicate"', "report: unknown command 'frobnicate'"),
            ("game", ("payload",), "{}", "report.payload: missing key 'compromise'"),
            ("game", ("payload", "compromise", "optimal_regret"), None, "report.payload.compromise: missing key 'optimal_regret'"),
            ("game", ("payload", "situations", 3, "image"), None, "report.payload.situations[]: missing key 'image'"),
            ("assign", ("payload", "x"), "[1]", "report.payload: unexpected key 'x'"),
            ("assign", ("stats",), "{}", "report: unexpected key 'stats'"),
            ("game", ("payload", "situations", 2, "extra"), "1", "report.payload.situations[]: unexpected key 'extra'"),
            ("game", ("payload", "n"), '"3"', "report.payload.n: expected int, got str"),
            ("game", ("payload", "situations", 5, "image", 1), '"1"', "report.payload.situations[].image[]: expected int, got str"),
            ("game", ("payload", "equilibria", "enumerated"), None, "report.payload.equilibria: missing key 'enumerated'"),
            ("game", ("payload", "equilibria", "enumerated"), "1", "report.payload.equilibria.enumerated: expected bool, got int"),
            ("assign", ("payload", "total"), "true", 'report.payload.total: expected an int or a "p/q" string, got bool'),
            ("assign", ("payload", "assignment_grid", 1), "7", "report.payload.assignment_grid[]: expected list, got int"),
            ("bargain", ("payload", "maximin"), "[]", "report.payload.maximin: expected dict, got list"),
            ("bargain", ("payload", "maximin", "player2", "value"), "null", 'report.payload.maximin.player2.value: expected an int'),
            ("pipeline", ("payload", "bargaining", "solution"), "3", "report.payload.bargaining.solution: expected list, got int"),
            ("pipeline", ("notes",), "[1]", "report.notes[]: expected str, got int"),
        ],
    )
    def test_layout_errors_name_their_path(self, command, path, text, message):
        report = self._first(command)
        with pytest.raises(SchemaError, match=re.escape(message)):
            parse_report(edited(report, path, text))

    def test_repeated_key_rejected(self):
        report = render_report(cmd_game(parse_market(MARKET_DOC)), RenderMode.MACHINE)
        for old, new in (('"n": 3', '"n": 3,\n  "n": 4'), ('"image": [', '"payoffs": [], "image": [')):
            assert old in report
            with pytest.raises(SchemaError, match="appears more than once"):
                parse_report(report.replace(old, new, 1))

    @pytest.mark.parametrize("command, path", [("game", ("payload", "workers")), ("assign", ("payload", "row_labels")),
                                               ("pipeline", ("payload", "enterprises_assignment", "col_labels"))])
    def test_repeated_label_rejected(self, command, path):
        report = self._first(command)
        labels = json.loads(render_report(report, RenderMode.MACHINE))
        for step in path:
            labels = labels[step]
        message = f"report.{'.'.join(path)}: label {labels[0]!r} appears more than once"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            parse_report(edited(report, (*path, 1), json.dumps(labels[0])))

    @pytest.mark.parametrize("n", [1, 6])
    def test_game_round_trip_at_the_edges(self, n):
        # n = 1: one situation, always an equilibrium; n = 6: equilibria not enumerated, with a reason.
        report = cmd_game(seeded_market(n, 6))
        assert report.payload["equilibria"]["enumerated"] is (n == 1)
        rendered = render_report(report, RenderMode.MACHINE)
        decoded = parse_report(rendered)
        assert decoded == report and render_report(decoded, RenderMode.MACHINE) == rendered


# The decoder parse_report used before it read reports by their layout, kept
# verbatim as an oracle: on every report the commands write, both must agree.
_RATIONAL_RE = re.compile(r"^-?\d+/[1-9]\d*$")

# Payload keys that hold labels; their strings are never decoded.
_LABEL_KEYS = frozenset({"workers", "enterprises", "row_labels", "col_labels"})


def decode_values(value: Any) -> Any:
    """Undo the machine writer's rational encoding: "p/q" strings become
    Fractions, ints stay ints.

    Plain ints compare equal to the Fractions they encode, so decoded payloads
    compare equal to the originals.  Values under the label keys stay as
    they are.
    """
    if isinstance(value, str) and _RATIONAL_RE.match(value):
        return Fraction(value)
    if isinstance(value, dict):
        return {k: v if k in _LABEL_KEYS else decode_values(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_values(v) for v in value]
    return value


labels = st.sampled_from(["1/2", "-4/7", "0", "3/1", 'q"', "\\", "é", "日本", "w"]) | st.text(
    st.sampled_from('a1/-"é日\\'), min_size=1, max_size=4
)
cells = st.integers(-99, 99) | st.builds("{}/{}".format, st.integers(-99, 99), st.integers(1, 9))


@st.composite
def markets(draw):
    n = draw(st.integers(1, 5))
    grid = lambda: draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=n, max_size=n))
    side = lambda: draw(st.lists(labels, min_size=n, max_size=n, unique=True))
    return parse_market(json.dumps({"workers": side(), "enterprises": side(), "A": grid(), "B": grid()}))


@st.composite
def games(draw):
    row_labels, col_labels = (draw(st.lists(labels, min_size=2, max_size=2, unique=True)) for _ in range(2))
    payoffs = draw(st.lists(st.lists(st.lists(cells, min_size=2, max_size=2), min_size=2, max_size=2), min_size=2, max_size=2))
    return parse_bimatrix(json.dumps({"row_labels": row_labels, "col_labels": col_labels, "payoffs": payoffs}))


class TestDecodeByField:
    """parse_report against the regex decoder it replaced: the round trip leaves every
    Fraction where the commands put it, and the oracle reads the same values."""

    @settings(max_examples=60, deadline=None)
    @given(market=markets(), game=games(), override=st.booleans())
    def test_every_command_report(self, market, game, override):
        reports = [cmd_assign(market, side, objective) for side in Side for objective in Objective]
        reports.append(cmd_game(market))
        # The centroid of the four outcomes is always a feasible disagreement point.
        centroid = tuple(sum(cell[i] for row in game.game.payoffs for cell in row) / 4 for i in range(2))
        for build in (lambda: cmd_bargain(game, centroid if override else None), lambda: cmd_pipeline(market, game)):
            try:
                reports.append(build())
            except DisagreementOutsideHull:
                pass
        for report in reports:
            rendered = render_report(report, RenderMode.MACHINE)
            # One bool: pytest would diff two whole payloads at every shrink step.
            agree = parse_report(rendered) == report and decode_values(json.loads(rendered)["payload"]) == report.payload
            assert agree, report.command


# The writers that rendered every report before the one-pass writers, kept
# verbatim as oracles: the new writers must give the same bytes.
def encode_values(value):
    """Recursively convert rationals to ints / "p/q" strings for JSON output."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else format_rational(value)
    if isinstance(value, dict):
        return {k: encode_values(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_values(v) for v in value]
    return value


def old_render_machine(report):
    doc = {
        "command": report.command,
        "payload": encode_values(report.payload),
        "notes": list(report.notes),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _format_scalar(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _is_grid(value):
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(row, (list, tuple)) for row in value)
    )


def _format_inline(value):
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_format_inline(v) for v in value) + ")"
    return _format_scalar(value)


def _render_block(lines, key, value, indent):
    if isinstance(value, dict):
        lines.append(f"{indent}{key}:")
        for sub_key, sub_value in value.items():
            _render_block(lines, sub_key, sub_value, indent + "  ")
    elif isinstance(value, (list, tuple)) and value and all(isinstance(v, dict) for v in value):
        lines.append(f"{indent}{key}:")
        for item in value:
            parts = [f"{k}: {_format_inline(v)}" for k, v in item.items()]
            lines.append(indent + "  - " + "; ".join(parts))
    elif _is_grid(value) and all(
        not isinstance(cell, (list, tuple, dict)) for row in value for cell in row
    ):
        lines.append(f"{indent}{key}:")
        cells = [[_format_scalar(cell) for cell in row] for row in value]
        width = max(len(c) for row in cells for c in row)
        for row in cells:
            lines.append(indent + "  " + "  ".join(c.rjust(width) for c in row))
    elif isinstance(value, (list, tuple)):
        lines.append(f"{indent}{key}: " + ", ".join(_format_inline(v) for v in value))
    else:
        lines.append(f"{indent}{key}: {_format_scalar(value)}")


def old_render_text(report):
    lines = [f"== {report.command} =="]
    for key, value in report.payload.items():
        _render_block(lines, key, value, "")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def has_grid_with_empty_row(payload):
    """A block the old text renderer took for a grid although a row is empty:
    it raised on all-empty rows and printed blank lines for the others."""
    for value in payload.values():
        if isinstance(value, dict) and has_grid_with_empty_row(value):
            return True
        if (
            _is_grid(value)
            and not all(value)
            and all(not isinstance(cell, (list, tuple, dict)) for row in value for cell in row)
        ):
            return True
    return False


# Payloads drawn from each command's layout, the writers' whole domain.  Each example
# draws a small pool of scalars per kind and places them many times, so one object
# stands at many places and equal values are held by distinct objects.
def rarely(common, odd):
    return st.integers(0, 9).flatmap(lambda k: odd if k == 0 else common)


# 10**4299 has 4300 digits and prints; 10**4300 has 4301 and does not (under a lower limit, neither does).
limit_ints = st.sampled_from([10**4299, -(10**4299) - 1, 10**4300, -7 * 10**4300])
label_texts = st.text(st.sampled_from('a%s"\\/1é日\n\x00 😀'), max_size=5) | st.sampled_from(["1/2", "-3/4", "0", "%s", ""])
scalar_pools = {
    Fraction: rarely(
        st.integers(-(10**6), 10**6) | st.fractions(max_denominator=50) | st.builds(Fraction, st.integers(-3, 3)),
        limit_ints | st.builds(Fraction, st.just(1), limit_ints.map(abs)),
    ),
    int: rarely(st.integers(-5, 10**6), limit_ints),
    str: label_texts,
    bool: st.booleans(),
}


def layout_value(data, kind, pools, shape=None):
    """A value of kind (see formats._PAYLOADS).  shape, when given, fixes the length of every list in it
    (see layout_shape); a list of containers often gives all its items one shape, so that the lists in a
    column have one length, down to the scalars, and long columns widen their slot."""
    if type(kind) is tuple:
        return layout_value(data, data.draw(st.sampled_from(kind)), pools)
    if kind is NoneType:
        return None
    if type(kind) is set:
        return data.draw(st.lists(st.sampled_from(pools[str]), max_size=4, unique=True))
    if type(kind) is dict:
        return {key: layout_value(data, sub, pools, shape and shape[key]) for key, sub in kind.items()}
    if type(kind) is list:
        item = kind[0]
        if shape is not None:
            size, inner = shape
        else:
            size = data.draw(st.integers(0, 12 if type(item) in (list, dict) else 4))
            inner = layout_shape(data, item) if type(item) in (list, dict) and data.draw(st.booleans()) else None
        return [layout_value(data, item, pools, inner) for _ in range(size)]
    return data.draw(st.sampled_from(pools[kind]))


def layout_shape(data, kind):
    """A length for each list in a value of kind, down to its scalars: (length, items' shape) for a list."""
    if type(kind) is dict:
        return {key: layout_shape(data, sub) for key, sub in kind.items()}
    return (data.draw(st.integers(0, 3)), layout_shape(data, kind[0])) if type(kind) is list else None


def same_as_old_and_reads_back(report):
    """Both modes give the old writers' bytes (the text writer's one documented change aside),
    or ReportTooLarge where they raised; a machine report reads back as the report."""
    for mode, old in [(RenderMode.MACHINE, old_render_machine), (RenderMode.TEXT, old_render_text)]:
        if mode is RenderMode.TEXT and has_grid_with_empty_row(report.payload):
            continue
        try:
            expected = old(report)
        except ValueError:
            with pytest.raises(ReportTooLarge):
                render_report(report, mode)
        else:
            assert render_report(report, mode) == expected, mode
            if mode is RenderMode.MACHINE:
                assert parse_report(expected) == report


class TestLayoutWriters:
    """render_report, written by each command's layout, against the writers it replaced."""

    @pytest.mark.parametrize("command", sorted(formats._PAYLOADS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_payloads(self, command, data):
        pools = {kind: data.draw(st.lists(values, min_size=1, max_size=6)) for kind, values in scalar_pools.items()}
        pools[bool] = [True, False]
        payload = layout_value(data, formats._PAYLOADS[command], pools)
        notes = tuple(data.draw(st.lists(st.sampled_from(pools[str]), max_size=3)))
        same_as_old_and_reads_back(Report(command, payload, notes))

    def test_every_command_report(self):
        market, jobs, union = datasets.labor_market(), datasets.job_market(), parse_bimatrix(UNION_DOC)
        doc = json.loads(MARKET_DOC)
        doc["workers"], doc["enterprises"] = ["é", 'q"', "\x01"], ["1/2", "日本", "\\"]
        doc["A"][0][0], doc["B"][1][2] = "-7/3", -5
        relabelled = parse_market(json.dumps(doc))
        reports = [cmd_bargain(union), cmd_bargain(union, disagreement_override=("1", "1/2"))]
        for m in (market, jobs, relabelled, seeded_market(5, 3)):
            reports += [cmd_assign(m, side, objective) for side in Side for objective in Objective]
            reports += [cmd_game(m), cmd_pipeline(m, union)]
        for report in reports:
            same_as_old_and_reads_back(report)

    @pytest.mark.parametrize(
        "command, path, value",
        [
            ("game", ("n",), 10**4300),
            ("assign", ("total",), Fraction(-(10**4300), 3)),
            ("bargain", ("hull_vertices", 0, 1), Fraction(1, 10**4300)),
            ("game", ("situations", 4, "payoffs", 1), 10**4301),
        ],
        ids=["int", "numerator", "nested-denominator", "record"],
    )
    def test_number_past_print_limit_is_too_large(self, command, path, value):
        report = TestReports()._first(command)
        holder = report.payload
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        for mode in RenderMode:
            with pytest.raises(ReportTooLarge, match=f"^cannot render the {command} report: it holds an integer of more than"):
                render_report(report, mode)

    def test_shared_and_equal_objects(self):
        # Long lists look their scalars' texts up by object, so one object in many places,
        # equal values held by distinct objects, and an int and a Fraction of one value
        # must each keep their text.
        f, big, s = Fraction(-7, 3), 10**400 + 1, "é\"{}%s"
        payload = cmd_game(seeded_market(3, 1)).payload
        payload["situations"] = [{"image": [0, i % 3, 1], "payoffs": [f, big, Fraction(1), 1, f, Fraction(i % 2)]} for i in range(12)]
        payload["ideal_point"] = [f] * 9 + [Fraction(1, 2) for _ in range(9)] + [int("5" * 30) for _ in range(9)]
        payload["compromise"]["members"] = [[0, 1, 2], [2, 1, 0]] * 5
        payload["compromise"]["max_regret_by_situation"] = payload["situations"][0]["payoffs"] * 3
        payload["least_satisfied"] = [{"situation": [i, 1, 2], "player": i, "payoff": [f, 1, big][i % 3]} for i in range(9)]
        payload["equilibria"] = {"enumerated": False, "situation_count": 6, "reason": s}
        same_as_old_and_reads_back(Report("game", payload, (s, "".join("ab"))))

    def test_each_long_column_formats_an_object_once(self, monkeypatch):
        # Three Fraction objects fill three long columns: the payoffs of nine situations, the ideal
        # point and the regrets.  Each column formats each distinct object once, in both modes.
        shared = [Fraction(-7, 3), Fraction(5, 2), Fraction(10**30, 7)]
        payload = cmd_game(seeded_market(3, 1)).payload
        payload["situations"] = [{"image": [0, i % 3, 1], "payoffs": [shared[(i + j) % 3] for j in range(6)]} for i in range(9)]
        payload["ideal_point"] = payload["compromise"]["max_regret_by_situation"] = shared * 3
        report, formatted = Report("game", payload, ()), Counter()
        for scalars in (formats._JSON_SCALARS, formats._TEXT_SCALARS):
            monkeypatch.setitem(scalars, Fraction, lambda value, text=scalars[Fraction]: formatted.update([id(value)]) or text(value))
        for mode, old in [(RenderMode.MACHINE, old_render_machine), (RenderMode.TEXT, old_render_text)]:
            formatted.clear()
            assert render_report(report, mode) == old(report), mode
            assert all(1 <= formatted[id(f)] <= 3 for f in shared), (mode, [formatted[id(f)] for f in shared])

    def test_empty_grid_rows_render_inline(self):
        # Rows with no cells make no grid: they print inline, as () each.
        report = cmd_bargain(parse_bimatrix(UNION_DOC))
        report.payload["hull_vertices"] = [[1, 22], []]
        assert "\nhull_vertices: (1, 22), ()\n" in render_report(report, RenderMode.TEXT)
        report.payload["hull_vertices"] = [[]]
        assert "\nhull_vertices: ()\n" in render_report(report, RenderMode.TEXT)

    def test_unknown_command_is_a_schema_error(self):
        for mode in RenderMode:
            with pytest.raises(SchemaError, match=r"^report: unknown command 'x'$"):
                render_report(Report("x", {"k": 1}), mode)
            with pytest.raises(SchemaError, match=r"^report\.command: expected str, got int$"):
                render_report(Report(3, {}), mode)

    @pytest.mark.parametrize(
        "command, path, value, message",
        [
            ("game", ("compromise", "optimal_regret"), None, "report.payload.compromise: missing key 'optimal_regret'"),
            ("game", ("situations", 3, "image"), None, "report.payload.situations[]: missing key 'image'"),
            ("game", ("situations", 2, "extra"), 1, "report.payload.situations[]: unexpected key 'extra'"),
            ("assign", (3,), [1], "report.payload: unexpected key '3'"),
            ("game", ("n",), "3", "report.payload.n: expected int, got str"),
            ("game", ("situations", 5, "image", 1), True, "report.payload.situations[].image[]: expected int, got bool"),
            ("game", ("equilibria", "enumerated"), 1, "report.payload.equilibria.enumerated: expected bool, got int"),
            ("assign", ("total",), "1/2", "report.payload.total: expected an int or a Fraction, got str"),
            ("assign", ("assignment_grid", 1), (0, 1, 0), "report.payload.assignment_grid[]: expected list, got tuple"),
            ("bargain", ("maximin",), [], "report.payload.maximin: expected dict, got list"),
            ("bargain", ("hull_vertices", 0), [[1, 2]], "report.payload.hull_vertices[][]: expected an int or a Fraction, got list"),
            ("pipeline", ("bargaining", "col_labels", 1), "c1", "report.payload.bargaining.col_labels: label 'c1' appears more than once"),
            ("pipeline", ("mismatch", "workers"), 3.0, "report.payload.mismatch.workers: expected list, got float"),
            # No path: value stands for the report's notes, which are not copied before they are checked.
            ("assign", None, None, "report.notes: expected list, got NoneType"),
            ("game", None, "ab", "report.notes: expected list, got str"),
        ],
    )
    def test_off_layout_payload_is_refused(self, command, path, value, message):
        # In parse_report's words, in both modes, before anything is written.
        report = TestReports()._first(command)
        holder = report.payload
        for step in path[:-1] if path else ():
            holder = holder[step]
        if path is None:
            report = Report(report.command, report.payload, value)
        elif value is None:
            del holder[path[-1]]
        else:
            holder[path[-1]] = value
        for mode in RenderMode:
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                render_report(report, mode)

    @pytest.mark.parametrize(
        "image, message",
        [((0, 1, 2, 3), "report.payload.situations[].image: expected list, got tuple"),
         (None, "report.payload.situations[]: missing key 'image'")],
    )
    def test_off_layout_record_in_a_long_list_is_refused(self, image, message):
        # 24 situations are written a column at a time: the records' keys and images are checked together.
        report = cmd_game(seeded_market(4, 1))
        situation = report.payload["situations"][5]
        if image is None:
            del situation["image"]
        else:
            situation["image"] = image
        for mode in RenderMode:
            with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
                render_report(report, mode)

    def test_parsed_report_renders_as_written(self):
        # parse_report gives a payload in sorted key order; text mode follows the layout's.
        for report in TestReports()._all_reports():
            parsed = parse_report(render_report(report, RenderMode.MACHINE))
            assert list(parsed.payload) != list(report.payload)
            assert render_report(parsed, RenderMode.TEXT) == render_report(report, RenderMode.TEXT)

    def test_game_situations_are_written_by_template(self, monkeypatch):
        # An n = 5 report has 120 situations; writing them item by item would take a
        # call each, so fewer calls than situations means one template wrote them.
        report = cmd_game(parse_market((Path(__file__).parent / "golden" / "market-n5.json").read_bytes()))
        assert len(report.payload["situations"]) == 120
        calls = {"_each": 0, "_texts": 0, "_filled": 0, "_check": 0, "_alternative": 0}
        for name in calls:
            original = getattr(formats, name)

            def counted(*args, original=original, name=name, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(formats, name, counted)
        for mode in RenderMode:
            render_report(report, mode)
        assert 0 < calls["_each"] + calls["_filled"] < 120 and 0 < calls["_texts"] < 120, calls
        assert calls["_check"] + calls["_alternative"] < 120, calls

    def test_valid_reports_never_call_check(self, monkeypatch):
        # _check only names a fault that a node found by its own type and key tests.
        def refuse(kind, values, path, types):
            raise AssertionError(f"_check called at {path} on a valid report")

        monkeypatch.setattr(formats, "_check", refuse)
        for name, mode in CASES:
            _render(name, mode)


# The reader the compiled nodes replaced, kept verbatim as their oracle: it walked the layout anew on every
# call, with _check returning the values' type set, which only it used.
def old_check(kind: Any, values: list, path: str, types: dict) -> set[type]:
    """The set of values' types: SchemaError, naming path, unless each value is of a type types allows at kind,
    each object has exactly kind's keys and each label list holds strs, each once.  Reader and writers share it."""
    allowed, name = types[kind if isinstance(kind, type) else type(kind)]
    found = set(map(type, values))
    if not found <= allowed:
        got = next(t for t in map(type, values) if t not in allowed)
        raise SchemaError(f"{path}: expected {name}, got {got.__name__}")
    if type(kind) is dict:
        for keys in map(dict.keys, values):
            if keys != kind.keys():
                missing, extra = kind.keys() - keys, keys - kind.keys()
                raise SchemaError(f"{path}: missing key {min(missing)!r}" if missing
                                  else f"{path}: unexpected key {min(map(str, extra))[:40]!r}")
    elif type(kind) is set:
        old_check(*kind, list(chain.from_iterable(values)), path + "[]", types)
        for labels in values:
            if len(set(labels)) < len(labels):
                counts = Counter(labels)
                raise SchemaError(f"{path}: label {next(k for k in counts if counts[k] > 1)[:40]!r} appears more than once")
    return found


def old_read(kind: Any, values: list, path: str) -> list:
    """values, each of kind (see _PAYLOADS), with the strings at Fraction positions made Fractions;
    values itself if it has none.  One call reads a column: the items of a list's lists as one list,
    a list's objects key by key.  path names the values' place, "[]" standing for any list index."""
    if type(kind) is tuple:
        return [v for value in values for v in old_read(formats._alternative(kind, value), [value], path)]
    types = old_check(kind, values, path, formats._READ_TYPES)
    if type(kind) is list:
        flat = list(chain.from_iterable(values))
        read = old_read(*kind, flat, path + "[]")
        if read is flat:
            return values
        items = iter(read)
        return [list(islice(items, len(value))) for value in values]
    if type(kind) is dict:
        for key, sub in kind.items():
            column = list(map(itemgetter(key), values))
            read = old_read(sub, column, f"{path}.{key}")
            if read is not column:
                for value, v in zip(values, read):
                    value[key] = v
        return values
    if kind is not Fraction or str not in types:
        return values
    texts = {}  # each distinct "p/q" (ASCII integer parts, q > 0) once, in list order: errors name the first bad one
    for text in dict.fromkeys(values):
        if type(text) is str:
            p, _, q = text.partition("/")
            if not (text.isascii() and p.removeprefix("-").isdigit() and q.isdigit() and q.strip("0")):
                raise SchemaError(f'{path}: expected an int or a "p/q" string, got {text[:40]!r}')
            texts[text] = Fraction(int(p), int(q))
    return list(map(texts.get, values, values))


def old_layout(command: Any) -> dict:
    """The payload layout of command: SchemaError for a command that none writes."""
    old_check(str, [command], "report.command", formats._READ_TYPES)
    if command not in formats._PAYLOADS:
        raise SchemaError(f"report: unknown command {command[:40]!r}")
    return formats._PAYLOADS[command]


def old_read_report(doc: Any) -> Report:
    doc = old_read(formats._REPORT, [doc], "report")[0]
    payload = old_read(old_layout(doc["command"]), [doc["payload"]], "report.payload")[0]
    return Report(command=doc["command"], payload=payload, notes=tuple(doc["notes"]))


def positions(kind, value, path=()):
    """(path, kind) of value and of each value inside it, a list index or a key at each step of path."""
    kind = formats._alternative(kind, value) if type(kind) is tuple else kind
    yield path, kind
    if type(kind) is dict:
        for key, sub in kind.items():
            yield from positions(sub, value[key], (*path, key))
    elif type(kind) in (list, set):
        for i, item in enumerate(value):
            yield from positions(*kind, item, (*path, i))


FAULTS = {
    # Which positions take each fault, and the fault made at one of them: a value changed in place, or its
    # holder given a new value at its key or index.
    "missing key": (lambda kind, value: type(kind) is dict,
                    lambda data, holder, at: holder[at].pop(data.draw(st.sampled_from(sorted(holder[at]))))),
    "extra key": (lambda kind, value: type(kind) is dict,
                  lambda data, holder, at: holder[at].update({data.draw(st.sampled_from(["extra", "", "1/2"])): 1})),
    "wrong kind": (lambda kind, value: True, lambda data, holder, at: holder.__setitem__(
        at, data.draw(st.sampled_from(["x", 7, -1, True, None, [], {}, "1/2", [1, "a"], {"k": 1}])))),
    "repeated label": (lambda kind, value: type(kind) is set and value,
                       lambda data, holder, at: holder[at].insert(data.draw(st.integers(0, len(holder[at]))), holder[at][-1])),
    "bad p/q": (lambda kind, value: kind is Fraction, lambda data, holder, at: holder.__setitem__(
        at, data.draw(st.sampled_from(["1/0", "abc", "1.5", "+1/2", "5", "1/2/3", "-/2", "１/2", "0x10"])))),
    "list for a scalar": (lambda kind, value: isinstance(kind, type), lambda data, holder, at: holder.__setitem__(at, [holder[at]])),
}


def with_one_fault(data, kind, doc):
    """doc, a JSON value of kind, perhaps with one fault of FAULTS at one position drawn from those that take it."""
    fault = data.draw(st.sampled_from([None, *FAULTS]))
    box = [doc]  # so that the top level has a holder too
    value_at = lambda path: reduce(getitem, path, box)
    spots = [(0, *path) for path, at_kind in positions(kind, doc) if fault and FAULTS[fault][0](at_kind, value_at((0, *path)))]
    if spots:
        path = data.draw(st.sampled_from(spots))
        FAULTS[fault][1](data, value_at(path[:-1]), path[-1])
    return box[0]


# Scalars that every writer prints, so that any drawn payload renders to a document to fault.
printable_pools = {Fraction: st.integers(-(10**6), 10**6) | st.fractions(max_denominator=50), int: st.integers(-5, 10**6),
                   str: label_texts, bool: st.booleans(), list: st.sampled_from([[], [[1, "2/3"]], [["x"]], [1]])}


class TestReaderOracle:
    """Each file's compiled reader against old_read on documents drawn from its layout with at most one fault:
    the same values, or the same SchemaError text.  Only several faults may be named in another order."""

    @pytest.mark.parametrize("command", sorted(formats._PAYLOADS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_reports(self, command, data):
        pools = {kind: data.draw(st.lists(values, min_size=1, max_size=6)) for kind, values in printable_pools.items()}
        payload = layout_value(data, formats._PAYLOADS[command], pools)
        notes = tuple(data.draw(st.lists(st.sampled_from(pools[str]), max_size=3)))
        doc = json.loads(render_report(Report(command, payload, notes)))
        text = json.dumps(with_one_fault(data, {**formats._REPORT, "payload": formats._PAYLOADS[command]}, doc))
        assert grids_outcome(lambda: parse_report(text)) == grids_outcome(lambda: old_read_report(json.loads(text)))

    @pytest.mark.parametrize("name", ["market", "bimatrix"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_input_files(self, name, data):
        kind = {"market": formats._MARKET, "bimatrix": formats._BIMATRIX}[name]
        pools = {kind: data.draw(st.lists(values, min_size=1, max_size=6)) for kind, values in printable_pools.items()}
        text = json.dumps(with_one_fault(data, kind, layout_value(data, kind, pools)))
        new = grids_outcome(lambda: formats._COMPILED[name][2]([json.loads(text)]))
        assert new == grids_outcome(lambda: old_read(kind, [json.loads(text)], name))

    def test_several_faults_are_named_in_document_order(self):
        # A report's first fault in its machine text's key order; an input file's first in its layout's order.
        doc = json.loads(render_report(TestReports()._first("game")))
        doc["payload"]["situations"][0]["image"][0], doc["payload"]["compromise"]["optimal_regret"] = "x", "1.5"
        with pytest.raises(SchemaError, match=r"^report\.payload\.compromise\.optimal_regret: expected an int or a \"p/q\" string, got '1\.5'$"):
            parse_report(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^report\.payload\.situations\[\]\.image\[\]: expected int, got str$"):
            old_read_report(doc)
        market = {"workers": "w", "enterprises": ["e"], "A": 1, "B": [[1]]}
        with pytest.raises(SchemaError, match=r"^market\.workers: expected list, got str$"):
            parse_market(json.dumps(market))


# The per-cell reader _grid replaced, kept for the oracles below.
def old_rational_cell(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, str, Fraction)):
        raise SchemaError(f"{where}: expected a number or \"p/q\" string, got {repr(value)[:40]}")
    try:
        return as_rational(value)
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# The per-grid parser that _grid's market path replaced, kept as its oracle: cell
# by cell, with one literal memo per grid rather than one per market.
def old_rational_grid(values, n, where):
    if not isinstance(values, list) or len(values) != n:
        raise SchemaError(f"{where}: expected {n} rows")
    parsed = {}
    rows = []
    for i, row in enumerate(values):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{where}: row {i} must have {n} entries")
        cells = []
        for v in row:
            if type(v) is not int and type(v) is not str:
                cells.append(old_rational_cell(v, f"{where}[{i}]"))
                continue
            if v not in parsed:
                parsed[v] = old_rational_cell(v, f"{where}[{i}]")
            cells.append(parsed[v])
        rows.append(tuple(cells))
    return tuple(rows)


def grids_outcome(read):
    try:
        return read()
    except SchemaError as exc:
        return f"SchemaError: {exc}"


good_cells = st.one_of(
    st.integers(-20, 20),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-9, 9).filter(bool)),
    st.sampled_from(["7", " 3/4", "-0", "2/4", "1e2", "0.5", "+3"]),
)
bad_literals = st.sampled_from(["x", "1/0", "1e5000", "", "1//2", "nan", "1" * 1001])


@st.composite
def market_grids(draw):
    """n and the A and B grids of a market as json.loads gives them, with up to three bad or
    shared cells and then perhaps one bad row or grid."""
    n = draw(st.integers(1, 6))
    a, b = ([[draw(good_cells) for _ in range(n)] for _ in range(n)] for _ in range(2))
    index = st.integers(0, n - 1)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        grid, r, c = draw(st.sampled_from([a, b])), draw(index), draw(index)
        kind = draw(st.sampled_from(["bad", "bool", "decimal", "list", "shared"]))
        if kind == "bad":  # sometimes seen again in a later row
            grid[r][c] = bad = draw(bad_literals)
            if r + 1 < n and draw(st.booleans()):
                grid[draw(st.integers(r + 1, n - 1))][draw(index)] = bad
        elif kind == "bool":
            grid[r][c] = draw(st.booleans())
        elif kind == "decimal":  # parse_float's result for 0.5, -2.25 or 1.0
            grid[r][c] = draw(st.sampled_from([Fraction(1, 2), Fraction(-9, 4), Fraction(1)]))
        elif kind == "list":
            grid[r][c] = draw(st.sampled_from([[1], [], ["x"]]))
        else:  # B holds a literal A has already read
            b[r][c] = a[draw(index)][draw(index)]
    grid, r = draw(st.sampled_from([a, b])), draw(index)
    shape = draw(st.sampled_from(["same"] * 8 + ["short", "long", "str", "none", "extra"]))
    if shape == "extra":
        grid.append(list(grid[0]))
    elif shape != "same":
        grid[r] = {"short": grid[r][:-1], "long": grid[r] + [1], "str": "ab"[:n], "none": None}[shape]
    return n, a, b


class TestRationalGridOracle:
    """_grid, one literal memo per market and each distinct literal parsed once, against
    the per-cell parser with one memo per grid: the same tuples or the same SchemaError text."""

    @settings(max_examples=400, deadline=None)
    @given(grids=market_grids())
    def test_same_grids_or_errors(self, grids):
        n, a, b = grids

        def old():
            return old_rational_grid(a, n, "market.A"), old_rational_grid(b, n, "market.B")

        def new():
            parsed = {}
            return tuple(formats._grid(grid, n, n, f"market.{key}", parsed) for key, grid in (("A", a), ("B", b)))

        expected = grids_outcome(old)
        got = grids_outcome(new)
        if isinstance(expected, str):
            assert got == expected
            return
        assert tuple(rows for rows, _ in got) == expected
        for rows, literals in got:  # one Fraction object per distinct literal, each of them in the grid
            assert {type(v) for row in rows for v in row} == {Fraction}
            assert sorted(map(id, literals)) == sorted({id(v) for row in rows for v in row})

    def test_errors_name_the_row_first_holding_the_literal(self):
        doc = lambda a, b: json.dumps({"workers": ["w0", "w1", "w2"], "enterprises": ["e0", "e1", "e2"], "A": a, "B": b})
        good = [[1, "1/2", 2], ["1/2", 3, "2/3"], [0, 1, "-4/6"]]
        cases = [
            # A bad literal first seen in a later row, and again after it.
            ([[1, 2, 3], [4, 5, "x"], ["x", 6, 7]], good, r"market\.A\[1\]: .*'x'"),
            # A bad literal in B beside literals A has already read.
            (good, [["1/2", 1, 2], ["2/3", "1/0", "1/2"], [0, 0, 0]], r"market\.B\[1\]: .*'1/0'"),
            # A bad literal after a decimal cell.
            ([[1, 2, 3], [0.5, 5, 6], [7, "y", 8]], good, r"market\.A\[2\]: .*'y'"),
        ]
        for a, b, message in cases:
            with pytest.raises(SchemaError, match=message):
                parse_market(doc(a, b))

    def test_each_literal_parsed_once_per_market(self, monkeypatch):
        calls = []
        monkeypatch.setattr(formats, "as_rational", lambda v: calls.append(v) or Fraction(v))
        a = [["1/2", 1, "1/2"], [1, "2/3", 0.25], ["1/2", "1/2", 7]]
        b = [[1, "1/2", 7], ["2/3", "2/3", 1], ["1/2", 9, 0.25]]
        market = parse_market(json.dumps({"workers": ["w0", "w1", "w2"], "enterprises": ["e0", "e1", "e2"], "A": a, "B": b}))
        assert sorted(calls, key=repr) == sorted(["1/2", 1, "2/3", 7, 9, Fraction(1, 4)], key=repr)  # each once
        assert market.worker_utilities.entries[0][0] is market.enterprise_utilities.entries[0][1]
        assert market.worker_utilities.entries[1][2] is market.enterprise_utilities.entries[2][2]  # a decimal too


# parse_bimatrix's per-cell reader that _grid replaced, kept as its oracle.
def old_parse_bimatrix(data):
    doc = old_read(formats._BIMATRIX, [formats._load_json(data, "bimatrix")], "bimatrix")[0]
    row_labels, col_labels, payoffs = tuple(doc["row_labels"]), tuple(doc["col_labels"]), doc["payoffs"]
    if len(row_labels) == 0 or len(col_labels) == 0:
        raise SchemaError("bimatrix: empty label list")
    if len(payoffs) != len(row_labels):
        raise SchemaError(f"bimatrix: expected {len(row_labels)} payoff rows")
    grid = []
    for r, row in enumerate(payoffs):
        if not isinstance(row, list) or len(row) != len(col_labels):
            raise SchemaError(f"bimatrix: payoff row {r} must have {len(col_labels)} cells")
        cells = []
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise SchemaError(f"bimatrix: cell ({r},{c}) must be a [k1, k2] pair")
            cells.append(tuple(old_rational_cell(v, f"bimatrix.payoffs[{r}][{c}][{i}]") for i, v in enumerate(cell)))
        grid.append(tuple(cells))
    return BimatrixFile(row_labels=row_labels, col_labels=col_labels, game=BimatrixGame(payoffs=tuple(grid)))


def first_shape_error(payoffs, rows, cols):
    """The text of the first payoff row or cell, in reading order, that is not a row of [k1, k2] pairs, else None."""
    if len(payoffs) != rows:
        return f"bimatrix: expected {rows} payoff rows"
    for r, row in enumerate(payoffs):
        if not isinstance(row, list) or len(row) != cols:
            return f"bimatrix: payoff row {r} must have {cols} cells"
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                return f"bimatrix: cell ({r},{c}) must be a [k1, k2] pair"
    return None


@st.composite
def bimatrix_docs(draw):
    """A bimatrix file's text, with up to three bad, odd or shared cells and then perhaps one malformed row or pair."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    payoffs = [[[draw(good_cells), draw(good_cells)] for _ in range(cols)] for _ in range(rows)]
    spot = lambda: (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), draw(st.integers(0, 1)))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        r, c, i = spot()
        kind = draw(st.sampled_from(["bad", "bool", "null", "decimal", "list", "shared"]))
        if kind == "shared":  # a literal read earlier in the file, or later
            r2, c2, i2 = spot()
            payoffs[r][c][i] = payoffs[r2][c2][i2]
        else:
            payoffs[r][c][i] = {"bad": lambda: draw(bad_literals), "bool": lambda: draw(st.booleans()), "null": lambda: None,
                                "decimal": lambda: draw(st.sampled_from([0.5, -2.25, 1.0])),
                                "list": lambda: draw(st.sampled_from([[1], [], ["x"]]))}[kind]()
    r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
    shape = draw(st.sampled_from(["same"] * 6 + ["short-row", "long-row", "str-row", "extra-row", "short-pair", "long-pair", "int-pair"]))
    if shape == "extra-row":
        payoffs.append(list(payoffs[0]))
    elif shape.endswith("-row"):
        payoffs[r] = {"short-row": payoffs[r][:-1], "long-row": payoffs[r] + [[1, 2]], "str-row": "ab"[:cols]}[shape]
    elif shape != "same":
        payoffs[r][c] = {"short-pair": payoffs[r][c][:1], "long-pair": payoffs[r][c] + [3], "int-pair": 7}[shape]
    doc = {"row_labels": [f"r{i}" for i in range(rows)], "col_labels": [f"c{j}" for j in range(cols)], "payoffs": payoffs}
    return json.dumps(doc), payoffs, rows, cols


class TestBimatrixGridOracle:
    """parse_bimatrix, its pairs flattened into rows for _grid, against the per-cell reader it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=bimatrix_docs())
    def test_same_file_or_errors(self, case):
        text, payoffs, rows, cols = case
        expected, got = grids_outcome(lambda: old_parse_bimatrix(text)), grids_outcome(lambda: parse_bimatrix(text))
        shape_error = first_shape_error(payoffs, rows, cols)
        if shape_error is not None:
            # Every row and pair is checked before any literal is read: a bad literal in an earlier
            # row no longer hides a malformed row or pair after it.
            assert got == f"SchemaError: {shape_error}"
            assert expected == got or re.match(r"SchemaError: bimatrix\.payoffs\[\d+\]\[\d+\]\[[01]\]: ", expected), expected
        elif isinstance(expected, str):  # the same literal error, named by its row
            assert got == re.sub(r"^(SchemaError: bimatrix\.payoffs\[\d+\])\[\d+\]\[[01]\]", r"\1", expected)
        else:
            assert got == expected
            assert {type(v) for row in got.game.payoffs for pair in row for v in pair} == {Fraction}

    def test_each_literal_parsed_once_per_file(self, monkeypatch):
        calls = []
        monkeypatch.setattr(formats, "as_rational", lambda v: calls.append(v) or Fraction(v))
        game = parse_bimatrix(UNION_DOC).game
        assert sorted(calls) == [0, 2, 6]  # eight cells, three distinct literals
        assert game.payoffs[0][1][0] is game.payoffs[1][0][1] and game.payoffs[0][0][1] is game.payoffs[1][1][0]
        calls.clear()
        doc = {"row_labels": ["r0", "r1"], "col_labels": ["c0", "c1", "c2"],
               "payoffs": [[["1/2", 1], [0.25, "1/2"], [1, 7]], [[0.25, "2/3"], ["1/2", "2/3"], [7, 1]]]}
        game = parse_bimatrix(json.dumps(doc)).game
        assert sorted(calls, key=repr) == sorted(["1/2", 1, 7, "2/3", Fraction(1, 4)], key=repr)  # each once
        assert game.payoffs[0][0][0] is game.payoffs[0][1][1] is game.payoffs[1][1][0]
        assert game.payoffs[0][1][0] is game.payoffs[1][0][0]  # a decimal too
        assert game == BimatrixGame.from_rows([[("1/2", 1), ("1/4", "1/2"), (1, 7)], [("1/4", "2/3"), ("1/2", "2/3"), (7, 1)]])

    def test_bad_literal_is_named_by_its_row(self):
        doc = {"row_labels": ["r0", "r1"], "col_labels": ["c0"], "payoffs": [[[1, 2]], [[3, "x" * 999]]]}
        with pytest.raises(SchemaError, match=r"^bimatrix\.payoffs\[1\]: cannot interpret 'x{40}' as a rational$"):
            parse_bimatrix(json.dumps(doc))
