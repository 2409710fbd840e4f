import json
import os
import random
import re
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest
from hypothesis import assume, given, settings
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
from matchgames.formats import ReportTooLarge, _records

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

    def test_deep_report_is_too_deep_to_write(self):
        deep: list = []
        for _ in range(399):
            deep = [deep]
        report = Report("game", {"deep": deep})
        with pytest.raises(ReportTooLarge, match="cannot render the game report"):
            render_report(report, RenderMode.MACHINE)
        assert render_report(report, RenderMode.TEXT).startswith("== game ==\ndeep: ((((")

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


def assert_same_as_old(report):
    for mode, old in [(RenderMode.MACHINE, old_render_machine), (RenderMode.TEXT, old_render_text)]:
        try:
            expected = old(report)
        except ValueError:
            with pytest.raises(ReportTooLarge):
                render_report(report, mode)
        else:
            assert render_report(report, mode) == expected, mode


keys = st.one_of(
    st.text(max_size=6),
    st.text(st.sampled_from('aé"\\/\n\t\x00\x1f\u2028日😀'), max_size=4),
    st.sampled_from(["image", "payoffs", "situation", "1/2"]),
)
big = st.integers(10**499, 10**500 - 1)
scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-3, 3)),
    st.builds(lambda p, q, sign: Fraction(sign * p, q), big, big | st.integers(1, 9), st.sampled_from([1, -1])),
    big,
    st.booleans(),
    st.none(),
    keys,
    st.sampled_from(["1/2", "-3/4", "0"]),
    st.floats(),
)
grids = st.lists(st.lists(scalars, max_size=4) | st.tuples(scalars, scalars), max_size=4)
values = st.recursive(
    scalars | grids,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.lists(st.dictionaries(keys, children, max_size=3), max_size=3),
    ),
    max_leaves=20,
)


class TestOnePassWriters:
    """render_report against the writer it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        command=keys,
        payload=st.dictionaries(keys, values, max_size=6),
        notes=st.lists(keys, max_size=3).map(tuple),
    )
    def test_random_payloads(self, command, payload, notes):
        assume(not has_grid_with_empty_row(payload))
        assert_same_as_old(Report(command, payload, notes))

    def test_every_command_report(self):
        market, jobs, union = datasets.labor_market(), datasets.job_market(), parse_bimatrix(UNION_DOC)
        doc = json.loads(MARKET_DOC)
        doc["workers"], doc["enterprises"] = ["é", 'q"', "\x01"], ["1/2", "日本", "\\"]
        doc["A"][0][0], doc["B"][1][2] = "-7/3", -5
        relabelled = parse_market(json.dumps(doc))
        reports = [cmd_bargain(union), cmd_bargain(union, disagreement_override=("1", "1/2"))]
        for m in (market, jobs, relabelled):
            reports += [cmd_assign(m, side, objective) for side in Side for objective in Objective]
            reports += [cmd_game(m), cmd_pipeline(m, union)]
        for report in reports:
            assert_same_as_old(report)

    def test_non_string_keys_keep_json_rules(self):
        assert_same_as_old(Report("x", {"k": {3: 1, 1: Fraction(1, 2)}, "n": {None: []}, "t": {True: ()}, "f": {0.5: 2.5}}))

    @pytest.mark.parametrize(
        "value",
        [10**4300, Fraction(-(10**4300), 3), [1, [Fraction(1, 10**4300)]], {"k": (10**4301,)}],
        ids=["int", "numerator", "nested-denominator", "dict-tuple"],
    )
    def test_number_past_print_limit_is_too_large(self, value):
        for mode in RenderMode:
            with pytest.raises(ReportTooLarge, match="cannot render the x report"):
                render_report(Report("x", {"v": value}), mode)

    def test_shared_and_equal_objects(self):
        # Lists of eight or more look their scalars' texts up by object, so
        # one object in many places, equal values held by distinct objects,
        # and equal but differently typed values must each keep their text.
        f, big, s = Fraction(-7, 3), 10**400 + 1, "é\"{}"
        mixed = [1, True, Fraction(1), 1, True, 0, False, Fraction(0), 1.0, None, s, "1"]
        equal = [Fraction(1, 2) for _ in range(9)] + [int("5" * 30) for _ in range(9)] + ["".join("ab") for _ in range(9)]
        records = [{"image": [0, 1, i % 3], "payoffs": [f, big, f, s] * 3, "player": i % 2 == 1, "payoff": mixed[i]} for i in range(12)]
        payload = {
            "same": [f] * 20,
            "mixed": mixed,
            "mixed_shuffled": mixed[::-1] + mixed,
            "equal": equal,
            "records": records,
            "grid": [[f, big, 1, True], [Fraction(1), 1, f, True]] * 5,
            "nested": {"records": records[:9], "tuple": tuple(mixed), "same": records[0]["payoffs"]},
            # One container in many places is written at each place's indent.
            "shared": [[f, 1], {"a": [f] * 8, "b": []}] * 9,
        }
        assert_same_as_old(Report("game", payload, ("note",)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_random_payloads_sharing_objects(self, data):
        # A handful of scalar objects, each placed many times.
        pick = st.sampled_from(data.draw(st.lists(scalars, min_size=1, max_size=6)))
        long_lists = st.lists(pick, min_size=8, max_size=20)
        fields = data.draw(st.lists(keys, min_size=1, max_size=4, unique=True))
        value = pick | long_lists | st.lists(pick, max_size=3) | st.dictionaries(keys, pick, max_size=2)
        records = [{k: data.draw(value) for k in fields} for _ in range(data.draw(st.integers(8, 12)))]
        payload = {
            "long": data.draw(long_lists),
            "records": records,
            "grid": data.draw(st.lists(st.lists(pick, min_size=1, max_size=9), min_size=1, max_size=9)),
            "nested": {"records": records[:9], "tuple": tuple(data.draw(long_lists))},
        }
        assert_same_as_old(Report("x", payload, ()))

    def test_empty_grid_rows_render_inline(self):
        # Rows with no cells make no grid: they print inline, as () each.
        rendered = render_report(Report("x", {"k": [[]], "d": {"g": [[1, 22], ()]}}), RenderMode.TEXT)
        assert rendered == "== x ==\nk: ()\nd:\n  g: (1, 22), ()\n"


class IntSubclass(int):
    pass


record_keys = st.text(st.sampled_from('a%s"\\é日\n'), min_size=1, max_size=4) | st.sampled_from(
    ["%", "%s", "%%s", 'q"', "\\", "é", "payoffs"]
)
record_strs = st.text(st.sampled_from('a%s"\\é日/1'), max_size=5)
record_scalars = {
    "int": st.integers(-99, 99),
    "big": big,
    "huge": st.sampled_from([0, 7, 10**4300, -(10**4301)]),  # past the 4300-digit print limit
    "fraction": st.fractions(max_denominator=50),
    "str": record_strs,
    "mixed": st.integers(-9, 9) | st.fractions(max_denominator=9) | record_strs,
}


@st.composite
def uniform_records(draw, shuffled=False):
    """8-20 dicts of one str key set whose values at each key are scalars of
    the record path's types, or non-empty lists or tuples of one length."""
    cells = {}
    for key in draw(st.lists(record_keys, min_size=1, max_size=4, unique=True)):
        scalar = record_scalars[draw(st.sampled_from(sorted(record_scalars)))]
        width = draw(st.integers(0, 3))
        lists = st.lists(scalar, min_size=width, max_size=width)
        cells[key] = scalar if width == 0 else st.one_of(lists, lists.map(tuple))
    keys = list(cells)
    items = []
    for _ in range(draw(st.integers(8, 20))):
        order = draw(st.permutations(keys)) if shuffled else keys
        items.append({k: draw(cells[k]) for k in order})
    return items


@st.composite
def near_miss_records(draw):
    """Uniform records with one defect the record path must refuse."""
    items = draw(uniform_records())
    item = draw(st.sampled_from(items))
    key = draw(st.sampled_from(sorted(item)))
    defect = draw(st.sampled_from(["ragged", "cell", "missing", "extra", "empty", "nested"]))
    if defect == "ragged":
        item[key] = [*item[key], 1] if isinstance(item[key], (list, tuple)) else [item[key]]
    elif defect == "cell":
        odd = draw(st.sampled_from([True, False, None, 1.5, IntSubclass(3)]))
        if isinstance(item[key], (list, tuple)):
            item[key] = [odd, *item[key][1:]]
        else:
            item[key] = odd
    elif defect == "missing":
        del item[key]
    elif defect == "extra":
        item[key + "+"] = 1
    elif defect == "empty":
        for record in items:
            record[key] = []
    else:
        item[key] = draw(st.sampled_from([{"a": 1}, [[1, 2]], [{"b": 2}]]))
    return items


def record_payload(items):
    return {"records": items, "deep": {"more": items, "few": items[:7]}, "wrapped": [items, 3]}


class TestRecordTemplates:
    """Lists of same-shaped dicts, written as one template filled by one %,
    against the writers they replaced; every other list keeps the per-item path."""

    @settings(max_examples=200, deadline=None)
    @given(items=uniform_records(), shuffled=uniform_records(shuffled=True))
    def test_uniform_records(self, items, shuffled):
        assert _records(items, False, list) is not None
        assert _records(items, True, list) is not None
        assert _records(shuffled, False, list) is not None
        assert_same_as_old(Report("x%s", record_payload(items), ("%s",)))
        assert_same_as_old(Report("x", record_payload(shuffled), ()))

    @settings(max_examples=200, deadline=None)
    @given(items=near_miss_records())
    def test_near_misses_take_the_per_item_path(self, items):
        assert _records(items, False, list) is None
        assert _records(items, True, list) is None
        assert_same_as_old(Report("x", record_payload(items), ()))

    def test_game_situations_take_the_record_path(self, monkeypatch):
        # An n = 5 report has 120 situations; the per-item path writes each
        # with at least one call, so fewer calls than situations means the
        # record path wrote them.
        report = cmd_game(parse_market((Path(__file__).parent / "golden" / "market-n5.json").read_bytes()))
        assert len(report.payload["situations"]) == 120
        calls = {"_write_json": 0, "_texts": 0}
        for name in calls:
            original = getattr(formats, name)

            def counted(*args, original=original, name=name):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(formats, name, counted)
        render_report(report, RenderMode.MACHINE)
        render_report(report, RenderMode.TEXT)
        assert 0 < calls["_write_json"] < 120 and 0 < calls["_texts"] < 120, calls


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
    doc = formats._read(formats._BIMATRIX, [formats._load_json(data, "bimatrix")], "bimatrix")[0]
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
