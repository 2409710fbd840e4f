import json
import random
import string
from fractions import Fraction

import pytest

from matchgames import (
    BimatrixFile,
    ParseError,
    RenderMode,
    Report,
    SchemaError,
    Side,
    cmd_assign,
    cmd_bargain,
    cmd_game,
    cmd_pipeline,
    parse_bimatrix,
    parse_market,
    parse_report,
    render_bimatrix,
    render_market,
    render_report,
)

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
        assert market.worker_utilities.entry(0, 0) == 76
        assert market.enterprise_utilities.entry(2, 1) == 85

    def test_numbers_parse_exactly(self):
        market = parse_market(
            '{"workers": ["w"], "enterprises": ["e"], "A": [["3/2"]], "B": [[0.1]]}'
        )
        assert market.worker_utilities.entry(0, 0) == Fraction(3, 2)
        assert market.enterprise_utilities.entry(0, 0) == Fraction(1, 10)

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
        # A parsed literal is reused within its grid, but True is not the
        # integer 1, a list is no key, and an error names the row it is in.
        doc = '{"workers": ["w0", "w1"], "enterprises": ["e0", "e1"], "A": %s, "B": [[1, 1], [1, 1]]}'
        market = parse_market(doc % '[[1, "1/2"], ["1/2", 1]]')
        assert market.worker_utilities.entries == ((1, Fraction(1, 2)), (Fraction(1, 2), 1))
        for grid, row in [("[[1, 2], [3, true]]", 1), ("[[1, 2], [[1], 1]]", 1), ('[["x", 2], [1, "x"]]', 0)]:
            with pytest.raises(SchemaError, match=rf"market\.A\[{row}\]"):
                parse_market(doc % grid)

    def test_missing_key_rejected(self):
        with pytest.raises(SchemaError):
            parse_market('{"workers": ["w"], "enterprises": ["e"], "A": [[1]]}')

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
            assert parse_market(render_market(market)) == market


class TestParseBimatrix:
    def test_reference_game(self):
        bimatrix = parse_bimatrix(UNION_DOC)
        assert bimatrix.game.payoffs[0][0] == (6, 2)
        assert bimatrix.game.payoffs[1][1] == (2, 6)

    def test_round_trip(self):
        bimatrix = parse_bimatrix(UNION_DOC)
        assert parse_bimatrix(render_bimatrix(bimatrix)) == bimatrix

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
        with pytest.raises(SchemaError):
            parse_report('{"command": "assign"}')

    def test_parse_report_rejects_deep_payload(self):
        payload = "[" * 500 + "]" * 500
        with pytest.raises(ParseError):
            parse_report('{"command": "game", "notes": [], "payload": {"deep": ' + payload + "}}")

    def test_parse_report_rejects_oversize_number(self):
        doc = '{"command": "x", "notes": [], "payload": {"v": "%s"}}'
        with pytest.raises(ParseError, match="oversize number"):
            parse_report(doc % ("1/" + "9" * 5000))
        # Parts past as_rational's 1000-character literal bound still parse.
        big = parse_report(doc % ("7" * 600 + "/" + "3" * 600)).payload["v"]
        assert big == Fraction(int("7" * 600), int("3" * 600))
