import json
import random

from matchgames import Side, cmd_assign, cmd_game, cmd_pipeline, parse_bimatrix, parse_market
from matchgames.datasets import JOB_MARKET_NOTES, LABOR_MARKET_NOTES


def read_market(demo_data_dir, name, relabel=False):
    doc = json.loads((demo_data_dir / f"{name}.json").read_text())
    if relabel:
        doc["workers"] = ["ann", "bob", "cy"]
        doc["enterprises"] = ["1/2", "mill", "farm"]
    return parse_market(json.dumps(doc))


def random_market(n, seed):
    rng = random.Random(seed)
    grid = lambda: [[rng.randint(-9, 99) for _ in range(n)] for _ in range(n)]
    doc = {
        "workers": [f"w{i}" for i in range(n)],
        "enterprises": [f"e{i}" for i in range(n)],
        "A": grid(),
        "B": grid(),
    }
    return parse_market(json.dumps(doc))


class TestReportNotes:
    def test_pipeline_on_job_market_notes_once(self, demo_data_dir):
        union = parse_bimatrix((demo_data_dir / "union_game.json").read_text())
        report = cmd_pipeline(read_market(demo_data_dir, "job_market"), union)
        assert report.notes == JOB_MARKET_NOTES

    def test_relabelled_job_market_keeps_notes(self, demo_data_dir):
        market = read_market(demo_data_dir, "job_market", relabel=True)
        for side in Side:
            assert cmd_assign(market, side).notes == JOB_MARKET_NOTES

    def test_random_market_has_no_notes(self):
        market = random_market(4, seed=7)
        assert cmd_assign(market, Side.WORKERS).notes == ()
        assert cmd_game(market).notes == ()

    def test_game_on_labor_market_notes(self, demo_data_dir):
        assert cmd_game(read_market(demo_data_dir, "labor_market")).notes == LABOR_MARKET_NOTES
