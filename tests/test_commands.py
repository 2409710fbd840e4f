import json
import random

import pytest

from matchgames import (
    RenderMode,
    Side,
    cmd_assign,
    cmd_game,
    cmd_pipeline,
    datasets,
    parse_bimatrix,
    parse_market,
    render_report,
)
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


@pytest.mark.parametrize("name", ["labor_market", "job_market"])
class TestOneMarketType:
    """A parsed market file is the GameInstance the datasets module builds."""

    def test_parsed_file_equals_dataset(self, demo_data_dir, name):
        assert read_market(demo_data_dir, name) == getattr(datasets, name)()

    def test_commands_render_alike(self, demo_data_dir, name):
        parsed = read_market(demo_data_dir, name)
        built = getattr(datasets, name)()
        union = parse_bimatrix((demo_data_dir / "union_game.json").read_text())
        for mode in RenderMode:
            pairs = [(cmd_game(parsed), cmd_game(built))]
            pairs += [(cmd_assign(parsed, side), cmd_assign(built, side)) for side in Side]
            pairs.append((cmd_pipeline(parsed, union), cmd_pipeline(built, union)))
            for from_file, from_dataset in pairs:
                assert render_report(from_file, mode) == render_report(from_dataset, mode)
