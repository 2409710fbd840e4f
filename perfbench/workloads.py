"""The four workloads: a fixed cycle of requests each, with inputs from a seed.

A cycle's make-up (request kinds, market sizes, compromise-member counts,
equilibrium counts) is the same for every seed; the seed only draws the
values.  That keeps the cost of a cycle, and so every end-to-end figure,
independent of the seed, while the program never sees the same numbers
twice across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import inputs
from checks import AssignCheck, BargainCheck, GameCheck, ParsedReportCheck, PipelineCheck, SideMatrix


@dataclass
class Request:
    label: str
    argv: list[str] | None = None  # arguments to cli.main
    report: str | None = None  # path of a machine report for parse_report
    mode: str | None = None  # "machine" or "text"; None for parse_report
    expect_exit: int = 0
    check: object | None = None
    # The exception this request raises in every cycle until a known fault in
    # the program is fixed; any other failure makes the run incorrect.
    known_fault: str | None = None

    def manifest(self) -> dict:
        return {"label": self.label, "argv": self.argv, "report": self.report, "expect_exit": self.expect_exit}


@dataclass
class Workload:
    name: str
    requests: list[Request]
    warmup: int  # untimed requests sent before the first cycle
    make_up: list[str]  # one line per input, for the summary


# (blocks, negative A cells, output modes) per game market; see
# inputs.game_market.  At n = 7 a request costs 1-2 s, so each market is
# asked in one mode only and a cycle stays near 5 s: a run then covers
# three cycles or more rather than two, and overshoots its seconds less.
# All three markets have 12 compromise members and cost alike, so the median
# request sits in the middle of one group of samples, not at its edge.
GAME_N7 = [
    ((3, 2, 1, 1), {(0, 5), (3, 0), (6, 1)}, ("text",)),
    ((1, 1, 2, 3), {(0, 4), (2, 6), (5, 1)}, ("machine",)),
    ((2, 3, 1, 1), {(0, 5), (2, 0), (6, 1)}, ("machine",)),
]
GAME_N5 = [
    ((1,) * 5, set(), ("text", "machine")),
    ((2, 1, 1, 1), {(1, 3), (3, 0)}, ("text", "machine")),
    ((3, 1, 1), {(0, 3), (0, 4), (2, 4), (4, 0), (4, 1)}, ("text", "machine")),
]
ASSIGN_N = 200
# Two markets of each kind, each asked twice, so that a cycle solves twelve
# distinct matrices: Hungarian work depends on the instance, and averaging
# over more instances keeps a cycle's cost from depending on the seed.
ASSIGN_MARKETS = ("int", "rational", "ties")
ASSIGN_REQUESTS = (
    (("workers", "maximize", "machine"), ("enterprises", "minimize", "text")),
    (("workers", "minimize", "text"), ("enterprises", "maximize", "machine")),
)


class Inputs:
    """Writes seeded input files into the run's work directory."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.seed, self.work = workload, seed, work

    def rng(self, name: str) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{name}")

    def write(self, name: str, doc: dict) -> str:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)


def assign_n200(files: Inputs) -> Workload:
    requests, make_up = [], []
    for kind in ASSIGN_MARKETS:
        for copy, asks in enumerate(ASSIGN_REQUESTS):
            name = f"{kind}{copy}"
            rng = files.rng(name)
            if kind == "int":
                cell = inputs.int_cell(rng, 0, 100)
            elif kind == "rational":
                cell = inputs.rational_cell(rng)
            else:
                cell = inputs.int_cell(rng, 0, 3)
            doc = inputs.random_market(ASSIGN_N, cell)
            path = files.write(name, doc)
            make_up.append(f"{name}: n={ASSIGN_N} market, " + "; ".join(" ".join(ask) for ask in asks))
            for side, objective, mode in asks:
                argv = ["assign", "--market", path, "--side", side, "--output", mode]
                if objective == "minimize":
                    argv.append("--minimize")
                # Only tie-heavy markets have many optimal matchings to choose among.
                check = AssignCheck(SideMatrix(doc, side), objective, mode, tiebreak=kind == "ties")
                requests.append(Request(f"{name}/{side}/{objective}/{mode}", argv, mode=mode, check=check))
    return Workload("assign-n200", requests, warmup=1, make_up=make_up)


def game_workload(name: str, files: Inputs, markets, warmup: int) -> Workload:
    requests, make_up = [], []
    for k, (blocks, negative, modes) in enumerate(markets):
        doc = inputs.game_market(files.rng(f"market{k}"), blocks, frozenset(negative))
        path = files.write(f"market{k}", doc)
        make_up.append(
            f"market{k}: n={sum(blocks)}, {inputs.block_members(blocks)} compromise members, "
            f"{len(negative)} negative A cells, {' and '.join(modes)} output"
        )
        for mode in modes:
            argv = ["game", "--market", path, "--output", mode]
            requests.append(Request(f"market{k}/{mode}", argv, mode=mode, check=GameCheck(doc, mode)))
    return Workload(name, requests, warmup=warmup, make_up=make_up)


def cli_small(files: Inputs, cli) -> Workload:
    m1 = inputs.random_market(3, inputs.int_cell(files.rng("m1"), 0, 100))
    m2 = inputs.random_market(3, inputs.rational_cell(files.rng("m2")))
    g1 = inputs.coordination_game(files.rng("g1"))
    g2 = inputs.coordination_game(files.rng("g2"))
    g3, d3 = inputs.random_bimatrix(files.rng("g3"), 3, 3)
    g4, d4 = inputs.random_bimatrix(files.rng("g4"), 2, 2)
    # Reports to parse back are sized so that parsing one costs about as much
    # as one small CLI request (~1 ms): a game at n = 5, a pipeline at n = 30.
    m5 = inputs.game_market(files.rng("m5"), (2, 1, 1, 1), frozenset({(1, 3)}))
    m30 = inputs.random_market(30, inputs.int_cell(files.rng("m30"), 0, 100))
    p = {name: files.write(name, doc) for name, doc in
         (("m1", m1), ("m2", m2), ("g1", g1), ("g2", g2), ("g3", g3), ("g4", g4), ("m5", m5), ("m30", m30),
          ("huge", inputs.huge_market()))}

    def ask(label, argv, mode, check, **fault):
        return Request(label, argv + ["--output", mode], mode=mode, check=check, **fault)

    requests = [
        ask("assign/m1/workers", ["assign", "--market", p["m1"], "--side", "workers"], "text",
            AssignCheck(SideMatrix(m1, "workers"), "maximize", "text")),
        ask("assign/m2/enterprises/min", ["assign", "--market", p["m2"], "--side", "enterprises", "--minimize"],
            "machine", AssignCheck(SideMatrix(m2, "enterprises"), "minimize", "machine")),
        ask("game/m1", ["game", "--market", p["m1"]], "machine", GameCheck(m1, "machine")),
        ask("game/m2", ["game", "--market", p["m2"]], "text", GameCheck(m2, "text")),
        ask("bargain/g1", ["bargain", "--game", p["g1"]], "text", BargainCheck(g1, None, "text")),
        ask("bargain/g2", ["bargain", "--game", p["g2"]], "machine", BargainCheck(g2, None, "machine")),
        ask("bargain/g3/interior", ["bargain", "--game", p["g3"], "--disagreement", *d3], "machine",
            BargainCheck(g3, d3, "machine")),
        ask("bargain/g4/interior", ["bargain", "--game", p["g4"], "--disagreement", *d4], "text",
            BargainCheck(g4, d4, "text")),
        ask("pipeline/m1/g2", ["pipeline", "--market", p["m1"], "--union-game", p["g2"]], "machine",
            PipelineCheck(m1, g2, "machine")),
        ask("pipeline/m2/g1", ["pipeline", "--market", p["m2"], "--union-game", p["g1"]], "text",
            PipelineCheck(m2, g1, "text")),
    ]
    # Machine reports to parse back, made untimed by the program itself.
    for name, argv in (
        ("report-game", ["game", "--market", p["m5"]]),
        ("report-pipeline", ["pipeline", "--market", p["m30"], "--union-game", p["g2"]]),
    ):
        path = files.work / f"{name}.json"
        if cli.main(argv + ["--output", "machine", "--out", str(path)]) != 0:
            raise RuntimeError(f"could not make the {name} input")
        requests.append(Request(f"parse_report/{name}", report=str(path), check=ParsedReportCheck(path.read_text())))
    # Should exit 1; until rendering a 5001-digit total is handled,
    # format_rational raises ValueError (Python's int->str digit limit).
    requests.append(ask("assign/huge", ["assign", "--market", p["huge"], "--side", "workers"], "machine", None,
                        expect_exit=1, known_fault="ValueError"))
    make_up = [
        "m1: n=3 market, integers 0..100; m2: n=3 market, p/q with denominators 1..12",
        "g1, g2: 2x2 coordination games (maximin point inside the hull); g3, g4: 3x3 and 2x2 games"
        " with payoffs 0..40 and the outcome centroid as --disagreement",
        "m5, m30: n=5 game and n=30 pipeline markets whose machine reports are parsed back",
        "huge: fixed n=3 market with a 1e5000 cell",
    ]
    return Workload("cli-small", requests, warmup=len(requests), make_up=make_up)


def build(name: str, seed: int, work: Path, cli) -> Workload:
    files = Inputs(name, seed, work)
    if name == "assign-n200":
        return assign_n200(files)
    if name == "game-n7":
        return game_workload(name, files, GAME_N7, warmup=1)
    if name == "game-n5":
        return game_workload(name, files, GAME_N5, warmup=len(GAME_N5) * 2)
    if name == "cli-small":
        return cli_small(files, cli)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("assign-n200", "game-n7", "game-n5", "cli-small")
