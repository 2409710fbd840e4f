"""Acceptance suite: every shipped claim about the bundled worked examples.

One test per criterion; each asserts exact rational equality (tolerance zero)
and prints a single pass line.  Run with ``pytest tests/test_acceptance.py -s``
to see the lines.
"""

import random
from fractions import Fraction
from itertools import permutations

from matchgames import (
    BimatrixGame,
    DisagreementOutsideHull,
    GameInstance,
    Matching,
    MixedStrategy,
    Objective,
    Player,
    StrategyProfile,
    UtilityMatrix,
    bargain,
    build_table,
    compromise_set,
    feasible_hull,
    ideal_point,
    matching_total,
    maximin_2x2,
    parse_report,
    pareto_frontier,
    solve_bruteforce,
    solve_hungarian,
    verify_nash,
)
from matchgames.cli import EXIT_OK, main
from matchgames.datasets import (
    REPORTED_JOB_DISTRIBUTION,
    job_market,
    labor_market,
    union_game,
)
from matchgames.situations import enumerate_equilibria, least_satisfied

F = Fraction

# Payoff table of the bundled labor market, keyed by matching image.  The
# [2,0,1] row stores 59 = B[2][0] in slot 4; the reference rendition of that
# single cell (94) contradicts its own B matrix and downstream values, the
# same class of misprint as the 75/76 cell in A (stored here as 76).
EXPECTED_TABLE = {
    (0, 1, 2): (76, 41, 54, 94, 32, 38),
    (1, 0, 2): (22, 33, 54, 30, 71, 38),
    (2, 1, 0): (94, 41, 45, 59, 32, 17),
    (2, 0, 1): (94, 33, 13, 59, 71, 18),
    (0, 2, 1): (76, 86, 13, 94, 85, 18),
    (1, 2, 0): (22, 86, 45, 30, 85, 17),
}

IDEAL = (94, 86, 54, 94, 85, 38)


def _swap_players(game):
    """The game with the players exchanged: the grid transposed and each payoff pair swapped."""
    return BimatrixGame(payoffs=tuple(tuple((k2, k1) for k1, k2 in column) for column in zip(*game.payoffs)))


def announce(number, text):
    print(f"criterion {number:2d}: PASS - {text}")


def test_criterion_01_payoff_table():
    table = build_table(labor_market())
    assert len(table.rows) == 6
    for image, expected in EXPECTED_TABLE.items():
        assert dict(table.rows)[Matching(image)] == tuple(F(v) for v in expected), image
    assert dict(table.rows)[Matching((0, 1, 2))] == (76, 41, 54, 94, 32, 38)
    announce(1, "situation table reproduces all six payoff rows exactly")


def test_criterion_02_ideal_point():
    assert ideal_point(build_table(labor_market())) == IDEAL
    announce(2, f"ideal point is {IDEAL}")


def test_criterion_03_compromise_set():
    table = build_table(labor_market())
    result = compromise_set(table)
    assert result.members == (Matching((0, 2, 1)),)
    # independent regret arithmetic for the winning row
    row = EXPECTED_TABLE[(0, 2, 1)]
    assert max(IDEAL[i] - row[i] for i in range(6)) == 41
    assert result.optimal_regret == 41
    player, payoff = least_satisfied(table, Matching((0, 2, 1)))
    assert (player, payoff) == (2, 13)
    announce(3, "compromise set is {[0, 2, 1]}, regret 41, guaranteed payoff 13")


def test_criterion_04_nash_universality():
    equilibria = enumerate_equilibria(labor_market())
    assert len(equilibria) == 6
    assert {e.worker_choices for e in equilibria} == set(permutations(range(3)))

    rng = random.Random(1234)
    for _ in range(50):
        n = rng.choice([2, 3])
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows(
                [[rng.randint(0, 99) for _ in range(n)] for _ in range(n)]
            ),
            enterprise_utilities=UtilityMatrix.from_rows(
                [[rng.randint(0, 99) for _ in range(n)] for _ in range(n)]
            ),
        )
        for image in permutations(range(n)):
            profile = StrategyProfile.from_matching(Matching(image))
            assert verify_nash(instance, profile).equilibrium
    announce(4, "all situations are equilibria (fixture + 50 random nonnegative instances)")


def test_criterion_05_workers_assignment():
    result = solve_hungarian(job_market().worker_utilities, Objective.MAXIMIZE)
    assert result.total_value == 78
    assert result.matching == Matching((0, 2, 1))
    announce(5, "workers' problem solves to total 78 with matching [0, 2, 1]")


def test_criterion_06_enterprises_assignment():
    matrix = job_market().enterprise_utilities
    result = solve_hungarian(matrix, Objective.MAXIMIZE)
    oracle = solve_bruteforce(matrix, Objective.MAXIMIZE)
    assert result.total_value == oracle.total_value == 50
    assert result.matching == Matching((1, 0, 2))
    # the reported distribution is stored and evaluates to its historic 48
    assert matching_total(matrix, REPORTED_JOB_DISTRIBUTION) == 48
    assert matching_total(matrix, REPORTED_JOB_DISTRIBUTION) < result.total_value
    announce(6, "enterprises' optimum is 50 (oracle-verified); reported 48 is suboptimal")


def test_criterion_07_maximin():
    game = union_game()
    x0, v1 = maximin_2x2(game, Player.ONE)
    y0, v2 = maximin_2x2(game, Player.TWO)
    assert x0 == MixedStrategy((F(1, 4), F(3, 4)))
    assert y0 == MixedStrategy((F(3, 4), F(1, 4)))
    assert (v1, v2) == (F(3, 2), F(3, 2))
    announce(7, "maximin strategies (1/4, 3/4) and (3/4, 1/4), threat point (3/2, 3/2)")


def test_criterion_08_arbitration():
    game = union_game()
    hull = feasible_hull(game)
    assert set(hull) == {(0, 0), (2, 6), (6, 2)}
    assert pareto_frontier(hull) == [((2, 6), (6, 2))]
    outcome = bargain(game)
    assert outcome.solution == (4, 4)
    assert outcome.nash_product == F(25, 4)
    announce(8, "hull {(0,0),(2,6),(6,2)}, frontier (2,6)-(6,2), solution (4, 4)")


def test_criterion_09_oracle_equivalence():
    rng = random.Random(987654)
    for trial in range(500):
        n = rng.randint(2, 7)
        matrix = UtilityMatrix.from_rows(
            [[rng.randint(0, 100) for _ in range(n)] for _ in range(n)]
        )
        for objective in Objective:
            fast = solve_hungarian(matrix, objective)
            slow = solve_bruteforce(matrix, objective)
            assert fast.total_value == slow.total_value, (trial, n, objective)
            assert fast.matching == slow.matching, (trial, n, objective)
    announce(9, "Hungarian equals brute force on 500 random matrices, both objectives")


def test_criterion_10_bargaining_axioms():
    rng = random.Random(24680)
    checked = 0
    skipped = 0
    while checked < 100:
        game = BimatrixGame.from_rows(
            [
                [(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(2)]
                for _ in range(2)
            ]
        )
        try:
            outcome = bargain(game)
        except DisagreementOutsideHull:
            skipped += 1  # maximin threat point not jointly feasible
            continue
        checked += 1

        swapped = bargain(_swap_players(game))
        assert swapped.solution == (outcome.solution[1], outcome.solution[0])

        lam1, mu1 = F(rng.randint(1, 4)), F(rng.randint(-4, 4))
        lam2, mu2 = F(rng.randint(1, 4)), F(rng.randint(-4, 4))
        transformed = BimatrixGame(
            payoffs=tuple(
                tuple((lam1 * k1 + mu1, lam2 * k2 + mu2) for k1, k2 in row)
                for row in game.payoffs
            )
        )
        mapped = bargain(transformed)
        assert mapped.solution == (
            lam1 * outcome.solution[0] + mu1,
            lam2 * outcome.solution[1] + mu2,
        )

        x, y = outcome.solution
        on_frontier = False
        for (sx, sy), (ex, ey) in outcome.pareto_frontier:
            collinear = (ex - sx) * (y - sy) == (ey - sy) * (x - sx)
            within = min(sx, ex) <= x <= max(sx, ex) and min(sy, ey) <= y <= max(sy, ey)
            if collinear and within:
                on_frontier = True
                break
        assert on_frontier

        d1, d2 = outcome.disagreement.point
        for start, end in outcome.pareto_frontier:
            for k in range(0, 1001):
                t = F(k, 1000)
                v1 = start[0] + t * (end[0] - start[0])
                v2 = start[1] + t * (end[1] - start[1])
                if v1 >= d1 and v2 >= d2:
                    assert outcome.nash_product >= (v1 - d1) * (v2 - d2)
    announce(10, f"axioms and grid oracle hold on 100 random games ({skipped} infeasible-threat games redrawn)")


def test_criterion_11_cli_round_trip(demo_data_dir, tmp_path, capsys):
    market1 = str(demo_data_dir / "labor_market.json")
    market2 = str(demo_data_dir / "job_market.json")
    union = str(demo_data_dir / "union_game.json")

    game_out = tmp_path / "game.json"
    assert main(["game", "--market", market1, "--output", "machine", "--out", str(game_out)]) == EXIT_OK
    game_report = parse_report(game_out.read_text())
    payload = game_report.payload
    situations = {tuple(row["image"]): tuple(row["payoffs"]) for row in payload["situations"]}
    assert situations == {k: tuple(F(v) for v in row) for k, row in EXPECTED_TABLE.items()}
    assert tuple(payload["ideal_point"]) == IDEAL
    assert payload["compromise"]["members"] == [[0, 2, 1]]
    assert payload["compromise"]["optimal_regret"] == 41
    assert payload["least_satisfied"] == [{"situation": [0, 2, 1], "player": 2, "payoff": 13}]
    assert payload["equilibria"]["equilibrium_count"] == 6
    assert payload["equilibria"]["all_situations_equilibria"] is True

    pipeline_out = tmp_path / "pipeline.json"
    assert (
        main(
            [
                "pipeline",
                "--market",
                market2,
                "--union-game",
                union,
                "--output",
                "machine",
                "--out",
                str(pipeline_out),
            ]
        )
        == EXIT_OK
    )
    report = parse_report(pipeline_out.read_text())
    workers = report.payload["workers_assignment"]
    assert workers["total"] == 78
    assert workers["matching"] == [0, 2, 1]
    assert workers["assignment_grid"] == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
    enterprises = report.payload["enterprises_assignment"]
    assert enterprises["total"] == 50
    assert enterprises["matching"] == [1, 0, 2]
    assert any("48" in note and "50" in note for note in report.notes)
    assert report.payload["mismatch"]["count"] > 0
    bargaining = report.payload["bargaining"]
    assert bargaining["maximin"]["player1"]["strategy"] == [F(1, 4), F(3, 4)]
    assert bargaining["maximin"]["player2"]["strategy"] == [F(3, 4), F(1, 4)]
    assert bargaining["disagreement"] == [F(3, 2), F(3, 2)]
    assert sorted(map(tuple, bargaining["hull_vertices"])) == [(0, 0), (2, 6), (6, 2)]
    assert bargaining["pareto_frontier"] == [[[2, 6], [6, 2]]]
    assert bargaining["solution"] == [4, 4]
    assert bargaining["nash_product"] == F(25, 4)
    announce(11, "CLI reports re-parse to the exact values of criteria 1-8")
