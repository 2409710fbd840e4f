"""High-level workflows behind the CLI: assign, game, bargain, pipeline.

Each command takes parsed input files and returns a Report.  Reports on the
bundled datasets carry notes flagging that data's known quirks, so regression
output stays self-documenting.
"""

from __future__ import annotations

from enum import Enum

from . import datasets
from .assignment import (
    AssignmentResult,
    Objective,
    compare_assignments,
    solve_hungarian,
)
from .bargaining import (
    BargainingOutcome,
    DisagreementPoint,
    bargain,
    nash_solution,
)
from .core import GameInstance, RationalLike, UtilityMatrix, as_rational
from .formats import BimatrixFile, Report
from .situations import (
    EQUILIBRIUM_ENUMERATION_CAP,
    build_table,
    compromise_set,
)


class Side(Enum):
    WORKERS = "workers"
    ENTERPRISES = "enterprises"


def _assignment_grid(result: AssignmentResult) -> list[list[int]]:
    n = result.matching.n
    grid = [[0] * n for _ in range(n)]
    for row, col in enumerate(result.matching.image):
        grid[row][col] = 1
    return grid


def _assignment_payload(side: Side, matrix: UtilityMatrix, result: AssignmentResult) -> dict:
    return {
        "side": side.value,
        "objective": result.objective.value,
        "row_labels": list(matrix.row_labels),
        "col_labels": list(matrix.col_labels),
        "matching": list(result.matching.image),
        "assignment_grid": _assignment_grid(result),
        "total": result.total_value,
    }


def cmd_assign(
    market: GameInstance,
    side: Side,
    objective: Objective = Objective.MAXIMIZE,
) -> Report:
    """Solve one side's optimal assignment problem."""
    if side is Side.WORKERS:
        matrix = market.worker_utilities
    else:
        matrix = market.enterprise_utilities
    result = solve_hungarian(matrix, objective)
    payload = _assignment_payload(side, matrix, result)
    return Report("assign", payload, datasets._notes(market))


def cmd_game(market: GameInstance) -> Report:
    """Full situation-table analysis: payoffs, ideal point, compromise set,
    least-satisfied players, and an equilibrium verification summary."""
    table = build_table(market)
    compromise = compromise_set(table)
    least = [
        {"situation": list(member.image), "player": player, "payoff": payoff}
        for member, (player, payoff) in zip(compromise.members, compromise.least_satisfied)
    ]
    if market.n <= EQUILIBRIUM_ENUMERATION_CAP:
        equilibrium_count = len(table.equilibria())
        equilibrium_summary = {
            "enumerated": True,
            "situation_count": len(table.rows),
            "equilibrium_count": equilibrium_count,
            "all_situations_equilibria": equilibrium_count == len(table.rows),
        }
    else:
        equilibrium_summary = {
            "enumerated": False,
            "situation_count": len(table.rows),
            "reason": f"market size above the equilibrium enumeration cap ({EQUILIBRIUM_ENUMERATION_CAP})",
        }
    payload = {
        "n": market.n,
        "workers": list(market.worker_utilities.row_labels),
        "enterprises": list(market.worker_utilities.col_labels),
        "situations": [
            {"image": list(matching.image), "payoffs": list(profile)}
            for matching, profile in table.rows
        ],
        "ideal_point": list(compromise.ideal),
        "compromise": {
            "optimal_regret": compromise.optimal_regret,
            "members": [list(m.image) for m in compromise.members],
            "max_regret_by_situation": list(compromise.regret_by_situation),
        },
        "least_satisfied": least,
        "equilibria": equilibrium_summary,
    }
    return Report("game", payload, datasets._notes(market))


def _bargain_payload(bimatrix: BimatrixFile, outcome: BargainingOutcome) -> dict:
    maximin = None
    if outcome.disagreement.x0 is not None and outcome.disagreement.y0 is not None:
        maximin = {
            "player1": {
                "strategy": list(outcome.disagreement.x0.weights),
                "value": outcome.disagreement.v1,
            },
            "player2": {
                "strategy": list(outcome.disagreement.y0.weights),
                "value": outcome.disagreement.v2,
            },
        }
    return {
        "row_labels": list(bimatrix.row_labels),
        "col_labels": list(bimatrix.col_labels),
        "maximin": maximin,
        "disagreement": [outcome.disagreement.v1, outcome.disagreement.v2],
        "hull_vertices": [list(p) for p in outcome.feasible_hull],
        "pareto_frontier": [[list(s), list(e)] for s, e in outcome.pareto_frontier],
        "solution": list(outcome.solution),
        "nash_product": outcome.nash_product,
    }


def cmd_bargain(
    bimatrix: BimatrixFile,
    disagreement_override: tuple[RationalLike, RationalLike] | None = None,
) -> Report:
    """Arbitrate a two-player game.

    Without an override the disagreement point is computed by 2x2 maximin
    (NotTwoByTwo on larger games); with an override the maximin step is
    skipped and any game size is accepted.
    """
    if disagreement_override is None:
        outcome = bargain(bimatrix.game)
    else:
        v1, v2 = (as_rational(disagreement_override[0]), as_rational(disagreement_override[1]))
        outcome = nash_solution(bimatrix.game, DisagreementPoint(v1, v2, None, None))
    return Report("bargain", _bargain_payload(bimatrix, outcome), ())


def cmd_pipeline(market: GameInstance, union_game: BimatrixFile) -> Report:
    """The three-stage workflow: solve both assignment problems, diagnose the
    mismatch, then arbitrate the union-level game."""
    a, b = market.worker_utilities, market.enterprise_utilities
    workers, enterprises = solve_hungarian(a), solve_hungarian(b)
    mismatch = compare_assignments(workers.matching, enterprises.matching)
    bargain_report = cmd_bargain(union_game)
    payload = {
        "workers_assignment": _assignment_payload(Side.WORKERS, a, workers),
        "enterprises_assignment": _assignment_payload(Side.ENTERPRISES, b, enterprises),
        "mismatch": {
            "workers": list(mismatch),
            "count": len(mismatch),
            "coincide": len(mismatch) == 0,
        },
        "bargaining": bargain_report.payload,
    }
    return Report("pipeline", payload, datasets._notes(market))
