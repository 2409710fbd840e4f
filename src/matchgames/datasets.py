"""Bundled worked-example data used by the demos and regression tests.

Two small labor markets, their grids written once, and one union-level bargaining game.
A report on a market whose grids equal a bundled one's carries the *_NOTES on
that data's known quirks, so regression output stays self-documenting.
"""

from __future__ import annotations

from .bargaining import BimatrixGame
from .core import GameInstance, Matching, UtilityMatrix

WORKER_LABELS = ("s1", "s2", "s3")
ENTERPRISE_LABELS = ("h1", "h2", "h3")

# Each market's (A, B), built only on call: A is worker-row by enterprise-column, B enterprise-row by worker-column.
_LABOR_GRIDS = (((76, 22, 94), (33, 41, 86), (45, 13, 54)), ((94, 71, 17), (30, 32, 18), (59, 85, 38)))
_JOB_GRIDS = (((40, 20, 10), (15, 12, 8), (32, 30, 18)), ((9, 14, 21), (11, 7, 5), (8, 16, 25)))


def _market(a: tuple, b: tuple) -> GameInstance:
    return GameInstance(UtilityMatrix.from_rows(a, WORKER_LABELS, ENTERPRISE_LABELS),
                        UtilityMatrix.from_rows(b, ENTERPRISE_LABELS, WORKER_LABELS))


def labor_market() -> GameInstance:
    """Three workers, three enterprises: the compromise-set market."""
    return _market(*_LABOR_GRIDS)


LABOR_MARKET_NOTES = (
    "worker_utilities[0][0] is stored as 76; a 75 variant of this matrix "
    "circulates but is inconsistent with the dataset's own payoff table and "
    "ideal point.",
)


def job_market() -> GameInstance:
    """Three workers, three jobs: the two-sided assignment market."""
    return _market(*_JOB_GRIDS)


# Historically reported jobs-to-workers distribution for job_market(); it
# totals 48, which is suboptimal (the optimum is [1, 0, 2] with total 50).
REPORTED_JOB_DISTRIBUTION = Matching((2, 0, 1))

JOB_MARKET_NOTES = (
    "the classic reported jobs-to-workers distribution for this market is "
    "[2, 0, 1] with total 48, which is suboptimal; the true optimum is "
    "[1, 0, 2] with total 50.",
)


def _notes(market: GameInstance) -> tuple[str, ...]:
    """The notes of the bundled market whose A and B grids equal market's, whatever the labels; () for any other.
    A Fraction equals its int, and the comparison stops at the first cell that differs."""
    grids = (market.worker_utilities.entries, market.enterprise_utilities.entries)
    return LABOR_MARKET_NOTES if grids == _LABOR_GRIDS else JOB_MARKET_NOTES if grids == _JOB_GRIDS else ()


def union_game() -> BimatrixGame:
    """The 2x2 workers'-union vs employers'-union bargaining game."""
    return BimatrixGame.from_rows([[(6, 2), (0, 0)], [(0, 0), (2, 6)]])
