"""Bundled worked-example data used by the demos and regression tests.

Two small labor markets and one union-level bargaining game.  Known quirks of
the bundled data are spelled out in the *_NOTES constants so that reports and
regression output stay self-documenting.
"""

from __future__ import annotations

from .bargaining import BimatrixGame
from .core import GameInstance, Matching, UtilityMatrix

WORKER_LABELS = ("s1", "s2", "s3")
ENTERPRISE_LABELS = ("h1", "h2", "h3")


def labor_market() -> GameInstance:
    """Three workers, three enterprises: the compromise-set market."""
    a = UtilityMatrix.from_rows(
        [[76, 22, 94], [33, 41, 86], [45, 13, 54]],
        row_labels=WORKER_LABELS,
        col_labels=ENTERPRISE_LABELS,
    )
    b = UtilityMatrix.from_rows(
        [[94, 71, 17], [30, 32, 18], [59, 85, 38]],
        row_labels=ENTERPRISE_LABELS,
        col_labels=WORKER_LABELS,
    )
    return GameInstance(a, b)


LABOR_MARKET_NOTES = (
    "worker_utilities[0][0] is stored as 76; a 75 variant of this matrix "
    "circulates but is inconsistent with the dataset's own payoff table and "
    "ideal point.",
)


def job_market() -> GameInstance:
    """Three workers, three jobs: the two-sided assignment market."""
    a = UtilityMatrix.from_rows(
        [[40, 20, 10], [15, 12, 8], [32, 30, 18]],
        row_labels=WORKER_LABELS,
        col_labels=ENTERPRISE_LABELS,
    )
    b = UtilityMatrix.from_rows(
        [[9, 14, 21], [11, 7, 5], [8, 16, 25]],
        row_labels=ENTERPRISE_LABELS,
        col_labels=WORKER_LABELS,
    )
    return GameInstance(a, b)


# Historically reported jobs-to-workers distribution for job_market(); it
# totals 48, which is suboptimal (the optimum is [1, 0, 2] with total 50).
REPORTED_JOB_DISTRIBUTION = Matching((2, 0, 1))

JOB_MARKET_NOTES = (
    "the classic reported jobs-to-workers distribution for this market is "
    "[2, 0, 1] with total 48, which is suboptimal; the true optimum is "
    "[1, 0, 2] with total 50.",
)


def union_game() -> BimatrixGame:
    """The 2x2 workers'-union vs employers'-union bargaining game."""
    return BimatrixGame.from_rows([[(6, 2), (0, 0)], [(0, 0), (2, 6)]])
