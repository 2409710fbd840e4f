"""Optimal assignment solvers: an O(n^3) Hungarian method and an exhaustive oracle.

Both solvers share one tie-break contract: among all optimal matchings they
return the one with the lexicographically smallest image.  The Hungarian
solver achieves this with an exact integer perturbation; the brute-force
oracle achieves it independently by scanning permutations in lexicographic
order, which keeps the two implementations honest against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import permutations

from .core import (
    ENUMERATION_CAP,
    DimensionMismatch,
    Matching,
    SizeTooLarge,
    UtilityMatrix,
)


class Objective(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True)
class AssignmentResult:
    """An optimal matching together with its exact total value."""

    matching: Matching
    total_value: Fraction
    objective: Objective


def matching_total(matrix: UtilityMatrix, matching: Matching) -> Fraction:
    """Exact sum of matrix entries selected by a matching."""
    if matching.n != matrix.n:
        raise DimensionMismatch(f"matching of size {matching.n} on a size-{matrix.n} matrix")
    return sum((matrix.entry(i, j) for i, j in enumerate(matching.image)), Fraction(0))


def _integer_costs(matrix: UtilityMatrix, objective: Objective) -> list[list[int]]:
    """Scale entries to integers and orient them for minimization.

    Multiplying by the common denominator preserves the optimal set exactly;
    Maximize is reduced to Minimize via max(entries) - entry.
    """
    den = matrix.common_denominator()
    scaled = [[v.numerator * (den // v.denominator) for v in row] for row in matrix.entries]
    if objective is Objective.MAXIMIZE:
        top = max(max(row) for row in scaled)
        return [[top - v for v in row] for row in scaled]
    return scaled


def _lex_perturbed(costs: list[list[int]]) -> list[list[int]]:
    """Add a perturbation that breaks ties toward the lex-smallest image.

    Distinct matchings of the integer ``costs`` differ by at least 1, so after
    multiplying by (n+1)^n the perturbation sum (strictly below (n+1)^n)
    can never flip a strict comparison.  Among equal-cost matchings it orders
    them by the image read as a base-(n+1) number, i.e. lexicographically.
    """
    n = len(costs)
    base = n + 1
    scale = base**n
    return [
        [costs[i][j] * scale + j * base ** (n - 1 - i) for j in range(n)]
        for i in range(n)
    ]


def _min_cost_assignment(costs: list[list[int]]) -> list[int]:
    """Minimum-cost perfect assignment via shortest augmenting paths.

    Classic Hungarian method with row/column potentials, O(n^3); all
    arithmetic is on Python ints, so the result is exact for any magnitude.
    Returns the image (row -> column).
    """
    n = len(costs)
    INF = math.inf
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match_row = [0] * (n + 1)  # match_row[j] = 1-based row matched to column j
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        min_slack = [INF] * (n + 1)
        prev_col = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            delta = INF
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = costs[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < min_slack[j]:
                    min_slack[j] = cur
                    prev_col[j] = j0
                if min_slack[j] < delta:
                    delta = min_slack[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match_row[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = prev_col[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    image = [0] * n
    for j in range(1, n + 1):
        image[match_row[j] - 1] = j - 1
    return image


def solve_hungarian(matrix: UtilityMatrix, objective: Objective = Objective.MAXIMIZE) -> AssignmentResult:
    """Optimal assignment on a square rational matrix.

    Exact for any rational entries; ties are broken toward the
    lexicographically smallest matching image.
    """
    costs = _integer_costs(matrix, objective)
    image = _min_cost_assignment(_lex_perturbed(costs))
    matching = Matching(tuple(image))
    return AssignmentResult(matching, matching_total(matrix, matching), objective)


def solve_bruteforce(matrix: UtilityMatrix, objective: Objective = Objective.MAXIMIZE) -> AssignmentResult:
    """Exact optimum by exhaustive enumeration; oracle for the Hungarian solver.

    Scans all n! images of the same integer costs in lexicographic order,
    keeping a candidate only on strict improvement, which yields the same
    lex-smallest tie-break as solve_hungarian without its perturbation.
    """
    n = matrix.n
    if n > ENUMERATION_CAP:
        raise SizeTooLarge(f"brute force refuses n={n} (cap is {ENUMERATION_CAP})")
    costs = _integer_costs(matrix, objective)
    best_image, best_cost = None, None
    for image in permutations(range(n)):
        cost = sum(costs[i][j] for i, j in enumerate(image))
        if best_cost is None or cost < best_cost:
            best_image, best_cost = image, cost
    matching = Matching(best_image)
    return AssignmentResult(matching, matching_total(matrix, matching), objective)


def compare_assignments(x: Matching, y_on_jobs: Matching) -> tuple[int, ...]:
    """Workers whose assignment under x disagrees with the job-side solution.

    ``x`` maps workers to enterprises; ``y_on_jobs`` maps enterprises to
    workers, so x is compared against the inverse of y.  Returns the sorted
    worker indices where the two disagree (empty when the assignments
    coincide).
    """
    if x.n != y_on_jobs.n:
        raise DimensionMismatch(f"cannot compare matchings of sizes {x.n} and {y_on_jobs.n}")
    jobs_view = y_on_jobs.inverse()
    return tuple(i for i in range(x.n) if x[i] != jobs_view[i])
