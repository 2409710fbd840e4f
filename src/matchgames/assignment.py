"""Optimal assignment solvers: Jonker-Volgenant shortest paths and an exhaustive oracle.

Both scale the entries to integers by their common denominator (at most
MAX_DENOMINATOR_BITS bits) and return the optimal matching with the
lexicographically smallest image.  solve_hungarian reads it off the tight
subgraph of its optimal duals, whose perfect matchings are exactly the optimal
ones; the oracle scans permutations in lexicographic order, independently.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import permutations
from operator import getitem, sub

from .core import (
    ENUMERATION_CAP,
    MAX_DENOMINATOR_BITS,
    DenominatorTooLarge,
    DimensionMismatch,
    Matching,
    SizeTooLarge,
    UtilityMatrix,
    _Record,
    _scaled,
)


class Objective(Enum):
    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


class AssignmentResult(_Record):
    """An optimal matching together with its exact total value."""

    matching: Matching
    total_value: Fraction
    objective: Objective


def matching_total(matrix: UtilityMatrix, matching: Matching) -> Fraction:
    """Exact sum of matrix entries selected by a matching."""
    if matching.n != matrix.n:
        raise DimensionMismatch(f"matching of size {matching.n} on a size-{matrix.n} matrix")
    return sum(map(getitem, matrix.entries, matching.image), Fraction(0))


def _integer_costs(matrix: UtilityMatrix, objective: Objective) -> tuple[list[list[int]], int]:
    """Entries times their common denominator, negated to maximize, and that denominator; DenominatorTooLarge past
    MAX_DENOMINATOR_BITS.  core._scaled scales each object of matrix._distinct (parse_market's, from its literal memo,
    or else found in the entries on first solve) once, by id(); each cost row is one map over its cells."""
    if (scaled := _scaled(matrix._distinct, -1 if objective is Objective.MAXIMIZE else 1)) is None:
        raise DenominatorTooLarge(f"the entries' common denominator has more than {MAX_DENOMINATOR_BITS} bits")
    return [list(map(scaled[1].__getitem__, map(id, row))) for row in matrix.entries], scaled[0]


def _shortest_path_assignment(costs: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Jonker-Volgenant: column reduction, then a Dijkstra from each free row.

    Returns the image x, its inverse y and the column duals v.  Every row
    meets its minimum of c[i][j] - v[j] at x[i], so the optimal matchings are
    the perfect matchings of the columns where it does: the tight subgraph.
    """
    n = len(costs)
    x, y, v = [-1] * n, [-1] * n, []
    for j, col in enumerate(zip(*costs)):  # each column to its first minimal row, if free
        v.append(min(col))
        i = col.index(v[j])
        if x[i] < 0:
            x[i], y[j] = j, i
    for free in [i for i in range(n) if x[i] < 0]:
        dist, pred = list(map(sub, costs[free], v)), [free] * n
        todo, scan, done, end = list(range(n)), [], [], -1  # unreached, reached, scanned columns
        while end < 0:
            if not scan:  # every column at the least distance is reached at once
                left = list(map(dist.__getitem__, todo))
                low = min(left)
                if left.count(low) == 1:
                    scan = [todo.pop(left.index(low))]
                else:
                    scan = [k for k, d in zip(todo, left) if d == low]
                    todo = [k for k, d in zip(todo, left) if d != low]
                end = next((k for k in scan if y[k] < 0), -1)
                if end >= 0:
                    break
            j = scan.pop()
            done.append(j)
            i, reached = y[j], len(scan)
            row, h = costs[i], costs[i][j] - v[j] - low
            for k in todo:
                reduced = row[k] - v[k] - h
                if reduced < dist[k]:
                    dist[k], pred[k] = reduced, i
                    if reduced == low:
                        if y[k] < 0:
                            end = k
                            break
                        scan.append(k)
            if len(scan) > reached:
                todo = [k for k in todo if dist[k] != low]
        for k in done:
            v[k] += dist[k] - low
        while end >= 0:  # augment; the free row's old column is -1
            i = pred[end]
            y[end], x[i], end = i, end, x[i]
    return x, y, v


def _path_to(tight: list[list[int]], y: list[int], seen: list[int], i: int, start: int, target: int) -> list[int] | None:
    """Rows of a shortest alternating path (row, tight column, its holder, ...) from row
    ``start`` to column ``target`` over rows after i unmarked in ``seen``; None if none."""
    seen[start], parent = i, {start: -1}
    for r in (queue := [start]):  # breadth first; every row searched is marked
        if target in tight[r]:
            rows = []
            while r >= 0:
                rows.append(r)
                r = parent[r]
            return rows[::-1]
        for col in tight[r]:
            if y[col] > i and seen[y[col]] != i:
                seen[y[col]], parent[y[col]] = i, r
                queue.append(y[col])
    return None


def _lex_smallest(costs: list[list[int]], x: list[int], y: list[int], v: list[int]) -> list[int]:
    """Rotate x into the lex-smallest perfect matching of the tight subgraph.

    Row i takes its smallest tight column j < x[i] whose holder reaches x[i] by
    an alternating path over the later rows, each row on that cycle taking the
    next one's column.  Rows that fail stay in ``seen`` for all of row i's
    candidates, so each row costs O(tight edges)."""
    tight = []
    for row, j in zip(costs, x):
        reduced = list(map(sub, row, v))
        tight.append([k for k, r in enumerate(reduced) if r == reduced[j]])
    seen = [-1] * len(x)
    for i, target in enumerate(x):  # x[i] as the earlier rows left it
        for j in tight[i]:
            if j >= target:
                break
            if y[j] > i and seen[y[j]] != i and (rows := _path_to(tight, y, seen, i, y[j], target)):
                for r, col in zip([i, *rows], [x[r] for r in rows] + [target]):
                    x[r], y[col] = col, r
                break
    return x


def solve_hungarian(matrix: UtilityMatrix, objective: Objective = Objective.MAXIMIZE) -> AssignmentResult:
    """Optimal assignment on a square rational matrix, exact for any rational
    entries (up to MAX_DENOMINATOR_BITS in the common denominator); ties are
    broken toward the lexicographically smallest matching image."""
    costs, den = _integer_costs(matrix, objective)
    image = _lex_smallest(costs, *_shortest_path_assignment(costs))
    total = Fraction(sum(map(list.__getitem__, costs, image)), den)
    return AssignmentResult(Matching(tuple(image)), total if objective is Objective.MINIMIZE else -total, objective)


def solve_bruteforce(matrix: UtilityMatrix, objective: Objective = Objective.MAXIMIZE) -> AssignmentResult:
    """Exact optimum by exhaustive enumeration; oracle for the Hungarian solver.

    Scans all n! images of the same integer costs in lexicographic order,
    keeping a candidate only on strict improvement, which yields the same
    lex-smallest tie-break as solve_hungarian without its tight subgraph.
    """
    n = matrix.n
    if n > ENUMERATION_CAP:
        raise SizeTooLarge(f"brute force refuses n={n} (cap is {ENUMERATION_CAP})")
    costs, _ = _integer_costs(matrix, objective)
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
