"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain JSON-ready data,
so the program under test only ever sees files.  Pure Python on purpose: the
workload process must not load numpy before its peak memory is read.

Game markets are built backwards from the answer.  For worker i the
``edge regret`` of pairing it with enterprise j is
max(maxA_i - A[i][j], maxB_i - B[j][i]); a situation's maximum regret is the
largest edge regret it uses.  Edges inside a block get regret exactly T and
all other edges more than T, so the optimal regret is T and the compromise
members are exactly the matchings inside the blocks: their count is the
product of the block-size factorials whatever the seed.  Negative payoffs are
placed only in A and only on a fixed pattern of cells, and B stays
nonnegative, so the set of Nash equilibria (matchings avoiding every negative
cell) has a size fixed by the pattern as well.
"""

from __future__ import annotations

import math
import random

# Exponent whose value has more digits than Python's default int->str limit
# (4300 digits); kept fixed so the failing request does not depend on a seed.
HUGE_CELL = "1e5000"


def labels(prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(n)]


def market_doc(a: list[list], b: list[list]) -> dict:
    n = len(a)
    return {"workers": labels("w", n), "enterprises": labels("e", n), "A": a, "B": b}


def int_cell(rng: random.Random, lo: int, hi: int):
    return lambda: rng.randint(lo, hi)


def rational_cell(rng: random.Random):
    # Denominators 1..12 keep the common denominator at lcm(1..12) = 27720
    # on any seed once the matrix is large, so solve cost does not drift.
    return lambda: f"{rng.randint(-100, 100)}/{rng.randint(1, 12)}"


def random_market(n: int, cell) -> dict:
    a = [[cell() for _ in range(n)] for _ in range(n)]
    b = [[cell() for _ in range(n)] for _ in range(n)]
    return market_doc(a, b)


def block_members(blocks: tuple[int, ...]) -> int:
    """Compromise-member count of a market built from these blocks."""
    return math.prod(math.factorial(size) for size in blocks)


def game_market(
    rng: random.Random,
    blocks: tuple[int, ...],
    negative: frozenset[tuple[int, int]] = frozenset(),
    span: int = 20,
) -> dict:
    """A game market with a known compromise set and equilibrium set.

    ``blocks`` partitions workers 0..n-1 into consecutive runs; worker i's
    block partners are the enterprises of the same run, relabelled by a
    seeded permutation.  ``negative`` lists (worker, canonical enterprise)
    cells whose A payoff is made negative; they must lie outside the blocks.
    """
    n = sum(blocks)
    block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
    relabel = list(range(n))
    rng.shuffle(relabel)
    threshold = rng.randint(3, 9)
    a_grid = [[0] * n for _ in range(n)]
    b_grid = [[0] * n for _ in range(n)]
    for i in range(n):
        neg_cols = {j for (w, j) in negative if w == i}
        if any(block_of[j] == block_of[i] for j in neg_cols):
            raise ValueError(f"negative cell of worker {i} lies inside its block")
        max_a = rng.randint(threshold, threshold + span)
        max_b = rng.randint(threshold + 2 * span, threshold + 3 * span)
        # A reaches its row maximum off-block (regret carried by B) and B its
        # column maximum on the worker's own diagonal (regret carried by A).
        col_a = rng.choice([j for j in range(n) if j != i and j not in neg_cols])
        for j in range(n):
            in_block = block_of[j] == block_of[i]
            if j in neg_cols:
                regret = rng.randint(max_a + 1, max_a + span)
                ra, rb = regret, rng.randint(0, regret)
            elif in_block:
                if j == i:
                    ra, rb = threshold, 0
                elif j == col_a:
                    ra, rb = 0, threshold
                elif rng.random() < 0.5:
                    ra, rb = threshold, rng.randint(0, threshold)
                else:
                    ra, rb = rng.randint(0, threshold), threshold
            else:
                regret = threshold + rng.randint(1, span)
                ra = 0 if j == col_a else rng.randint(0, min(regret, max_a))
                rb = regret
            col = relabel[j]
            a_grid[i][col] = max_a - ra
            b_grid[col][i] = max_b - rb
    return market_doc(a_grid, b_grid)


def coordination_game(rng: random.Random) -> dict:
    """A 2x2 game whose maximin threat point lies inside the feasible hull.

    Two coordinated outcomes favour one player each and the miscoordinated
    ones pay (c1, c2); shifting a player's payoffs by a constant shifts the
    threat point and the hull alike, so any shift keeps the point inside.
    """
    hi1, lo1 = sorted(rng.sample(range(2, 40), 2), reverse=True)
    lo2, hi2 = sorted(rng.sample(range(2, 40), 2))
    den = rng.randint(1, 6)
    c1, c2 = rng.randint(-10, 10), rng.randint(-10, 10)

    def pair(k1: int, k2: int) -> list[str]:
        return [f"{k1 + c1 * den}/{den}", f"{k2 + c2 * den}/{den}"]

    return {
        "row_labels": ["r1", "r2"],
        "col_labels": ["c1", "c2"],
        "payoffs": [[pair(hi1, lo2), pair(0, 0)], [pair(0, 0), pair(lo1, hi2)]],
    }


def random_bimatrix(rng: random.Random, rows: int, cols: int) -> tuple[dict, tuple[str, str]]:
    """A random game and an interior disagreement point: the outcome centroid.

    Payoffs are nonnegative so the centroid is too: the CLI cannot take a
    negative "p/q" coordinate after --disagreement.
    """
    payoffs = [[[rng.randint(0, 40), rng.randint(0, 40)] for _ in range(cols)] for _ in range(rows)]
    count = rows * cols
    d1 = sum(p[0] for row in payoffs for p in row)
    d2 = sum(p[1] for row in payoffs for p in row)
    doc = {"row_labels": labels("r", rows), "col_labels": labels("c", cols), "payoffs": payoffs}
    return doc, (f"{d1}/{count}", f"{d2}/{count}")


def huge_market() -> dict:
    """A fixed 3x3 market with one cell too large to print as an int."""
    a = [[HUGE_CELL, 2, 3], [4, 5, 6], [7, 8, 9]]
    b = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    return market_doc(a, b)
