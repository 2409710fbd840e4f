import json
import math
import random
from fractions import Fraction
from itertools import permutations
from operator import sub
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames import (
    AssignmentResult,
    DenominatorTooLarge,
    DimensionMismatch,
    Matching,
    Objective,
    SizeTooLarge,
    UtilityMatrix,
    compare_assignments,
    matching_total,
    parse_market,
    solve_bruteforce,
    solve_hungarian,
)
from matchgames.assignment import _integer_costs, _lex_smallest, _shortest_path_assignment
from matchgames.core import MAX_DENOMINATOR_BITS
from matchgames.datasets import REPORTED_JOB_DISTRIBUTION, job_market

WORKER_EFFICIENCY = [[40, 20, 10], [15, 12, 8], [32, 30, 18]]
JOB_EFFICIENCY = [[9, 14, 21], [11, 7, 5], [8, 16, 25]]


def random_matrix(rng, n, low=0, high=100):
    return UtilityMatrix.from_rows([[rng.randint(low, high) for _ in range(n)] for _ in range(n)])


class TestWorkedExamples:
    def test_workers_problem(self):
        matrix = UtilityMatrix.from_rows(WORKER_EFFICIENCY)
        result = solve_hungarian(matrix, Objective.MAXIMIZE)
        assert result.total_value == 78  # 40 + 8 + 30
        assert result.matching == Matching((0, 2, 1))

    def test_workers_problem_bruteforce_agrees(self):
        matrix = UtilityMatrix.from_rows(WORKER_EFFICIENCY)
        result = solve_bruteforce(matrix, Objective.MAXIMIZE)
        assert result.total_value == 78
        assert result.matching == Matching((0, 2, 1))

    def test_jobs_problem_true_optimum_is_50(self):
        # The reference answer of 48 for this matrix is suboptimal; exhaustive
        # enumeration over all 6 permutations gives 14 + 11 + 25 = 50.
        matrix = UtilityMatrix.from_rows(JOB_EFFICIENCY)
        expected = max(
            sum(JOB_EFFICIENCY[i][j] for i, j in enumerate(image))
            for image in permutations(range(3))
        )
        assert expected == 50
        for solver in (solve_hungarian, solve_bruteforce):
            result = solver(matrix, Objective.MAXIMIZE)
            assert result.total_value == 50
            assert result.matching == Matching((1, 0, 2))

    def test_reported_job_distribution_totals_48(self):
        matrix = job_market().enterprise_utilities
        assert matching_total(matrix, REPORTED_JOB_DISTRIBUTION) == 48  # 21 + 11 + 16

    def test_total_of_a_matching_of_another_size_is_refused(self):
        with pytest.raises(DimensionMismatch, match=r"^matching of size 2 on a size-3 matrix$"):
            matching_total(job_market().enterprise_utilities, Matching((1, 0)))

    def test_identity_diagonal(self):
        matrix = UtilityMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        result = solve_hungarian(matrix, Objective.MAXIMIZE)
        assert result.total_value == 3
        assert result.matching == Matching(tuple(range(3)))

    def test_one_by_one(self):
        matrix = UtilityMatrix.from_rows([[5]])
        for solver in (solve_hungarian, solve_bruteforce):
            result = solver(matrix)
            assert result.total_value == 5
            assert result.matching == Matching((0,))


class TestOracleEquivalence:
    def test_random_integer_matrices(self):
        rng = random.Random(20240811)
        for trial in range(120):
            n = rng.randint(2, 7)
            matrix = random_matrix(rng, n)
            for objective in Objective:
                fast = solve_hungarian(matrix, objective)
                slow = solve_bruteforce(matrix, objective)
                assert fast.total_value == slow.total_value, (trial, objective)
                # both sides promise the lex-smallest optimal image
                assert fast.matching == slow.matching, (trial, objective)

    def test_rational_entries(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(2, 5)
            matrix = UtilityMatrix.from_rows(
                [[Fraction(rng.randint(0, 60), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
            )
            for objective in Objective:
                assert solve_hungarian(matrix, objective) == solve_bruteforce(matrix, objective)

    def test_negative_entries(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randint(2, 5)
            matrix = random_matrix(rng, n, low=-50, high=50)
            for objective in Objective:
                assert solve_hungarian(matrix, objective) == solve_bruteforce(matrix, objective)

    def test_tie_heavy_matrices_share_tie_break(self):
        # Tiny entry ranges force many optimal matchings; both solvers must
        # settle on the same lex-smallest image.
        rng = random.Random(4242)
        for _ in range(80):
            n = rng.randint(2, 6)
            matrix = random_matrix(rng, n, low=0, high=2)
            for objective in Objective:
                fast = solve_hungarian(matrix, objective)
                slow = solve_bruteforce(matrix, objective)
                assert fast.matching == slow.matching
                assert fast.total_value == slow.total_value


def _shifted(matrix, constant):
    """A copy of ``matrix`` with ``constant`` added to every entry."""
    return UtilityMatrix.from_rows([[v + constant for v in row] for row in matrix.entries])


class TestStructuralProperties:
    def test_objective_duality(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 6)
            matrix = random_matrix(rng, n)
            top = max(map(max, matrix.entries))
            reflected = UtilityMatrix.from_rows([[top - v for v in row] for row in matrix.entries])
            max_result = solve_hungarian(matrix, Objective.MAXIMIZE)
            min_result = solve_hungarian(reflected, Objective.MINIMIZE)
            assert max_result.total_value == n * top - min_result.total_value
            assert max_result.matching == min_result.matching

    def test_constant_shift_covariance(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 6)
            matrix = random_matrix(rng, n)
            shift = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
            base = solve_hungarian(matrix, Objective.MAXIMIZE)
            shifted = solve_hungarian(_shifted(matrix, shift), Objective.MAXIMIZE)
            assert shifted.total_value == base.total_value + n * shift
            assert shifted.matching == base.matching

    def test_returned_matching_is_bijection(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 7)
            result = solve_hungarian(random_matrix(rng, n))
            assert sorted(result.matching.image) == list(range(n))

    def test_total_matches_entries(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 6)
            matrix = random_matrix(rng, n)
            result = solve_hungarian(matrix)
            assert result.total_value == sum(
                matrix.entries[i][j] for i, j in enumerate(result.matching.image)
            )

    def test_tie_break_all_equal_entries(self):
        matrix = UtilityMatrix.from_rows([[7] * 4] * 4)
        for solver in (solve_hungarian, solve_bruteforce):
            assert solver(matrix).matching == Matching(tuple(range(4)))

    def test_bruteforce_cap(self):
        matrix = UtilityMatrix.from_rows([[0] * 9] * 9)
        with pytest.raises(SizeTooLarge):
            solve_bruteforce(matrix)


class TestCompareAssignments:
    def test_identical_assignments_agree(self):
        x = Matching((0, 2, 1))
        assert compare_assignments(x, x.inverse()) == ()

    def test_reference_mismatch_is_two_of_three(self):
        # x = [0,2,1] against the jobs-to-workers distribution [2,0,1]:
        # inverse([2,0,1]) = [1,2,0], so workers 0 and 2 disagree while
        # worker 1 is assigned enterprise 2 by both sides.
        x = Matching((0, 2, 1))
        y_on_jobs = Matching((2, 0, 1))
        assert compare_assignments(x, y_on_jobs) == (0, 2)

    def test_mismatch_against_true_optimum_is_total(self):
        x = Matching((0, 2, 1))
        y_on_jobs = Matching((1, 0, 2))
        assert compare_assignments(x, y_on_jobs) == (0, 1, 2)

    def test_single_worker(self):
        assert compare_assignments(Matching((0,)), Matching((0,))) == ()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            compare_assignments(Matching((0, 1)), Matching((0, 1, 2)))


# The Hungarian path solve_hungarian replaced, kept as its oracle: the
# O(n^3) method on costs perturbed toward the lex-smallest image.


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


def perturbed_hungarian(matrix: UtilityMatrix, objective: Objective) -> AssignmentResult:
    # To maximize, the costs are the negated scaled entries rather than the
    # maximum minus each; every matching's cost moves by the same n * maximum.
    image = _min_cost_assignment(_lex_perturbed(_integer_costs(matrix, objective)[0]))
    matching = Matching(tuple(image))
    return AssignmentResult(matching, matching_total(matrix, matching), objective)


CELLS = {
    "tie-heavy": lambda rng: rng.randint(0, 2),
    "negative": lambda rng: rng.randint(-50, 50),
    "p/q": lambda rng: Fraction(rng.randint(-30, 30), rng.randint(1, 6)),
}


class TestPerturbedHungarianOracle:
    """solve_hungarian against the perturbed O(n^3) method it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        kind=st.sampled_from(sorted(CELLS)),
        seed=st.integers(0, 2**32 - 1),
        objective=st.sampled_from(list(Objective)),
    )
    def test_random_matrices(self, n, kind, seed, objective):
        rng = random.Random(seed)
        matrix = UtilityMatrix.from_rows([[CELLS[kind](rng) for _ in range(n)] for _ in range(n)])
        assert solve_hungarian(matrix, objective) == perturbed_hungarian(matrix, objective)

    @pytest.mark.parametrize(
        "entry",
        [
            lambda i, j: 7,
            lambda i, j: int(i + j == 59),
            lambda i, j: int(j >= i),
            lambda i, j: i * j,
        ],
        ids=["all-equal", "anti-diagonal", "upper-triangular", "i*j"],
    )
    @pytest.mark.parametrize("objective", list(Objective))
    def test_structured_n60(self, entry, objective):
        matrix = UtilityMatrix.from_rows([[entry(i, j) for j in range(60)] for i in range(60)])
        assert solve_hungarian(matrix, objective) == perturbed_hungarian(matrix, objective)


# The per-cell scaling _integer_costs replaced, kept as its oracle: three
# passes over the cells' denominators, none of them per distinct object.
def old_integer_costs(matrix: UtilityMatrix, objective: Objective) -> tuple[list[list[int]], int]:
    den = 1
    for q in {v.denominator for row in matrix.entries for v in row}:
        den = math.lcm(den, q)
        if den.bit_length() > MAX_DENOMINATOR_BITS:
            raise DenominatorTooLarge(f"the entries' common denominator has more than {MAX_DENOMINATOR_BITS} bits")
    sign = -1 if objective is Objective.MAXIMIZE else 1
    factor = {q: sign * (den // q) for q in {v.denominator for row in matrix.entries for v in row}}
    return [[v.numerator * factor[v.denominator] for v in row] for row in matrix.entries], den


def cost_outcome(matrix: UtilityMatrix, objective: Objective, costs) -> Any:
    try:
        return costs(matrix, objective)
    except DenominatorTooLarge as exc:
        return f"DenominatorTooLarge: {exc}"


# Values with mixed and negative signs and denominators, as Fraction normalises them.
pool_values = st.lists(
    st.builds(Fraction, st.integers(-60, 60), st.integers(-12, 12).filter(bool)), min_size=1, max_size=10
)


@st.composite
def market_grids(draw):
    """A market's A and B as JSON writes them: ints and "p/q" literals, unnormalised "2/4" beside
    "1/2" among them, and in about one grid of three a decimal, which joins the literal memo."""
    n = draw(st.integers(1, 8))
    cell = st.one_of(
        st.integers(-20, 20),
        st.builds("{}/{}".format, st.integers(-20, 20), st.integers(1, 9)),
        st.sampled_from(["1/2", "2/4", "-3/6", "7", "0.5"]),
    )
    grids = [[[draw(cell) for _ in range(n)] for _ in range(n)] for _ in range(2)]
    for grid in grids:
        if draw(st.integers(0, 2)) == 0:
            grid[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.sampled_from([0.5, -2.25, 3.0]))
    return grids


class TestIntegerCostsOracle:
    """_integer_costs, which scales each distinct entry object once, against the per-cell scaling."""

    @settings(max_examples=150, deadline=None)
    @given(pool=pool_values, n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), objective=st.sampled_from(list(Objective)))
    def test_shared_and_distinct_objects(self, pool, n, seed, objective):
        rng = random.Random(seed)
        picks = [[rng.randrange(len(pool)) for _ in range(n)] for _ in range(n)]
        # One object per value, as parse_market shares them; a parsed market from "p/q" literals;
        # and equal but distinct objects, as from_rows makes them from fresh Fractions.
        shared = UtilityMatrix.from_rows([[pool[k] for k in row] for row in picks])
        literals = [[f"{pool[k].numerator}/{pool[k].denominator}" for k in row] for row in picks]
        labels = [f"x{i}" for i in range(n)]
        parsed = parse_market(json.dumps({"workers": labels, "enterprises": labels, "A": literals, "B": literals}))
        distinct = UtilityMatrix.from_rows([[Fraction(pool[k].numerator, pool[k].denominator) for k in row] for row in picks])
        for matrix in (shared, parsed.worker_utilities, parsed.enterprise_utilities, distinct):
            assert _integer_costs(matrix, objective) == old_integer_costs(matrix, objective)

    @settings(max_examples=150, deadline=None)
    @given(grids=market_grids(), objective=st.sampled_from(list(Objective)))
    def test_parsed_markets_and_replaced_entries(self, grids, objective):
        # parse_market hands each grid its distinct entry objects, one per literal ("2/4" and
        # "1/2" are two; a decimal 3.0 and the int 3 are one).  A matrix built from new entries must
        # derive its own: the old matrix's objects are not its entries, and a stale list would miss
        # them or their denominators.
        a, b = grids
        labels = [f"x{i}" for i in range(len(a))]
        market = parse_market(json.dumps({"workers": labels, "enterprises": labels, "A": a, "B": b}))
        for parsed in (market.worker_utilities, market.enterprise_utilities):
            shifted = UtilityMatrix(tuple(tuple(v + Fraction(1, 7) for v in row) for row in parsed.entries), parsed.row_labels, parsed.col_labels)
            transposed = UtilityMatrix(tuple(zip(*parsed.entries)), parsed.row_labels, parsed.col_labels)
            for matrix in (parsed, shifted, transposed):
                assert _integer_costs(matrix, objective) == old_integer_costs(matrix, objective)
                assert sorted(map(id, matrix._distinct)) == sorted({id(v) for row in matrix.entries for v in row})
            assert shifted == UtilityMatrix.from_rows(shifted.entries, parsed.row_labels, parsed.col_labels)

    @pytest.mark.parametrize("extra_bits", [-1, 0, 1, 2])
    @pytest.mark.parametrize("objective", list(Objective))
    def test_common_denominator_near_the_bound(self, extra_bits, objective):
        # lcm(3, 2**k) = 3 * 2**k has k + 2 bits: just under, at, and just over MAX_DENOMINATOR_BITS.
        k = MAX_DENOMINATOR_BITS - 2 + extra_bits
        big = Fraction(-5, 2**k)
        rows = [[big, Fraction(1, 3), 2], [Fraction(-7, 6), big, Fraction(1, 3)], [0, Fraction(5, 4), big]]
        for matrix in (UtilityMatrix.from_rows(rows), UtilityMatrix.from_rows([[Fraction(v) for v in row] for row in rows])):
            expected = cost_outcome(matrix, objective, old_integer_costs)
            assert cost_outcome(matrix, objective, _integer_costs) == expected
            assert isinstance(expected, str) == (extra_bits > 0)


# Dual certificates (complementary slackness): an optimality check in O(n^2)
# at any n, where the brute force stops at n = 8.  They prove the total, not
# the lex-smallest tie-break.
def certify(costs: list[list[int]], image: list[int], v: list[int]) -> None:
    """Assert that ``image`` is a minimum-cost perfect matching of ``costs``.

    With u_i = min_j (c_ij - v_j), every u_i + v_j <= c_ij, so no perfect
    matching costs less than sum(u) + sum(v); one whose every pair is tight,
    c_ij - v_j = u_i, costs exactly that.
    """
    assert sorted(image) == list(range(len(costs)))
    for row, j in zip(costs, image):
        assert row[j] - v[j] == min(map(sub, row, v))


def certify_solve(matrix: UtilityMatrix, objective: Objective) -> None:
    costs, _ = _integer_costs(matrix, objective)
    x, y, v = _shortest_path_assignment(costs)
    certify(costs, _lex_smallest(costs, x, y, v), v)


CERTIFIED = {
    "random": lambda rng, i, j: rng.randint(0, 99),
    "tie-heavy": lambda rng, i, j: rng.randint(0, 3),
    "i*j": lambda rng, i, j: i * j,
}


class TestDualCertificate:
    """solve_hungarian's matching, after the tie-break, is tight under its own column duals."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        kind=st.sampled_from(sorted(CERTIFIED)),
        rational=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        objective=st.sampled_from(list(Objective)),
    )
    def test_random_matrices(self, n, kind, rational, seed, objective):
        rng = random.Random(seed)
        cell = CERTIFIED[kind]
        rows = [[cell(rng, i, j) for j in range(n)] for i in range(n)]
        if rational:  # "p/q" cells over small denominators
            rows = [[Fraction(value, rng.randint(1, 3)) for value in row] for row in rows]
        certify_solve(UtilityMatrix.from_rows(rows), objective)

    def test_refuses_a_matching_that_is_not_optimal(self):
        costs, _ = _integer_costs(UtilityMatrix.from_rows(WORKER_EFFICIENCY), Objective.MAXIMIZE)
        x, y, v = _shortest_path_assignment(costs)
        with pytest.raises(AssertionError):
            certify(costs, [0, 1, 2], v)  # 40 + 12 + 18 = 70, below the optimum 78

    # i*j at n = 300 is the slowest solve (about 2 s to minimize), so it runs once.
    @pytest.mark.parametrize(
        ("n", "kind", "objective"),
        [
            (n, kind, objective)
            for n in (200, 300)
            for kind in sorted(CERTIFIED)
            for objective in Objective
            if (n, kind, objective) != (300, "i*j", Objective.MINIMIZE)
        ],
    )
    def test_large_matrices(self, n, kind, objective):
        rng = random.Random(n)
        certify_solve(UtilityMatrix.from_rows([[CERTIFIED[kind](rng, i, j) for j in range(n)] for i in range(n)]), objective)
