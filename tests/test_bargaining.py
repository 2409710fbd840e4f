import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames import (
    BimatrixGame,
    DisagreementOutsideHull,
    DisagreementPoint,
    MatchGamesError,
    MixedStrategy,
    NotTwoByTwo,
    Player,
    bargain,
    feasible_hull,
    hull_contains,
    maximin_2x2,
    nash_solution,
    pareto_frontier,
)
from matchgames.bargaining import _hull
from matchgames.core import MAX_DENOMINATOR_BITS
from matchgames.datasets import union_game

F = Fraction


def _swap_players(game):
    """The game with the players exchanged: the grid transposed and each payoff pair swapped."""
    return BimatrixGame(payoffs=tuple(tuple((k2, k1) for k1, k2 in column) for column in zip(*game.payoffs)))


def random_game(rng, low=-9, high=9):
    return BimatrixGame.from_rows(
        [
            [(rng.randint(low, high), rng.randint(low, high)) for _ in range(2)]
            for _ in range(2)
        ]
    )


def grid_guarantee(game, player, weight, steps=100):
    """Worst-case payoff of a mixed strategy, for the maximin grid oracle."""
    if player is Player.ONE:
        lines = [
            [game.payoffs[r][c][0] for r in range(2)] for c in range(2)
        ]  # per opponent column: payoffs of (row0, row1)
    else:
        lines = [[game.payoffs[r][c][1] for c in range(2)] for r in range(2)]
    return min(weight * a + (1 - weight) * b for a, b in lines)


class TestMaximin:
    def test_reference_player_one(self, union_game):
        strategy, value = maximin_2x2(union_game, Player.ONE)
        assert strategy == MixedStrategy((F(1, 4), F(3, 4)))
        assert value == F(3, 2)

    def test_reference_player_two(self, union_game):
        strategy, value = maximin_2x2(union_game, Player.TWO)
        assert strategy == MixedStrategy((F(3, 4), F(1, 4)))
        assert value == F(3, 2)

    def test_dominant_row_gives_pure_strategy(self):
        game = BimatrixGame.from_rows([[(5, 0), (4, 0)], [(3, 0), (2, 0)]])
        strategy, value = maximin_2x2(game, Player.ONE)
        assert strategy == MixedStrategy((F(1), F(0)))
        assert value == 4  # min of the dominating row

    def test_saddle_preferred_over_tying_interior(self):
        game = BimatrixGame.from_rows([[(1, 0), (1, 0)], [(1, 0), (1, 0)]])
        strategy, value = maximin_2x2(game, Player.ONE)
        assert strategy == MixedStrategy((F(1), F(0)))
        assert value == 1

    @pytest.mark.parametrize(
        ("weights", "text"),
        [
            ((F(-1, 2), F(3, 2)), "negative weight in (-1/2, 3/2)"),  # sums to 1, so only the sign check refuses it
            ((F(1, 3), F(1, 3)), "weights (1/3, 1/3) do not sum to 1"),
            # Past the default int-digit limit: named by size, so building the message converts no long int.
            ((F(10**5000 + 1, 10**5000), F(-1, 10**5000)), "negative weight in (a rational of 33220 bits, a rational of 16611 bits)"),
            ((F(1, 10**5000), F(1, 2)), "weights (a rational of 16611 bits, 1/2) do not sum to 1"),
        ],
    )
    def test_refused_weights_are_named_as_numbers(self, weights, text):
        with pytest.raises(MatchGamesError) as info:
            MixedStrategy(weights)
        assert str(info.value) == text

    def test_not_two_by_two(self):
        game = BimatrixGame.from_rows([[(1, 1), (2, 2), (3, 3)]])
        with pytest.raises(NotTwoByTwo):
            maximin_2x2(game, Player.ONE)
        with pytest.raises(NotTwoByTwo):
            bargain(game)

    def test_grid_oracle(self):
        rng = random.Random(11)
        steps = 100
        for _ in range(40):
            game = random_game(rng)
            span = max(
                abs(pair[i]) for row in game.payoffs for pair in row for i in (0, 1)
            ) * 2
            for player in Player:
                _, value = maximin_2x2(game, player)
                grid = [grid_guarantee(game, player, F(k, steps)) for k in range(steps + 1)]
                assert value >= max(grid)
                # guarantee is piecewise linear with slopes bounded by the
                # payoff span, so the true optimum is within span/(2*steps)
                # of the best grid point
                assert value <= max(grid) + F(span, 2 * steps)


class TestFeasibleHull:
    def test_reference_triangle(self, union_game):
        assert feasible_hull(union_game) == [(0, 0), (6, 2), (2, 6)]

    def test_single_outcome(self):
        game = BimatrixGame.from_rows([[(1, 1)]])
        assert feasible_hull(game) == [(1, 1)]

    def test_unit_square(self):
        game = BimatrixGame.from_rows([[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
        assert feasible_hull(game) == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_collinear_outcomes_reduce_to_segment(self):
        game = BimatrixGame.from_rows([[(0, 2), (1, 1)], [(1, 1), (2, 0)]])
        assert feasible_hull(game) == [(0, 2), (2, 0)]

    def test_hull_validity_random(self):
        rng = random.Random(12)
        for _ in range(60):
            game = random_game(rng)
            hull = feasible_hull(game)
            points = [pair for row in game.payoffs for pair in row]
            assert set(hull) <= set(points)
            for p in points:
                assert hull_contains(hull, p)


class TestParetoFrontier:
    def test_reference_segment(self, union_game):
        hull = feasible_hull(union_game)
        assert pareto_frontier(hull) == [((2, 6), (6, 2))]

    def test_single_point(self):
        assert pareto_frontier([(3, 3)]) == [((3, 3), (3, 3))]

    def test_unit_square_collapses_to_corner(self):
        game = BimatrixGame.from_rows([[(0, 0), (1, 0)], [(0, 1), (1, 1)]])
        assert pareto_frontier(feasible_hull(game)) == [((1, 1), (1, 1))]

    def test_ordered_from_high_k2_to_high_k1(self):
        game = BimatrixGame.from_rows([[(0, 4), (3, 3)], [(4, 0), (0, 0)]])
        frontier = pareto_frontier(feasible_hull(game))
        assert frontier == [((0, 4), (3, 3)), ((3, 3), (4, 0))]

    def _dominated_by_frontier(self, frontier, point):
        for start, end in frontier:
            b1, b2 = end[0] - start[0], end[1] - start[1]
            if (b1, b2) == (0, 0):
                if start != point and start[0] >= point[0] and start[1] >= point[1]:
                    return True
                continue
            # need t in [0,1] with start + t*b >= point coordinatewise
            lo = F(0) if start[0] >= point[0] else (point[0] - start[0]) / b1
            hi = F(1) if end[1] >= point[1] else (point[1] - start[1]) / b2
            if lo <= min(hi, 1) and lo <= 1:
                candidate = (start[0] + lo * b1, start[1] + lo * b2)
                if candidate != point:
                    return True
        return False

    def test_soundness_random(self):
        rng = random.Random(13)
        for _ in range(60):
            game = random_game(rng)
            hull = feasible_hull(game)
            frontier = pareto_frontier(hull)
            frontier_points = {p for segment in frontier for p in segment}
            for p in frontier_points:
                # no hull vertex strictly improves both coordinates
                assert not any(q[0] > p[0] and q[1] > p[1] for q in hull)
            for v in hull:
                if v not in frontier_points:
                    assert self._dominated_by_frontier(frontier, v)


class TestNashSolution:
    def test_reference_arbitration(self, union_game):
        d = DisagreementPoint(v1=F(3, 2), v2=F(3, 2))
        outcome = nash_solution(union_game, d)
        assert outcome.solution == (4, 4)
        assert outcome.nash_product == F(25, 4)

    def test_symmetric_game_symmetric_solution(self):
        game = BimatrixGame.from_rows([[(8, 8), (1, 3)], [(3, 1), (0, 0)]])
        outcome = bargain(game)
        assert outcome.solution[0] == outcome.solution[1]

    def test_disagreement_on_frontier_returns_itself(self):
        game = BimatrixGame.from_rows([[(0, 2), (1, 1)], [(1, 1), (2, 0)]])
        outcome = nash_solution(game, DisagreementPoint(v1=F(1), v2=F(1)))
        assert outcome.solution == (1, 1)
        assert outcome.nash_product == 0

    def test_disagreement_outside_hull_rejected(self, union_game):
        with pytest.raises(DisagreementOutsideHull):
            nash_solution(union_game, DisagreementPoint(v1=F(10), v2=F(10)))

    @pytest.mark.parametrize(
        ("v1", "text"),
        [
            (F(3, 2), "3/2"),
            (F(-(2**60), 2**61 - 1), "-1152921504606846976/2305843009213693951"),  # 122 bits, 40 characters
            (F(-(2**61), 2**61 - 1), "a rational of 123 bits"),
            (F(2**121 - 1), "2658455991569831745807614120560689151"),
            (F(2**122), "a rational of 124 bits"),  # 37 characters, but the bits alone decide
            (F(10**5000), "a rational of 16611 bits"),  # past the default int-digit limit
        ],
    )
    def test_infeasible_disagreement_names_a_long_coordinate_by_its_size(self, union_game, v1, text):
        with pytest.raises(DisagreementOutsideHull) as info:
            nash_solution(union_game, DisagreementPoint(v1=v1, v2=F(-99)))
        assert str(info.value) == f"disagreement ({text}, -99) is not a feasible payoff vector"

    def test_maximin_point_can_be_infeasible(self):
        # The two maximin values need not be jointly feasible; the pipeline
        # reports that instead of arbitrating from an unreachable threat.
        game = BimatrixGame.from_rows([[(0, -1), (2, 2)], [(-2, -2), (1, 2)]])
        _, v1 = maximin_2x2(game, Player.ONE)
        _, v2 = maximin_2x2(game, Player.TWO)
        assert (v1, v2) == (0, 2)
        assert not hull_contains(feasible_hull(game), (v1, v2))
        with pytest.raises(DisagreementOutsideHull):
            bargain(game)


class TestBargain:
    def test_reference_pipeline(self, union_game):
        outcome = bargain(union_game)
        assert outcome.disagreement.point == (F(3, 2), F(3, 2))
        assert outcome.disagreement.x0 == MixedStrategy((F(1, 4), F(3, 4)))
        assert outcome.disagreement.y0 == MixedStrategy((F(3, 4), F(1, 4)))
        assert outcome.solution == (4, 4)

    def test_constant_game(self):
        game = BimatrixGame.from_rows([[(3, 3), (3, 3)], [(3, 3), (3, 3)]])
        outcome = bargain(game)
        assert outcome.solution == (3, 3)
        assert outcome.nash_product == 0

    def test_two_corner_game(self):
        game = BimatrixGame.from_rows([[(1, 0), (0, 0)], [(0, 0), (0, 1)]])
        outcome = bargain(game)
        assert outcome.disagreement.point == (0, 0)
        assert outcome.solution == (F(1, 2), F(1, 2))

    def _sample_frontier_products(self, outcome, steps=1000):
        d1, d2 = outcome.disagreement.point
        for start, end in outcome.pareto_frontier:
            for k in range(steps + 1):
                t = F(k, steps)
                v1 = start[0] + t * (end[0] - start[0])
                v2 = start[1] + t * (end[1] - start[1])
                if v1 >= d1 and v2 >= d2:
                    yield (v1 - d1) * (v2 - d2)

    def test_grid_product_oracle_reference(self, union_game):
        outcome = bargain(union_game)
        assert all(outcome.nash_product >= p for p in self._sample_frontier_products(outcome))

    def test_axioms_random_games(self):
        rng = random.Random(14)
        checked = 0
        while checked < 20:
            game = random_game(rng)
            try:
                outcome = bargain(game)
            except DisagreementOutsideHull:
                continue  # maximin threat point infeasible; pipeline not applicable
            checked += 1

            # symmetry: exchanging the players swaps the solution coordinates
            swapped = bargain(_swap_players(game))
            assert swapped.solution == (outcome.solution[1], outcome.solution[0])

            # positive affine covariance on player 1's payoffs
            lam, mu = F(rng.randint(1, 5)), F(rng.randint(-5, 5))
            transformed = BimatrixGame(
                payoffs=tuple(
                    tuple((lam * k1 + mu, k2) for k1, k2 in row) for row in game.payoffs
                )
            )
            scaled = bargain(transformed)
            assert scaled.solution == (
                lam * outcome.solution[0] + mu,
                outcome.solution[1],
            )

            # Pareto membership: the solution sits on some frontier segment
            assert self._on_frontier(outcome)

            # grid oracle at step 1/1000
            assert all(
                outcome.nash_product >= p
                for p in self._sample_frontier_products(outcome)
            )

    def _on_frontier(self, outcome):
        x, y = outcome.solution
        for (sx, sy), (ex, ey) in outcome.pareto_frontier:
            cross = (ex - sx) * (y - sy) - (ey - sy) * (x - sx)
            within = min(sx, ex) <= x <= max(sx, ex) and min(sy, ey) <= y <= max(sy, ey)
            if cross == 0 and within:
                return True
        return False


# The point-in-polygon test and the clipped-range segment maximizer that
# hull_contains and nash_solution used before they worked from the hull alone,
# and the hull on Fraction coordinates that _hull replaced, kept verbatim as oracles.
def _cross(origin, a, b):
    return (a[0] - origin[0]) * (b[1] - origin[1]) - (a[1] - origin[1]) * (b[0] - origin[0])


def old_hull(points):
    """Convex hull by monotone chain, counterclockwise from the
    lexicographically smallest vertex, collinear points removed."""
    points = sorted(set(points))
    if len(points) <= 2:
        return points
    hull = []
    for run in (points, points[::-1]):  # the lower chain, then the upper one
        chain = []
        for p in run:
            while len(chain) > 1 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull


def old_hull_contains(hull, point):
    """Exact point-in-convex-polygon test; boundary points count as inside."""
    verts = list(hull)
    if len(verts) == 1:
        return point == verts[0]
    if len(verts) == 2:
        a, b = verts
        if _cross(a, b, point) != 0:
            return False
        return (
            min(a[0], b[0]) <= point[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= point[1] <= max(a[1], b[1])
        )
    return all(
        _cross(verts[i], verts[(i + 1) % len(verts)], point) >= 0 for i in range(len(verts))
    )


def old_segment_best(start, end, disagreement):
    """Maximum Nash product on one frontier segment clipped to payoffs >= d."""
    d1, d2 = disagreement
    p1, p2 = start
    b1 = end[0] - p1
    b2 = end[1] - p2
    if b1 == 0 and b2 == 0:
        if p1 >= d1 and p2 >= d2:
            return (p1 - d1) * (p2 - d2), start
        return None
    assert b1 > 0 > b2, "frontier segment is not strictly northeast-oriented"
    lo = max(Fraction(0), (d1 - p1) / b1) if p1 < d1 else Fraction(0)
    hi = min(Fraction(1), (d2 - p2) / b2) if end[1] < d2 else Fraction(1)
    if lo > hi:
        return None
    a1 = p1 - d1
    a2 = p2 - d2

    def product_at(t):
        return (a1 + t * b1) * (a2 + t * b2)

    candidates = [lo, hi]
    vertex = -(b1 * a2 + a1 * b2) / (2 * b1 * b2)
    if lo < vertex < hi:
        candidates.append(vertex)
    best_t = max(candidates, key=product_at)
    return product_at(best_t), (p1 + best_t * b1, p2 + best_t * b2)


def old_nash_solution(game, point):
    """(frontier, product, solution) by the old search; None where d is outside the hull."""
    hull = feasible_hull(game)
    if not old_hull_contains(hull, point):
        return None
    frontier = pareto_frontier(hull)
    best = None
    for start, end in frontier:
        candidate = old_segment_best(start, end, point)
        if candidate is not None and (best is None or candidate[0] > best[0]):
            best = candidate
    assert best is not None, "the old search found no point dominating a feasible d"
    return tuple(frontier), *best


rationals = st.fractions(-6, 6, max_denominator=3)
points = st.tuples(rationals, rationals)


@st.composite
def exact_games(draw, shapes=("free", "collinear", "repeated")):
    """A 1x1 to 3x3 game with exact rational payoffs: free, all on one line, or a few repeated points."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = draw(st.sampled_from(shapes))
    if shape == "collinear":
        (x, y), (dx, dy) = draw(points), draw(points)
        cell = st.builds(lambda k: (x + k * dx, y + k * dy), rationals)
    elif shape == "repeated":
        cell = st.sampled_from(draw(st.lists(points, min_size=1, max_size=2)))
    else:
        cell = points
    grid = st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    return BimatrixGame.from_rows(draw(grid))


def convex_combination(draw, pts, least_weight):
    weights = draw(st.lists(st.integers(least_weight, 4), min_size=len(pts), max_size=len(pts)).filter(any))
    return tuple(sum(w * p[i] for w, p in zip(weights, pts)) / sum(weights) for i in (0, 1))


@st.composite
def game_and_disagreement(draw, where):
    """A game and a d placed on a vertex, on an edge, on the line through an
    edge beyond its ends, strictly inside, near the boundary, or anywhere."""
    game = draw(exact_games(("collinear",) if where == "extension" else ("free", "collinear", "repeated")))
    hull = feasible_hull(game)
    i = draw(st.integers(0, len(hull) - 1))
    a, b = hull[i], hull[(i + 1) % len(hull)]
    t = draw({
        "vertex": st.just(Fraction(0)),
        "extension": st.fractions(-2, Fraction(-1, 7), max_denominator=7)
        | st.fractions(Fraction(8, 7), 3, max_denominator=7),
    }.get(where, st.fractions(0, 1, max_denominator=7)))
    d = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    if where == "inside":
        d = convex_combination(draw, [pair for row in game.payoffs for pair in row], least_weight=1)
    elif where == "near":
        nudge = st.sampled_from([Fraction(-1, 50), Fraction(0), Fraction(1, 50)])
        d = (d[0] + draw(nudge), d[1] + draw(nudge))
    elif where == "anywhere":
        d = draw(points)
    return game, d


class TestAgainstOldSearch:
    """hull_contains and nash_solution against the search they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(game=exact_games(), extra=st.lists(points, max_size=3))
    def test_integer_hull_matches_fraction_hull(self, game, extra):
        # Same vertices, in the same order, as the same objects that were given.
        given = [pair for row in game.payoffs for pair in row] + extra
        hull = _hull(given)
        assert hull == old_hull(given)
        assert all(any(v is p for p in given) for v in hull)

    @pytest.mark.parametrize("extra_bits", [-1, 0, 1, 2])
    def test_common_denominator_near_the_bound(self, extra_bits):
        # lcm(3, 2**k) = 3 * 2**k has k + 2 bits: just under, at, and just over the assignment
        # solvers' MAX_DENOMINATOR_BITS, which the hull, forming no common denominator, does not have.
        k = MAX_DENOMINATOR_BITS - 2 + extra_bits
        big = F(-5, 2**k)
        given = [(big, F(1, 3)), (F(2), big), (F(-7, 6), F(5, 4)), (F(1, 3), F(2)), (big, big), (F(1, 3), F(1, 3))]
        hull = _hull(given)
        assert hull == old_hull(given) and len(hull) == 4

    @pytest.mark.parametrize("shared", ["within a point", "across points", "by none"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_long_denominators_match_the_fraction_search(self, shared, data):
        # Up to nine points in [-2, 2]^2 whose denominators run to about 10**40: one per point for
        # both coordinates, three shared by all points, or one per coordinate; then midpoints of
        # some pairs, which sit on an edge or inside.
        longs = st.integers(1, 10**40)
        count = data.draw(st.integers(1, 9))
        if shared == "within a point":
            dens = [(q, q) for q in data.draw(st.lists(longs, min_size=count, max_size=count))]
        elif shared == "across points":
            pool = st.sampled_from(data.draw(st.lists(longs, min_size=3, max_size=3)))
            dens = [(data.draw(pool), data.draw(pool)) for _ in range(count)]
        else:
            dens = [(data.draw(longs), data.draw(longs)) for _ in range(count)]
        given = [tuple(F(data.draw(st.integers(-2 * q, 2 * q)), q) for q in pair) for pair in dens]
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(given), st.sampled_from(given)), max_size=3))
        given += [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in pairs]
        a, b = data.draw(st.sampled_from(given)), data.draw(st.sampled_from(given))
        mid = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
        self.assert_same_as_old_search(given, [a, mid, (mid[0], mid[1] + F(1, data.draw(longs)))])

    def test_long_distinct_denominators_match_the_fraction_search(self):
        # The 8x8 game of 128 payoffs "k/q", q distinct odd 991-digit numbers, that test_cli.py
        # arbitrates; the old bound refused it.
        cells = iter(F(k, 10**990 + 2 * k - 1) for k in range(1, 129))
        given = [(next(cells), next(cells)) for _ in range(64)]
        first = given[0]
        self.assert_same_as_old_search(given, [first, (first[0], first[1] - F(1, 10**990)), (F(0), F(0))])

    def test_shared_long_denominator_matches_the_fraction_search(self):
        # An 8x8 game of the 1000-character decimals "±m e-999", m of 994 digits and prime to 10, so
        # every coordinate has the denominator 10**999: the points share one w, which _hull divides out.
        # Each is built as ±m / 10**999, not read from its text, so no long int is converted.
        rng = random.Random(17)
        signs_and_ms = ((rng.choice((1, -1)), 10 * rng.randrange(10**992, 10**993) + rng.choice((1, 3, 7, 9))) for _ in range(128))
        cells = iter(F(sign * m, 10**999) for sign, m in signs_and_ms)
        given = [(next(cells), next(cells)) for _ in range(64)]
        assert {c.denominator for point in given for c in point} == {10**999}
        first = given[0]
        self.assert_same_as_old_search(given, [first, (first[0], first[1] - F(1, 10**999)), (F(0), F(0))])

    @staticmethod
    def assert_same_as_old_search(given, disagreements):
        hull = _hull(given)
        assert hull == old_hull(given)
        assert all(any(v is p for p in given) for v in hull)
        game = BimatrixGame(payoffs=(tuple(given),))
        for d in disagreements:
            assert hull_contains(hull, d) == old_hull_contains(hull, d)
            expected = old_nash_solution(game, d)
            if expected is None:
                with pytest.raises(DisagreementOutsideHull):
                    nash_solution(game, DisagreementPoint(*d))
            else:
                outcome = nash_solution(game, DisagreementPoint(*d))
                assert (outcome.pareto_frontier, outcome.nash_product, outcome.solution) == expected

    @pytest.mark.parametrize("where", ["vertex", "edge", "extension", "inside", "near", "anywhere"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_containment_and_solution(self, where, data):
        game, d = data.draw(game_and_disagreement(where))
        hull = feasible_hull(game)
        assert hull_contains(hull, d) == old_hull_contains(hull, d)
        expected = old_nash_solution(game, d)
        if expected is None:
            with pytest.raises(DisagreementOutsideHull):
                nash_solution(game, DisagreementPoint(*d))
            return
        outcome = nash_solution(game, DisagreementPoint(*d))
        assert (outcome.pareto_frontier, outcome.nash_product, outcome.solution) == expected

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_every_feasible_disagreement_is_arbitrated(self, data):
        # Why nash_solution needs no error for an empty individually rational
        # region: a feasible d is always weakly dominated by a frontier point.
        game = data.draw(exact_games())
        d = convex_combination(data.draw, [pair for row in game.payoffs for pair in row], least_weight=0)
        outcome = nash_solution(game, DisagreementPoint(*d))
        assert outcome.solution[0] >= d[0] and outcome.solution[1] >= d[1]
        assert outcome.nash_product >= 0


# The maximin that maximin_2x2 replaced by one closed form, kept verbatim as its oracle: a
# transposed table for player two, and both opponent lines evaluated at the crossing.
def old_maximin_own_rows(own: list[list[Fraction]]) -> tuple[Fraction, Fraction]:
    """Maximin over a 2x2 payoff table oriented so the player picks rows.

    Returns (weight on row 0, guaranteed value).  The guaranteed value
    min(L1(x), L2(x)) is piecewise-linear concave, so the maximum sits at a
    pure strategy or at the crossing of the two opponent-column lines; a pure
    optimum is preferred when it ties the interior candidate.
    """
    (k11, k12), (k21, k22) = own
    candidates = [
        (Fraction(1), min(k11, k12)),  # pure row 0
        (Fraction(0), min(k21, k22)),  # pure row 1
    ]
    # max() keeps the first maximum, so pure row 0 wins ties.
    best_weight, best_value = max(candidates, key=lambda c: c[1])
    denominator = k11 - k12 - k21 + k22
    if denominator != 0:
        crossing = Fraction(k22 - k21, 1) / denominator
        if 0 < crossing < 1:
            value = min(
                crossing * k11 + (1 - crossing) * k21,
                crossing * k12 + (1 - crossing) * k22,
            )
            if value > best_value:
                best_weight, best_value = crossing, value
    return best_weight, best_value


def old_maximin_2x2(game: BimatrixGame, player: Player) -> tuple[MixedStrategy, Fraction]:
    """Mixed maximin strategy and guaranteed value for one player of a 2x2 game."""
    if game.rows != 2 or game.cols != 2:
        raise NotTwoByTwo(f"maximin needs a 2x2 game, got {game.rows}x{game.cols}")
    if player is Player.ONE:
        own = [[game.payoffs[r][c][0] for c in range(2)] for r in range(2)]
    else:
        # Player Two picks columns; transpose so the chooser indexes rows.
        own = [[game.payoffs[r][c][1] for r in range(2)] for c in range(2)]
    weight, value = old_maximin_own_rows(own)
    return MixedStrategy((weight, 1 - weight)), value


# The chooser's own payoffs a, b (first strategy against the opponent's two) and c, d (second),
# bent into the ties the closed form must break as the old code did.  The crossing sits at
# x = (d - c)/D, D = a - b - c + d: d = c puts it at 0, and a = b (so D = d - c) at 1.
TIES = {
    "free": lambda a, b, c, d: (a, b, c, d),
    "equal rows": lambda a, b, c, d: (a, b, a, b),
    "equal columns": lambda a, b, c, d: (a, a, c, c),
    "D = 0": lambda a, b, c, d: (a, b, c, b + c - a),
    "crossing at 0": lambda a, b, c, d: (a, b, c, c),
    "crossing at 1": lambda a, b, c, d: (a, a, c, d),
    # The first line is flat at a = min(a, b), so the crossing, wherever it is, is worth the pure value.
    "crossing worth the pure value": lambda a, b, c, d: (a, max(a, b), a, d),
}
MAXIMIN_CELLS = {
    "int": st.integers(-4, 4),
    "p/q": st.fractions(-4, 4, max_denominator=3),
    "raw int": st.integers(-4, 4),
    "raw mixed": st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=3),
}


def game_with_own_payoffs(player, own, other, raw):
    """The 2x2 game where ``player`` gets own = (a, b, c, d) as maximin_2x2 reads them and the opponent ``other``."""
    a, b, c, d = own
    grid = [[a, b], [c, d]] if player is Player.ONE else [[a, c], [b, d]]
    others = iter(other)
    rows = [[(k, next(others)) if player is Player.ONE else (next(others), k) for k in row] for row in grid]
    return BimatrixGame(tuple(map(tuple, rows))) if raw else BimatrixGame.from_rows(rows)


@st.composite
def maximin_games(draw):
    """A 2x2 game of int, p/q, raw int or raw mixed cells, one player's own payoffs bent into a tie shape."""
    kind = draw(st.sampled_from(sorted(MAXIMIN_CELLS)))
    cells = st.tuples(*[MAXIMIN_CELLS[kind]] * 4)
    own = TIES[draw(st.sampled_from(sorted(TIES)))](*draw(cells))
    return game_with_own_payoffs(draw(st.sampled_from(list(Player))), own, draw(cells), kind.startswith("raw"))


class TestAgainstTwoFunctionMaximin:
    """maximin_2x2 against the two-function maximin it replaced: same weights, same value, same types."""

    @staticmethod
    def assert_same_as_old(game):
        for player in Player:
            (strategy, value), (old_strategy, old_value) = maximin_2x2(game, player), old_maximin_2x2(game, player)
            assert (strategy, value) == (old_strategy, old_value)
            assert [type(w) for w in strategy.weights] == [type(w) for w in old_strategy.weights]
            assert type(value) is type(old_value)

    @settings(max_examples=600, deadline=None)
    @given(game=maximin_games())
    def test_drawn_games(self, game):
        self.assert_same_as_old(game)

    @pytest.mark.parametrize(
        ("own", "weight", "value"),
        [
            ((1, 2, 1, 0), 1, 1),  # crossing at x = 1/2, worth 1 = min(1, 2): the pure strategy keeps it
            ((1, 3, 1, 3), 1, 1),  # equal rows: the first
            ((0, 3, 2, 0), F(2, 5), F(6, 5)),  # strictly better crossing, (ad - bc)/D = -6/-5
            ((2, 2, 3, 3), 0, 3),  # D = 0
        ],
    )
    @pytest.mark.parametrize("player", list(Player))
    @pytest.mark.parametrize("raw", [False, True])
    def test_fixed_games(self, own, weight, value, player, raw):
        game = game_with_own_payoffs(player, own, (0, 0, 0, 0), raw)
        self.assert_same_as_old(game)
        assert maximin_2x2(game, player) == (MixedStrategy((F(weight), 1 - F(weight))), value)


def outcome_numbers(outcome):
    """Every number an outcome holds."""
    d = outcome.disagreement
    yield from (k for point in outcome.feasible_hull for k in point)
    yield from (k for segment in outcome.pareto_frontier for point in segment for k in point)
    yield from (d.v1, d.v2, *outcome.solution, outcome.nash_product)
    for strategy in (d.x0, d.y0):
        yield from strategy.weights if strategy else ()


def raw_int_games(sizes):
    """n x n games built without from_rows, so every payoff stays a plain int."""
    def game(n):
        pairs = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
        rows = st.lists(st.lists(pairs, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n)
        return rows.map(lambda grid: BimatrixGame(tuple(grid)))
    return st.sampled_from(sizes).flatmap(game)


class TestIntRecords:
    """A BimatrixGame of plain ints bargains as its from_rows twin does, with no float in the outcome."""

    @staticmethod
    def assert_exact(outcome, twin):
        assert outcome == twin
        assert all(type(k) in (int, Fraction) for k in outcome_numbers(outcome))

    @settings(max_examples=300, deadline=None)
    @given(game=raw_int_games((2,)))
    def test_bargain(self, game):
        twin = BimatrixGame.from_rows(game.payoffs)
        try:
            outcome = bargain(game)
        except DisagreementOutsideHull:
            with pytest.raises(DisagreementOutsideHull):
                bargain(twin)
            return
        self.assert_exact(outcome, bargain(twin))

    @settings(max_examples=300, deadline=None)
    @given(game=raw_int_games((2, 3)), data=st.data())
    def test_nash_solution_at_an_int_point(self, game, data):
        hull = feasible_hull(game)
        box = [range(min(p[i] for p in hull), max(p[i] for p in hull) + 1) for i in (0, 1)]
        d1, d2 = data.draw(st.sampled_from([p for p in product(*box) if hull_contains(hull, p)]))
        twin = nash_solution(BimatrixGame.from_rows(game.payoffs), DisagreementPoint(F(d1), F(d2)))
        self.assert_exact(nash_solution(game, DisagreementPoint(d1, d2)), twin)

    def test_bargain_of_an_int_game_keeps_fractions(self):
        outcome = bargain(BimatrixGame((((2, 7), (2, 2)), ((5, 1), (7, -2)))))
        assert outcome.solution == (F(31, 6), F(13, 10)) and outcome.nash_product == F(1, 20)
        assert all(type(k) in (int, Fraction) for k in outcome_numbers(outcome))

    def test_nash_solution_of_an_int_game_keeps_fractions(self):
        outcome = nash_solution(BimatrixGame((((6, 2), (0, 0)), ((0, 0), (2, 6)))), DisagreementPoint(0, 0))
        assert outcome.solution == (4, 4) and outcome.nash_product == 16
        assert all(type(k) in (int, Fraction) for k in outcome_numbers(outcome))
