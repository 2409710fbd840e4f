import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matchgames import (
    EQUILIBRIUM_ENUMERATION_CAP,
    DimensionMismatch,
    GameInstance,
    MalformedProfile,
    Matching,
    SizeTooLarge,
    StrategyProfile,
    UtilityMatrix,
    all_matchings,
    build_table,
    cmd_game,
    compromise_set,
    ideal_point,
    profile_payoffs,
    verify_nash,
)
from matchgames.datasets import labor_market
from matchgames.situations import enumerate_equilibria, least_satisfied

# Expected payoff table for the bundled labor market, keyed by matching image.
# The row for [2,0,1] carries 59 = B[2][0] in its fourth slot; the reference
# table shows 94 there, which contradicts its own B matrix (row [2,1,0]
# confirms B[2][0] = 59) and is treated as a misprint.
EXPECTED_PROFILES = {
    (0, 1, 2): (76, 41, 54, 94, 32, 38),
    (1, 0, 2): (22, 33, 54, 30, 71, 38),
    (2, 1, 0): (94, 41, 45, 59, 32, 17),
    (2, 0, 1): (94, 33, 13, 59, 71, 18),
    (0, 2, 1): (76, 86, 13, 94, 85, 18),
    (1, 2, 0): (22, 86, 45, 30, 85, 17),
}


def tiny_instance():
    return GameInstance(
        worker_utilities=UtilityMatrix.from_rows([[7]]),
        enterprise_utilities=UtilityMatrix.from_rows([[9]]),
    )


def situation_payoffs(instance: GameInstance, matching: Matching) -> tuple[Fraction, ...]:
    """Length-2n payoff profile of one situation, worker-keyed on both halves, one entry at a time."""
    a = instance.worker_utilities
    b = instance.enterprise_utilities
    workers = tuple(a.entries[i][matching[i]] for i in range(instance.n))
    enterprises = tuple(b.entries[matching[k]][k] for k in range(instance.n))
    return workers + enterprises


def _shifted(matrix, constant):
    """A copy of ``matrix`` with ``constant`` added to every entry."""
    return UtilityMatrix.from_rows([[v + constant for v in row] for row in matrix.entries])


def random_instance(rng, n, low=0, high=99):
    grid = lambda: [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]
    return GameInstance(
        worker_utilities=UtilityMatrix.from_rows(grid()),
        enterprise_utilities=UtilityMatrix.from_rows(grid()),
    )


class TestBuildTable:
    def test_reference_rows(self, labor_market):
        table = build_table(labor_market)
        assert len(table.rows) == 6
        for image, expected in EXPECTED_PROFILES.items():
            profile = dict(table.rows)[Matching(image)]
            assert profile == tuple(Fraction(v) for v in expected), image

    def test_identity_row(self, labor_market):
        table = build_table(labor_market)
        assert dict(table.rows)[Matching(tuple(range(3)))] == (76, 41, 54, 94, 32, 38)

    def test_compromise_member_row(self, labor_market):
        table = build_table(labor_market)
        assert dict(table.rows)[Matching((0, 2, 1))] == (76, 86, 13, 94, 85, 18)

    def test_single_player_market(self):
        table = build_table(tiny_instance())
        assert len(table.rows) == 1
        assert table.rows[0][1] == (7, 9)

    def test_rows_in_lexicographic_order(self, labor_market):
        images = [matching.image for matching, _ in build_table(labor_market).rows]
        assert images == sorted(images)

    def test_row_count_matches_factorial(self):
        import math

        rng = random.Random(1)
        for n in (2, 3, 4):
            table = build_table(random_instance(rng, n))
            assert len(table.rows) == math.factorial(n)

    def test_size_cap(self):
        rng = random.Random(2)
        with pytest.raises(SizeTooLarge):
            build_table(random_instance(rng, 9))


class TestIdealPoint:
    def test_reference_value(self, labor_market):
        assert ideal_point(build_table(labor_market)) == (94, 86, 54, 94, 85, 38)

    def test_single_situation(self):
        assert ideal_point(build_table(tiny_instance())) == (7, 9)

    def test_dominant_matching(self):
        # Identity collects every large entry, so its row is the ideal point.
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[9, 0], [0, 9]]),
            enterprise_utilities=UtilityMatrix.from_rows([[9, 0], [0, 9]]),
        )
        table = build_table(instance)
        assert ideal_point(table) == dict(table.rows)[Matching(tuple(range(2)))]

    def test_attained_and_bounding(self):
        rng = random.Random(3)
        for _ in range(20):
            table = build_table(random_instance(rng, rng.randint(2, 4)))
            ideal = ideal_point(table)
            for i, bound in enumerate(ideal):
                column = [profile[i] for _, profile in table.rows]
                assert bound == max(column)
                assert bound in column


class TestCompromiseSet:
    def test_reference_compromise(self, labor_market):
        result = compromise_set(build_table(labor_market))
        assert result.members == (Matching((0, 2, 1)),)
        assert result.optimal_regret == 41

    def test_single_situation(self):
        result = compromise_set(build_table(tiny_instance()))
        assert result.members == (Matching((0,)),)
        assert result.optimal_regret == 0

    def test_symmetric_tie_includes_both(self):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[5, 5], [5, 5]]),
            enterprise_utilities=UtilityMatrix.from_rows([[5, 5], [5, 5]]),
        )
        result = compromise_set(build_table(instance))
        assert len(result.members) == 2
        assert result.optimal_regret == 0

    def test_regrets_nonnegative(self):
        rng = random.Random(4)
        for _ in range(20):
            table = build_table(random_instance(rng, rng.randint(2, 4)))
            ideal = ideal_point(table)
            for _, profile in table.rows:
                assert all(ideal[i] - profile[i] >= 0 for i in range(len(ideal)))

    def test_against_independent_scan(self):
        # Oracle recomputed from raw matrices, bypassing SituationTable.
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 4)
            instance = random_instance(rng, n)
            a = instance.worker_utilities
            b = instance.enterprise_utilities
            profiles = {}
            for image in permutations(range(n)):
                workers = [a.entries[i][image[i]] for i in range(n)]
                enterprises = [b.entries[image[k]][k] for k in range(n)]
                profiles[image] = workers + enterprises
            ideal = [max(p[i] for p in profiles.values()) for i in range(2 * n)]
            worst = {
                image: max(ideal[i] - p[i] for i in range(2 * n)) for image, p in profiles.items()
            }
            best = min(worst.values())
            expected = {image for image, value in worst.items() if value == best}

            result = compromise_set(build_table(instance))
            assert {m.image for m in result.members} == expected
            assert result.optimal_regret == best

    def test_shift_covariance(self):
        rng = random.Random(6)
        for _ in range(15):
            n = rng.randint(2, 4)
            instance = random_instance(rng, n)
            shift = Fraction(rng.randint(-30, 30), rng.randint(1, 4))
            shifted = GameInstance(
                worker_utilities=_shifted(instance.worker_utilities, shift),
                enterprise_utilities=_shifted(instance.enterprise_utilities, shift),
            )
            base_table, shifted_table = build_table(instance), build_table(shifted)
            base_ideal = ideal_point(base_table)
            shifted_ideal = ideal_point(shifted_table)
            assert shifted_ideal == tuple(v + shift for v in base_ideal)
            assert compromise_set(shifted_table).members == compromise_set(base_table).members


class TestLeastSatisfied:
    def test_reference_guaranteed_payoff(self, labor_market):
        table = build_table(labor_market)
        player, payoff = least_satisfied(table, Matching((0, 2, 1)))
        assert player == 2  # third worker
        assert payoff == 13

    def test_tie_breaks_to_lowest_index(self):
        table = build_table(tiny_instance())
        assert least_satisfied(table, Matching((0,))) == (0, 7)

    def test_uniform_instance_all_zero_regret(self):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[4, 4], [4, 4]]),
            enterprise_utilities=UtilityMatrix.from_rows([[4, 4], [4, 4]]),
        )
        table = build_table(instance)
        assert least_satisfied(table, Matching(tuple(range(2)))) == (0, 4)

    def test_unknown_matching(self, labor_market):
        table = build_table(labor_market)
        with pytest.raises(DimensionMismatch):
            least_satisfied(table, Matching((0, 1)))


class TestProfiles:
    def test_from_matching_is_consistent(self):
        profile = StrategyProfile.from_matching(Matching((0, 2, 1)))
        assert profile.is_consistent()
        assert Matching(profile.worker_choices) == Matching((0, 2, 1))

    def test_inconsistent_profiles(self):
        assert not StrategyProfile((0, 0, 1), (0, 1, 2)).is_consistent()
        assert not StrategyProfile((0, 1, 2), (0, 2, 1)).is_consistent()

    def test_malformed_profiles(self):
        with pytest.raises(MalformedProfile):
            StrategyProfile((0, 1), (0,)).validate()
        with pytest.raises(MalformedProfile):
            StrategyProfile((0, 3), (0, 1)).validate()

    def test_inconsistent_pays_zero_to_everyone(self, labor_market):
        payoffs = profile_payoffs(labor_market, StrategyProfile((0, 0, 1), (0, 1, 2)))
        assert payoffs == (0,) * 6

    def test_consistent_pays_per_matrices(self, labor_market):
        matching = Matching((0, 2, 1))
        payoffs = profile_payoffs(labor_market, StrategyProfile.from_matching(matching))
        table_profile = situation_payoffs(labor_market, matching)
        n = labor_market.n
        # worker halves agree; the enterprise half is the same multiset keyed
        # by enterprise rather than by worker: slot n+k maps to slot n+p(k).
        assert payoffs[:n] == table_profile[:n]
        for k in range(n):
            assert table_profile[n + k] == payoffs[n + matching[k]]


class TestVerifyNash:
    def test_consistent_identity_profile(self, labor_market):
        verdict = verify_nash(labor_market, StrategyProfile.from_matching(Matching(tuple(range(3)))))
        assert verdict.equilibrium

    def test_all_consistent_profiles_are_equilibria_small(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.randint(2, 3)
            instance = random_instance(rng, n)
            for image in permutations(range(n)):
                profile = StrategyProfile.from_matching(Matching(image))
                assert verify_nash(instance, profile).equilibrium

    def test_inconsistent_profile_with_profitable_deviation(self):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[3, 5], [2, 4]]),
            enterprise_utilities=UtilityMatrix.from_rows([[6, 1], [2, 7]]),
        )
        # Both workers name enterprise 0; worker 1 switching to enterprise 1
        # completes the assignment and earns 4 > 0.
        profile = StrategyProfile((0, 0), (0, 1))
        verdict = verify_nash(instance, profile)
        assert not verdict.equilibrium
        assert verdict.deviating_player == 1
        assert verdict.better_choice == 1

    @pytest.mark.parametrize(
        ("a", "b", "image", "verdict"),
        [
            # enterprise 1 (player 3) is paid -3 with worker 1; naming worker 0 pays it 0
            ([[1, 2], [3, 4]], [[5, 6], [7, -3]], (0, 1), (False, 3, 0)),
            # worker 1 (paid -1) and enterprise 0 (player 2, paid -5) can both gain; worker 1 comes first
            ([[1, 2], [3, -1]], [[-5, 6], [7, 4]], (0, 1), (False, 1, 0)),
            # only enterprise 2 (player 5), paid -2 with worker 2, can gain
            ([[1, 2, 3], [3, 4, 5], [1, 1, 1]], [[5, 6, 1], [7, 4, 1], [2, 2, -2]], (1, 0, 2), (False, 5, 0)),
        ],
    )
    def test_first_deviator_in_player_order(self, a, b, image, verdict):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows(a), enterprise_utilities=UtilityMatrix.from_rows(b)
        )
        found = verify_nash(instance, StrategyProfile.from_matching(Matching(image)))
        assert (found.equilibrium, found.deviating_player, found.better_choice) == verdict

    def test_zero_utility_inconsistent_profile_can_be_equilibrium(self):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[0, 0], [0, 0]]),
            enterprise_utilities=UtilityMatrix.from_rows([[0, 0], [0, 0]]),
        )
        verdict = verify_nash(instance, StrategyProfile((0, 0), (0, 1)))
        assert verdict.equilibrium

    def test_malformed_profile_rejected(self, labor_market):
        with pytest.raises(MalformedProfile):
            verify_nash(labor_market, StrategyProfile((0, 1), (0, 1)))


class TestEnumerateEquilibria:
    def test_reference_market_all_six(self, labor_market):
        equilibria = enumerate_equilibria(labor_market)
        assert len(equilibria) == 6
        assert {e.worker_choices for e in equilibria} == {
            image for image in permutations(range(3))
        }

    def test_single_player(self):
        assert len(enumerate_equilibria(tiny_instance())) == 1

    def test_two_by_two_positive(self):
        instance = GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[1, 2], [3, 4]]),
            enterprise_utilities=UtilityMatrix.from_rows([[5, 6], [7, 8]]),
        )
        assert len(enumerate_equilibria(instance)) == 2

    def test_cap(self):
        rng = random.Random(8)
        with pytest.raises(SizeTooLarge):
            enumerate_equilibria(random_instance(rng, 6))


# Small numerators over small denominators: negatives, zeros, "p/q" values
# and frequent ties.
entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def instances(draw, max_n):
    n = draw(st.integers(1, max_n))
    grid = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return GameInstance(
        worker_utilities=UtilityMatrix.from_rows(draw(grid)),
        enterprise_utilities=UtilityMatrix.from_rows(draw(grid)),
    )


class TestClosedFormsAgainstTable:
    """Each closed form against the table enumeration it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_ideal_point_is_coordinatewise_table_max(self, instance):
        table = build_table(instance)
        profiles = [profile for _, profile in table.rows]
        assert ideal_point(table) == tuple(max(column) for column in zip(*profiles))

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_regret_by_situation_is_the_per_player_max(self, instance):
        table = build_table(instance)
        ideal = ideal_point(table)
        regrets = tuple(
            max(ideal[i] - profile[i] for i in range(2 * instance.n)) for _, profile in table.rows
        )
        result = compromise_set(table)
        assert result.ideal == ideal_point(table)
        assert result.regret_by_situation == regrets
        assert result.optimal_regret == min(regrets)
        assert result.members == tuple(
            matching for (matching, _), r in zip(table.rows, regrets) if r == min(regrets)
        )

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_rows_are_the_situation_payoffs(self, instance):
        # build_table reads each profile off A's rows and B's columns at once;
        # situation_payoffs takes one entry at a time.
        table = build_table(instance)
        assert [matching for matching, _ in table.rows] == list(all_matchings(instance.n))
        for matching, profile in table.rows:
            assert profile == situation_payoffs(instance, matching)

    @settings(max_examples=100, deadline=None)
    @given(instances(max_n=4))
    @example(
        GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[-1]]),
            enterprise_utilities=UtilityMatrix.from_rows([["2/3"]]),
        )
    )
    @example(  # one negative cell, B[0][1]: enterprise 0 is paid -1 when matched to worker 1
        GameInstance(
            worker_utilities=UtilityMatrix.from_rows([[1] * 3] * 3),
            enterprise_utilities=UtilityMatrix.from_rows([[1, -1, 1], [1, 1, 1], [1, 1, 1]]),
        )
    )
    def test_equilibria_are_the_profiles_passing_the_deviation_scan(self, instance):
        consistent = [StrategyProfile.from_matching(m) for m in all_matchings(instance.n)]
        expected = tuple(p for p in consistent if verify_nash(instance, p).equilibrium)
        assert enumerate_equilibria(instance) == expected

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_least_satisfied_per_member_is_the_per_situation_scan(self, instance):
        table = build_table(instance)
        result = compromise_set(table)
        assert result.least_satisfied == tuple(least_satisfied(table, m) for m in result.members)

    @settings(max_examples=60, deadline=None)
    @given(instances(max_n=6))
    def test_game_counts_the_enumerated_equilibria(self, instance):
        summary = cmd_game(instance).payload["equilibria"]
        if instance.n > EQUILIBRIUM_ENUMERATION_CAP:
            assert summary["enumerated"] is False
        else:
            assert summary["equilibrium_count"] == len(enumerate_equilibria(instance))

    def test_all_equal_market_names_worker_zero_in_every_member(self):
        v = Fraction(7, 2)
        grid = [[v] * 4 for _ in range(4)]
        table = build_table(
            GameInstance(UtilityMatrix.from_rows(grid), UtilityMatrix.from_rows(grid))
        )
        result = compromise_set(table)
        assert result.members == tuple(all_matchings(4))
        assert result.least_satisfied == ((0, v),) * 24
