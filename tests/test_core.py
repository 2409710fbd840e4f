import dataclasses
import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from matchgames import (
    BimatrixGame,
    DenominatorTooLarge,
    DimensionMismatch,
    GameInstance,
    Matching,
    NotAPermutation,
    SizeTooLarge,
    UtilityMatrix,
    all_matchings,
    as_rational,
    format_rational,
)
from matchgames.assignment import Objective, _integer_costs
from matchgames.core import MAX_DENOMINATOR_BITS


def compose(first: Matching, then: Matching) -> Matching:
    return Matching(tuple(then[first[i]] for i in range(first.n)))


class TestAsRational:
    def test_accepts_int_fraction_string(self):
        assert as_rational(3) == Fraction(3)
        assert as_rational(Fraction(5, 7)) == Fraction(5, 7)
        assert as_rational("3/2") == Fraction(3, 2)
        assert as_rational("0.25") == Fraction(1, 4)
        assert as_rational("-7") == Fraction(-7)
        assert as_rational(" 1/2\n") == as_rational("\t0.5 ") == Fraction(1, 2)  # outer whitespace is stripped

    def test_float_is_refused(self):
        # Decimals reach the solvers as text ("0.1" is exactly 1/10); a float never does.
        for build in (
            lambda: as_rational(0.1),
            lambda: UtilityMatrix.from_rows([[0.5]]),
            lambda: BimatrixGame.from_rows([[(0.5, 1)]]),
        ):
            with pytest.raises(TypeError, match="cannot interpret 0.[15] as a rational"):
                build()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_rational("three halves")
        with pytest.raises(ValueError):
            as_rational("1/0")
        with pytest.raises(TypeError):
            as_rational(None)
        with pytest.raises(TypeError):
            as_rational(True)

    # Fraction(str) reads "_" from Python 3.11 and spaces around "/" from 3.12; every one is refused.
    @pytest.mark.parametrize("text", ["1_000", "1/2_0", "1_0.5", "0.5_0", "1e1_0", "1 / 2", "1/ 2", "1 /2", "1\t/2", "1\u00a0/2", "1 000"])
    def test_same_literals_on_every_python(self, text):
        with pytest.raises(ValueError, match="cannot interpret"):
            as_rational(text)

    def test_format_rational(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(-4)) == "-4"


@st.composite
def small_rationals(draw):
    numerator = draw(st.integers(-1000, 1000))
    denominator = draw(st.integers(1, 60))
    return Fraction(numerator, denominator)


class TestRationalArithmetic:
    @given(small_rationals(), small_rationals())
    def test_add_subtract_round_trip(self, x, y):
        assert (x + y) - y == x

    @given(small_rationals())
    def test_normalized(self, x):
        from math import gcd

        assert x.denominator > 0
        assert gcd(abs(x.numerator), x.denominator) == 1


class TestMatching:
    def test_identity(self):
        assert Matching(tuple([0, 1, 2])) == Matching(tuple(range(3)))

    def test_known_image(self):
        m = Matching(tuple([0, 2, 1]))
        assert m[1] == 2 and m[2] == 1

    def test_duplicate_rejected(self):
        with pytest.raises(NotAPermutation, match=re.escape("index 0 appears twice in (0, 0, 1)")):
            Matching(tuple([0, 0, 1]))

    def test_out_of_range_rejected(self):
        with pytest.raises(NotAPermutation, match="index 3 out of range for size 3"):
            Matching(tuple([0, 3, 1]))
        with pytest.raises(NotAPermutation, match="empty image"):
            Matching(tuple([]))
        for image, bad in [((1, -1), "-1"), ((0, True), "True"), ((0, 1.0), "1.0"), (("0", 1), "'0'")]:
            with pytest.raises(NotAPermutation, match=re.escape(f"index {bad} out of range for size 2")):
                Matching(image)

    def test_inverse_identity(self):
        identity = Matching(tuple(range(4)))
        assert identity.inverse() == identity

    def test_inverse_transposition_is_self(self):
        m = Matching(tuple([1, 0, 2]))
        assert m.inverse() == m

    def test_inverse_three_cycle(self):
        m = Matching(tuple([1, 2, 0]))
        inv = m.inverse()
        assert inv == Matching(tuple([2, 0, 1]))
        assert compose(m, inv) == Matching(tuple(range(3)))

    @given(st.permutations(list(range(6))))
    def test_inverse_involution(self, image):
        m = Matching(tuple(image))
        assert m.inverse().inverse() == m
        assert compose(m, m.inverse()) == Matching(tuple(range(m.n)))


class TestAllMatchings:
    def test_size_one(self):
        assert all_matchings(1) == (Matching(tuple(range(1))),)

    def test_size_three_has_six(self):
        assert len(all_matchings(3)) == 6

    def test_size_four_has_twenty_four(self):
        matchings = all_matchings(4)
        assert len(matchings) == 24
        assert len(set(matchings)) == 24

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_counts_and_distinctness(self, n):
        import math

        matchings = all_matchings(n)
        assert len(matchings) == math.factorial(n)
        assert len(set(matchings)) == len(matchings)

    def test_lexicographic_order(self):
        images = [m.image for m in all_matchings(3)]
        assert images == sorted(images)

    def test_cap(self):
        with pytest.raises(SizeTooLarge):
            all_matchings(9)
        with pytest.raises(ValueError):
            all_matchings(0)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_as_validated_matchings(self, n):
        # The matchings are built without __post_init__'s check; they must be
        # the ones Matching(image) makes, and stay frozen and hashable.
        matchings = all_matchings(n)
        assert matchings == tuple(Matching(image) for image in permutations(range(n)))
        assert all(type(m) is Matching for m in matchings)
        assert len(set(matchings)) == len(matchings)
        with pytest.raises(dataclasses.FrozenInstanceError):
            matchings[-1].image = (0,) * n


class TestUtilityMatrix:
    def test_from_rows_coerces(self):
        m = UtilityMatrix.from_rows([[1, "3/2"], ["0.5", 2]])
        assert m.entries[0][1] == Fraction(3, 2)
        assert m.entries[1][0] == Fraction(1, 2)
        assert m.n == 2

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            UtilityMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
        with pytest.raises(DimensionMismatch):
            UtilityMatrix.from_rows([])

    def test_rejects_bad_labels(self):
        with pytest.raises(DimensionMismatch):
            UtilityMatrix.from_rows([[1, 2], [3, 4]], row_labels=["only-one"])

    def test_shifted(self):
        m = UtilityMatrix.from_rows([[1, 2], [3, 4]])
        shifted = UtilityMatrix.from_rows([[v + Fraction(1, 2) for v in row] for row in m.entries])
        assert shifted.entries[0][0] == Fraction(3, 2)

    def test_common_denominator(self):
        m = UtilityMatrix.from_rows([["1/2", "1/3"], [1, "5/6"]])
        assert _integer_costs(m, Objective.MINIMIZE) == ([[3, 2], [6, 5]], 6)
        assert _integer_costs(m, Objective.MAXIMIZE) == ([[-3, -2], [-6, -5]], 6)

    def test_common_denominator_bound(self):
        at_bound = Fraction(1, 2 ** (MAX_DENOMINATOR_BITS - 1))
        assert _integer_costs(UtilityMatrix.from_rows([[at_bound]]), Objective.MINIMIZE)[1].bit_length() == MAX_DENOMINATOR_BITS
        # Each denominator is in bound; their lcm, 3 * 2**(bits - 1), is not.
        m = UtilityMatrix.from_rows([[at_bound, Fraction(1, 3)]] * 2)
        with pytest.raises(DenominatorTooLarge):
            _integer_costs(m, Objective.MAXIMIZE)


class TestGameInstance:
    def test_size_mismatch(self):
        a = UtilityMatrix.from_rows([[1]])
        b = UtilityMatrix.from_rows([[1, 2], [3, 4]])
        with pytest.raises(DimensionMismatch):
            GameInstance(worker_utilities=a, enterprise_utilities=b)
