"""Two-player union bargaining: maximin threats, feasible set, Nash arbitration.

The feasible set is the convex hull of the pure-outcome payoff pairs (joint,
i.e. correlated, randomization).  The disagreement point defaults to the two
players' mixed maximin values; the Nash solution maximizes the product of
gains over the disagreement point along the Pareto frontier.  Everything is
computed in closed form over exact rationals.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

from .core import MatchGamesError, RationalLike, _number_text, _Record, as_rational

Point = tuple[Fraction, Fraction]
Segment = tuple[Point, Point]


class NotTwoByTwo(MatchGamesError):
    """Maximin in closed form is only implemented for 2x2 games."""


class DisagreementOutsideHull(MatchGamesError):
    """The disagreement point is not a feasible payoff vector."""


class Player(Enum):
    ONE = 1
    TWO = 2


class BimatrixGame(_Record):
    """An m x n grid of exact payoff pairs (K1, K2), one per joint outcome."""

    payoffs: tuple[tuple[Point, ...], ...]

    def __post_init__(self) -> None:
        if not self.payoffs or not self.payoffs[0]:
            raise MatchGamesError("bimatrix game must have at least one outcome")
        width = len(self.payoffs[0])
        for row in self.payoffs:
            if len(row) != width:
                raise MatchGamesError("ragged payoff grid")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[tuple[RationalLike, RationalLike]]]) -> BimatrixGame:
        return cls(tuple(tuple((as_rational(k1), as_rational(k2)) for k1, k2 in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.payoffs)

    @property
    def cols(self) -> int:
        return len(self.payoffs[0])


class MixedStrategy(_Record):
    """A probability vector over a player's pure strategies."""

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights):
            raise MatchGamesError(f"negative weight in ({', '.join(map(_number_text, self.weights))})")
        if sum(self.weights) != 1:
            raise MatchGamesError(f"weights ({', '.join(map(_number_text, self.weights))}) do not sum to 1")


class DisagreementPoint(_Record):
    """Threat payoffs (v1, v2), with the realizing maximin strategies when known."""

    v1: Fraction
    v2: Fraction
    x0: MixedStrategy | None = None
    y0: MixedStrategy | None = None

    @property
    def point(self) -> Point:
        return (self.v1, self.v2)


class BargainingOutcome(_Record):
    feasible_hull: tuple[Point, ...]
    pareto_frontier: tuple[Segment, ...]
    disagreement: DisagreementPoint
    solution: Point
    nash_product: Fraction


def maximin_2x2(game: BimatrixGame, player: Player) -> tuple[MixedStrategy, Fraction]:
    """Mixed maximin strategy and guaranteed value for one player of a 2x2 game.

    The chooser's first strategy pays a or b against the opponent's two, its second c or d.  With weight x on
    the first, the guarantee min(xa + (1-x)c, xb + (1-x)d) is concave, so its maximum sits at the better pure
    strategy, the first on a tie, or where the two lines cross: x = (d - c)/D, D = a - b - c + d, worth (ad - bc)/D,
    taken only when strictly better.  Quotients are Fractions, so int payoffs keep exact weights.
    """
    if game.rows != 2 or game.cols != 2:
        raise NotTwoByTwo(f"maximin needs a 2x2 game, got {game.rows}x{game.cols}")
    (p, q), (r, s) = game.payoffs
    a, b, c, d = (p[0], q[0], r[0], s[0]) if player is Player.ONE else (p[1], r[1], q[1], s[1])
    first, second = min(a, b), min(c, d)
    weight, value = (Fraction(1), first) if first >= second else (Fraction(0), second)
    den = a - b - c + d
    if den != 0 and 0 < (x := Fraction(d - c, den)) < 1 and (cross := Fraction(a * d - b * c, den)) > value:
        weight, value = x, cross
    return MixedStrategy((weight, 1 - weight)), value


def _turn(o: tuple[int, int, int], a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    """For points written (x*w, y*w, w), w > 0: w_o*w_a*w_b times the cross product of a - o and b - o."""
    (ox, oy, ow), (ax, ay, aw), (bx, by, bw) = o, a, b
    return ox * (ay * bw - aw * by) - oy * (ax * bw - aw * bx) + ow * (ax * by - ay * bx)


def _hull(points: list[Point]) -> list[Point]:
    """Convex hull by monotone chain, counterclockwise from the
    lexicographically smallest vertex, collinear points removed.

    Each point (x, y) enters the chain as the ints (x*w, y*w, w // g), w the lcm of its denominators and g the gcd
    of all w's: one scale g > 0 for all points, so every turn keeps its sign (see _turn). Returns the given objects.
    """
    points = sorted(set(points))
    if len(points) <= 2:
        return points
    ws = [lcm(x.denominator, y.denominator) for x, y in points]
    g = gcd(*ws)
    given = {}
    for point, w in zip(points, ws):
        x, y = point
        given[x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w // g] = point
    hull: list[tuple[int, int, int]] = []
    for run in (given, reversed(given)):  # the lower chain, then the upper one
        chain: list[tuple[int, int, int]] = []
        for p in run:
            while len(chain) > 1 and _turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return [given[p] for p in hull]


def feasible_hull(game: BimatrixGame) -> list[Point]:
    """Convex hull of the outcome payoff pairs, as `_hull` orders it."""
    return _hull([pair for row in game.payoffs for pair in row])


def hull_contains(hull: list[Point] | tuple[Point, ...], point: Point) -> bool:
    """Exact test, boundary included, on a hull in the vertex order `feasible_hull` returns: a
    point outside a convex polygon is a vertex of their joint hull, so inside means "adds no vertex"."""
    return _hull([*hull, point]) == list(hull)


def pareto_frontier(hull: list[Point] | tuple[Point, ...]) -> list[Segment]:
    """Undominated part of the hull boundary as segments, ordered from the
    highest-K2 end to the highest-K1 end.

    A point is dominated if another feasible point is at least as good for
    both players and better for one.  On a convex hull the undominated set is
    the north-east chain between the topmost vertex (rightmost among ties)
    and the rightmost vertex (topmost among ties); a single point yields one
    degenerate segment.
    """
    verts = list(hull)
    top = max(verts, key=lambda p: (p[1], p[0]))
    right = max(verts, key=lambda p: (p[0], p[1]))
    if top == right:
        return [(top, top)]
    k = len(verts)
    chain = [top]
    i = verts.index(top)
    while verts[i] != right:
        i = (i - 1) % k  # clockwise walk along a counterclockwise hull
        chain.append(verts[i])
    return [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def _segment_best(
    start: Point, end: Point, disagreement: Point
) -> tuple[Fraction, Point] | None:
    """Maximum Nash product on one frontier segment over its payoffs >= d, or None if none is.

    Walking a frontier segment, K1 rises and K2 falls, so the product of gains is a strictly
    concave quadratic in the parameter whose roots are the two individual-rationality bounds:
    its vertex clamped to the segment is the exact maximizer, and is >= d if any point is.
    """
    d1, d2 = disagreement
    gain1, gain2 = start[0] - d1, start[1] - d2
    b1, b2 = end[0] - start[0], end[1] - start[1]
    if b1 != 0 or b2 != 0:  # not a single point
        # Frontier segments run strictly east and south (pareto_frontier drops
        # horizontal and vertical edges).
        assert b1 > 0 > b2, "frontier segment is not strictly northeast-oriented"
        t = min(Fraction(1), max(Fraction(0), Fraction(-(b1 * gain2 + gain1 * b2), 2 * b1 * b2)))
        gain1, gain2 = gain1 + t * b1, gain2 + t * b2
    return (gain1 * gain2, (d1 + gain1, d2 + gain2)) if gain1 >= 0 and gain2 >= 0 else None


def nash_solution(game: BimatrixGame, disagreement: DisagreementPoint) -> BargainingOutcome:
    """Nash arbitration point: maximize (v1-d1)(v2-d2) on the frontier, v >= d."""
    hull = feasible_hull(game)
    if not hull_contains(hull, disagreement.point):
        point = ", ".join(map(_number_text, disagreement.point))
        raise DisagreementOutsideHull(f"disagreement ({point}) is not a feasible payoff vector")
    frontier = pareto_frontier(hull)
    # Every hull point is weakly dominated by a Pareto-optimal one, so some segment has a point
    # >= d.  max() keeps the first of equal products, in frontier order.
    bests = (_segment_best(start, end, disagreement.point) for start, end in frontier)
    product, solution = max(filter(None, bests), key=lambda best: best[0])
    return BargainingOutcome(tuple(hull), tuple(frontier), disagreement, solution, product)


def bargain(game: BimatrixGame) -> BargainingOutcome:
    """Full pipeline: maximin threat point for both players, then arbitration."""
    x0, v1 = maximin_2x2(game, Player.ONE)
    y0, v2 = maximin_2x2(game, Player.TWO)
    return nash_solution(game, DisagreementPoint(v1, v2, x0, y0))
