"""The 2n-player matching game over all situations (perfect matchings).

Workers 0..n-1 and enterprises n..2n-1 are the players.  A situation is a
matching p; worker i is paid A[i][p(i)].  Payoff tables key the enterprise
side by worker: column n+k reports the payoff of whichever enterprise is
matched to worker k, i.e. B[p(k)][k]; _payoff_lines writes that layout once.
Profile checks use the players' own choices directly (enterprise e is paid
B[e][chosen worker]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import getitem

from .core import (
    DimensionMismatch,
    GameInstance,
    Matching,
    MatchGamesError,
    SizeTooLarge,
    all_matchings,
)

# Equilibria are reported for at most 5! situations.  The sign rule makes
# them cheap at any table size; the cap stays because the game report's
# contract ("enumerated": false above n = 5) is built on it.
EQUILIBRIUM_ENUMERATION_CAP = 5


class MalformedProfile(MatchGamesError):
    """A strategy profile has wrong arity or out-of-range choices."""


@dataclass(frozen=True)
class SituationTable:
    """One row per matching (lexicographic image order) with its payoff profile."""

    instance: GameInstance
    rows: tuple[tuple[Matching, tuple[Fraction, ...]], ...]

    @property
    def n(self) -> int:
        return self.instance.n

    def equilibria(self) -> tuple[Matching, ...]:
        """Matchings of the rows that are Nash equilibria, in row order.

        Sign rule: any unilateral deviation breaks consistency and pays the
        deviator 0, so a situation is an equilibrium iff none of its 2n
        payoffs is below 0, or n = 1 and nobody has a choice to change.
        Worker i and the enterprise matched to i are paid from lines i and n + i.
        """
        lines, n = _payoff_lines(self.instance), self.n
        ok = [[min(x, y) >= 0 for x, y in zip(lines[i], lines[n + i])] for i in range(n)]
        return tuple(m for m, _ in self.rows if n == 1 or all(map(list.__getitem__, ok, m.image)))


def _payoff_lines(instance: GameInstance) -> tuple[tuple[Fraction, ...], ...]:
    """One payoff line per player, A's rows then B's columns: in situation p,
    player t is paid lines[t][p(t mod n)]."""
    return (*instance.worker_utilities.entries, *zip(*instance.enterprise_utilities.entries))


def build_table(instance: GameInstance) -> SituationTable:
    """Complete situation table, profiles read off _payoff_lines; SizeTooLarge past the cap."""
    lines = _payoff_lines(instance)
    matchings = all_matchings(instance.n)
    profiles = [tuple(map(getitem, lines, m.image * 2)) for m in matchings]
    return SituationTable(instance=instance, rows=tuple(zip(matchings, profiles)))


def ideal_point(table: SituationTable) -> tuple[Fraction, ...]:
    """Coordinatewise maximum of the payoff table; every coordinate is attained.

    Every pair (i, j) lies in some perfect matching, so the maxima are the
    row maxima of A (workers) followed by the column maxima of B (the
    enterprise matched to worker k earns B[e][k]).
    """
    return tuple(map(max, _payoff_lines(table.instance)))


@dataclass(frozen=True)
class CompromiseResult:
    """Minimax-regret optimum: the situations minimizing the worst shortfall."""

    ideal: tuple[Fraction, ...]  # the point regrets are measured from
    optimal_regret: Fraction
    members: tuple[Matching, ...]
    regret_by_situation: tuple[Fraction, ...]  # max regret per table row, row order
    least_satisfied: tuple[tuple[int, Fraction], ...]  # (player, payoff) per member


def compromise_set(table: SituationTable) -> CompromiseResult:
    """Situations minimizing max_i (ideal_i - payoff_i); all ties included."""
    ideal = ideal_point(table)
    n = table.n
    # Worker i and the enterprise matched to i are paid from lines i and
    # n + i at p(i), so the 2n^2 player regrets cover every situation.  Rows
    # are scanned on the ranks of their distinct values, as ints.
    regrets = [[best - paid for paid in line] for best, line in zip(ideal, _payoff_lines(table.instance))]
    values = sorted(set().union(*regrets))
    rank = {value: r for r, value in enumerate(values)}
    ranks = [[rank[value] for value in line] for line in regrets]
    pair = [list(map(max, ranks[i], ranks[n + i])) for i in range(n)]
    max_ranks = [max(map(list.__getitem__, pair, m.image)) for m, _ in table.rows]
    optimum = min(max_ranks)
    members = tuple(m for (m, _), r in zip(table.rows, max_ranks) if r == optimum)
    # A member's worst regret is the optimum, so its least-satisfied player
    # is the lowest-index player at that rank, paid their ideal minus it.
    players = [[line[j] for line, j in zip(ranks, m.image * 2)].index(optimum) for m in members]
    return CompromiseResult(
        ideal=ideal,
        optimal_regret=values[optimum],
        members=members,
        regret_by_situation=tuple(values[r] for r in max_ranks),
        least_satisfied=tuple((p, ideal[p] - values[optimum]) for p in players),
    )


def least_satisfied(table: SituationTable, matching: Matching) -> tuple[int, Fraction]:
    """The player furthest below their ideal in a situation, with their payoff.

    Ties break toward the lowest player index.  The profile is read off
    _payoff_lines, as in build_table.  Raises DimensionMismatch if the
    matching's size is not the table's.
    """
    if matching.n != table.n:
        raise DimensionMismatch(f"matching of size {matching.n} on a size-{table.n} table")
    profile = tuple(map(getitem, _payoff_lines(table.instance), matching.image * 2))
    regrets = [best - paid for best, paid in zip(ideal_point(table), profile)]
    player = regrets.index(max(regrets))
    return player, profile[player]


@dataclass(frozen=True)
class StrategyProfile:
    """One choice per player: workers name enterprises, enterprises name workers."""

    worker_choices: tuple[int, ...]
    enterprise_choices: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.worker_choices)

    @staticmethod
    def from_matching(matching: Matching) -> StrategyProfile:
        """The consistent profile realizing a matching (everyone names their partner)."""
        return StrategyProfile(
            worker_choices=matching.image,
            enterprise_choices=matching.inverse().image,
        )

    def validate(self) -> None:
        n = self.n
        if n == 0 or len(self.enterprise_choices) != n:
            raise MalformedProfile(
                f"profile needs equal nonempty choice lists, got {len(self.worker_choices)} and {len(self.enterprise_choices)}"
            )
        for choice in self.worker_choices + self.enterprise_choices:
            if not isinstance(choice, int) or isinstance(choice, bool) or not 0 <= choice < n:
                raise MalformedProfile(f"choice {choice!r} out of range for n={n}")

    def is_consistent(self) -> bool:
        """True iff worker choices form a bijection and every enterprise names
        exactly the worker who named it."""
        if len(set(self.worker_choices)) != self.n:
            return False
        return all(
            self.worker_choices[self.enterprise_choices[e]] == e for e in range(self.n)
        )


def profile_payoffs(instance: GameInstance, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """Payoffs by player (workers then enterprises, each by own index).

    A consistent profile pays per A and B; any inconsistent profile pays zero
    to every player, since no assignment can be completed.
    """
    profile.validate()
    if profile.n != instance.n:
        raise MalformedProfile(f"profile of size {profile.n} on a size-{instance.n} instance")
    if not profile.is_consistent():
        return (Fraction(0),) * (2 * instance.n)
    workers = map(getitem, instance.worker_utilities.entries, profile.worker_choices)
    enterprises = map(getitem, instance.enterprise_utilities.entries, profile.enterprise_choices)
    return (*workers, *enterprises)


@dataclass(frozen=True)
class NashVerdict:
    """Outcome of a unilateral-deviation scan."""

    equilibrium: bool
    deviating_player: int | None = None
    better_choice: int | None = None


def verify_nash(instance: GameInstance, profile: StrategyProfile) -> NashVerdict:
    """Check whether any single player can strictly gain by changing their choice.

    Scans players in index order and alternative choices in increasing order,
    so the reported deviation is deterministic.
    """
    current = profile_payoffs(instance, profile)
    n = instance.n
    choices = profile.worker_choices + profile.enterprise_choices
    for player, own_choice in enumerate(choices):
        for choice in range(n):
            if choice == own_choice:
                continue
            deviated = (*choices[:player], choice, *choices[player + 1 :])
            if profile_payoffs(instance, StrategyProfile(deviated[:n], deviated[n:]))[player] > current[player]:
                return NashVerdict(equilibrium=False, deviating_player=player, better_choice=choice)
    return NashVerdict(equilibrium=True)


def enumerate_equilibria(instance: GameInstance) -> tuple[StrategyProfile, ...]:
    """All consistent profiles that no single player can improve on.

    Only the n! consistent profiles are candidates (inconsistent profiles pay
    zero and are not situations).  For nonnegative utilities this returns all
    of them.  Capped at n = EQUILIBRIUM_ENUMERATION_CAP.
    """
    if instance.n > EQUILIBRIUM_ENUMERATION_CAP:
        raise SizeTooLarge(
            f"equilibrium enumeration refuses n={instance.n} (cap is {EQUILIBRIUM_ENUMERATION_CAP})"
        )
    return tuple(StrategyProfile.from_matching(m) for m in build_table(instance).equilibria())
