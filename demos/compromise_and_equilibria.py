#!/usr/bin/env python3
"""Walk the 2n-player matching game: payoff table, compromise set, equilibria.

Six players (three workers, three enterprises) and six situations, one per
matching.  The script prints the full payoff table, the ideal point, the
minimax-regret compromise set with the least-satisfied player's guaranteed
payoff, and verifies that every situation is a Nash equilibrium.
"""

from pathlib import Path

from matchgames import (
    StrategyProfile,
    build_table,
    compromise_set,
    format_rational,
    ideal_point,
    parse_market,
    verify_nash,
)

DATA = Path(__file__).parent / "data" / "labor_market.json"


def main():
    instance = parse_market(DATA.read_text())
    table = build_table(instance)

    print("payoff table (players: workers 1..3, then the enterprise matched to each worker):")
    for matching, profile in table.rows:
        cells = "  ".join(format_rational(v).rjust(3) for v in profile)
        print(f"  situation {list(matching)}:  {cells}")

    ideal = ideal_point(table)
    print(f"\nideal point: {[format_rational(v) for v in ideal.values]}")

    compromise = compromise_set(table)
    print("\nmax regret per situation:")
    for (matching, _), regret in zip(table.rows, compromise.regret_by_situation):
        print(f"  {list(matching)}: {format_rational(regret)}")
    members = [list(m) for m in compromise.members]
    print(f"compromise set: {members}  (optimal regret {format_rational(compromise.optimal_regret)})")

    for member, (player, payoff) in zip(compromise.members, compromise.least_satisfied):
        print(f"least satisfied in {list(member)}: player {player + 1}, guaranteed payoff {format_rational(payoff)}")

    print("\nequilibrium check (any unilateral change breaks the assignment, paying zero):")
    for matching, _ in table.rows:
        verdict = verify_nash(instance, StrategyProfile.from_matching(matching))
        print(f"  situation {list(matching)}: {'equilibrium' if verdict.equilibrium else 'NOT an equilibrium'}")
    print(f"equilibria found: {len(table.equilibria())} of {len(table.rows)} situations")


if __name__ == "__main__":
    main()
