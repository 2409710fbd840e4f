"""matchgames: exact-arithmetic solvers for bilateral assignment markets.

Three related models over one market of n workers and n enterprises:

- optimal assignment for either side (Hungarian method plus a brute-force
  oracle), with a mismatch diagnosis between the two sides' optima;
- the 2n-player game over all matching situations: payoff table, ideal
  point, minimax-regret compromise set, and Nash-equilibrium checks;
- union-level bargaining: 2x2 maximin threat points, the feasible payoff
  hull, the Pareto frontier, and the Nash arbitration solution.

All computation uses exact rationals (fractions.Fraction); no floating
point enters any solver path.
"""

from .assignment import (
    AssignmentResult,
    Objective,
    compare_assignments,
    matching_total,
    solve_bruteforce,
    solve_hungarian,
)
from .bargaining import (
    BargainingOutcome,
    BimatrixGame,
    DisagreementOutsideHull,
    DisagreementPoint,
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
from .commands import Side, cmd_assign, cmd_bargain, cmd_game, cmd_pipeline
from .core import (
    ENUMERATION_CAP,
    DenominatorTooLarge,
    DimensionMismatch,
    GameInstance,
    MatchGamesError,
    Matching,
    NotAPermutation,
    SizeTooLarge,
    UtilityMatrix,
    all_matchings,
    as_rational,
    format_rational,
)
from .formats import (
    BimatrixFile,
    ParseError,
    RenderMode,
    Report,
    SchemaError,
    parse_bimatrix,
    parse_market,
    parse_report,
    render_bimatrix,
    render_market,
    render_report,
)
from .situations import (
    EQUILIBRIUM_ENUMERATION_CAP,
    CompromiseResult,
    IdealPoint,
    MalformedProfile,
    NashVerdict,
    SituationTable,
    StrategyProfile,
    build_table,
    compromise_set,
    ideal_point,
    profile_payoffs,
    verify_nash,
)

__version__ = "0.1.0"
