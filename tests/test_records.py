"""The package's value types against @dataclass(frozen=True), what importing the package loads, and
that no request builds a record from anything but a full positional call.

Each of the 14 types is a subclass of core._Record.  Its twin here is a frozen dataclass with the
same field names and defaults and the type's own __post_init__: built from the same arguments, the
two must agree on equality, hash, repr, defaults, frozenness and the errors they raise.
"""

import dataclasses
import io
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchgames import (
    AssignmentResult,
    BargainingOutcome,
    BimatrixFile,
    BimatrixGame,
    CompromiseResult,
    DisagreementPoint,
    GameInstance,
    MatchGamesError,
    Matching,
    MixedStrategy,
    NashVerdict,
    NotAPermutation,
    Report,
    SituationTable,
    StrategyProfile,
    UtilityMatrix,
    core,
    parse_market,
    verify_nash,
)
from matchgames.cli import EXIT_OK, main
from test_golden import COMMANDS

# Each type's fields, in order, and the defaults of those that have one.
FIELDS = {
    Matching: "image",
    UtilityMatrix: "entries row_labels col_labels",
    GameInstance: "worker_utilities enterprise_utilities",
    AssignmentResult: "matching total_value objective",
    BimatrixGame: "payoffs",
    MixedStrategy: "weights",
    DisagreementPoint: "v1 v2 x0 y0",
    BargainingOutcome: "feasible_hull pareto_frontier disagreement solution nash_product",
    SituationTable: "instance rows",
    CompromiseResult: "ideal optimal_regret members regret_by_situation least_satisfied",
    StrategyProfile: "worker_choices enterprise_choices",
    NashVerdict: "equilibrium deviating_player better_choice",
    BimatrixFile: "row_labels col_labels game",
    Report: "command payload notes",
}
DEFAULTS = {DisagreementPoint: {"x0": None, "y0": None}, NashVerdict: {"deviating_player": None, "better_choice": None},
            Report: {"notes": ()}}


def twin(cls: type) -> type:
    """The frozen dataclass with cls's name, fields, defaults and __post_init__."""
    defaults = DEFAULTS.get(cls, {})
    fields = [(name, object, dataclasses.field(default=defaults[name])) if name in defaults else (name, object)
              for name in FIELDS[cls].split()]
    namespace = {"__post_init__": vars(cls)["__post_init__"]} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, namespace=namespace)


TWINS = {cls: twin(cls) for cls in FIELDS}

# Hashable values of several types for any field; the types that check their fields draw valid ones too.
scalars = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4), st.text("ab", max_size=2), st.none(), st.booleans())
values = st.recursive(scalars, lambda inner: st.tuples(inner) | st.tuples(inner, inner), max_leaves=4)
fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
labels = st.text("xyz", max_size=2)


@st.composite
def matrices(draw, n=None):
    n = n or draw(st.integers(1, 3))
    row = st.tuples(*[fractions] * n)
    return UtilityMatrix(draw(st.tuples(*[row] * n)), draw(st.tuples(*[labels] * n)), draw(st.tuples(*[labels] * n)))


@st.composite
def games(draw):
    n = draw(st.integers(1, 3))
    return draw(matrices(n)), draw(matrices(n))


@st.composite
def weights(draw):
    raw = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any))
    return (tuple(Fraction(w, sum(raw)) for w in raw),)


VALID = {
    Matching: st.integers(1, 4).flatmap(lambda n: st.tuples(st.permutations(range(n)).map(tuple))),
    UtilityMatrix: matrices().map(lambda m: (m.entries, m.row_labels, m.col_labels)),
    GameInstance: games(),
    BimatrixGame: st.integers(1, 3).flatmap(
        lambda cols: st.tuples(st.lists(st.tuples(*[st.tuples(fractions, fractions)] * cols), min_size=1, max_size=3).map(tuple))),
    MixedStrategy: weights(),
}


def arguments(cls: type):
    """A full tuple of positional arguments for cls: valid ones, or any values (which a checked type may refuse)."""
    anything = st.tuples(*[values] * len(FIELDS[cls].split()))
    return st.one_of(VALID[cls], anything) if cls in VALID else anything


def outcome(make, *args, **kwargs):
    """What make(*args, **kwargs) gives: ("made", the instance), or the type and text of the exception it raises."""
    try:
        return "made", make(*args, **kwargs)
    except Exception as exc:  # any exception: the record and its twin must raise the same
        return type(exc), str(exc)


def shown(make, *args, **kwargs):
    """outcome, an instance shown by its repr."""
    kind, value = outcome(make, *args, **kwargs)
    return kind, repr(value) if kind == "made" else value


cases = st.sampled_from(list(FIELDS)).flatmap(lambda cls: st.tuples(st.just(cls), arguments(cls), arguments(cls)))


class TestRecordOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=cases)
    def test_record_agrees_with_its_dataclass_twin(self, case):
        cls, first, second = case
        names = FIELDS[cls].split()
        made = [outcome(cls, *args) for args in (first, second)]
        twins = [outcome(TWINS[cls], *args) for args in (first, second)]
        assert [kind for kind, _ in made] == [kind for kind, _ in twins]
        for (kind, record), (_, dataclass), args in zip(made, twins, (first, second)):
            if kind != "made":  # refused by the type's own check, with the same error
                assert record == dataclass
                continue
            assert type(record) is cls and repr(record) == repr(dataclass)
            assert vars(record) == dict(zip(names, args))
            assert record == cls(*args) == cls(**dict(zip(names, args))) and not record != cls(*args)
            assert record != dataclass and dataclass != record  # another class: never equal
            assert outcome(hash, record) == outcome(hash, dataclass)
            for name in (names[0], "other"):
                assert outcome(setattr, record, name, 0) == (AttributeError, f"cannot assign to field {name!r}")
                assert outcome(setattr, dataclass, name, 0) == (dataclasses.FrozenInstanceError, f"cannot assign to field {name!r}")
                assert outcome(delattr, record, name)[1] == outcome(delattr, dataclass, name)[1] == f"cannot delete field {name!r}"
            assert vars(record) == dict(zip(names, args))
        if made[0][0] == made[1][0] == "made":
            (_, one), (_, other), (_, twin_one), (_, twin_other) = *made, *twins
            assert (one == other, one != other) == (twin_one == twin_other, twin_one != twin_other)

    @pytest.mark.parametrize("cls", FIELDS)
    def test_arguments_and_defaults_as_the_twin_takes_them(self, cls):
        # Missing, unknown and repeated arguments, and too many: the same TypeError, word for word.
        names, defaults, made = FIELDS[cls].split(), DEFAULTS.get(cls, {}), TWINS[cls]
        args = [(0,)] * len(names)
        for call in (
            lambda c: c(),
            lambda c: c(*args[:-1]),
            lambda c: c(*args, 0),
            lambda c: c(*args, unknown=0),
            lambda c: c(*args[1:], unknown=0),
            lambda c: c(*args[:1], **{names[0]: 0}),
            lambda c: c(*args, 0, **{names[-1]: 0}),
            lambda c: c(**{names[-1]: 0}),
        ):
            assert shown(call, cls) == shown(call, made)
        # Defaults left out: a record built from its other fields holds each default.
        required = [(0,)] * (len(names) - len(defaults))
        assert shown(cls, *required) == shown(made, *required)
        if defaults:
            assert vars(cls(*required)) == dict(zip(names, required)) | defaults

    @pytest.mark.parametrize(("one", "other"), [(SituationTable, StrategyProfile), (AssignmentResult, BimatrixFile)])
    def test_records_of_two_types_are_never_equal(self, one, other):
        args = range(len(FIELDS[one].split()))
        assert (one(*args) == other(*args), one(*args) != other(*args)) == (False, True)
        assert (TWINS[one](*args) == TWINS[other](*args), TWINS[one](*args) != TWINS[other](*args)) == (False, True)

    def test_each_check_still_refuses(self):
        with pytest.raises(NotAPermutation, match="appears twice"):
            Matching((0, 0))
        with pytest.raises(MatchGamesError, match="do not sum to 1"):
            MixedStrategy((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(MatchGamesError, match="ragged payoff grid"):
            BimatrixGame((((1, 2), (3, 4)), ((5, 6),)))


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -I -S: no site, so nothing but the package and what it imports enters sys.modules.
    probe = ("import sys; before = set(sys.modules); import matchgames, matchgames.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & (set(sys.modules) - before)))")
    src = str(Path(__file__).parents[1] / "src")
    done = subprocess.run([sys.executable, "-I", "-S", "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_no_request_binds_arguments(monkeypatch):
    # Every record the package builds gets all its fields by position, so none pays _bind's
    # default and keyword handling: each subcommand in both modes, and both Nash verdicts.
    def refuse(self, args, kwargs):
        raise AssertionError(f"{type(self).__name__} built through _bind: {args} {kwargs}")

    monkeypatch.setattr(core._Record, "_bind", refuse)
    for argv in COMMANDS.values():
        for mode in ("text", "machine"):
            with redirect_stdout(io.StringIO()):
                assert main([*argv, "--output", mode]) == EXIT_OK
    market = parse_market('{"workers": ["w0", "w1"], "enterprises": ["e0", "e1"], "A": [[-1, 2], [3, 4]], "B": [[1, 1], [1, 1]]}')
    # Worker 0 is paid -1 in the identity situation and gains by leaving it; the swap pays everyone 1 or more.
    assert verify_nash(market, StrategyProfile.from_matching(Matching((0, 1)))) == NashVerdict(False, 0, 1)
    assert verify_nash(market, StrategyProfile.from_matching(Matching((1, 0)))) == NashVerdict(True, None, None)
