"""Command-line interface.

Subcommands: assign, game, bargain, pipeline.  Exit codes: 0 success,
1 input error (bad arguments, unreadable files, malformed or mis-sized
input), 2 enumeration-size cap exceeded.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from fractions import Fraction
from pathlib import Path

from .assignment import Objective
from .commands import Side, cmd_assign, cmd_bargain, cmd_game, cmd_pipeline
from .core import MatchGamesError, SizeTooLarge, as_rational
from .formats import RenderMode, parse_bimatrix, parse_market, render_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SIZE = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        # A bad argument's ArgumentError reaches main, which prints it as parse_known_args would:
        # on Python 3.10 parse_known_args keeps the error it catches in a frame that the error's
        # traceback holds, a reference cycle.
        super().__init__(*args, exit_on_error=False, **kwargs)
        # argparse takes "-1/4", "-1e0" and "-1." for options; anything that
        # starts like a negative number is a value here, and as_rational judges it.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits with status 2 on bad usage; the CLI contract reserves
    # 2 for size-cap errors, so reroute usage problems through exit code 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _rational_arg(text: str) -> Fraction:
    try:
        return as_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> _Parser:
    # Both parsers take these, before or after the subcommand.  No defaults, so the
    # subcommand's parser keeps a value given before it; main's namespace holds them.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument(
        "--output",
        choices=[mode.value for mode in RenderMode],
        help="report rendering: human text (the default) or machine-readable JSON",
    )
    common.add_argument("--out", metavar="FILE", help="write the report to FILE instead of stdout")

    parser = _Parser(prog="matchgames", description="Solvers for bilateral assignment markets.", parents=[common])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    assign = sub.add_parser("assign", parents=[common], help="solve one side's optimal assignment")
    assign.add_argument("--market", required=True, metavar="FILE")
    assign.add_argument("--side", required=True, choices=[s.value for s in Side])
    assign.add_argument("--minimize", action="store_true", help="minimize instead of maximize")
    assign.set_defaults(
        run=lambda args: cmd_assign(
            parse_market(_read(args.market)), Side(args.side), Objective.MINIMIZE if args.minimize else Objective.MAXIMIZE
        )
    )

    game = sub.add_parser("game", parents=[common], help="situation table, compromise set, equilibria")
    game.add_argument("--market", required=True, metavar="FILE")
    game.set_defaults(run=lambda args: cmd_game(parse_market(_read(args.market))))

    bargain = sub.add_parser("bargain", parents=[common], help="maximin threats and Nash arbitration")
    bargain.add_argument("--game", required=True, metavar="FILE")
    bargain.add_argument(
        "--disagreement",
        nargs=2,
        type=_rational_arg,
        metavar=("V1", "V2"),
        help="skip the maximin step and use this disagreement point",
    )
    bargain.set_defaults(
        run=lambda args: cmd_bargain(
            parse_bimatrix(_read(args.game)), tuple(args.disagreement) if args.disagreement else None
        )
    )

    pipeline = sub.add_parser("pipeline", parents=[common], help="assign both sides, diagnose, bargain")
    pipeline.add_argument("--market", required=True, metavar="FILE")
    pipeline.add_argument("--union-game", required=True, metavar="FILE")
    pipeline.set_defaults(
        run=lambda args: cmd_pipeline(parse_market(_read(args.market)), parse_bimatrix(_read(args.union_game)))
    )

    return parser


# parse_args leaves the parser unchanged, so one tree serves every call.
_PARSER = _build_parser()


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    enabled, digits = gc.isenabled(), sys.get_int_max_str_digits()
    gc.disable()  # a request leaves no reference cycle for it to free (tests/test_cli.py checks)
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)  # one input, one verdict, whatever the environment sets
    try:
        try:
            args = _PARSER.parse_args(argv, argparse.Namespace(output=RenderMode.TEXT.value, out=None))
            rendered = render_report(args.run(args), RenderMode(args.output))
        except (_UsageError, argparse.ArgumentError, MatchGamesError) as exc:
            print(f"matchgames: error: {exc}", file=sys.stderr)
            return EXIT_SIZE if isinstance(exc, SizeTooLarge) else EXIT_INPUT
        try:
            if args.out:
                Path(args.out).write_text(rendered, encoding="utf-8")
            else:
                sys.stdout.write(rendered)  # encodes the whole report before writing any of it
        except (OSError, UnicodeEncodeError) as exc:
            print(f"matchgames: error: cannot write {args.out or 'the report to stdout'}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        return EXIT_OK
    finally:
        sys.set_int_max_str_digits(digits)
        if enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
