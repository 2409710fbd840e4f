"""File formats and report rendering for the command-line workflows.

Input files are JSON.  Numbers may be integers, decimal literals, or "p/q"
strings; all three parse to exact rationals (decimals are read as printed, so
0.1 means 1/10).  Every file kind, market, bimatrix game and report, is read by
its layout (see _MARKET, _BIMATRIX and _PAYLOADS): a missing or unknown key, a
value of the wrong type, a repeated key or a repeated label is a SchemaError.

Machine output (a report) is canonical JSON, written
in one pass: keys sorted, two-space indent with ",\n" and ": " separators,
"[]" and "{}" for empty containers, strings ASCII-escaped, tuples written as
lists, and every rational an integer or a "p/q" string, never a decimal.
Identical inputs therefore produce byte-identical output: the bytes of the
standard library's key-sorted, indented json.dumps on the encoded values.
Both writers make the text of each distinct scalar object in a list of eight
or more once per render call (see _texts).  A list of eight or more records,
dicts of one str key set whose value at each key is a str, int or Fraction, or
a non-empty list or tuple of them of one length, is written from one template:
item 0's text with "%s" for each scalar, repeated once per item and filled by
one "%" (see _records; the text writer also needs one key order).  Every other
list is written item by item.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import NoneType
from typing import Any, Callable, NoReturn

from .bargaining import BimatrixGame
from .core import (
    GameInstance,
    MatchGamesError,
    UtilityMatrix,
    _LiteralError,
    as_rational,
    format_rational,
)


class ParseError(MatchGamesError):
    """The input is not well-formed JSON."""


class SchemaError(MatchGamesError):
    """The input parses but violates the file schema."""


class ReportTooLarge(MatchGamesError):
    """A report cannot be rendered: a number too long to print, or nesting too deep to write."""


@dataclass(frozen=True)
class BimatrixFile:
    """A two-player game file: outcome labels plus the payoff-pair grid."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    game: BimatrixGame


def _unique_keys(kind: str, pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json.loads's object_pairs_hook: the object, or SchemaError for a key it holds twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise SchemaError(f"{kind}: the key {next(k for k in counts if counts[k] > 1)[:40]!r} appears more than once in one object")
    return obj


def _load_json(data: str | bytes, kind: str, decode: Callable[[Any], Any] = lambda doc: doc,
               parse_float: Callable[[str], Any] = as_rational, parse_constant: Callable[[str], Any] | None = None) -> Any:
    """decode of the JSON document in data; each error names the file's kind ("market", "bimatrix", "report")."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        # parse_float receives the literal text, so decimals stay exact; decode runs under these handlers.
        return decode(json.loads(text, parse_float=parse_float, parse_constant=parse_constant,
                                 object_pairs_hook=partial(_unique_keys, kind)))
    except UnicodeDecodeError as exc:  # before ValueError, its base class
        raise ParseError(f"{kind}: input is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{kind}: input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{kind}: input is nested too deeply") from exc
    except ValueError as exc:
        # A decimal past as_rational's bounds, or an integer (a report's "p/q" parts too) past the int-digit limit.
        problem = exc if isinstance(exc, _LiteralError) else f"an integer of more than {sys.get_int_max_str_digits()} digits"
        raise ParseError(f"{kind}: input has an oversize number: {problem}") from exc


def _grid(values: list, n: int, width: int, where: str, parsed: dict[Any, Fraction]) -> tuple[tuple, list[Fraction]]:
    """(rows, literals): the Fraction rows of the n x width grid at where, and one Fraction per distinct literal.
    parsed maps each int, str and decimal literal already read in the file to its Fraction: only new ones are parsed."""
    if len(values) != n:
        raise SchemaError(f"{where}: expected {n} rows")
    shaped = all(isinstance(row, list) and len(row) == width for row in values)
    if shaped and set(map(type, chain.from_iterable(values))) <= {int, str, Fraction}:  # types first: True hides behind 1
        new = (literals := set(chain.from_iterable(values))).difference(parsed)
        with suppress(ValueError):  # a bad literal, which the scan below names; only successes are kept
            parsed.update(zip(new, map(as_rational, new)))
            return tuple(tuple(map(parsed.__getitem__, row)) for row in values), list(map(parsed.__getitem__, literals))
    # Only a bad row, cell type or literal gets here: this scan raises for the first in reading order.
    for i, row in enumerate(values):
        if not isinstance(row, list) or len(row) != width:
            raise SchemaError(f"{where}: row {i} must have {width} entries")
        for v in row:
            if type(v) not in (int, str, Fraction):  # a bool, None, list or dict
                raise SchemaError(f"{where}[{i}]: expected a number or \"p/q\" string, got {repr(v)[:40]}")
            try:
                parsed[v] = parsed[v] if v in parsed else as_rational(v)  # kept, so a repeated literal is parsed once
            except ValueError as exc:
                raise SchemaError(f"{where}[{i}]: {exc}") from exc


def parse_market(data: str | bytes) -> GameInstance:
    """Parse and validate a market file (see _MARKET); ParseError / SchemaError on bad input.

    The labels travel on the matrices: workers are the row labels of the
    worker utilities A, enterprises its column labels.  A and B share one
    literal memo: each distinct literal, decimals included, is parsed once per market.
    """
    doc = _read(_MARKET, [_load_json(data, "market")], "market")[0]
    workers, enterprises = tuple(doc["workers"]), tuple(doc["enterprises"])
    n = len(workers)
    if n == 0:
        raise SchemaError("market: empty worker list")
    if len(enterprises) != n:
        raise SchemaError(f"market: {n} workers but {len(enterprises)} enterprises")
    parsed: dict[int | str | Fraction, Fraction] = {}  # one literal memo for both grids
    (a, a_literals), (b, b_literals) = (_grid(doc[key], n, n, f"market.{key}", parsed) for key in "AB")
    matrices = UtilityMatrix(a, workers, enterprises), UtilityMatrix(b, enterprises, workers)
    for matrix, literals in zip(matrices, (a_literals, b_literals)):
        vars(matrix)["_distinct"] = literals  # its distinct entry objects, which it would otherwise find on first solve
    return GameInstance(*matrices)


def parse_bimatrix(data: str | bytes) -> BimatrixFile:
    """Parse and validate a bimatrix-game file (see _BIMATRIX); its literals are read as a market's are."""
    doc = _read(_BIMATRIX, [_load_json(data, "bimatrix")], "bimatrix")[0]
    row_labels, col_labels, payoffs = tuple(doc["row_labels"]), tuple(doc["col_labels"]), doc["payoffs"]
    if len(row_labels) == 0 or len(col_labels) == 0:
        raise SchemaError("bimatrix: empty label list")
    if len(payoffs) != len(row_labels):
        raise SchemaError(f"bimatrix: expected {len(row_labels)} payoff rows")
    for r, row in enumerate(payoffs):
        if not isinstance(row, list) or len(row) != len(col_labels):
            raise SchemaError(f"bimatrix: payoff row {r} must have {len(col_labels)} cells")
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise SchemaError(f"bimatrix: cell ({r},{c}) must be a [k1, k2] pair")
    flat = [list(chain.from_iterable(row)) for row in payoffs]  # each row as k1, k2, k1, k2, ...
    grid, _ = _grid(flat, len(row_labels), 2 * len(col_labels), "bimatrix.payoffs", {})
    return BimatrixFile(row_labels, col_labels, BimatrixGame(tuple(tuple(zip(row[::2], row[1::2])) for row in grid)))


def _json_fraction(value: Fraction) -> str:
    p, q = value.as_integer_ratio()
    return f"{p}" if q == 1 else f'"{p}/{q}"'


# The JSON text of the scalar types that fill a report; bools, None, floats
# and subclasses go through _write_json's fallback, which keeps json's rules.
_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, Fraction: _json_fraction}
# Lists this long use the memo. Timed at 1-16: at 4 or less the cli-small reports
# render 1.1-1.8x slower, at 16 the game-n7 ones 1.2-1.3x; 8 and 12 time the same.
_LONG = 8


def _texts(memo: dict[int, str], scalars: dict, other: Any, values: Any) -> list[str]:
    """The text of each value, through its type in scalars or else other.  In a _LONG list of
    scalars each object is formatted once per render: memo maps its id(), unique while the
    document holds it, to its text.  A container's text depends on its place: never memoized."""
    if len(values) >= _LONG:
        ids = list(map(id, values))
        out = list(map(memo.get, ids))
        if all(out):  # all known: one C-level pass (a dict per list: 1.5-1.8x the render time)
            return out
        if not any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values))):
            for key, v in dict(zip(ids, values)).items():
                if key not in memo:
                    memo[key] = scalars.get(type(v), other)(v)
            return list(map(memo.__getitem__, ids))
    out = []  # a loop, not a comprehension, which would make cells of scalars and other on every call
    for v in values:
        out.append(scalars.get(type(v), other)(v))
    return out


def _records(items: Any, ordered: bool, texts: Callable[[list], list[str]]) -> tuple[list, list[int], tuple] | None:
    """(keys, widths, cells) of a list of _LONG or more same-shaped records, else None.

    Every item is a dict with the same str keys: in the same order if ordered, else as a set,
    and then keys are sorted.  At each key every item holds a scalar whose exact type is in
    _JSON_SCALARS (width 0) or a non-empty list or tuple of them, one length per key (its
    width).  cells holds the scalars item by item, keys in order, each list's in place: the
    text from texts, run once per column, or the int itself, which "%s" writes as int.__repr__.
    """
    if len(items) < _LONG or type(items[0]) is not dict or not items[0] or set(map(type, items)) != {dict}:
        return None  # item 0 first: most long lists hold scalars or rows
    if set(map(type, items[0])) != {str} or len(set(map(tuple if ordered else frozenset, items))) != 1:
        return None
    keys = list(items[0]) if ordered else sorted(items[0])
    widths, columns = [], []
    for key in keys:
        column = list(map(itemgetter(key), items))
        width = 0
        if set(map(type, column)) <= {list, tuple} and column[0] and len(set(map(len, column))) == 1:
            width = len(column[0])
            column = list(chain.from_iterable(column))
        types = set(map(type, column))
        if not types <= _JSON_SCALARS.keys():
            return None
        widths.append(width)
        parts = [column[i::width] for i in range(width)] if width else [column]
        columns += parts if types == {int} else map(texts, parts)
    stride = len(columns)  # scalars per item
    cells = [None] * (stride * len(items))
    for i, column in enumerate(columns):
        cells[i::stride] = column
    return keys, widths, tuple(cells)


def _write_json(value: Any, indent: str, memo: dict[int, str]) -> str:
    """Canonical JSON text of value (see the module docstring), in one pass; memo is _texts'."""
    inner = indent + "  "
    nested = lambda v: _write_json(v, inner, memo)
    if isinstance(value, dict):
        items = [
            # json's own text for a non-str key: "3" for 3, "null" for None.
            (encode_basestring_ascii(k) if type(k) is str else json.dumps({k: 0})[1:-4])
            + ": "
            + _JSON_SCALARS.get(type(v), nested)(v)
            for k, v in sorted(value.items())
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        records = _records(value, False, partial(_texts, memo, _JSON_SCALARS, nested))
        if records is not None:  # one template per item, filled by one %
            keys, widths, cells = records
            cell = inner + "    "
            fields = [
                encode_basestring_ascii(k).replace("%", "%%") + ": "
                + ("[\n" + cell + (",\n" + cell).join(["%s"] * w) + "\n" + inner + "  ]" if w else "%s")
                for k, w in zip(keys, widths)
            ]
            template = "{\n" + inner + "  " + (",\n" + inner + "  ").join(fields) + "\n" + inner + "}"
            text = "[\n" + inner + (",\n" + inner).join([template] * len(value)) + "\n" + indent + "]"
            return text % cells
        items = _texts(memo, _JSON_SCALARS, nested, value)
        brackets = "[]"
    else:
        return _json_fraction(value) if isinstance(value, Fraction) else json.dumps(value)
    if not items:
        return brackets
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent + brackets[1]


class RenderMode(Enum):
    TEXT = "text"
    MACHINE = "machine"


@dataclass(frozen=True)
class Report:
    """A structured result document produced by one command."""

    command: str
    payload: dict
    notes: tuple[str, ...] = field(default_factory=tuple)


# The payload each command writes.  A kind is Fraction (an int or a "p/q" string, read as a Fraction), int, str,
# bool, list or dict; [kind], a list of them; {str}, a list of labels, each appearing once; {key: kind}, an object
# with exactly those keys; or a tuple of alternatives, NoneType (null) or objects told apart by their keys.
_PAYLOADS: dict[str, dict[str, Any]] = {
    "assign": {"side": str, "objective": str, "row_labels": {str}, "col_labels": {str}, "matching": [int],
               "assignment_grid": [[int]], "total": Fraction},
    "game": {
        "n": int, "workers": {str}, "enterprises": {str}, "situations": [{"image": [int], "payoffs": [Fraction]}],
        "ideal_point": [Fraction],
        "compromise": {"optimal_regret": Fraction, "members": [[int]], "max_regret_by_situation": [Fraction]},
        "least_satisfied": [{"situation": [int], "player": int, "payoff": Fraction}],
        "equilibria": (
            {"enumerated": bool, "situation_count": int, "equilibrium_count": int, "all_situations_equilibria": bool},
            {"enumerated": bool, "situation_count": int, "reason": str},
        ),
    },
    "bargain": {
        "row_labels": {str}, "col_labels": {str},
        "maximin": (NoneType, {"player1": {"strategy": [Fraction], "value": Fraction},
                               "player2": {"strategy": [Fraction], "value": Fraction}}),
        "disagreement": [Fraction], "hull_vertices": [[Fraction]], "pareto_frontier": [[[Fraction]]],
        "solution": [Fraction], "nash_product": Fraction,
    },
}
_PAYLOADS["pipeline"] = {"workers_assignment": _PAYLOADS["assign"], "enterprises_assignment": _PAYLOADS["assign"],
                         "mismatch": {"workers": [int], "count": int, "coincide": bool}, "bargaining": _PAYLOADS["bargain"]}
# The input files' top level, in the same language; parse_market and parse_bimatrix then read the grids.
_MARKET = {"workers": {str}, "enterprises": {str}, "A": list, "B": list}
_BIMATRIX = {"row_labels": {str}, "col_labels": {str}, "payoffs": list}


def _read(kind: Any, values: list, path: str) -> list:
    """values, each of kind (see _PAYLOADS), with the strings at Fraction positions made Fractions;
    values itself if it has none.  One call reads a column: the items of a list's lists as one list,
    a list's objects key by key.  path names the values' place, "[]" standing for any list index."""
    if type(kind) is tuple:  # each value as the alternative of its shape (its keys, or its type), else the last
        out = []
        for value in values:
            shape = value.keys() if type(value) is dict else type(value)
            fits = [k for k in kind if (k.keys() if type(k) is dict else k) == shape]
            out += _read(fits[0] if fits else kind[-1], [value], path)
        return out
    expected = {list: list, set: list, dict: dict}.get(type(kind), kind)
    allowed = {int, str} if expected is Fraction else {expected}
    types = set(map(type, values))
    if not types <= allowed:
        name = 'an int or a "p/q" string' if expected is Fraction else expected.__name__
        got = next(t for t in map(type, values) if t not in allowed)
        raise SchemaError(f"{path}: expected {name}, got {got.__name__}")
    if type(kind) in (list, set):
        flat = list(chain.from_iterable(values))
        read = _read(*kind, flat, path + "[]")
        for labels in values if type(kind) is set else ():
            if len(set(labels)) < len(labels):
                counts = Counter(labels)
                raise SchemaError(f"{path}: label {next(k for k in counts if counts[k] > 1)[:40]!r} appears more than once")
        if read is flat:
            return values
        items = iter(read)
        return [list(islice(items, len(value))) for value in values]
    if type(kind) is dict:
        for keys in map(dict.keys, values):
            if keys != kind.keys():
                missing, extra = kind.keys() - keys, keys - kind.keys()
                problem = f"missing key {min(missing)!r}" if missing else f"unexpected key {min(extra)[:40]!r}"
                raise SchemaError(f"{path}: {problem}")
        for key, sub in kind.items():
            column = list(map(itemgetter(key), values))
            read = _read(sub, column, f"{path}.{key}")
            if read is not column:
                for value, v in zip(values, read):
                    value[key] = v
        return values
    if expected is not Fraction or str not in types:
        return values
    texts = {}  # each distinct "p/q" (ASCII integer parts, q > 0) once, in list order: errors name the first bad one
    for text in dict.fromkeys(values):
        if type(text) is str:
            p, _, q = text.partition("/")
            if not (text.isascii() and p.removeprefix("-").isdigit() and q.isdigit() and q.strip("0")):
                raise SchemaError(f'{path}: expected an int or a "p/q" string, got {text[:40]!r}')
            texts[text] = Fraction(int(p), int(q))
    return list(map(texts.get, values, values))


def render_report(report: Report, mode: RenderMode = RenderMode.MACHINE) -> str:
    """Render a report; machine mode is canonical JSON and round-trips.

    Raises ReportTooLarge when a number has more digits than the interpreter's
    int-to-str limit allows, or the payload is nested past the recursion limit.
    """
    try:
        if mode is RenderMode.MACHINE:
            doc = {"command": report.command, "payload": report.payload, "notes": report.notes}
            return _write_json(doc, "", {}) + "\n"
        return _render_text(report)
    except (ValueError, RecursionError) as exc:
        problem = f"it holds an integer of more than {sys.get_int_max_str_digits()} digits" if isinstance(exc, ValueError) else exc
        raise ReportTooLarge(f"cannot render the {report.command} report: {problem}") from exc


def _not_in_a_report(text: str) -> NoReturn:
    raise SchemaError(f"report: the JSON number {text[:40]} is not an integer; write a rational as \"p/q\"")


def _read_report(doc: Any) -> Report:
    doc = _read({"command": str, "payload": dict, "notes": [str]}, [doc], "report")[0]
    if doc["command"] not in _PAYLOADS:
        raise SchemaError(f"report: unknown command {doc['command'][:40]!r}")
    payload = _read(_PAYLOADS[doc["command"]], [doc["payload"]], "report.payload")[0]
    return Report(command=doc["command"], payload=payload, notes=tuple(doc["notes"]))


def parse_report(data: str | bytes) -> Report:
    """Parse a machine report back into a Report: SchemaError unless its payload has exactly the layout its
    command writes (see _PAYLOADS), and for a decimal, exponent, NaN or Infinity anywhere, which no writer prints."""
    return _load_json(data, "report", _read_report, parse_float=_not_in_a_report, parse_constant=_not_in_a_report)


# The text of each scalar type a report holds; _text_other does the rest.
_TEXT_SCALARS = {str: str, int: int.__repr__, Fraction: format_rational, bool: {True: "yes", False: "no"}.__getitem__}


def _render_block(lines: list[str], key: str, value: Any, indent: str, texts: Any) -> None:
    if isinstance(value, dict):
        lines.append(f"{indent}{key}:")
        for sub_key, sub_value in value.items():
            _render_block(lines, sub_key, sub_value, indent + "  ", texts)
    elif isinstance(value, (list, tuple)) and value and all(map(isinstance, value, repeat(dict))):
        lines.append(f"{indent}{key}:")
        records = _records(value, True, texts)
        if records is None:
            for item in value:
                lines.append(indent + "  - " + "; ".join(map("{}: {}".format, item, texts(list(item.values())))))
        else:  # one line template per item, filled by one %
            keys, widths, cells = records
            fields = [
                k.replace("%", "%%") + ": " + ("(" + ", ".join(["%s"] * w) + ")" if w else "%s")
                for k, w in zip(keys, widths)
            ]
            lines.append("\n".join([indent + "  - " + "; ".join(fields)] * len(value)) % cells)
    elif (  # a grid: non-empty rows of scalars
        isinstance(value, (list, tuple))
        and value
        and all(isinstance(row, (list, tuple)) and row for row in value)
        and not any(issubclass(t, (list, tuple, dict)) for t in set().union(*[map(type, row) for row in value]))
    ):
        lines.append(f"{indent}{key}:")
        rows = list(map(texts, value))
        width = max([len(c) for row in rows for c in row])
        lines.extend([indent + "  " + "  ".join([c.rjust(width) for c in row]) for row in rows])
    elif isinstance(value, (list, tuple)):
        lines.append(f"{indent}{key}: " + ", ".join(texts(value)))
    else:
        lines.append(f"{indent}{key}: {texts([value])[0]}")


def _text_other(memo: dict[int, str], value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_texts(memo, _TEXT_SCALARS, partial(_text_other, memo), value)) + ")"
    return format_rational(value) if isinstance(value, Fraction) else str(value)


def _render_text(report: Report) -> str:
    memo: dict[int, str] = {}  # one per render; nothing refers back to texts, so no reference cycle
    texts = partial(_texts, memo, _TEXT_SCALARS, partial(_text_other, memo))
    lines = [f"== {report.command} =="]
    for key, value in report.payload.items():
        _render_block(lines, key, value, "", texts)
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
