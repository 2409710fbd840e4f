"""File formats and report rendering for the command-line workflows.

Input files are JSON; integers, decimal literals (read as printed, so 0.1 is
1/10) and "p/q" strings all parse to exact rationals.  A file kind's layout
(_MARKET, _BIMATRIX, _PAYLOADS) is compiled once into a node per place that
reads and writes it (_compile): a missing or unknown key, a wrong type, a
repeated key or label is a SchemaError naming its place, in a report the first
in key order.  Machine output is json.dumps(..., indent=2, sort_keys=True),
each rational an int or a "p/q" string; text output keeps the layout's key
order.  Long lists are written a column at a time, record lists by template.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from collections.abc import Callable
from contextlib import suppress
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import accumulate, chain, islice, pairwise
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from types import NoneType

from .bargaining import BimatrixGame
from .core import (
    GameInstance,
    MatchGamesError,
    UtilityMatrix,
    _LiteralError,
    _Record,
    as_rational,
    format_rational,
)


class ParseError(MatchGamesError):
    """The input is not well-formed JSON."""


class SchemaError(MatchGamesError):
    """The input parses but violates the file schema."""


class ReportTooLarge(MatchGamesError):
    """A report cannot be rendered: it holds a number too long to print."""


class BimatrixFile(_Record):
    """A two-player game file: outcome labels plus the payoff-pair grid."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    game: BimatrixGame


def _unique_keys(kind: str, pairs: list[tuple[str, object]]) -> dict[str, object]:
    """json.loads's object_pairs_hook: the object, or SchemaError for a key it holds twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise SchemaError(f"{kind}: the key {next(k for k in counts if counts[k] > 1)[:40]!r} appears more than once in one object")
    return obj


def _load_json(data: str | bytes, kind: str, decode: Callable[[object], object] = lambda doc: doc,
               parse_float: Callable[[str], object] = as_rational, parse_constant: Callable[[str], object] | None = None) -> object:
    """decode of the JSON document in data; each error names the file's kind ("market", "bimatrix", "report")."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        # parse_float receives the literal text, so decimals stay exact; decode runs under these handlers.
        return decode(json.loads(text, parse_float=parse_float, parse_constant=parse_constant,
                                 object_pairs_hook=partial(_unique_keys, kind)))
    except UnicodeDecodeError as exc:  # before ValueError, its base class
        raise ParseError(f"{kind}: input is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:  # not Python's text and position, which differ between its versions
        raise ParseError(f"{kind}: input is not valid JSON") from exc
    except RecursionError as exc:
        raise ParseError(f"{kind}: input is nested too deeply") from exc
    except ValueError as exc:
        # A decimal past as_rational's bounds, or an integer (a report's "p/q" parts too) past the int-digit limit.
        # problem is text: the exception itself would stay in this frame, which its traceback holds, a cycle.
        problem = str(exc) if isinstance(exc, _LiteralError) else f"an integer of more than {sys.get_int_max_str_digits()} digits"
        raise ParseError(f"{kind}: input has an oversize number: {problem}") from exc


def _grid(values: list, n: int, width: int, where: str, parsed: dict[object, Fraction]) -> tuple[tuple, list[Fraction]]:
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
    doc = _COMPILED["market"][2]([_load_json(data, "market")])[0]
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
    doc = _COMPILED["bimatrix"][2]([_load_json(data, "bimatrix")])[0]
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


def _json_fraction(value: Fraction) -> str:  # format_rational's text, quoted when it is "p/q"
    return f'"{text}"' if "/" in (text := format_rational(value)) else text


_JSON_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, Fraction: _json_fraction,
                 bool: {True: "true", False: "false"}.get, NoneType: {None: "null"}.get}
_TEXT_SCALARS = {str: str, int: int.__repr__, Fraction: format_rational, bool: {True: "yes", False: "no"}.get, NoneType: str}
# Lists this long are written a column at a time (_each); 8, 16 and 32 time the same.
_LONG = 8


def _texts(scalars: dict, values: list) -> list[str]:
    """The text of each scalar in values, through its type in scalars, each distinct object formatted once:
    its id() stays unique while values holds it, which is for the whole call."""
    ids = list(map(id, values))
    texts = {key: scalars[type(v)](v) for key, v in dict(zip(ids, values)).items()}
    return list(map(texts.__getitem__, ids))


def _filled(slot: str, cells: list[list]) -> list[str]:
    """The text of each value of a column that a node wrote as (slot, cells) (see _compile)."""
    return cells[0] if slot == "%s" else list(map(int.__repr__, cells[0]) if slot == "%d" else map(slot.__mod__, zip(*cells)))


def _each(node: tuple[Callable, ...], values: list) -> list[str]:
    """The text of each of values by their node's writers: a column at a time when there are _LONG or more."""
    return _filled(*node[1](values)) if len(values) >= _LONG else [node[0](v) for v in values]


class RenderMode(Enum):
    TEXT = "text"
    MACHINE = "machine"


class Report(_Record):
    """A structured result document produced by one command."""

    command: str
    payload: dict
    notes: tuple[str, ...] = ()


# The payload each command writes.  A kind is Fraction (an int or a "p/q" string, read as a Fraction), int, str,
# bool, list or dict; [kind], a list of them; {str}, a list of labels, each appearing once; {key: kind}, an object
# with exactly those keys, in the order text mode writes them; or a tuple of alternatives, NoneType (null) or
# objects told apart by their keys.
_PAYLOADS: dict[str, dict[str, object]] = {
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
# A report, and the input files' top level, in the same language; parse_market and parse_bimatrix then read the grids.
_REPORT = {"command": str, "payload": dict, "notes": [str]}
_MARKET = {"workers": {str}, "enterprises": {str}, "A": list, "B": list}
_BIMATRIX = {"row_labels": {str}, "col_labels": {str}, "payoffs": list}
# The Python types a value of each kind may have, and their name in errors: read from JSON, and written from a
# Report, whose Fraction positions hold ints and Fractions.  A container kind is looked up by its own type.
_READ_TYPES = {t: ({t}, t.__name__) for t in (int, str, bool, NoneType, list, dict)} | {
    set: ({list}, "list"), Fraction: ({int, str}, 'an int or a "p/q" string')}
_WRITE_TYPES = _READ_TYPES | {Fraction: ({int, Fraction}, "an int or a Fraction")}


def _check(kind: object, values: list, path: str, types: dict) -> None:
    """SchemaError, naming path, unless each value is of a type types allows at kind, each object has exactly
    kind's keys and each label list holds strs, each once.  Nodes call it only to name a fault they found."""
    allowed, name = types[kind if isinstance(kind, type) else type(kind)]
    if not set(map(type, values)) <= allowed:
        got = next(t for t in map(type, values) if t not in allowed)
        raise SchemaError(f"{path}: expected {name}, got {got.__name__}")
    if type(kind) is dict:
        for keys in map(dict.keys, values):
            if keys != kind.keys():
                missing, extra = kind.keys() - keys, keys - kind.keys()
                raise SchemaError(f"{path}: missing key {min(missing)!r}" if missing
                                  else f"{path}: unexpected key {min(map(str, extra))[:40]!r}")
    elif type(kind) is set:
        _check(*kind, list(chain.from_iterable(values)), path + "[]", types)
        for labels in values:
            if len(set(labels)) < len(labels):
                counts = Counter(labels)
                raise SchemaError(f"{path}: label {next(k for k in counts if counts[k] > 1)[:40]!r} appears more than once")


def _alternative(kinds: tuple, value: object) -> object:
    """The alternative of kinds that value's shape (its keys, or its type) fits, else the last, which refuses it."""
    shape = value.keys() if type(value) is dict else type(value)
    return next((k for k in kinds if (k.keys() if type(k) is dict else k) == shape), kinds[-1])


def _compile(kind: object, path: str, indent: str | None = None) -> tuple[Callable, Callable, Callable, tuple | None]:
    """(one, many, read, items), the node of values of kind at path; each finds a value off kind by C-level type and key tests,
    and calls _check only to name it.  one(value) is its text: JSON at indent or, with no indent, text mode's
    ("(a, b)", "k: v; ...").  many(values) is a column's (slot, cells), value i's text being slot % (its cell in
    each of cells); lists all of one non-zero length widen the slot to a "%s" per item, so a record list fills one
    template, and ints are cells under "%d".  read(values) reads a JSON column, each "p/q" at a Fraction place
    made a Fraction (values itself if none is), a list's items as one column, its objects key by key in one's order.
    items is a list's or label list's item node, which text mode's record lists and grids write through, else None."""
    if type(kind) is tuple:
        fits = {id(k): _compile(k, path, indent) for k in kind}
        one = lambda value: fits[id(_alternative(kind, value))][0](value)
        return (one, lambda values: ("%s", [list(map(one, values))]),
                lambda values: [fits[id(_alternative(kind, v))][2]([v])[0] for v in values], None)
    allowed, readable = (types[kind if isinstance(kind, type) else type(kind)][0] for types in (_WRITE_TYPES, _READ_TYPES))
    inner = None if indent is None else indent + "  "
    sep, wrap, empty, scalars = (", ", "(%s)", "()", _TEXT_SCALARS) if indent is None else (
        ",\n" + inner, "[\n" + inner + "%s\n" + indent + "]", "[]", _JSON_SCALARS)
    if type(kind) in (list, set):
        item = _compile(*kind, path + "[]", inner)  # the items' node

        def many(values: list) -> tuple[str, list[list]]:
            if not set(map(type, values)) <= allowed:
                _check(kind, values, path, _WRITE_TYPES)
            slot, cells = item[1](list(chain.from_iterable(values)))
            if type(kind) is set and any(len(set(v)) < len(v) for v in values):  # a label twice: items are strs
                _check(kind, values, path, _WRITE_TYPES)
            width = len(values[0]) if values else 0
            if width and set(map(len, values)) == {width}:
                return wrap % sep.join([slot] * width), [cell[i::width] for i in range(width) for cell in cells]
            texts = iter(_filled(slot, cells))  # every item's text, in order
            return "%s", [[wrap % sep.join(islice(texts, len(v))) if v else empty for v in values]]

        def one(value: object) -> str:
            if type(value) is not list:
                _check(kind, [value], path, _WRITE_TYPES)
            texts = _each(item, value)
            if type(kind) is set and len(set(value)) < len(value):
                _check(kind, [value], path, _WRITE_TYPES)
            return wrap % sep.join(texts) if value else empty

        def read(values: list) -> list:
            if not set(map(type, values)) <= readable:
                _check(kind, values, path, _READ_TYPES)
            items = item[2](flat := list(chain.from_iterable(values)))
            if type(kind) is set and any(len(set(v)) < len(v) for v in values):  # a label twice: items are strs
                _check(kind, values, path, _READ_TYPES)
            return values if items is flat else [items[a:b] for a, b in pairwise(accumulate(map(len, values), initial=0))]
        return one, many, read, item
    if type(kind) is not dict:
        def many(values: list) -> tuple[str, list[list]]:
            if not (types := set(map(type, values))) <= allowed:
                _check(kind, values, path, _WRITE_TYPES)
            return ("%d", [values]) if types == {int} else ("%s", [_texts(scalars, values)])

        def read(values: list) -> list:
            if not (types := set(map(type, values))) <= readable:
                _check(kind, values, path, _READ_TYPES)
            if kind is not Fraction or str not in types:
                return values
            texts = {}  # each distinct "p/q" (ASCII integer parts, q > 0) once, in list order: errors name the first bad one
            for text in dict.fromkeys(v for v in values if type(v) is str):
                p, _, q = text.partition("/")
                if not (text.isascii() and p.removeprefix("-").isdigit() and q.isdigit() and q.strip("0")):
                    raise SchemaError(f'{path}: expected an int or a "p/q" string, got {text[:40]!r}')
                texts[text] = Fraction(int(p), int(q))
            return list(map(texts.get, values, values))
        return (lambda value: scalars[type(value)](value) if type(value) in allowed else many([value])), many, read, None
    keys = list(kind) if indent is None else sorted(kind)
    fields = [(k, *_compile(kind[k], f"{path}.{k}", inner)) for k in keys]
    names = [f"{k}: " for k in keys] if indent is None else [encode_basestring_ascii(k) + ": " for k in keys]
    head, sep, tail = ("", "; ", "") if indent is None else ("{\n" + inner, sep, "\n" + indent + "}")
    template = head + sep.join([name + "%s" for name in names]) + tail
    columns = itemgetter(*keys, keys[0])  # a tuple for each value even with one key; zip drops the last column

    def one(value: object) -> str:
        if type(value) is not dict or value.keys() != kind.keys():
            _check(kind, [value], path, _WRITE_TYPES)
        return template % tuple([write(value[k]) for k, write, _, _, _ in fields])

    def many(values: list) -> tuple[str, list[list]]:
        if not set(map(type, values)) <= allowed or any(map(kind.keys().__ne__, map(dict.keys, values))):
            _check(kind, values, path, _WRITE_TYPES)
        written = [field(column) for (_, _, field, _, _), column in zip(fields, zip(*map(columns, values)))]
        slot = head + sep.join([name + slot for name, (slot, _) in zip(names, written)]) + tail
        return slot, [cell for _, cells in written for cell in cells]

    def read(values: list) -> list:
        if not set(map(type, values)) <= readable or any(map(kind.keys().__ne__, map(dict.keys, values))):
            _check(kind, values, path, _READ_TYPES)
        for (k, _, _, field, _), column in zip(fields, zip(*map(columns, values))):
            if (read := field(column)) is not column:
                for value, v in zip(values, read):
                    value[k] = v
        return values
    return one, many, read, None


def _block_writer(key: str | None, kind: object, path: str, indent: str) -> Callable[[list, object], None]:
    """The text-mode writer of a value of kind at path: given lines and the value, it appends its lines
    under key (None: the payload, no head line): an object's keys in layout order, a line per record, a grid's rows."""
    if type(kind) is tuple:
        fits = {id(k): _block_writer(key, k, path, indent) for k in kind}
        return lambda lines, value: fits[id(_alternative(kind, value))](lines, value)
    head, item = f"{indent}{key}:", kind[0] if type(kind) is list else None
    if type(kind) is dict:
        blocks = [(k, _block_writer(k, sub, f"{path}.{k}", indent if key is None else indent + "  ")) for k, sub in kind.items()]

        def write(lines: list, value: object) -> None:
            if type(value) is not dict or value.keys() != kind.keys():
                _check(kind, [value], path, _WRITE_TYPES)
            lines += [] if key is None else [head]
            for k, block in blocks:
                block(lines, value[k])
        return write
    one, _, _, items = _compile(kind, path)
    records = items if type(item) is dict else None
    cells = items[3][1] if type(item) is list and isinstance(item[0], type) else None  # the grid cells' many
    listed = type(kind) in (list, set)

    def write(lines: list, value: object) -> None:
        if records and type(value) is list and value:
            lines += [head, indent + "  - " + ("\n" + indent + "  - ").join(_each(records, value))]
        elif cells and type(value) is list and value and all(value):  # a grid, when no row is empty
            if not set(map(type, value)) <= {list}:
                _check(item, value, path + "[]", _WRITE_TYPES)
            texts = _filled(*cells(list(chain.from_iterable(value))))
            width = max(map(len, texts))
            texts = iter([t.rjust(width) for t in texts])
            lines += [head, *[indent + "  " + "  ".join(islice(texts, len(row))) for row in value]]
        else:  # a list as its items' texts, without the parentheses
            lines.append(f"{indent}{key}: " + (one(value)[1:-1] if listed else one(value)))
    return write


# The compiled layouts: the nodes of the input files' top levels and of a report's notes, and each command's (_compiled).
_COMPILED: dict[object, object] = {kind: _compile(layout, path) for kind, layout, path in (
    ("market", _MARKET, "market"), ("bimatrix", _BIMATRIX, "bimatrix"), ("notes", [str], "report.notes"))}


def _compiled(command: object, mode: RenderMode) -> object:
    """command's report layout built for mode on first use: its node, which parse_report reads through too, in machine
    mode, and its block writer in text mode.  SchemaError for a command that none writes."""
    if type(command) is not str or command not in _PAYLOADS:
        _check(str, [command], "report.command", _READ_TYPES)
        raise SchemaError(f"report: unknown command {command[:40]!r}")
    if (command, mode) not in _COMPILED:
        layout = _PAYLOADS[command]
        _COMPILED[command, mode] = _block_writer(None, layout, "report.payload", "") if mode is RenderMode.TEXT else _compile(
            {**_REPORT, "payload": layout}, "report", "")
    return _COMPILED[command, mode]


def render_report(report: Report, mode: RenderMode = RenderMode.MACHINE) -> str:
    """Render a report through its command's layout (see _PAYLOADS); machine mode is canonical JSON and round-trips.
    SchemaError, as parse_report raises it, for an unknown command or a payload or notes off its layout;
    ReportTooLarge for a number with more digits than the interpreter's int-to-str limit allows."""
    write = _compiled(report.command, mode)
    notes = _COMPILED["notes"][2]([list(report.notes) if type(report.notes) is tuple else report.notes])[0]  # or SchemaError
    try:
        if mode is RenderMode.MACHINE:
            return write[0]({"command": report.command, "payload": report.payload, "notes": notes}) + "\n"
        lines = [f"== {report.command} =="]
        write(lines, report.payload)
        return "\n".join([*lines, *map("note: %s".__mod__, notes)]) + "\n"
    except ValueError as exc:
        raise ReportTooLarge(f"cannot render the {report.command} report: it holds an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits") from exc


def _not_in_a_report(text: str):
    raise SchemaError(f"report: the JSON number {text[:40]} is not an integer; write a rational as \"p/q\"")


def _read_report(doc: object) -> Report:
    if type(doc) is not dict or doc.keys() != _REPORT.keys():
        _check(_REPORT, [doc], "report", _READ_TYPES)
    doc = _compiled(doc["command"], RenderMode.MACHINE)[2]([doc])[0]
    return Report(doc["command"], doc["payload"], tuple(doc["notes"]))


def parse_report(data: str | bytes) -> Report:
    """Parse a machine report back into a Report: SchemaError unless its payload has exactly the layout its
    command writes (see _PAYLOADS), and for a decimal, exponent, NaN or Infinity anywhere, which no writer prints."""
    return _load_json(data, "report", _read_report, parse_float=_not_in_a_report, parse_constant=_not_in_a_report)
