"""Exact-arithmetic core types: rationals, utility matrices, matchings, game instances.

All solver-facing values are `fractions.Fraction`; no floating point enters any
solution path, so results such as 3/2 or a regret of 41 are exact and equality
is unambiguous.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import permutations

RationalLike = int | str | Fraction

# Full enumeration of matchings is refused above this size (8! = 40320 rows
# is the ceiling for desk-scale tables and brute-force oracles).
ENUMERATION_CAP = 8

# Bounds on a numeric string read from input.  Fraction("1e<K>") builds
# 10**K at a cost superlinear in K, and digit strings convert in quadratic
# time, so without them a small input file could stall parsing.
MAX_LITERAL_LENGTH = 1000
MAX_LITERAL_EXPONENT = 1000

# _scaled's bound on a common denominator: past it assign refuses, and game ranks the Fractions themselves instead.
MAX_DENOMINATOR_BITS = 32768


class MatchGamesError(Exception):
    """Base class for all errors raised by this package."""


class NotAPermutation(MatchGamesError):
    """An index sequence has duplicates or out-of-range entries."""


class SizeTooLarge(MatchGamesError):
    """A full enumeration was requested above the supported size cap."""


class DimensionMismatch(MatchGamesError):
    """Two objects that must share a size do not."""


class DenominatorTooLarge(MatchGamesError):
    """A utility matrix's entries have a common denominator longer than MAX_DENOMINATOR_BITS."""


def _scaled(values: list[Fraction], sign: int) -> tuple[int, dict[int, int]] | None:
    """The values' common denominator and {id(v): sign * v * it}, one division per denominator; None past the bound."""
    denominators, den = {v.denominator for v in values}, 1
    for q in denominators:  # distinct denominators' bits add up
        if (den := math.lcm(den, q)).bit_length() > MAX_DENOMINATOR_BITS:
            return None
    factor = {q: sign * (den // q) for q in denominators}
    return den, {id(v): v.numerator * factor[v.denominator] for v in values}


class _LiteralError(ValueError):
    """as_rational's refusal of a string, told apart from Python's int-digit limit, whose text the package replaces."""


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a value to an exact rational.

    Accepts ints, Fractions, and strings in ``"p/q"``, integer, or decimal
    form ("3/2", "7", "0.25"); any other type, a float or a bool included, is
    a TypeError, so no floating point enters.  A string longer than MAX_LITERAL_LENGTH, with an
    exponent beyond MAX_LITERAL_EXPONENT, or with "_" or inner whitespace is rejected with ValueError.
    An ASCII "-?digits" or "-?digits/digits" is Fraction(int(p), int(q)), without Fraction(text)'s regex:
    the same value, or the same ValueError ("1/0", a digit run past the interpreter's int-digit limit).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if len(text) > MAX_LITERAL_LENGTH:
            raise _LiteralError(f"numeric literal of {len(text)} characters is longer than {MAX_LITERAL_LENGTH}")
        p, slash, q = text.partition("/")
        digits = text.isascii() and p.removeprefix("-").isdigit() and (q.isdigit() or not slash)
        if not digits and ("e" in text or "E" in text) and _exponent_too_large(text):
            raise _LiteralError(f"exponent of {text[:40]!r} is beyond ±{MAX_LITERAL_EXPONENT}")
        if not digits and ("_" in text or len(text.split(maxsplit=1)) > 1):  # Fraction reads these on some Pythons only
            raise _LiteralError(f"cannot interpret {value[:40]!r} as a rational")
        try:
            return Fraction(int(p), int(q or 1)) if digits else Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise _LiteralError(f"cannot interpret {value[:40]!r} as a rational") from exc
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _exponent_too_large(text: str) -> bool:
    try:
        return abs(int(text.lower().rpartition("e")[2])) > MAX_LITERAL_EXPONENT
    except ValueError:
        return False  # not an exponent; Fraction decides


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p"`` or ``"p/q"``, never as a decimal."""
    p, q = value.as_integer_ratio()
    return f"{p}" if q == 1 else f"{p}/{q}"


def _number_text(value: object) -> str:  # how an error names a value: repr, a Fraction as "p/q", a long number by its size
    if isinstance(value, (int, Fraction)) and (bits := value.numerator.bit_length() + value.denominator.bit_length()) > 122:
        return f"a rational of {bits} bits"  # 122 bits in all print in at most 40 characters; no long int is converted
    return format_rational(value) if isinstance(value, Fraction) else repr(value)


class _Record:
    """The base of the value types: frozen records as @dataclass(frozen=True) makes them.  The fields are a subclass's
    own annotated names, in order, a class attribute after "=" a field's default.  A type's first record writes the
    type's own __init__, as @dataclass does, so Python binds every later call's arguments and words its TypeErrors;
    writing it on first use, not at class creation, keeps that cost off import for the types it does not build."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)  # names only: under postponed annotations no type is evaluated

    def __init__(self, *args: object, **kwargs: object) -> None:
        cls, fields = type(self), self._fields
        scope = {name: vars(cls)[name] for name in fields if name in vars(cls)}  # the defaults, named in the source
        params = ", ".join(f"{name}={name}" if name in scope else name for name in fields)
        body = f"self.__dict__.update({', '.join(f'{name}={name}' for name in fields)})"
        exec(f"def __init__(self, {params}):\n {body}\n" + " self.__post_init__()" * hasattr(cls, "__post_init__"), scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"  # the name Python's TypeErrors give
        cls.__init__(self, *args, **kwargs)

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(map('{}={!r}'.format, self._fields, self._values()))})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Matching(_Record):
    """A perfect assignment of n workers to n enterprises.

    ``image[i]`` is the enterprise assigned to worker ``i``; the image must be
    a permutation of 0..n-1.  Immutable and hashable.
    """

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.image)
        if n == 0:
            raise NotAPermutation("empty image")
        seen = [False] * n
        for j in self.image:
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < n:
                raise NotAPermutation(f"index {_number_text(j)} out of range for size {n}")
            if seen[j]:
                raise NotAPermutation(f"index {j} appears twice in ({', '.join(map(_number_text, self.image))})")
            seen[j] = True

    @property
    def n(self) -> int:
        return len(self.image)

    def __getitem__(self, worker: int) -> int:
        return self.image[worker]

    def inverse(self) -> Matching:
        """The enterprise-to-worker view: ``inverse()[m[i]] == i``."""
        inv = [0] * self.n
        for worker, enterprise in enumerate(self.image):
            inv[enterprise] = worker
        return Matching(tuple(inv))


def all_matchings(n: int) -> tuple[Matching, ...]:
    """All n! matchings of size n, in lexicographic order of the image.

    Raises SizeTooLarge for n above ENUMERATION_CAP.
    """
    if n < 1:
        raise ValueError(f"market size must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise SizeTooLarge(f"refusing to enumerate {n}! matchings (cap is {ENUMERATION_CAP})")
    matchings = tuple(object.__new__(Matching) for _ in range(math.factorial(n)))
    for matching, image in zip(matchings, permutations(range(n))):  # valid: skip __post_init__'s check
        object.__setattr__(matching, "image", image)  # vars(matching) would make each a dict object (Python 3.11+)
    return matchings


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


class UtilityMatrix(_Record):
    """A square grid of exact rational utilities with row/column labels.

    Entries may be any rationals; nonnegativity is a property of the market
    data, not of the type (the solvers are sign-agnostic).
    """

    entries: tuple[tuple[Fraction, ...], ...]
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise DimensionMismatch("utility matrix must have size at least 1")
        for row in self.entries:
            if len(row) != n:
                raise DimensionMismatch(f"matrix is not square: row of length {len(row)} in size-{n} matrix")
        if len(self.row_labels) != n or len(self.col_labels) != n:
            raise DimensionMismatch("label lists must match the matrix size")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[RationalLike]], row_labels: Sequence[str] | None = None,
                  col_labels: Sequence[str] | None = None) -> UtilityMatrix:
        """Build a matrix from nested iterables, coercing entries to rationals."""
        entries = tuple(tuple(as_rational(v) for v in row) for row in rows)
        n = len(entries)
        return cls(entries, tuple(row_labels) if row_labels is not None else _default_labels("r", n),
                   tuple(col_labels) if col_labels is not None else _default_labels("c", n))

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def _distinct(self) -> list[Fraction]:
        """Each entry object once, by identity, for the assignment solvers; parse_market sets it from its literal
        memo.  Not a field: eq, hash and repr skip it, and a matrix built from another's entries derives its own."""
        return list({id(v): v for row in self.entries for v in row}.values())


class GameInstance(_Record):
    """A bilateral market: workers' utilities A and enterprises' utilities B.

    A is worker-row by enterprise-column; B is enterprise-row by
    worker-column.  Both must have the same size n.
    """

    worker_utilities: UtilityMatrix
    enterprise_utilities: UtilityMatrix

    def __post_init__(self) -> None:
        if self.worker_utilities.n != self.enterprise_utilities.n:
            raise DimensionMismatch(f"worker matrix has size {self.worker_utilities.n} "
                                    f"but enterprise matrix has size {self.enterprise_utilities.n}")

    @property
    def n(self) -> int:
        return self.worker_utilities.n
