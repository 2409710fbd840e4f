"""Exact-arithmetic core types: rationals, utility matrices, matchings, game instances.

All solver-facing values are `fractions.Fraction`; no floating point enters any
solution path, so results such as 3/2 or a regret of 41 are exact and equality
is unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Sequence, Union

RationalLike = Union[int, str, Fraction]

# Full enumeration of matchings is refused above this size (8! = 40320 rows
# is the ceiling for desk-scale tables and brute-force oracles).
ENUMERATION_CAP = 8

# Bounds on a numeric string read from input.  Fraction("1e<K>") builds
# 10**K at a cost superlinear in K, and digit strings convert in quadratic
# time, so without them a small input file could stall parsing.
MAX_LITERAL_LENGTH = 1000
MAX_LITERAL_EXPONENT = 1000

# The assignment solvers scale a matrix by its entries' common denominator, where distinct denominators' bits add up.
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


def as_rational(value: RationalLike) -> Fraction:
    """Coerce a value to an exact rational.

    Accepts ints, Fractions, and strings in ``"p/q"``, integer, or decimal
    form ("3/2", "7", "0.25"); any other type, a float or a bool included, is
    a TypeError, so no floating point enters.  A string longer than MAX_LITERAL_LENGTH, with an
    exponent beyond MAX_LITERAL_EXPONENT, or with "_" or inner whitespace is rejected with ValueError.
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
            raise ValueError(f"numeric literal of {len(text)} characters is longer than {MAX_LITERAL_LENGTH}")
        if ("e" in text or "E" in text) and _exponent_too_large(text):
            raise ValueError(f"exponent of {text!r} is beyond ±{MAX_LITERAL_EXPONENT}")
        if "_" in text or len(text.split(maxsplit=1)) > 1:  # Fraction reads these on some Pythons only
            raise ValueError(f"cannot interpret {value!r} as a rational")
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot interpret {value!r} as a rational") from exc
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


@dataclass(frozen=True)
class Matching:
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
                raise NotAPermutation(f"index {j!r} out of range for size {n}")
            if seen[j]:
                raise NotAPermutation(f"index {j} appears twice in {self.image}")
            seen[j] = True

    @property
    def n(self) -> int:
        return len(self.image)

    def __getitem__(self, worker: int) -> int:
        return self.image[worker]

    def __iter__(self):
        return iter(self.image)

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
        object.__setattr__(matching, "image", image)
    return matchings


def _default_labels(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


@dataclass(frozen=True)
class UtilityMatrix:
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
    def from_rows(
        cls,
        rows: Iterable[Iterable[RationalLike]],
        row_labels: Sequence[str] | None = None,
        col_labels: Sequence[str] | None = None,
    ) -> UtilityMatrix:
        """Build a matrix from nested iterables, coercing entries to rationals."""
        entries = tuple(tuple(as_rational(v) for v in row) for row in rows)
        n = len(entries)
        return cls(
            entries=entries,
            row_labels=tuple(row_labels) if row_labels is not None else _default_labels("r", n),
            col_labels=tuple(col_labels) if col_labels is not None else _default_labels("c", n),
        )

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class GameInstance:
    """A bilateral market: workers' utilities A and enterprises' utilities B.

    A is worker-row by enterprise-column; B is enterprise-row by
    worker-column.  Both must have the same size n.
    """

    worker_utilities: UtilityMatrix
    enterprise_utilities: UtilityMatrix

    def __post_init__(self) -> None:
        if self.worker_utilities.n != self.enterprise_utilities.n:
            raise DimensionMismatch(
                f"worker matrix has size {self.worker_utilities.n} "
                f"but enterprise matrix has size {self.enterprise_utilities.n}"
            )

    @property
    def n(self) -> int:
        return self.worker_utilities.n
