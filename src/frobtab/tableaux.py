"""Two-row tableaux on the alphabet {1..n}, with the cap-2 semistandard variant.

A ``Tableau`` is an arbitrary two-row filling (validation of monotonicity is
left to the predicates, since rewriting passes intermediate fillings around).
The package validates at its boundary: ``Tableau(...)`` and ``parse_tableau``
check the shape, the alphabet size and every entry.  Rows the package builds
itself, from ``range(1, n + 1)`` or by rearranging the entries of a tableau
that is already valid, go through ``_unchecked_tableau``, which makes the same
frozen object without the checks (they cost more than the object itself).
Two predicates matter:

* ``is_ssyt`` — the classical condition: rows weakly increase, columns
  strictly increase.
* ``is_2ssyt`` — the cap-2 variant: rows strictly increase and columns
  weakly increase, so a column may hold two equal entries.  It is
  cross-checked against the transpose oracle (a filling is cap-2
  semistandard exactly when its transposed filling is classically
  semistandard).

The module also provides a generic column-strict enumerator for arbitrary
partition shapes, which serves as the independent oracle for counts and for
classical Schur polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import le, lt
from typing import Iterator, Sequence

from .gf2_exterior import MAX_N, _check_n, _is_int

__all__ = [
    "Tableau",
    "is_ssyt",
    "is_2ssyt",
    "rows_are_ssyt",
    "rows_are_2ssyt",
    "enumerate_tableaux",
    "weight",
    "transpose_shape",
    "transpose_tableau",
    "is_ssyt_rows",
    "enumerate_column_strict",
    "parse_tableau",
    "format_tableau",
]


@dataclass(frozen=True, slots=True)
class Tableau:
    """A two-row filling; ``row2`` may be shorter than ``row1``."""

    row1: tuple[int, ...]
    row2: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "row1", tuple(self.row1))
        object.__setattr__(self, "row2", tuple(self.row2))
        if len(self.row2) > len(self.row1):
            raise ValueError("second row longer than first")
        if not _is_int(self.n) or not 1 <= self.n <= MAX_N:
            raise ValueError(f"need an int n in 1..{MAX_N}, got {self.n!r}")
        for v in self.row1 + self.row2:
            if not _is_int(v) or not 1 <= v <= self.n:
                raise ValueError(f"entry {v!r} is not an int in 1..{self.n}")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row1), len(self.row2))

    def __str__(self) -> str:
        return format_tableau(self)


# the slot descriptors' setters
_set_row1 = Tableau.row1.__set__
_set_row2 = Tableau.row2.__set__
_set_n = Tableau.n.__set__


def _unchecked_tableau(row1: tuple[int, ...], row2: tuple[int, ...], n: int) -> Tableau:
    """``Tableau(row1, row2, n)`` without its checks, for rows the package
    builds itself: tuples of ints in 1..n, ``row2`` no longer than ``row1``.

    The slots are filled through their descriptors, which the frozen
    ``__setattr__`` does not guard, so the object compares, hashes and
    refuses assignment like a checked one.
    """
    t = object.__new__(Tableau)
    _set_row1(t, row1)
    _set_row2(t, row2)
    _set_n(t, n)
    return t


def rows_are_ssyt(row1: Sequence[int], row2: Sequence[int]) -> bool:
    """Classical semistandard check on raw rows."""
    return (
        all(map(le, row1, row1[1:]))
        and all(map(le, row2, row2[1:]))
        and all(map(lt, row1, row2))
    )


def is_ssyt(t: Tableau) -> bool:
    return rows_are_ssyt(t.row1, t.row2)


def is_2ssyt(t: Tableau) -> bool:
    """Cap-2 semistandard: rows strictly increase, columns weakly increase."""
    return rows_are_2ssyt(t.row1, t.row2)


def rows_are_2ssyt(row1: Sequence[int], row2: Sequence[int]) -> bool:
    """Cap-2 semistandard check on raw rows.  Columns with equal entries need
    no further check: the value's run in each row is at least 1 long, so the
    two runs reach the cap 2."""
    return (
        all(map(lt, row1, row1[1:]))
        and all(map(lt, row2, row2[1:]))
        and all(map(le, row1, row2))
    )


def weight(t: Tableau) -> tuple[int, ...]:
    """Multiplicity of each letter 1..n over both rows."""
    w = [0] * t.n
    for v in t.row1 + t.row2:
        w[v - 1] += 1
    return tuple(w)


def enumerate_tableaux(shape: tuple[int, int], n: int, kind: str = "ssyt") -> list[Tableau]:
    """All tableaux of the given two-row shape, sorted lexicographically.

    ``kind`` is ``"ssyt"`` (classical) or ``"2ssyt"`` (cap-2).  Rows come from
    ``itertools``: ``combinations`` for the strict rows of cap-2 tableaux,
    ``combinations_with_replacement`` for the weak rows of classical ones.
    Both yield their rows in lexicographic order, and the bottom row varies
    fastest, so the result is ordered by (row1, row2) and free of duplicates.
    Whether a bottom row fits under a top row depends only on the top row's
    head ``row1[:len2]``, and the top rows come in lexicographic order, so
    the rows sharing a head are consecutive: the bottom rows that fit a head
    are found once, from the rows that start at the least letter its first
    column allows (``head[0]`` for cap-2, ``head[0] + 1`` for classical), and
    reused for each top row with that head.  The rows are valid by
    construction, so the tableaux are built unchecked.
    """
    if kind not in ("ssyt", "2ssyt"):
        raise ValueError(f"unknown tableau kind {kind!r}")
    _check_n(n)
    len1, len2 = shape
    if len2 > len1 or len2 < 0:
        raise ValueError(f"invalid two-row shape {shape}")
    if kind == "2ssyt":
        rows, column, gap = combinations, le, 0
    else:
        rows, column, gap = combinations_with_replacement, lt, 1
    bottoms = {lo: list(rows(range(lo, n + 1), len2)) for lo in range(1, n + 2)}
    out: list[Tableau] = []
    head: tuple[int, ...] | None = None
    fits: list[tuple[int, ...]] = []
    for row1 in rows(range(1, n + 1), len1):
        if row1[:len2] != head:
            head = row1[:len2]
            fits = [
                row2
                for row2 in bottoms[head[0] + gap if head else 1]
                if all(map(column, head, row2))
            ]
        out += [_unchecked_tableau(row1, row2, n) for row2 in fits]
    return out


def transpose_shape(shape: tuple[int, int]) -> tuple[int, ...]:
    """Conjugate partition of a two-row shape: (2,...,2,1,...,1)."""
    len1, len2 = shape
    return (2,) * len2 + (1,) * (len1 - len2)


def transpose_tableau(t: Tableau) -> tuple[tuple[int, ...], ...]:
    """The transposed filling: column j of ``t`` becomes row j."""
    len1, len2 = t.shape
    rows = []
    for j in range(len1):
        if j < len2:
            rows.append((t.row1[j], t.row2[j]))
        else:
            rows.append((t.row1[j],))
    return tuple(rows)


def is_ssyt_rows(rows: Sequence[Sequence[int]]) -> bool:
    """Classical semistandard check for an arbitrary partition-shaped filling."""
    lengths = [len(r) for r in rows]
    if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)):
        return False
    for r in rows:
        if any(r[i] > r[i + 1] for i in range(len(r) - 1)):
            return False
    for i in range(1, len(rows)):
        for j in range(len(rows[i])):
            if rows[i - 1][j] >= rows[i][j]:
                return False
    return True


def enumerate_column_strict(partition: Sequence[int], n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All classical semistandard fillings of a partition shape on {1..n}.

    Independent of the two-row machinery; used as the counting oracle and
    for classical Schur polynomials.  Yields fillings as tuples of rows.
    """
    shape = tuple(partition)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(p < 0 for p in shape):
        raise ValueError(f"not a partition: {partition}")
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        yield ()
        return
    rows: list[list[int]] = [[] for _ in shape]

    def rec(i: int, j: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i == len(shape):
            yield tuple(tuple(r) for r in rows)
            return
        ni, nj = (i, j + 1) if j + 1 < shape[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = rows[i][j - 1]
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, n + 1):
            rows[i].append(v)
            yield from rec(ni, nj)
            rows[i].pop()

    yield from rec(0, 0)


def format_tableau(t: Tableau) -> str:
    """Wire format ``"1 1 2 3 / 2 3 4 5"``; an empty side is left blank."""
    return (" ".join(map(str, t.row1)) + " / " + " ".join(map(str, t.row2))).strip()


def parse_tableau(text: str, n: int) -> Tableau:
    parts = text.split("/")
    if len(parts) != 2:
        raise ValueError(f"tableau text must contain exactly one '/': {text!r}")
    row1 = tuple(int(v) for v in parts[0].split())
    row2 = tuple(int(v) for v in parts[1].split())
    return Tableau(row1, row2, n)
