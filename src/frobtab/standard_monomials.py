"""Standard monomials attached to two-row tableaux, and the cap-2 basis sets.

A tableau of shape (r1, d) together with a split point ``a`` encodes the
element

    product of column minors [row1[i], row2[i]]  (i = 1..d)
    times x-variables at row1 positions d+1..a
    times y-variables at row1 positions a+1..r1.

``_monomial_terms`` builds it on (xmask, ymask) term sets: the two tail
masks, times one column minor after another.  ``standard_monomial`` wraps
the set in an ``ExtElement``, and the straightening loops add the sets up.
The basis certificate needs only x-masks: the element lies in one weight
space, where the x-mask of a term fixes its y-mask and every letter used
twice carries x_v*y_v.  So ``_monomial_xmasks`` returns the terms as plain
ints on the letters used once, relabelled, read off the paths and cycles
that the columns form, with no product taken and nothing to cancel.
``_tail_masks`` is the one test for rows that cancel on their entries alone
(it returns None for them); the term builder and both straightening loops
use it.

For an index triple (a, b, d) the basis of the ideal-power subquotient in
bidegree (a, b) is indexed by cap-2 semistandard tableaux through a
case-split rectification map that turns them into classical semistandard
tableaux by swapping maximal blocks of identical columns.
``_rectify_rows`` and ``_exact_support_rows`` do that work on raw row
pairs; ``rectify`` and ``exact_support_basis`` wrap them in ``Tableau``s.
``_rectify_pairs`` rectifies the pairs of one support with every check,
classifying the triple once, and gives each its weight (the letters used
twice, as a bitmask): the basis certificate reads its rows as they come,
and ``_support_table`` groups them by weight and caches the table for the
straightness lookup and for straightening.  Straight means in the image of
rectification: ``rows_two_straight`` relabels its rows onto 1..m and looks
them up in ``_straight_rows``, the rows of that table, so straightness has
no case split of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby
from operator import eq, itemgetter, le, lt
from typing import Iterable, Iterator

from .gf2_exterior import MAX_N, ExtElement, _is_int, _times_minor
from .symfunc import CASE_ALL_EQUAL, CASE_OFF_BY_ONE, classify_triple
from .tableaux import Tableau, _unchecked_tableau, enumerate_tableaux, rows_are_2ssyt

__all__ = [
    "DomainError",
    "IndexTriple",
    "case_tag",
    "standard_monomial",
    "rectify",
    "two_standard_monomial",
    "basis_index_set",
    "exact_support_basis",
    "is_two_straight",
    "rows_two_straight",
]


# a pair (row1, row2) of tableau rows
Rows = tuple[tuple[int, ...], tuple[int, ...]]


class DomainError(ValueError):
    """Raised when a tableau is outside the domain of a construction map."""


@dataclass(frozen=True)
class IndexTriple:
    """Bidegree (a, b) and ideal power d, with the alphabet bound n."""

    a: int
    b: int
    d: int
    n: int

    def __post_init__(self) -> None:
        for field in (self.a, self.b, self.d, self.n):
            if not _is_int(field):
                raise DomainError(f"index triple fields must be ints, got {field!r}")
        if not self.a >= self.b >= self.d >= 0:
            raise DomainError(f"need a >= b >= d >= 0, got {(self.a, self.b, self.d)}")
        if not 1 <= self.n <= MAX_N:
            raise DomainError(f"need 1 <= n <= {MAX_N}, got {self.n}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a + self.b - self.d, self.d)

    def __str__(self) -> str:
        return f"(a={self.a}, b={self.b}, d={self.d}, n={self.n})"


def case_tag(idx: IndexTriple) -> str:
    return classify_triple(idx.a, idx.b, idx.d)


def standard_monomial(t: Tableau, a: int) -> ExtElement:
    """The element encoded by a tableau with split point ``a``.

    Returns the zero element when the algebra cancels (degenerate column,
    repeated minor, a letter used three times, repeated tail variable); it
    never raises for that.
    """
    _check_split_point(t, a)
    return ExtElement(_monomial_terms(t.row1, t.row2, a), t.n)


def _check_split_point(t: Tableau, a: int) -> None:
    """Raise ``DomainError`` unless ``a`` is an int in the columns d..r1 of ``t``."""
    if not _is_int(a) or not len(t.row2) <= a <= len(t.row1):
        r1, d = t.shape
        raise DomainError(f"split point a={a!r} outside columns {d}..{r1} of shape {t.shape}")


def _monomial_terms(row1: tuple[int, ...], row2: tuple[int, ...], a: int) -> set[tuple[int, int]]:
    """Term set of ``standard_monomial`` on raw rows, unchecked; empty when it cancels."""
    tails = _tail_masks(row1, row2, a)
    if tails is None:
        return set()
    terms = {tails}
    for u, w in zip(row1, row2):
        terms = _times_minor(terms, 1 << (u - 1), 1 << (w - 1))
    return terms


def _monomial_xmasks(
    row1: tuple[int, ...], row2: tuple[int, ...], a: int, label: list[int], low: int
) -> list[int]:
    """The x-masks of ``_monomial_terms`` on the letters used once, with the
    letter v at the bit ``label[v]``: the letters used once on the bits of
    ``low``, those used twice above them.  No letter may be used three
    times (true of every cap-2 tableau).

    The monomial lies in one weight space, where every term carries
    x_v*y_v for each letter v used twice, so the masks leave those letters
    out, and each product collapses as the ``characters`` docstring shows.
    Read each column as an edge and each tail entry as a mark on its
    letter; a letter used twice then has two incidences.

    * A repeated x-tail or y-tail letter shows in the popcount of its tail.
    * A column of two letters used once is a free pair: either end takes x.
    * A path through letters used twice is one minor on its ends.  A letter
      used twice and marked by a tail is an end whose variable is fixed: an
      x-tail gives the path's far end its x, a y-tail its y.  So a path
      between two ends marked alike is zero, one between ends marked
      differently is one term, and one from a marked end to a letter used
      once fixes that letter; a path between two letters used once is one
      more free pair.
    * A cycle is zero; a degenerate column or a repeated one is a cycle.

    The row is the fixed mask (the x-tail's letters used once, and each end
    given an x) doubled by each free pair, so no two masks are equal.
    """
    d = len(row2)
    # a sum of label bits is their union when they are distinct
    xm = sum(map(label.__getitem__, row1[d:a]))
    ym = sum(map(label.__getitem__, row1[a:]))
    if xm.bit_count() < a - d or ym.bit_count() < len(row1) - a:
        return []
    inner = ~(low | xm | ym)  # the letters used twice in no tail
    fixed = xm & low
    far = {}  # the open end of each path walked so far -> its other end
    free = []
    for u, w in zip(row1, row2):
        p, q = label[u], label[w]
        if (p | q) <= low:
            free.append((p, q))
            continue
        # glue the column onto the paths that end at p or q
        if p & inner and p in far:
            p = far.pop(p)
        if p == q:
            return []  # a degenerate column, or one that closes a cycle
        if q & inner and q in far:
            q = far.pop(q)
        ends = p | q
        if ends & inner:  # the path is still open
            if p & inner:
                far[p] = q
            if q & inner:
                far[q] = p
        elif ends <= low:
            free.append((p, q))
        elif ends & xm == ends or ends & ym == ends:
            return []  # both ends take x from their tails, or both take y
        elif ends & xm:
            fixed |= ends & low
    masks = [fixed]
    for p, q in free:
        masks = [*map(p.__or__, masks), *map(q.__or__, masks)]
    return masks


def _tail_masks(A: tuple[int, ...], B: tuple[int, ...], a: int) -> tuple[int, int] | None:
    """The x-tail and y-tail masks (bit v-1 for the letter v) of rows read
    with split point ``a``, or None when the rows are a syntactic zero: a
    letter used three times, a letter repeated in the x tail ``A[d:a]`` or
    the y tail ``A[a:]``, or a repeated column among the first ``d = len(B)``.

    Each of these makes the standard monomial zero, whatever the order of the
    entries: a letter carries at most x_v*y_v, variables square to zero, and
    a minor squares to zero mod 2.  A degenerate column (u, u) is zero too
    but is left to the callers, which treat it apart.
    """
    d = len(B)
    # letters seen once and seen twice, and the tails, at bit v for letter v
    once = twice = x_tail = y_tail = 0
    for i, v in enumerate(A):
        bit = 1 << v
        if twice & bit:
            return None
        twice |= once & bit
        once |= bit
        if i < d:
            continue
        if i < a:
            if x_tail & bit:
                return None
            x_tail |= bit
        elif y_tail & bit:
            return None
        else:
            y_tail |= bit
    for v in B:
        bit = 1 << v
        if twice & bit:
            return None
        twice |= once & bit
        once |= bit
    if len(set(zip(A, B))) < d:
        return None
    return x_tail >> 1, y_tail >> 1


def rectify(t: Tableau, idx: IndexTriple) -> Tableau:
    """Rewrite a cap-2 semistandard tableau as a classical semistandard one.

    Case split on the triple:

    * generic: shape (a+b-d, d); every maximal identical-column block
      [i..k] swaps row1[i+1..k+1] with row2[i..k].
    * a = b = d: shape (a, a) with distinct rows; interior blocks swap as
      above, and the block reaching the last column (which starts at i >= 2)
      swaps row1[i..a] with row2[i-1..a-1].
    * a-1 = b-1 = d: shape (a+1, a-1) swaps as in the generic case; the
      identical-row square tableau first becomes the filling
      (row1 + last entry / row1 minus last entry) and is then swapped.

    Every swap reads the original rows, so swapping a block is swapping each
    of its identical columns c (0-based): row1[c+1] takes row2[c] and row2[c]
    takes row1[c+1], or at the end of a square row1[c] takes row2[c-1] and
    row2[c-1] takes row1[c].
    """
    if t.n != idx.n:
        raise DomainError(f"tableau over n={t.n} but index triple over n={idx.n}")
    return _unchecked_tableau(*_rectify_rows(t.row1, t.row2, idx.a, idx.b, idx.d), t.n)


def _rectify_rows(row1: tuple[int, ...], row2: tuple[int, ...], a: int, b: int, d: int) -> Rows:
    """``rectify`` on raw rows, with every check but the alphabet's."""
    ((_, rows),) = _rectify_pairs(((row1, row2),), a, b, d)
    return rows


def _rectify_pairs(pairs: Iterable[Rows], a: int, b: int, d: int) -> Iterator[tuple[int, Rows]]:
    """``_rectify_rows`` on each (row1, row2) of ``pairs``, in order, each
    with its weight: the letters the pair uses twice, at bit v for the
    letter v.

    The triple is classified once.  Pairs come in runs of one row 1 (as
    ``_exact_support_rows`` lists them), and the checks and the letters of
    that row are found once per run; every pair still passes every check.
    A checked pair is cap-2, so neither row repeats a letter and the letters
    used twice are those both rows hold; rectifying keeps the entries.
    """
    case = classify_triple(a, b, d)
    len1 = a + b - d
    shape = (len1, d)
    square = (a, a) if case == CASE_OFF_BY_ONE else None
    all_equal = case == CASE_ALL_EQUAL
    bit = _LETTER_BITS.__getitem__
    for row1, run in groupby(pairs, itemgetter(0)):
        strict1 = len(row1) == len1 and all(map(lt, row1, row1[1:]))
        letters1 = sum(map(bit, row1))
        for pair in run:
            row2 = pair[1]
            if (len(row1), len(row2)) == square:
                if row1 != row2 or not rows_are_2ssyt(row1, row2):
                    raise DomainError(
                        f"square input must be an identical-row cap-2 tableau: {row1} / {row2}"
                    )
                twice = letters1
                rows = _swap_identical_columns(row1 + row1[-1:], row1[:-1], False)
            else:
                if not (
                    strict1
                    and len(row2) == d
                    and all(map(lt, row2, row2[1:]))
                    and all(map(le, row1, row2))
                ):
                    raise DomainError(
                        f"rows {row1} / {row2} not cap-2 semistandard of shape {shape}"
                    )
                if all_equal and row1 == row2:
                    raise DomainError(f"identical rows are excluded for a=b=d: {row1} / {row2}")
                twice = letters1 & sum(map(bit, row2))
                if any(map(eq, row1, row2)):
                    rows = _swap_identical_columns(row1, row2, all_equal)
                else:
                    rows = pair  # nothing to swap: the pair itself, not a copy
            yield twice, rows


# the bit 1 << v of each letter v of an alphabet 1..MAX_N
_LETTER_BITS = [1 << v for v in range(MAX_N + 1)]


def _swap_identical_columns(row1: tuple[int, ...], row2: tuple[int, ...], all_equal: bool) -> Rows:
    """The swaps of ``rectify`` on checked rows; ``all_equal`` for the square
    shape of a = b = d, whose block reaching the last column swaps one column
    to the left."""
    new1, new2 = list(row1), list(row2)
    end = len(row2)
    if all_equal:
        # the identical columns from `end` on reach the last column of the
        # square; end >= 1 because the rows are not identical
        while row1[end - 1] == row2[end - 1]:
            end -= 1
    for c in range(len(row2)):
        if row1[c] != row2[c]:
            continue
        if c < end:
            new1[c + 1], new2[c] = row2[c], row1[c + 1]
        else:
            new1[c], new2[c - 1] = row2[c - 1], row1[c]
    return tuple(new1), tuple(new2)


def two_standard_monomial(t: Tableau, idx: IndexTriple) -> ExtElement:
    """Standard monomial of the rectified tableau."""
    return standard_monomial(rectify(t, idx), idx.a)


def basis_index_set(idx: IndexTriple) -> list[Tableau]:
    """The cap-2 tableaux indexing the subquotient basis for this triple."""
    case = case_tag(idx)
    if case == CASE_ALL_EQUAL:
        return [
            t
            for t in enumerate_tableaux((idx.a, idx.a), idx.n, "2ssyt")
            if t.row1 != t.row2
        ]
    if case == CASE_OFF_BY_ONE:
        out = enumerate_tableaux((idx.a + 1, idx.a - 1), idx.n, "2ssyt")
        out += [_unchecked_tableau(r, r, idx.n) for r in combinations(range(1, idx.n + 1), idx.a)]
        return out
    return enumerate_tableaux(idx.shape, idx.n, "2ssyt")


def exact_support_basis(a: int, b: int, d: int, m: int) -> list[Tableau]:
    """The tableaux of ``basis_index_set`` for (a, b, d) whose letters are
    exactly 1..m, over the alphabet 1..max(m, 1).

    Every rule that reads a basis tableau only compares its entries, so the
    basis at any n is the union, over the m-letter subsets of 1..n, of these
    tableaux moved onto each subset in order.
    """
    n = max(m, 1)
    return [_unchecked_tableau(row1, row2, n) for row1, row2 in _exact_support_rows(a, b, d, m)]


def _exact_support_rows(
    a: int, b: int, d: int, m: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (row1, row2) pairs of ``exact_support_basis``, built directly:
    row 2 holds every letter that row 1 misses, plus ``shared`` =
    len2 - (m - len1) letters of row 1.  The cases follow
    ``basis_index_set``: a = b = d drops identical rows, and
    a - 1 = b - 1 = d adds the square (1..a / 1..a) when m = a.

    Only kept rows are built.  The columns hold (row1[c] <= row2[c] for
    every c) exactly when, below each letter, row 2 has no more letters than
    row 1.  That is tightest just above a missing letter: if q is the r-th
    missing letter, row 1 holds the q - r letters below q, so at most
    q - 2r shared letters lie below q, and from the (q - 2r + 1)-st on each
    must exceed q (``above``).  A row 1 with q < 2r has no row 2; for the
    others, the choices of shared letters (from ``combinations``, in order)
    that clear ``above`` are exactly the kept ones, and only they are merged
    and sorted into a row 2.
    """
    case = classify_triple(a, b, d)
    len1, len2 = a + b - d, d
    shared = len2 - (m - len1)
    out = []
    if shared >= 0:
        letters = set(range(1, m + 1))
        for row1 in combinations(range(1, m + 1), len1):
            missing = tuple(sorted(letters.difference(row1)))
            above = [0] * shared
            for r, q in enumerate(missing, 1):
                if q < 2 * r:
                    break
                for j in range(q - 2 * r, shared):
                    above[j] = q
            else:
                for extra in combinations(row1, shared):
                    if all(map(lt, above, extra)):
                        row2 = tuple(sorted(missing + extra))
                        if not (case == CASE_ALL_EQUAL and row1 == row2):
                            out.append((row1, row2))
    if case == CASE_OFF_BY_ONE and m == a:
        out.append((tuple(range(1, a + 1)), tuple(range(1, a + 1))))
    return out


def is_two_straight(t: Tableau, idx: IndexTriple) -> bool:
    """Whether a tableau is straight: the rectification of a tableau of
    ``basis_index_set(idx)``.

    Every rule of the basis and of ``rectify`` only compares entries, so the
    test moves the rows onto the letters 1..m in their order and looks them
    up among the rectified basis rows on exactly those letters.
    """
    if t.n != idx.n:
        raise DomainError(f"tableau over n={t.n} but index triple over n={idx.n}")
    a, b, d = idx.a, idx.b, idx.d
    r1 = a + b - d
    if t.shape != (r1, d):
        raise DomainError(f"tableau shape {t.shape}, expected {(r1, d)}")
    return rows_two_straight(t.row1, t.row2, a, b, d)


def rows_two_straight(
    A: tuple[int, ...], B: tuple[int, ...], a: int, b: int, d: int
) -> bool:
    """Raw-row version of ``is_two_straight`` (no shape or alphabet checks):
    the rows, relabelled onto 1..m, are among ``_straight_rows(a, b, d, m)``."""
    rows, letters = _relabel_rows((A, B))
    return rows in _straight_rows(a, b, d, len(letters))


@lru_cache(maxsize=None)
def _support_table(a: int, b: int, d: int, m: int) -> dict[int, list[Rows]]:
    """The straight rows of (a, b, d) whose letters are exactly 1..m, by
    weight: the letters used twice, as a bitmask, map to the rectified
    ``_exact_support_rows`` of that weight, in their order, every row
    checked (``_rectify_pairs``).

    Cached for the straightness lookup and for straightening, for the life
    of the process; m is at most the number of entries, a + b.  The caller
    must not change it.  The basis certificate reads the rows from
    ``_rectify_pairs`` as they come and never fills this cache.
    """
    table: dict[int, list[Rows]] = {}
    for twice, rows in _rectify_pairs(_exact_support_rows(a, b, d, m), a, b, d):
        table.setdefault(twice, []).append(rows)
    return table


@lru_cache(maxsize=None)
def _straight_rows(a: int, b: int, d: int, m: int) -> frozenset[Rows]:
    """The straight rows of (a, b, d) whose letters are exactly 1..m: the
    image of ``_exact_support_rows`` under ``_rectify_rows``, the rows of
    every weight of ``_support_table``.  Cached for the life of the
    process."""
    return frozenset(chain.from_iterable(_support_table(a, b, d, m).values()))


def _relabel_rows(rows: Rows) -> tuple[Rows, list[int]]:
    """``rows`` moved onto the letters 1..m in their order, and the m distinct
    letters sorted; ``rows`` itself when its letters already are 1..m.

    Straightness and straightening only compare entries, so the relabelled
    rows answer for the original ones.
    """
    A, B = rows
    letters = sorted({*A, *B})
    m = len(letters)
    if not m or letters[-1] == m:
        return rows, letters
    code = dict(zip(letters, range(1, m + 1)))
    return (tuple(map(code.__getitem__, A)), tuple(map(code.__getitem__, B))), letters
