"""Rewriting of tableau products into (cap-2) straight form.

Two straightenings live here, on one term form: a pair of rows
``(row1, row2)`` read with the split point ``a`` as in ``standard_monomial``
(column minors, then x-variables up to position ``a``, then y-variables).
Both drop syntactic zeroes (a letter used three times, a repeated tail
letter or a repeated column) with one bitmask test,
``standard_monomials._tail_masks``.

``classical_straighten`` works with exact identities in the squarefree
quotient: the three-term minor exchange, the minor-against-variable exchange,
and the split of a mixed x*y pair into its swap plus a minor.  It turns any
column-strict two-row filling into a GF(2) sum of classical semistandard
tableaux with exactly the same element value.  Because the pair split raises
the minor count, its output may mix strata (shapes (r1-k, d+k)).  No
exchange moves ``a``: it is the x-degree, and a new column takes one letter
from each tail.

``two_straighten`` rewrites a semistandard tableau, modulo the (d+1)-st power
of the minor ideal, into the straight tableaux: the image of rectification,
which ``rows_two_straight`` looks up.  The straight tableaux of one weight
are a basis of the d-th power modulo the (d+1)-st in that weight space, as
``characters.verify_triple`` certifies, so each input has exactly one
straight expansion, and one reduction reads it off: the input's row against
the straight rows of its weight, kept beside the block of the (d+1)-st power
with the straight rows each pivot sums (``_weight_expansion``).  Ideal
powers and straightness only see the order of the letters, so the memo and
the per-weight reductions work on rows relabelled onto the letters 1..m
(``standard_monomials._relabel_rows``).  A syntactic zero is dropped before
the memo is read, so the memo holds only non-zero patterns.  The paper's
junction rewriting rules reach the same sums; the test suite keeps them as
the oracle for this reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .characters import _orbit_block, _orbit_columns, _weight_label
from .gf2_exterior import ExtElement, minor, monomial
from .standard_monomials import (
    DomainError,
    IndexTriple,
    Rows,
    _check_split_point,
    _monomial_terms,
    _monomial_xmasks,
    _relabel_rows,
    _straight_rows,
    _support_table,
    _tail_masks,
)
from .tableaux import Tableau, _unchecked_tableau, rows_are_ssyt

__all__ = [
    "TableauSum",
    "StraighteningLimitExceeded",
    "StraighteningInvariantError",
    "classical_straighten",
    "two_straighten",
    "collapse_interlocked",
    "swap_repeat_33",
    "swap_repeat_32",
    "interlocked_triple",
]

ITERATION_CAP = 10**6


class StraighteningLimitExceeded(RuntimeError):
    """The classical work loop exceeded its iteration budget (indicates a cycle bug)."""


class StraighteningInvariantError(RuntimeError):
    """The straight rows of a weight failed to be a basis modulo the higher
    ideal power, against the certificate (a bug)."""


@dataclass(frozen=True, slots=True)
class TableauSum:
    """A GF(2) set of tableaux read as elements via the split point ``a``.

    Terms may mix shapes (exact classical straightening crosses strata);
    ``shape`` is None in that case.
    """

    terms: frozenset[Tableau]
    a: int
    n: int

    @property
    def shape(self) -> tuple[int, int] | None:
        shapes = {t.shape for t in self.terms}
        if len(shapes) == 1:
            return shapes.pop()
        return None

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(sorted(self.terms, key=lambda t: (t.row1, t.row2)))

    def element_sum(self) -> ExtElement:
        terms: set[tuple[int, int]] = set()
        for t in self.terms:
            if t.n != self.n:
                raise DomainError(f"term {t} over n={t.n} in a sum over n={self.n}")
            _check_split_point(t, self.a)
            terms ^= _monomial_terms(t.row1, t.row2, self.a)
        return ExtElement(terms, self.n)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return "  +  ".join(str(t) for t in self)


# ---------------------------------------------------------------------------
# classical straightening
# ---------------------------------------------------------------------------

def _normalize(A, B, a) -> Rows | None:
    """Canonical rows of a product term (each column ordered, columns and both
    tails sorted), or None for a degenerate column or a zero term."""
    d = len(B)
    cols = []
    for u, w in zip(A, B):
        if u == w:
            return None
        cols.append((u, w) if u < w else (w, u))
    cols.sort()
    tops, B = zip(*cols) if d else ((), ())
    A = (*tops, *sorted(A[d:a]), *sorted(A[a:]))
    if _tail_masks(A, B, a) is None:
        return None
    return (A, B)


def _classical_terms(row1, row2, a) -> set[Rows]:
    """Straighten a column-strict filling; returns the GF(2) set of
    semistandard normalized rows across all strata."""
    start = _normalize(row1, row2, a)
    out: set[Rows] = set()
    if start is None:
        return out
    work = [start]
    iters = 0
    while work:
        iters += 1
        if iters > ITERATION_CAP:
            raise StraighteningLimitExceeded(
                f"classical straightening of {row1}/{row2} exceeded {ITERATION_CAP} steps"
            )
        A, B = cur = work.pop()
        d = len(B)
        # exchange for an out-of-order adjacent column pair: values p<q<r<s
        # with columns (p,s),(q,r) rewrite to (p,q)(r,s) + (p,r)(q,s)
        i = next((i for i in range(d - 1) if A[i] < A[i + 1] and B[i] > B[i + 1]), None)
        if i is not None:
            p, q, r, s = A[i], A[i + 1], B[i + 1], B[i]
            moved = [
                (A[:i] + (p, r) + A[i + 2 :], B[:i] + (q, s) + B[i + 2 :]),
                (A[:i] + (p, q) + A[i + 2 :], B[:i] + (r, s) + B[i + 2 :]),
            ]
        # exchange when the last column top exceeds the first tail variable:
        # [u,w]*x_v = [v,u]*x_w + [v,w]*x_u for v < u < w (same in y)
        elif 0 < d < len(A) and A[d - 1] > A[d]:
            u, w, v = A[d - 1], B[d - 1], A[d]
            moved = [
                (A[: d - 1] + (v, w) + A[d + 1 :], B[: d - 1] + (u,)),
                (A[: d - 1] + (v, u) + A[d + 1 :], B[: d - 1] + (w,)),
            ]
        # split a decreasing x,y junction: x_w*y_z = x_z*y_w + [z,w] for z < w
        elif d < a < len(A) and A[a - 1] > A[a]:
            w, z = A[a - 1], A[a]
            moved = [
                (A[: a - 1] + (z, w) + A[a + 1 :], B),
                (A[:d] + (z,) + A[d : a - 1] + A[a + 1 :], B + (w,)),
            ]
        else:
            out ^= {cur}
            continue
        for A, B in moved:
            cand = _normalize(A, B, a)
            if cand is not None:
                work.append(cand)
    return out


def classical_straighten(t: Tableau, a: int) -> TableauSum:
    """Exact rewrite of a column-strict filling as a sum of semistandard tableaux.

    The element value is preserved exactly: the sum of the standard monomials
    of the output equals the standard monomial of the input.
    """
    _check_split_point(t, a)
    if any(t.row1[i] >= t.row2[i] for i in range(len(t.row2))):
        raise DomainError(f"columns must strictly increase: {t}")
    terms = _classical_terms(t.row1, t.row2, a)
    tabs = frozenset(_unchecked_tableau(A, B, t.n) for A, B in terms)
    return TableauSum(tabs, a, t.n)


# ---------------------------------------------------------------------------
# named exact identities on interlocked patterns
# ---------------------------------------------------------------------------


def collapse_interlocked(t: Tableau) -> ExtElement:
    """Value of the interlocked square pattern (α α β.. / ..β δ ε).

    For row1 = (α, α, β_1..β_m) and row2 = (β_1..β_m, δ, ε) the element
    collapses to x_α y_α · Π x_{β_i} y_{β_i} · [δ, ε].
    """
    r1, r2 = t.shape
    if r1 != r2 or r1 < 2:
        raise DomainError(f"need a square shape of side >= 2, got {t.shape}")
    m = r1 - 2
    if t.row1[0] != t.row1[1] or t.row1[2:] != t.row2[:m]:
        raise DomainError(f"rows do not interlock: {t}")
    alpha = t.row1[0]
    betas = t.row1[2:]
    delta, eps = t.row2[m], t.row2[m + 1]
    out = monomial([alpha], [alpha], t.n)
    for b in betas:
        out = out * monomial([b], [b], t.n)
    return out * minor(delta, eps, t.n)


def swap_repeat_33(t: Tableau) -> Tableau:
    """(α, α, γ / δ, ε, η) -> (ε, η, γ / δ, α, α); both have the same value."""
    if t.shape != (3, 3) or t.row1[0] != t.row1[1]:
        raise DomainError(f"expected shape (3,3) with a repeated first entry: {t}")
    alpha, _, gamma = t.row1
    delta, eps, eta = t.row2
    return Tableau((eps, eta, gamma), (delta, alpha, alpha), t.n)


def swap_repeat_32(t: Tableau) -> Tableau:
    """(α, α, γ / δ, ε) -> (δ, α, α / ε, γ); both have the same value."""
    if t.shape != (3, 2) or t.row1[0] != t.row1[1]:
        raise DomainError(f"expected shape (3,2) with a repeated first entry: {t}")
    alpha, _, gamma = t.row1
    delta, eps = t.row2
    return Tableau((delta, alpha, alpha), (eps, gamma), t.n)


def interlocked_triple(t: Tableau) -> tuple[Tableau, Tableau]:
    """The two partners whose values sum with the input to zero.

    Input row1 = (α, α, β_1..β_m, γ) and row2 = (β_1..β_m, δ, ε, [η]); the
    partners exchange γ with δ and with ε respectively.  Works for the square
    shape (m+3, m+3) and its truncation (m+3, m+2) without the η box.
    """
    r1, r2 = t.shape
    if r1 < 3 or r2 not in (r1, r1 - 1):
        raise DomainError(f"unsupported shape {t.shape}")
    m = r1 - 3
    has_eta = r1 == r2
    if t.row1[0] != t.row1[1] or t.row1[2 : 2 + m] != t.row2[:m]:
        raise DomainError(f"rows do not interlock: {t}")
    gamma = t.row1[-1]
    head = t.row1[:-1]
    betas = t.row2[:m]
    if has_eta:
        delta, eps, eta = t.row2[m], t.row2[m + 1], t.row2[m + 2]
        t1 = Tableau(head + (delta,), betas + (gamma, eps, eta), t.n)
        t2 = Tableau(head + (eps,), betas + (gamma, delta, eta), t.n)
    else:
        delta, eps = t.row2[m], t.row2[m + 1]
        t1 = Tableau(head + (delta,), betas + (gamma, eps), t.n)
        t2 = Tableau(head + (eps,), betas + (gamma, delta), t.n)
    return (t1, t2)


# ---------------------------------------------------------------------------
# cap-2 straightening
# ---------------------------------------------------------------------------

# (relabelled rows, a, b, d) -> straight rows; see ``_ts``
_TS_CACHE: dict[tuple, frozenset[Rows]] = {}


def _ts(rows: Rows, a: int, b: int, d: int) -> frozenset[Rows]:
    """Straight rows for ``rows``.

    The memo is keyed on the rows relabelled onto the letters 1..m in their
    order (m distinct letters): straightness and the ideal powers only see
    the order of the letters, so the result for other letters is the
    relabelled result mapped back.  A syntactic zero gets no rows and no
    memo entry.
    """
    A, B = rows
    if _tail_masks(A, B, a) is None:
        return frozenset()
    key_rows, letters = _relabel_rows(rows)
    key = (key_rows, a, b, d)
    result = _TS_CACHE.get(key)
    if result is None:
        m = len(letters)
        if key_rows in _straight_rows(a, b, d, m):
            result = frozenset((key_rows,))
        else:
            result = _weight_expansion(a, b, d, m, _letters_used_twice(key_rows))(key_rows)
        _TS_CACHE[key] = result
    if key_rows is rows or not result:
        return result
    back = (0, *letters).__getitem__
    return frozenset((tuple(map(back, r1)), tuple(map(back, r2))) for r1, r2 in result)


@lru_cache(maxsize=None)
def _weight_expansion(
    a: int, b: int, d: int, m: int, twice: int
) -> Callable[[Rows], frozenset[Rows]]:
    """The straight expansion of rows of (a, b, d) on exactly 1..m whose
    letters used twice are the bits of ``twice``: one weight space.

    Each row's monomial is one vector in the columns of ``_orbit_columns``,
    labelled as in the basis certificate.  The straight rows of the weight,
    its entry of the cached ``_support_table``, are reduced beside the
    block of the d+1-st power, each pivot with the bitmask of the straight
    rows it sums (``EchelonBasis.reduce_beside``).
    The certificate finds them independent modulo the block and spanning
    the d-th power over it, so a row of the d-th power reduces to 0 and
    the bits it collects name its one expansion.  A dependent straight row
    or a remainder raises.  The cache holds one entry per weight on at most
    a + b letters, whatever n is.
    """
    i = twice.bit_count()
    j = m - i
    label = _weight_label(m, twice)
    low = (1 << j) - 1
    cols = _orbit_columns(j, a - i)

    def vector(rows: Rows) -> int:
        return sum(1 << cols[xm] for xm in _monomial_xmasks(*rows, a, label, low))

    above = _orbit_block(d + 1, a, b, i, j)
    straight = _support_table(a, b, d, m).get(twice, [])
    pivots: dict[int, tuple[int, int]] = {}
    for k, rows in enumerate(straight):
        rest, used = above.reduce_beside(pivots, vector(rows))
        if not rest:
            raise StraighteningInvariantError(
                f"straight rows of (a,b,d)=({a},{b},{d}) on 1..{m} are dependent at {rows}"
            )
        pivots[rest.bit_length()] = rest, used | 1 << k

    def expand(rows: Rows) -> frozenset[Rows]:
        rest, used = above.reduce_beside(pivots, vector(rows))
        if rest:
            raise StraighteningInvariantError(
                f"{rows} for (a,b,d)=({a},{b},{d}) is not congruent to a sum of straight rows"
            )
        return frozenset(s for k, s in enumerate(straight) if used >> k & 1)

    return expand


def _letters_used_twice(rows: Rows) -> int:
    """The letters that ``rows`` use twice, at bit v for the letter v; a row
    may repeat a letter, so this is not the intersection of the two rows."""
    once = twice = 0
    for v in rows[0] + rows[1]:
        bit = 1 << v
        twice |= once & bit
        once |= bit
    return twice


def two_straighten(t: Tableau, idx: IndexTriple) -> TableauSum:
    """Rewrite a semistandard tableau as a straight sum modulo the higher ideal power.

    The result is the GF(2) set of straight tableaux of the same shape whose
    element sum is congruent to the input's standard monomial modulo the
    (d+1)-st power of the minor ideal.  The straight tableaux of a weight are
    a basis modulo that power, so this sum is unique; it is read off one
    reduction against them (``_weight_expansion``), and the rewriting has no
    options.  ``StraighteningInvariantError`` means that basis claim failed.

    Results are memoized in ``_TS_CACHE`` for the life of the process, keyed
    on the rows relabelled onto the letters 1..m in their order, so the memo
    holds one entry per letter pattern, on at most a + b letters whatever n
    is.  Syntactic zeros are dropped before the memo is read and get no
    entry.
    """
    if t.n != idx.n:
        raise DomainError(f"tableau over n={t.n} but index triple over n={idx.n}")
    if t.shape != idx.shape:
        raise DomainError(f"tableau shape {t.shape}, expected {idx.shape}")
    if not rows_are_ssyt(t.row1, t.row2):
        raise DomainError(f"input must be semistandard: {t}")
    rows_out = _ts((t.row1, t.row2), idx.a, idx.b, idx.d)
    terms = frozenset(_unchecked_tableau(r1, r2, t.n) for r1, r2 in rows_out)
    return TableauSum(terms, idx.a, t.n)
