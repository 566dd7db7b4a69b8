"""Rewriting of tableau products into (cap-2) straight form.

Two levels of rewriting live here, on one term form: a pair of rows
``(row1, row2)`` read with the split point ``a`` as in ``standard_monomial``
(column minors, then x-variables up to position ``a``, then y-variables).
Both loops drop syntactic zeroes (a letter used three times, a repeated tail
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
which ``rows_two_straight`` looks up.  It is one work loop over a last-in,
first-out list: kill syntactic zeroes, drop terms that fall into the higher
ideal power, recurse on the prefix when the prefix itself is not straight,
and otherwise apply one of a small family of exact or congruence moves at the
junction of the last columns.  Each step depends on its term alone and the
loop has no options, so every input has exactly one output sum.  Every move
is either an exact identity or changes the element by a member of the higher
ideal power, so the output sum is congruent to the input; the certifying
oracle lives in ``characters``.  Every rule only compares entries, so the
loop's memo is keyed on rows relabelled onto the letters 1..m
(``standard_monomials._relabel_rows``, as is the straightness lookup), and a
syntactic zero is dropped before the memo is read, so the memo holds only
non-zero patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2_exterior import ExtElement, minor, monomial
from .standard_monomials import (
    DomainError,
    IndexTriple,
    Rows,
    _check_split_point,
    _monomial_terms,
    _relabel_rows,
    _tail_masks,
    rows_two_straight,
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
    """The work loop exceeded its iteration budget (indicates a cycle bug)."""


class StraighteningInvariantError(RuntimeError):
    """A junction move met a tableau its case analysis rules out (a bug)."""


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


def _square_junction(A, B, a) -> list[Rows] | None:
    """Junction moves for the shapes (a, a) and (a, a-1); None means no move applies.

    The (a, a-1) moves are the square ones without the last bottom box, so
    ``last`` (that box, or nothing) is appended to every new bottom row.
    """
    if a < 3:
        raise StraighteningInvariantError("small tableaux of these shapes are straight or zero")
    pre1, pre2 = A[: a - 3], B[: a - 3]
    last = B[a - 1 :]
    # only the square shape has a last bottom box that can repeat
    repeat = len(B) == a and B[a - 2] == B[a - 1]
    if A[a - 2] == A[a - 1]:
        # repeated last column top: one-term swap
        if not B[a - 3] > A[a - 1]:
            raise StraighteningInvariantError(f"repeated last column top in {A}/{B}")
        return [(pre1 + (A[a - 3], A[a - 1], B[a - 2]), pre2 + (A[a - 2], B[a - 3]) + last)]
    if B[a - 3] == B[a - 2]:
        if B[a - 3] > A[a - 1]:
            return [(pre1 + (A[a - 3], A[a - 1], B[a - 2]), pre2 + (A[a - 2], B[a - 3]) + last)]
        return [(pre1 + (A[a - 3], B[a - 3], B[a - 2]), pre2 + (A[a - 2], A[a - 1]) + last)]
    if _has_chain(A, B, a):
        if repeat and B[a - 3] == A[a - 1]:
            # the full minor chain telescopes to a square: exactly zero
            return []
        if not B[a - 3] > A[a - 1]:
            raise StraighteningInvariantError(f"minor chain out of order in {A}/{B}")
        t1 = (pre1 + (A[a - 3], A[a - 2], B[a - 3]), pre2 + (A[a - 1], B[a - 2]) + last)
        t2 = (pre1 + (A[a - 3], A[a - 2], B[a - 2]), pre2 + (A[a - 1], B[a - 3]) + last)
        if repeat:
            return [t1]
        return [t1, t2]
    if repeat:
        jp = [j0 for j0 in range(2, a) if B[j0 - 2] != A[j0]]
        if not jp:
            # B[k] == A[k+2] for every k <= a-3: with A[0] == A[1] that is a
            # chain from i0 = 0, which the branch above already handled
            raise StraighteningInvariantError(f"full chain without a repeated head in {A}/{B}")
        j0 = max(jp)
        if not B[j0 - 2] > A[j0]:
            raise StraighteningInvariantError(f"chain break out of order in {A}/{B}")
        mid1 = (A[j0 - 2], A[j0], B[j0 - 2])
        mid2 = (A[j0 - 1], B[j0 - 1], B[j0])
        alt1 = (A[j0 - 2], A[j0 - 1], B[j0 - 2])
        alt2 = (A[j0], B[j0 - 1], B[j0])
        tail1, tail2 = A[j0 + 1 :], B[j0 + 1 :]
        return [
            (A[: j0 - 2] + mid1 + tail1, B[: j0 - 2] + mid2 + tail2),
            (A[: j0 - 2] + alt1 + tail1, B[: j0 - 2] + alt2 + tail2),
        ]
    return None


def _has_chain(A, B, a) -> bool:
    """Some i <= a-2 has a repeated top pair whose minor chain runs to the end."""
    for i0 in range(a - 2):
        if A[i0] == A[i0 + 1] and all(B[j0] == A[j0 + 2] for j0 in range(i0, a - 3)):
            return True
    return False


def _short_tail_junction(A, B, d) -> list[Rows] | None:
    """Junction for shapes with a two-box tail (a+b-d = d+2).

    Requires some repeated top pair whose minor chain reaches column d; the
    offending value is the last bottom entry against the last top entry.
    """
    if not (len(A) == d + 2 and d >= 1):
        raise StraighteningInvariantError(f"{A}/{B} has no two-box tail for d={d}")
    if not _has_chain(A, B, d + 2):
        return None
    if B[d - 1] == A[d + 1]:
        # chain closes up: zero for a two-box x tail, higher-power content
        # for an x,y tail; dropped either way
        return []
    if not B[d - 1] > A[d + 1]:
        raise StraighteningInvariantError(f"tail out of order in {A}/{B}")
    new1 = A[: d + 1] + (B[d - 1],)
    new2 = B[: d - 1] + (A[d + 1],)
    return [(new1, new2)]


def _ts(rows: Rows, a: int, b: int, d: int) -> frozenset[Rows]:
    """Straight rows for ``rows``.

    The memo is keyed on the rows relabelled onto the letters 1..m in their
    order (m distinct letters): every rule here only compares entries, so the
    result for other letters is the relabelled result mapped back.  A
    syntactic zero (the input is semistandard, so the loop's first step would
    drop it) gets no rows and no memo entry.
    """
    A, B = rows
    if _tail_masks(A, B, a) is None:
        return frozenset()
    key_rows, letters = _relabel_rows(rows)
    key = (key_rows, a, b, d)
    result = _TS_CACHE.get(key)
    if result is None:
        result = _TS_CACHE[key] = _ts_loop(rows, key_rows, a, b, d)
    if key_rows is rows or not result:
        return result
    back = (0, *letters).__getitem__
    return frozenset((tuple(map(back, r1)), tuple(map(back, r2))) for r1, r2 in result)


def _ts_loop(rows: Rows, start: Rows, a: int, b: int, d: int) -> frozenset[Rows]:
    """The work loop of ``_ts`` from ``start``; ``rows`` names the input in errors."""
    queue: list[Rows] = [start]
    out: set[Rows] = set()
    iters = 0
    while queue:
        iters += 1
        if iters > ITERATION_CAP:
            raise StraighteningLimitExceeded(
                f"straightening of {rows} for (a,b,d)=({a},{b},{d}) exceeded {ITERATION_CAP} steps"
            )
        cur = queue.pop()
        A, B = cur
        if not rows_are_ssyt(A, B):
            # exact classical rewrite; terms in higher strata lie in the
            # higher ideal power and are dropped
            queue.extend(r for r in _classical_terms(A, B, a) if len(r[1]) == d)
            continue
        if _tail_masks(A, B, a) is None:  # a syntactic zero
            continue
        if d < a and a < len(A) and A[a - 1] == A[a] and (d >= 1 or a - d >= 2):
            # repeated value across the x,y junction: the term lies in the
            # higher ideal power (box-move identity), except for the triple
            # (1,1,0) whose lone monomial survives
            continue
        if rows_two_straight(A, B, a, b, d):
            out ^= {cur}
            continue
        # prefix recursion: drop the last column (square) or the last top box
        if a == b == d:
            pidx = (a - 1, b - 1, d - 1)
        elif b > d:
            pidx = (a, b - 1, d)
        else:
            pidx = (a - 1, b, d)
        prefix = (A[:-1], B[: pidx[2]])
        if not rows_two_straight(*prefix, *pidx):
            box1, box2 = A[-1:], B[pidx[2] :]
            for s1, s2 in _ts(prefix, *pidx):
                queue.append((s1 + box1, s2 + box2))
            continue
        # junction moves
        if b == d and a - d <= 1:
            moved = _square_junction(A, B, a)
        else:
            moved = _short_tail_junction(A, B, d)
        if moved is None:
            raise StraighteningInvariantError(
                f"no junction move applies to {A}/{B} for (a,b,d)=({a},{b},{d})"
            )
        queue.extend(moved)
    return frozenset(out)


def two_straighten(t: Tableau, idx: IndexTriple) -> TableauSum:
    """Rewrite a semistandard tableau as a straight sum modulo the higher ideal power.

    The result is a GF(2) set of straight tableaux of the same shape whose
    element sum is congruent to the input's standard monomial modulo the
    (d+1)-st power of the minor ideal.  The rewriting has no options, so each
    input has exactly one output sum.

    Results are memoized in ``_TS_CACHE`` for the life of the process, keyed
    on the rows relabelled onto the letters 1..m in their order, so the memo
    holds one entry per letter pattern, on at most a + b letters whatever n
    is.  Syntactic zeros are dropped before the memo is read and get no
    entry.  Each work loop, classical and prefix sub-loops included, raises
    ``StraighteningLimitExceeded`` once its own iterations pass
    ``ITERATION_CAP``, so the memo holds only the results of finished loops.
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
