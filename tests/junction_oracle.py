"""The paper's junction rewriting rules for cap-2 straightening, kept as the
oracle for ``frobtab.straightening.two_straighten``.

``_ts_loop`` is a last-in, first-out work loop: kill syntactic zeroes, drop
terms that fall into the higher ideal power, recurse on the prefix when the
prefix itself is not straight, and otherwise apply one of a small family of
exact or congruence moves at the junction of the last columns.  Every move
is either an exact identity or changes the element by a member of the
higher ideal power, so the output sum is congruent to the input; each step
depends on its term alone.  ``_ts`` runs the loop with no memo, so the
prefix recursion runs the rules too.
"""

from __future__ import annotations

from frobtab.standard_monomials import Rows, _tail_masks, rows_two_straight
from frobtab.straightening import (
    ITERATION_CAP,
    StraighteningInvariantError,
    StraighteningLimitExceeded,
    _classical_terms,
)
from frobtab.tableaux import rows_are_ssyt


def _ts(rows: Rows, a: int, b: int, d: int) -> frozenset[Rows]:
    """Straight rows for ``rows`` by the junction rules, with no memo."""
    return _ts_loop(rows, rows, a, b, d)


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
