"""Bit-packed arithmetic in the squarefree quotient of k[x1..xn, y1..yn] over GF(2).

The ground ring is the polynomial ring on two blocks of n variables modulo
the squares of all variables, in characteristic 2.  In characteristic 2 this
quotient coincides with the exterior algebra on the 2n variables, so there is
no sign bookkeeping: a monomial is a pair of bitmasks (x block, y block), a
general element is a GF(2) set of monomials, and addition is symmetric
difference of term sets.

Variables are indexed 1..n with n <= 32.  Bit i-1 of a mask records the
presence of the variable with index i.

``ExtElement`` validates its term masks, so code inside the package builds
products on plain term sets (``_times_minor`` multiplies one by a minor) and
wraps the finished set in an ``ExtElement`` once.
"""

from __future__ import annotations

from typing import Iterable, Union

__all__ = [
    "MAX_N",
    "DegenerateMinorError",
    "MismatchedGroundSetError",
    "ExtElement",
    "x_var",
    "y_var",
    "monomial",
    "minor",
    "bidegree_of",
    "mask_of",
    "indices_of",
]

MAX_N = 32


class DegenerateMinorError(ValueError):
    """Raised when a 2x2 minor is requested on a repeated index."""


class MismatchedGroundSetError(ValueError):
    """Raised when operands live over different variable counts n."""


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_n(n: object) -> None:
    """Raise ``ValueError`` unless the alphabet size ``n`` is an int in 1..MAX_N."""
    if not isinstance(n, int) or isinstance(n, bool):  # _is_int, inlined: every element checks
        raise ValueError(f"need an int n, got {n!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > MAX_N:
        raise ValueError(f"need n <= {MAX_N}, got {n}")


def _same_n(n1: int, n2: int) -> int:
    if n1 != n2:
        raise MismatchedGroundSetError(f"operands use different variable counts: {n1} != {n2}")
    return n1


def mask_of(indices: Iterable[int], n: int) -> int:
    """Pack a set of 1-based variable indices into a bitmask."""
    _check_n(n)
    mask = 0
    for i in indices:
        if not _is_int(i) or not 1 <= i <= n:
            raise ValueError(f"variable index {i!r} is not an int in 1..{n}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated variable index {i} (squares vanish)")
        mask |= bit
    return mask


def indices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into sorted 1-based variable indices."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class ExtElement:
    """A GF(2) linear combination of squarefree monomials.

    Immutable: setting or deleting an attribute raises ``AttributeError``, so
    the hash and the checked term masks stay those of construction.
    Supports ``+`` (symmetric difference of term sets) and ``*`` (distributed
    monomial products, accumulated mod 2).
    """

    __slots__ = ("_terms", "n")

    def __init__(self, terms: Iterable[tuple[int, int]], n: int):
        if type(n) is not int or not 1 <= n <= MAX_N:  # a valid n skips the call
            _check_n(n)
        terms = frozenset(terms)
        used = 0
        for xm, ym in terms:
            used |= xm | ym
        # a bit at n or above, or a negative mask, leaves bits after the shift
        if used >> n:
            raise ValueError(f"term mask out of range for n={n}")
        # through the slot descriptors, which __setattr__ does not guard
        _set_terms(self, terms)
        _set_n(self, n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ExtElement is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ExtElement is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by setting the slots
        return ExtElement, (self._terms, self.n)

    @classmethod
    def zero(cls, n: int) -> "ExtElement":
        return cls((), n)

    @classmethod
    def one(cls, n: int) -> "ExtElement":
        return cls(((0, 0),), n)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def term_masks(self) -> frozenset[tuple[int, int]]:
        return self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        if not isinstance(other, ExtElement):
            return NotImplemented
        n = _same_n(self.n, other.n)
        return ExtElement(self._terms ^ other._terms, n)

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        if not isinstance(other, ExtElement):
            return NotImplemented
        n = _same_n(self.n, other.n)
        acc: set[tuple[int, int]] = set()
        for x1, y1 in self._terms:
            for x2, y2 in other._terms:
                if x1 & x2 or y1 & y2:
                    continue
                t = (x1 | x2, y1 | y2)
                if t in acc:
                    acc.discard(t)
                else:
                    acc.add(t)
        return ExtElement(acc, n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._terms, self.n))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for xm, ym in sorted(self._terms):
            names = [f"x{i}" for i in indices_of(xm)] + [f"y{i}" for i in indices_of(ym)]
            parts.append("".join(names) or "1")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"ExtElement({self}, n={self.n})"


# the slot descriptors' setters, for ExtElement.__init__ only
_set_terms = ExtElement._terms.__set__
_set_n = ExtElement.n.__set__


def _times_minor(
    terms: Iterable[tuple[int, int]], bi: int, bj: int
) -> set[tuple[int, int]]:
    """A term set times the minor on the letter bits ``bi`` and ``bj``, mod 2.

    With ``bi == bj`` each product appears twice and cancels, so a
    degenerate minor gives the empty set.
    """
    out: set[tuple[int, int]] = set()
    for xm, ym in terms:
        # the two products x_i*y_j and x_j*y_i, each added mod 2
        if not (xm & bi or ym & bj):
            t = (xm | bi, ym | bj)
            if t in out:
                out.remove(t)
            else:
                out.add(t)
        if not (xm & bj or ym & bi):
            t = (xm | bj, ym | bi)
            if t in out:
                out.remove(t)
            else:
                out.add(t)
    return out


def x_var(i: int, n: int) -> ExtElement:
    """The element x_i."""
    return ExtElement(((mask_of([i], n), 0),), n)


def y_var(i: int, n: int) -> ExtElement:
    """The element y_i."""
    return ExtElement(((0, mask_of([i], n)),), n)


def monomial(xs: Iterable[int], ys: Iterable[int], n: int) -> ExtElement:
    """The monomial with x indices ``xs`` and y indices ``ys`` as an element."""
    return ExtElement(((mask_of(xs, n), mask_of(ys, n)),), n)


def minor(i: int, j: int, n: int) -> ExtElement:
    """The 2x2 minor x_i*y_j + x_j*y_i.

    Symmetric in its arguments (characteristic 2); a repeated index is a
    degenerate minor and raises ``DegenerateMinorError``.
    """
    if i == j:
        raise DegenerateMinorError(f"minor on repeated index {i}")
    bi = mask_of([i], n)
    bj = mask_of([j], n)
    return ExtElement(((bi, bj), (bj, bi)), n)


def bidegree_of(e: ExtElement) -> Union[tuple[int, int], str]:
    """Common (x-degree, y-degree) of all terms.

    Returns the string ``"inhomogeneous"`` when terms disagree and ``"any"``
    for the zero element.
    """
    degs = {(xm.bit_count(), ym.bit_count()) for xm, ym in e.term_masks}
    if not degs:
        return "any"
    if len(degs) > 1:
        return "inhomogeneous"
    return degs.pop()
