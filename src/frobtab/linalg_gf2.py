"""GF(2) linear algebra on bit-packed rows (one Python int per row)."""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .gf2_exterior import ExtElement

__all__ = [
    "EchelonBasis",
    "monomial_basis",
    "element_vector",
]


class EchelonBasis:
    """Incremental row-echelon basis of a GF(2) row space."""

    __slots__ = ("_pivots",)

    def __init__(self, rows: Iterable[int] = ()):
        self._pivots: dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, v: int) -> int:
        while v:
            row = self._pivots.get(v.bit_length())
            if row is None:
                break
            v ^= row
        return v

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        self._pivots[v.bit_length()] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "EchelonBasis":
        clone = EchelonBasis()
        clone._pivots = dict(self._pivots)
        return clone

    @property
    def rank(self) -> int:
        return len(self._pivots)


def monomial_basis(degree: tuple[int, int], n: int) -> list[tuple[int, int]]:
    """All squarefree (xmask, ymask) pairs of the given bidegree, canonical order."""
    dx, dy = degree
    if dx < 0 or dy < 0 or dx > n or dy > n:
        return []
    xmasks = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), dx))
    ymasks = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), dy))
    return [(xm, ym) for xm in xmasks for ym in ymasks]


def element_vector(e: ExtElement, column_index: dict[tuple[int, int], int]) -> int:
    v = 0
    for t in e.term_masks:
        v |= 1 << column_index[t]
    return v
