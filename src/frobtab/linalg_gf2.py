"""GF(2) linear algebra on bit-packed rows (one Python int per row)."""

from __future__ import annotations

from typing import Iterable

__all__ = ["EchelonBasis"]


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

    def add_beside(self, extra: dict[int, int], v: int) -> bool:
        """Add ``v`` to ``extra``, a dict of pivot rows kept beside this basis
        (leading bit length -> row), and report whether it was independent of
        both; this basis is not changed.

        ``extra`` must hold only rows added this way.  Each was reduced
        against both, so no leading bit of ``extra`` is one of this basis,
        and the two together are one echelon basis: ``extra`` gains exactly
        the row that ``copy().add(v)`` would add to the copy.
        """
        pivots = self._pivots
        while v:
            top = v.bit_length()
            row = pivots.get(top) or extra.get(top)
            if row is None:
                extra[top] = v
                return True
            v ^= row
        return False

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "EchelonBasis":
        clone = EchelonBasis()
        clone._pivots = dict(self._pivots)
        return clone

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def rows(self) -> Iterable[int]:
        """The pivot rows, as many as the rank, in a read-only view."""
        return self._pivots.values()
