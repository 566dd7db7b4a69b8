"""Symmetric polynomials in n variables with integer coefficients.

Provides the squarefree-exponent truncations used by the character
computations: ``h_squarefree(d, n)`` is the complete homogeneous sum
restricted to exponents below 2 (hence equal to the elementary symmetric
polynomial), and ``schur_squarefree`` is the 2x2 Jacobi-Trudi determinant in
those truncations.

Characters are symmetric with exponents at most 2, so ``OrbitCharacter``
stores one coefficient per orbit (i, j) of weights 2^i 1^j 0^(n-i-j).
``expected_character`` fills that table in closed form: the coefficient of
``schur_squarefree(r1, r2, n)`` at (i, j) is C(j, r1-i) - C(j, r1+1-i) when
r1 + r2 = 2i + j, and 0 otherwise.  ``SymPoly`` and the Jacobi-Trudi
products stay as the reference the closed form is tested against.

Also home to the promotion/demotion bijections between the two families of
two-row tableau sets whose alternating weight sum reproduces the distinct-row
character.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Mapping, Sequence

from .tableaux import (
    Tableau,
    _check_n,
    _is_int,
    _unchecked_tableau,
    enumerate_column_strict,
    enumerate_tableaux,
    is_2ssyt,
    weight,
)

__all__ = [
    "SymPoly",
    "OrbitCharacter",
    "h_squarefree",
    "schur_squarefree",
    "schur",
    "tableau_term",
    "classify_triple",
    "expected_character",
    "alternating_sum_matches_distinct_rows",
    "promotable_tableaux",
    "unpromotable_tableaux",
    "promote",
    "demote",
]

CASE_GENERAL = "general"
CASE_ALL_EQUAL = "all_equal"
CASE_OFF_BY_ONE = "off_by_one"


class SymPoly:
    """A polynomial in t1..tn over the integers, stored sparsely."""

    __slots__ = ("_coeffs", "n")

    def __init__(self, coeffs: Mapping[tuple[int, ...], int], n: int):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in coeffs.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for n={n}")
            if c:
                clean[exps] = c
        self._coeffs = clean

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls({}, n)

    @classmethod
    def one(cls, n: int) -> "SymPoly":
        return cls({(0,) * n: 1}, n)

    @classmethod
    def variable(cls, i: int, n: int) -> "SymPoly":
        if not 1 <= i <= n:
            raise ValueError(f"variable t{i} outside t1..t{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls({tuple(exps): 1}, n)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, exps: Sequence[int]) -> int:
        return self._coeffs.get(tuple(exps), 0)

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self._coeffs.items())

    def _binop(self, other: "SymPoly", sign: int) -> "SymPoly":
        if isinstance(other, OrbitCharacter):
            other = other.to_sympoly()
        if not isinstance(other, SymPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} != {other.n}")
        out = dict(self._coeffs)
        for exps, c in other._coeffs.items():
            out[exps] = out.get(exps, 0) + sign * c
        return SymPoly(out, self.n)

    def __add__(self, other: "SymPoly") -> "SymPoly":
        return self._binop(other, 1)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self._binop(other, -1)

    def __neg__(self) -> "SymPoly":
        return SymPoly({e: -c for e, c in self._coeffs.items()}, self.n)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        if not isinstance(other, SymPoly):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} != {other.n}")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SymPoly(out, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.n == other.n and self._coeffs == other._coeffs

    def evaluate_at_ones(self) -> int:
        """Sum of coefficients, i.e. the value at t1 = ... = tn = 1."""
        return sum(self._coeffs.values())

    def to_json_entries(self) -> list[dict]:
        return [{"exps": list(e), "coeff": c} for e, c in self.items()]

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for exps, c in self.items():
            vars_ = "*".join(
                f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            if not vars_:
                parts.append(str(c))
            elif c == 1:
                parts.append(vars_)
            elif c == -1:
                parts.append(f"-{vars_}")
            else:
                parts.append(f"{c}*{vars_}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SymPoly({self}, n={self.n})"


def _orbit_weights(i: int, j: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every arrangement of the weight 2^i 1^j 0^(n-i-j)."""
    for twos in combinations(range(n), i):
        rest = [p for p in range(n) if p not in twos]
        for ones in combinations(rest, j):
            w = [0] * n
            for p in twos:
                w[p] = 2
            for p in ones:
                w[p] = 1
            yield tuple(w)


class OrbitCharacter:
    """A symmetric polynomial in t1..tn with every exponent at most 2.

    Its coefficient at a weight with i entries 2, j entries 1 and the rest 0
    is ``table[(i, j)]``, wherever those entries sit.  Output (``items``,
    ``to_json_entries``, ``str``) expands to weights and reads exactly as the
    equal ``SymPoly``.

    ``OrbitCharacter(table, n)`` checks its input: ``n`` an int in 1..MAX_N,
    each orbit a pair of ints (i, j) with i + j <= n, each coefficient an
    int; zero coefficients are dropped.  The tables the package builds
    itself, in ``expected_character``, ``characters.subquotient_character``
    and the sum and difference of two characters, hold only valid orbits and
    nonzero coefficients, so they go through ``_unchecked_character``.
    """

    __slots__ = ("_table", "n")

    def __init__(self, table: Mapping[tuple[int, int], int], n: int):
        _check_n(n)
        self.n = n
        clean: dict[tuple[int, int], int] = {}
        for orbit, c in table.items():
            if (
                not isinstance(orbit, tuple)
                or len(orbit) != 2
                or not all(map(_is_int, orbit))
                or min(orbit) < 0
                or sum(orbit) > n
            ):
                raise ValueError(f"bad orbit {orbit!r} for n={n}")
            if not _is_int(c):
                raise ValueError(f"coefficient {c!r} of the orbit {orbit} is not an int")
            if c:
                clean[orbit] = c
        self._table = clean

    @classmethod
    def zero(cls, n: int) -> "OrbitCharacter":
        return cls({}, n)

    @property
    def is_zero(self) -> bool:
        return not self._table

    def coeff(self, exps: Sequence[int]) -> int:
        exps = tuple(exps)
        if len(exps) != self.n:
            return 0
        i, j = exps.count(2), exps.count(1)
        if i + j + exps.count(0) != self.n:
            return 0
        return self._table.get((i, j), 0)

    def to_sympoly(self) -> SymPoly:
        coeffs = {
            w: c for (i, j), c in self._table.items() for w in _orbit_weights(i, j, self.n)
        }
        return SymPoly(coeffs, self.n)

    def items(self) -> list[tuple[tuple[int, ...], int]]:
        return self.to_sympoly().items()

    def orbit_representatives(self) -> list[tuple[int, ...]]:
        """One weight 2^i 1^j 0^(n-i-j) per orbit with a nonzero coefficient,
        in orbit order; unlike ``items`` it expands no orbit."""
        return [(2,) * i + (1,) * j + (0,) * (self.n - i - j) for i, j in sorted(self._table)]

    def _binop(self, other, sign: int):
        if isinstance(other, SymPoly):
            return self.to_sympoly()._binop(other, sign)
        if not isinstance(other, OrbitCharacter):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"mixed variable counts: {self.n} != {other.n}")
        out = dict(self._table)
        for orbit, c in other._table.items():
            c = out.get(orbit, 0) + sign * c
            if c:
                out[orbit] = c
            else:
                del out[orbit]
        return _unchecked_character(out, self.n)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymPoly):
            return self.to_sympoly() == other
        if not isinstance(other, OrbitCharacter):
            return NotImplemented
        return self.n == other.n and self._table == other._table

    def evaluate_at_ones(self) -> int:
        """Sum of coefficients: each orbit counts C(n, i) * C(n - i, j) weights."""
        n = self.n
        return sum(c * comb(n, i) * comb(n - i, j) for (i, j), c in self._table.items())

    def to_json_entries(self) -> list[dict]:
        return self.to_sympoly().to_json_entries()

    def __str__(self) -> str:
        return str(self.to_sympoly())

    def __repr__(self) -> str:
        return f"OrbitCharacter({self._table}, n={self.n})"


def _unchecked_character(table: dict[tuple[int, int], int], n: int) -> OrbitCharacter:
    """``OrbitCharacter(table, n)`` without its checks, for tables the package
    builds itself: ``n`` an int in 1..MAX_N, orbits (i, j) of ints with
    i + j <= n, and only nonzero int coefficients.  The table is kept, not
    copied."""
    char = object.__new__(OrbitCharacter)
    char.n = n
    char._table = table
    return char


def h_squarefree(d: int, n: int) -> SymPoly:
    """Complete homogeneous sum of degree d restricted to squarefree exponents.

    Defined by direct enumeration of the exponent vectors; it is the
    elementary symmetric polynomial e_d, which the tests build by a
    recurrence and compare with it.
    """
    if d < 0:
        return SymPoly.zero(n)
    coeffs: dict[tuple[int, ...], int] = {}
    for bits in combinations(range(n), d):
        exps = [0] * n
        for b in bits:
            exps[b] = 1
        coeffs[tuple(exps)] = 1
    return SymPoly(coeffs, n)


def schur_squarefree(r1: int, r2: int, n: int) -> SymPoly:
    """Two-row Jacobi-Trudi determinant in the squarefree truncations."""
    return h_squarefree(r1, n) * h_squarefree(r2, n) - h_squarefree(r1 + 1, n) * h_squarefree(
        r2 - 1, n
    )


def schur(partition: Sequence[int], n: int) -> SymPoly:
    """Classical Schur polynomial as the weight sum over column-strict fillings."""
    coeffs: dict[tuple[int, ...], int] = {}
    for filling in enumerate_column_strict(partition, n):
        w = [0] * n
        for row in filling:
            for v in row:
                w[v - 1] += 1
        w = tuple(w)
        coeffs[w] = coeffs.get(w, 0) + 1
    return SymPoly(coeffs, n)


def tableau_term(t: Tableau) -> SymPoly:
    """The monomial t^weight of a tableau."""
    return SymPoly({weight(t): 1}, t.n)


def classify_triple(a: int, b: int, d: int) -> str:
    """Case split driving both the basis construction and the character formula.

    The degenerate triple (0,0,0) counts as generic: its graded piece is the
    ground field, with the empty tableau as basis and character 1.
    """
    if not a >= b >= d >= 0:
        raise ValueError(f"need a >= b >= d >= 0, got {(a, b, d)}")
    if a == b == d and a >= 1:
        return CASE_ALL_EQUAL
    if a - 1 == b - 1 == d:
        return CASE_OFF_BY_ONE
    return CASE_GENERAL


def _choose(j: int, k: int) -> int:
    return comb(j, k) if 0 <= k <= j else 0


def _truncated_schur_coeff(r1: int, r2: int, i: int, j: int) -> int:
    """Coefficient of ``schur_squarefree(r1, r2, n)`` at a weight 2^i 1^j 0^...

    The same for every n >= i + j.  In h_p * h_q a weight 2^i 1^j is reached
    once per choice of the p - i entries 1 that go to h_p, when p + q = 2i + j.
    """
    if r1 + r2 != 2 * i + j:
        return 0
    return _choose(j, r1 - i) - _choose(j, r1 + 1 - i)


def _orbits(a: int, b: int, n: int) -> Iterator[tuple[int, int]]:
    """(i, j) of every weight 2^i 1^j 0^(n-i-j) with monomials of bidegree (a, b)."""
    for i in range(min(a, b) + 1):
        j = a + b - 2 * i
        if i + j <= n:
            yield i, j


def _formula_terms(a: int, b: int, d: int) -> list[tuple[int, int, int]]:
    """The case formula as signed truncated Schur terms (sign, r1, r2)."""
    case = classify_triple(a, b, d)
    if case == CASE_ALL_EQUAL:
        return [(1 if j % 2 == 1 else -1, a + j, a - j) for j in range(1, a + 1)]
    if case == CASE_OFF_BY_ONE:
        return [(1, a, a)] + [(1 if j % 2 == 0 else -1, a + j, a - j) for j in range(2, a + 1)]
    return [(1, a + b - d, d)]


def expected_character(a: int, b: int, d: int, n: int) -> OrbitCharacter:
    """Predicted character of the (d, d+1) ideal-power subquotient in bidegree (a, b).

    Raises ``ValueError`` unless a, b, d are ints with a >= b >= d >= 0 and
    n is an int in 1..MAX_N.  The orbits of bidegree (a, b) with at most n
    letters are (i, a + b - 2i) for max(0, a + b - n) <= i <= b.
    """
    if not (_is_int(a) and _is_int(b) and _is_int(d)):
        raise ValueError(f"need int a, b, d, got {(a, b, d)!r}")
    terms = _formula_terms(a, b, d)  # checks a >= b >= d >= 0
    _check_n(n)
    table = {}
    for i in range(max(0, a + b - n), b + 1):
        j = a + b - 2 * i
        c = sum(s * _truncated_schur_coeff(r1, r2, i, j) for s, r1, r2 in terms)
        if c:
            table[(i, j)] = c
    return _unchecked_character(table, n)


def _shape_params(t: Tableau) -> tuple[int, int]:
    """Recover (a, i) from a shape (a+i, a-i)."""
    r1, r2 = t.shape
    if (r1 + r2) % 2 or (r1 - r2) % 2:
        raise ValueError(f"shape {t.shape} is not of the form (a+i, a-i)")
    return ((r1 + r2) // 2, (r1 - r2) // 2)


def _max_disagreement(row1: Sequence[int], row2: Sequence[int], offset: int):
    """Largest 1-based k with row2[k] != row1[k+offset], or None."""
    for k in range(len(row2), 0, -1):
        if row2[k - 1] != row1[k + offset - 1]:
            return k
    return None


def _promotable(t: Tableau, i: int) -> bool:
    """The last disagreement of ``t`` (shape (a+i, a-i)) overhangs.

    Disagreement compares row2[k] with row1[k+2i]; the tableau is promotable
    when some k disagrees and the largest such k has row2[k] > row1[k+2i].
    At i = 0 this is exactly the distinct-row condition.
    """
    k = _max_disagreement(t.row1, t.row2, 2 * i)
    return k is not None and t.row2[k - 1] > t.row1[k + 2 * i - 1]


def promotable_tableaux(a: int, i: int, n: int) -> list[Tableau]:
    """Cap-2 tableaux of shape (a+i, a-i) whose last disagreement overhangs."""
    return [t for t in enumerate_tableaux((a + i, a - i), n, "2ssyt") if _promotable(t, i)]


def unpromotable_tableaux(a: int, i: int, n: int) -> list[Tableau]:
    """Complement of the promotable set inside the cap-2 tableaux of (a+i, a-i)."""
    return [t for t in enumerate_tableaux((a + i, a - i), n, "2ssyt") if not _promotable(t, i)]


def _reslice(row1: Sequence[int], row2: Sequence[int], j: int, twoi: int, n: int) -> Tableau:
    new1 = tuple(row1[: j + twoi]) + tuple(row2[j - 1 :])
    new2 = tuple(row2[: j - 1]) + tuple(row1[j + twoi :])
    return _unchecked_tableau(new1, new2, n)


def promote(t: Tableau) -> Tableau:
    """Move the overhanging tail of row 2 up: shape (a+i, a-i) -> (a+i+1, a-i-1)."""
    a, i = _shape_params(t)
    if not is_2ssyt(t):
        raise ValueError(f"not a cap-2 semistandard tableau: {t}")
    if not _promotable(t, i):
        raise ValueError(f"tableau is not promotable: {t}")
    k = _max_disagreement(t.row1, t.row2, 2 * i)
    return _reslice(t.row1, t.row2, k, 2 * i, t.n)


def demote(t: Tableau) -> Tableau:
    """Inverse of ``promote``: shape (a+i, a-i) -> (a+i-1, a-i+1) for i >= 1."""
    a, i = _shape_params(t)
    if i < 1:
        raise ValueError("cannot demote a square shape")
    if not is_2ssyt(t):
        raise ValueError(f"not a cap-2 semistandard tableau: {t}")
    if _promotable(t, i):
        raise ValueError(f"tableau is not demotable: {t}")
    k = _max_disagreement(t.row1, t.row2, 2 * i)
    j = 1 if k is None else k + 1
    return _reslice(t.row1, t.row2, j, 2 * i - 2, t.n)


def alternating_sum_matches_distinct_rows(a: int, n: int) -> bool:
    """Check that the alternating truncated-Schur sum equals the weight sum
    over distinct-row square tableaux (the i = 0 promotable set)."""
    lhs = SymPoly.zero(n)
    for j in range(1, a + 1):
        term = schur_squarefree(a + j, a - j, n)
        lhs = lhs + term if j % 2 == 1 else lhs - term
    rhs = SymPoly.zero(n)
    for t in promotable_tableaux(a, 0, n):
        rhs = rhs + tableau_term(t)
    return lhs == rhs
