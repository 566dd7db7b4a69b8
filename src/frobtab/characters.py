"""Torus characters of the minor-ideal filtration, and basis certification.

For an index triple (a, b, d) the object of study is the bidegree-(a, b)
piece of the subquotient (d-th power of the minor ideal) / (d+1-st power).
It is computed by exact GF(2) linear algebra over the monomial basis of the
squarefree ring:

* ranks of each ideal power in each weight space,
* diagonal-torus characters of the subquotients, one coefficient per
  weight orbit (an ``OrbitCharacter``),
* certification that the proposed straight-tableau basis really is one
  (independent modulo the higher power, and spanning the lower one), once
  per orbit: the basis tableaux on exactly 1..m, m = i + j, stand for those
  on every m-letter subset of 1..n, at every n, and no other m holds any.
  The certificate reads the support's rectified rows with their weights
  (``standard_monomials._rectify_pairs``, the triple classified once per
  support), checks them weight by weight, and caches only (count, added)
  under (a, b, d, m), with a <= m <= a + b, so every caller shares it.
  Within one weight space a term's x-mask fixes its y-mask, so each
  standard monomial's row is read from the rectified rows as a set of
  x-masks on the letters used once, which are the orbit's column keys: its
  columns collapse path by path, as in the proof below
  (``_monomial_xmasks``).

Permuting the letters 1..n preserves the minor ideal and all its powers, so
the rank of the d-th power in the weight space 2^i 1^j 0^(n-i-j) of
bidegree (a, b) depends only on (d, a, b, i, j).  The letters used twice
then collapse out:

    Lemma.  Let V2 be the i letters of weight 2 and V1 the j letters of
    weight 1.  For j >= 1 the d-th power at 2^i 1^j is x_V2*y_V2 times the
    max(0, d - i)-th power in the multilinear weight space 1^j on V1, of
    bidegree (a - i, b - i).  For j = 0 the space is the one monomial
    x_V2*y_V2, which lies in the d-th power iff d = 0 or d <= i - 1.

    Proof.  The weight space of the d-th power is spanned by the products
    g = m_1 ... m_d * (monomial) of that weight, each minor m_k = [p, q] =
    x_p*y_q + x_q*y_p an edge p - q.  No letter has weight over 2, so the
    edges form paths and cycles (a repeated minor is a cycle of length 2).
    Expanding the minors of a component picks an x end per edge, and every
    letter inside the component needs one x and one y.  On a cycle that
    leaves its two orientations, which give the same monomial, so g = 0
    mod 2.  On a path u = v_0 - ... - v_k = w it leaves two terms, whose
    sum is x_v*y_v over the inner letters times [u, w]; k = 2 is
    [u, v][v, w] = x_v*y_v*[u, w] (``collapse_interlocked``).  An end of
    weight 2 takes one more variable from the monomial, a tail, and
    x_u*[u, w] = x_u*y_u*x_w: the path's last minor goes too.  So g is
    x_V2*y_V2 times r minors on disjoint pairs of V1 times a monomial on the
    rest of V1, each inner letter or tail costing one minor: r >= d - i.
    Conversely, take such a product h with r = max(0, d - i).  If r >= 1,
    route V2 through its first minor, [p, v_1][v_1, v_2]...[v_i, q] =
    x_V2*y_V2*[p, q], which gives d minors or more.  If r = 0, the monomial
    h has a variable at some u in V1, say x_u, and x_v1*[v_1, v_2]...[v_i, u]
    = x_V2*y_V2*x_u gives i >= d minors.  For j = 0 every end is a tail, so
    a nonzero g with d >= 1 needs a letter more than its d minors; and when
    d <= i - 1, x_u*y_w times one path u - ... - w through d + 1 letters,
    times x_v*y_v for the rest, is x_V2*y_V2.  []

Multiplying by x_V2*y_V2 maps the monomials of 1^j one to one onto those of
2^i 1^j, column by column in ``_orbit_columns(j, a - i)``.  So one echelon
basis per multilinear (d, a, b) is built on a + b letters and cached;
every weight space of every n reads it through ``_orbit_block``, or the
j = 0 rule.  Each block is built by peeling the last letter L: it sits in
the monomial, as x_L or y_L times a block of the same power, or in a minor
on L, times a block one power below, and the minors on the first d letters
are enough (``_multilinear_block``).  ``ideal_power_span``
keeps the brute-force spanning set over a whole bidegree, for reference.
The two identity checks only count, orbit by orbit: formula coefficients
(telescoping) and cap-2 tableaux on exactly 1..m (Pieri).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable

from .gf2_exterior import ExtElement, minor, monomial
from .linalg_gf2 import EchelonBasis
from .standard_monomials import (
    IndexTriple,
    _exact_support_rows,
    _monomial_xmasks,
    _rectify_pairs,
    case_tag,
)
from .symfunc import OrbitCharacter, _orbits, _unchecked_character, expected_character

__all__ = [
    "CharacterReport",
    "ideal_power_span",
    "subquotient_character",
    "in_ideal_power",
    "verify_triple",
    "telescoping_check",
    "pieri_filtration_check",
]


@lru_cache(maxsize=None)
def _ideal_span_cached(d: int, a: int, b: int, n: int) -> tuple[ExtElement, ...]:
    """Nonzero products (d distinct minors) * x-monomial * y-monomial of bidegree (a, b)."""
    if a - d < 0 or b - d < 0:
        return ()
    pairs = list(combinations(range(1, n + 1), 2))
    xparts = list(combinations(range(1, n + 1), a - d))
    yparts = list(combinations(range(1, n + 1), b - d))
    out = []
    for chosen in combinations(pairs, d):
        prod = ExtElement.one(n)
        for i, j in chosen:
            prod = prod * minor(i, j, n)
            if prod.is_zero:
                break
        if prod.is_zero:
            continue
        for xs in xparts:
            left = prod * monomial(xs, (), n)
            if left.is_zero:
                continue
            for ys in yparts:
                g = left * monomial((), ys, n)
                if not g.is_zero:
                    out.append(g)
    return tuple(out)


def ideal_power_span(d: int, bidegree: tuple[int, int], n: int) -> tuple[ExtElement, ...]:
    """A spanning set for the d-th ideal power in the given bidegree."""
    return _ideal_span_cached(d, bidegree[0], bidegree[1], n)


@lru_cache(maxsize=None)
def _orbit_columns(j: int, k: int) -> dict[int, int]:
    """Column index of a weight space with j letters of weight 1, k of them in x.

    A monomial of the weight space is fixed by which weight-1 letters carry
    x; the key is that choice as a j-bit mask, packed in letter order.  The
    columns follow the masks' values, so the masks without the last letter
    come first, in the columns of (j - 1, k), and those with it follow in
    the order of (j - 1, k - 1).
    """
    masks = sorted(sum(1 << p for p in ps) for ps in combinations(range(j), k))
    return {m: c for c, m in enumerate(masks)}


def _compress(v: int, mask: int) -> int:
    """The bits of ``v`` at the set bits of ``mask``, packed to the low end in order."""
    out, bit = 0, 1
    while mask:
        low = mask & -mask
        if v & low:
            out |= bit
        bit <<= 1
        mask ^= low
    return out


@lru_cache(maxsize=None)
def _multilinear_block(d: int, a: int, b: int) -> EchelonBasis:
    """Echelon basis of the d-th ideal power in the multilinear weight space
    1^(a+b) of bidegree (a, b), on the letters 0..a+b-1.

    The 0-th power is the whole weight space.  Above it the block is peeled
    at the last letter L:

        Lemma.  For d >= 1 the d-th power at 1^(a+b) is spanned by x_L and
        y_L times the d-th power on the letters without L, of bidegree
        (a-1, b) and (a, b-1), and by the minors m_pL with p < d times the
        (d-1)-st power on the letters without p and L, of bidegree
        (a-1, b-1).

        Proof.  Every spanning product (d minors on disjoint pairs times a
        monomial) uses L.  If L sits in the monomial, the product is a
        shift.  Else L sits in a minor m_pL; take p >= d.  The letters
        0..d-1 are not p or L, and the d - 1 other minors cannot hold each
        in a minor of its own.  So either some q < d sits in the monomial,
        and x_q*m_pL = x_L*m_pq + x_p*m_qL (likewise for y); or two of them,
        q and q', share a minor, and m_pL*m_qq' = m_qL*m_pq' + m_q'L*m_pq,
        the three-term Plücker relation mod 2.  Each term is a shift of a
        product in the d-th power without L, or m_qL with q < d times a
        product in the (d-1)-st power without q and L.  []

    Blocks with a < b arise through x_L.  The cache holds at most one block
    per (d, a, b) and never depends on n.
    """
    if d > min(a, b):
        return EchelonBasis()
    j = a + b
    cols = _orbit_columns(j, a)
    if d == 0:
        return EchelonBasis(1 << c for c in range(len(cols)))
    # in the order of _orbit_columns, y_L keeps the columns of the block
    # below and x_L moves them past the C(j - 1, a) columns without x_L, so
    # the two shifts stay in echelon form
    shift = comb(j - 1, a)
    block = _multilinear_block(d, a, b - 1).copy()
    for row in _multilinear_block(d, a - 1, b).rows:
        block.add(row << shift)
    below = _multilinear_block(d - 1, a - 1, b - 1).rows
    last = 1 << (j - 1)
    for p in range(d):  # d <= min(a, b) <= j - 1
        bp = 1 << p
        # images[c]: the minor x_p*y_L + x_L*y_p times the monomial of column
        # c of the block below, whose x letters are the c-th choice of a - 1
        # letters other than p and L in the order of _orbit_columns
        ones = [1 << t for t in range(j - 1) if t != p]
        images = [
            1 << cols[xs | bp] | 1 << cols[xs | last]
            for xs in sorted(map(sum, combinations(ones, a - 1)))
        ]
        for row in below:
            v = 0
            while row:
                low = row & -row
                v ^= images[low.bit_length() - 1]
                row ^= low
            block.add(v)
    return block


def _orbit_block(d: int, a: int, b: int, i: int, j: int) -> EchelonBasis:
    """Echelon basis of the d-th ideal power in the weight space 2^i 1^j of
    bidegree (a, b), an orbit with 2i + j = a + b and i <= min(a, b), on the
    letters 0..i+j-1 (0..i-1 of weight 2), in the columns of
    ``_orbit_columns(j, a - i)``.

    Each letter of weight 2 collapses out (see the module docstring): for
    j >= 1 the block is x_v*y_v over those letters times the multilinear
    block of the power max(0, d - i) in bidegree (a - i, b - i), in the same
    columns.  For j = 0 the space is the one monomial of 2^i, which lies in
    the d-th power iff d = 0 or d <= i - 1.  Not cached: for j = 0 a fresh
    block is built on each call.
    """
    if j:
        return _multilinear_block(max(0, d - i), a - i, b - i)
    return EchelonBasis((1,) * _rank(d, a, b, i, j))


def _rank(d: int, a: int, b: int, i: int, j: int) -> int:
    """The rank of ``_orbit_block(d, a, b, i, j)``, with no block built for
    j = 0: the one monomial of 2^i lies in the d-th power iff d = 0 or
    d <= i - 1."""
    if j:
        return _multilinear_block(max(0, d - i), a - i, b - i).rank
    return 1 if d == 0 or d < i else 0


def _weight_pieces(terms: Iterable[tuple[int, int]]) -> dict[tuple[int, int, int], int]:
    """Terms split by bidegree and weight, each piece relabelled onto its orbit.

    Keys are (x-degree, mask of the letters of weight 2, mask of the letters
    of weight 1).  Each value is the piece's row in the columns of
    ``_orbit_columns``; the relabelling keeps the order of the letters.
    """
    pieces: dict[tuple[int, int, int], int] = {}
    for xm, ym in terms:
        p2, p1 = xm & ym, xm ^ ym
        a = xm.bit_count()
        col = _orbit_columns(p1.bit_count(), a - p2.bit_count())[_compress(xm, p1)]
        key = (a, p2, p1)
        pieces[key] = pieces.get(key, 0) | 1 << col
    return pieces


def subquotient_character(idx: IndexTriple) -> OrbitCharacter:
    """Diagonal-torus character of the subquotient at the index triple: the
    coefficient of the orbit (i, j) is r_d(i, j) - r_{d+1}(i, j)."""
    a, b, d, n = idx.a, idx.b, idx.d, idx.n
    table = {}
    for i in range(max(0, a + b - n), b + 1):  # the orbits of _orbits(a, b, n)
        j = a + b - 2 * i
        c = _rank(d, a, b, i, j) - _rank(d + 1, a, b, i, j)
        if c:
            table[(i, j)] = c
    return _unchecked_character(table, n)


def in_ideal_power(e: ExtElement, d: int) -> bool:
    """Membership of an element in the d-th power of the minor ideal.

    The element is split into bidegree and weight pieces (the ideal power is
    spanned by pieces of one bidegree and one weight, so membership is
    piecewise), and each piece is reduced against its orbit's block.
    """
    if e.is_zero:
        return True
    if d <= 0:
        return True
    for (a, p2, p1), v in _weight_pieces(e.term_masks).items():
        i, j = p2.bit_count(), p1.bit_count()
        if not _orbit_block(d, a, 2 * i + j - a, i, j).contains(v):
            return False
    return True


def _weight_label(m: int, twice: int) -> list[int]:
    """The bit of each letter 1..m of the weight whose letters used twice are
    the bits of ``twice`` (bit v for the letter v), for ``_monomial_xmasks``:
    the letters used once on the bits 0..j-1, j = m - |twice|, and those used
    twice above them, each kind in order."""
    label = [0] * (m + 1)
    once, rest = 0, m - twice.bit_count()
    for v in range(1, m + 1):
        if twice >> v & 1:
            label[v], rest = 1 << rest, rest + 1
        else:
            label[v], once = 1 << once, once + 1
    return label


@lru_cache(maxsize=None)
def _support_certificate(a: int, b: int, d: int, m: int) -> tuple[int, int]:
    """(count, added) of the basis tableaux of (a, b, d) whose letters are
    exactly 1..m: how many there are, and how many of their standard
    monomials raise the rank over the d+1-st power, which is the rank they
    add over it (ranks add up over weight spaces).

    A tableau has a + b entries on m letters, none used more than twice, so
    its monomial lies in a weight space 2^i 1^j with i = a + b - m.
    ``_rectify_pairs`` rectifies the rows with every check of ``rectify``,
    classifying the triple once for the support, and gives each its weight:
    the letters it uses twice, as a bitmask.  Each weight gets one label,
    which puts the j letters used once on the bits 0..j-1 and those used
    twice above them, each kind in order, so the x-masks of its rows
    (``_monomial_xmasks``) are the column keys of
    ``_orbit_columns(j, a - i)``, as in ``_orbit_block``.

    Every weight of the support reads the same block of the d+1-st power,
    ``above``.  Each weight keeps only the pivot rows its own monomials add,
    beside that block (``EchelonBasis.add_beside``), so the block is shared,
    not copied per weight.  The rows are read as they come, not grouped
    into ``_support_table``, so the certificate holds no more rows than the
    basis rows themselves.
    """
    rows = _exact_support_rows(a, b, d, m)
    if not rows:
        return 0, 0
    i = a + b - m
    j = m - i
    cols = _orbit_columns(j, a - i)
    above = _orbit_block(d + 1, a, b, i, j)
    low = (1 << j) - 1  # the letters used once, relabelled
    # per weight (its letters used twice): the label and the pivots the
    # weight's rows have added beside ``above``
    weights: dict[int, tuple[list[int], dict[int, int]]] = {}
    added = 0
    for twice, (row1, row2) in _rectify_pairs(rows, a, b, d):
        if twice not in weights:
            weights[twice] = _weight_label(m, twice), {}
        label, beside = weights[twice]
        xmasks = _monomial_xmasks(row1, row2, a, label, low)
        added += above.add_beside(beside, sum(1 << cols[xm] for xm in xmasks))
    return len(rows), added


@dataclass(frozen=True, slots=True)
class CharacterReport:
    """Outcome of verifying one index triple, all checks exact."""

    a: int
    b: int
    d: int
    n: int
    case: str
    match: bool
    computed: OrbitCharacter
    expected: OrbitCharacter
    basis_count: int
    quotient_dim: int
    independent: bool
    spanning: bool
    mismatched_weights: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return (
            self.match
            and self.independent
            and self.spanning
            and self.basis_count == self.quotient_dim
        )


# the slot descriptors' setters; see verify_triple
_set_a = CharacterReport.a.__set__
_set_b = CharacterReport.b.__set__
_set_d = CharacterReport.d.__set__
_set_n = CharacterReport.n.__set__
_set_case = CharacterReport.case.__set__
_set_match = CharacterReport.match.__set__
_set_computed = CharacterReport.computed.__set__
_set_expected = CharacterReport.expected.__set__
_set_basis_count = CharacterReport.basis_count.__set__
_set_quotient_dim = CharacterReport.quotient_dim.__set__
_set_independent = CharacterReport.independent.__set__
_set_spanning = CharacterReport.spanning.__set__
_set_mismatched_weights = CharacterReport.mismatched_weights.__set__


def verify_triple(idx: IndexTriple) -> CharacterReport:
    """Compare the computed subquotient character with the case formula and
    certify the straight-tableau basis by rank computations.

    Permuting the letters preserves every ideal power, and the basis rules
    only compare entries, so a basis tableau is certified on its support
    moved onto 1..m.  The basis at n is the union over m-letter supports,
    C(n, m) of each: it is independent when each support's part is, and it
    spans when the rank it adds, summed with those weights, is the
    dimension.  A basis tableau on m letters lies in the orbit
    (a + b - m, 2m - a - b), so only the supports m = i + j of the orbits
    hold any (row 1 has a + b - d >= a distinct letters, so m >= a).
    ``_support_certificate`` caches the (count, added) pair of each
    (a, b, d, m), so each support is certified once, for every n and every
    caller.
    """
    a, b, d, n = idx.a, idx.b, idx.d, idx.n
    computed = subquotient_character(idx)
    expected = expected_character(a, b, d, n)
    match = computed == expected
    # one weight per differing orbit: an orbit at n = 32 can hold 10^8 weights
    mismatched = () if match else tuple((computed - expected).orbit_representatives())

    basis_count = rank_added = 0
    independent = True
    for i in range(max(0, a + b - n), b + 1):  # the orbits of _orbits(a, b, n)
        m = a + b - i
        count, added = _support_certificate(a, b, d, m)
        if count:
            supports = comb(n, m)
            basis_count += supports * count
            rank_added += supports * added
            independent = independent and added == count
    quotient_dim = computed.evaluate_at_ones()

    # filled through the slot descriptors, as in tableaux._unchecked_tableau:
    # the report compares, hashes and refuses assignment like one built by
    # keyword, without the frozen __init__'s 13 guarded setattr calls
    report = object.__new__(CharacterReport)
    _set_a(report, a)
    _set_b(report, b)
    _set_d(report, d)
    _set_n(report, n)
    _set_case(report, case_tag(idx))
    _set_match(report, match)
    _set_computed(report, computed)
    _set_expected(report, expected)
    _set_basis_count(report, basis_count)
    _set_quotient_dim(report, quotient_dim)
    _set_independent(report, independent)
    _set_spanning(report, rank_added == quotient_dim)
    _set_mismatched_weights(report, mismatched)
    return report


def telescoping_check(a: int, b: int, n: int) -> bool:
    """The case formulas summed over d = 0..b give the full bidegree-(a, b)
    piece, with C(j, a - i) monomials at each weight 2^i 1^j.  The
    subquotients telescope to it by construction, and ``verify_triple``
    equates each with its formula, so only the formula tables are summed."""
    IndexTriple(a, b, 0, n)  # the domain of every triple: a >= b >= 0, 1 <= n <= MAX_N
    total = sum((expected_character(a, b, d, n) for d in range(b + 1)), OrbitCharacter.zero(n))
    return total == OrbitCharacter({(i, j): comb(j, a - i) for i, j in _orbits(a, b, n)}, n)


def pieri_filtration_check(a: int, b: int, n: int) -> bool:
    """Product of two squarefree complete pieces decomposes over the
    transposed two-row shapes (a+k, b-k).  Their column-strict fillings are
    the cap-2 tableaux of (a+k, b-k), listed on exactly 1..m by the generic
    triple (a+k, b-k, b-k); at the orbit (i, j), m = i + j, these spread
    evenly over the C(m, i) weights on 1..m, each with C(j, a - i) in h_a h_b."""
    if a <= b:
        raise ValueError(f"requires a > b, got a={a}, b={b}")
    IndexTriple(a, b, 0, n)  # the domain of every triple: b >= 0, 1 <= n <= MAX_N
    return all(
        sum(len(_exact_support_rows(a + k, b - k, b - k, i + j)) for k in range(b + 1))
        == comb(j, a - i) * comb(i + j, i)
        for i, j in _orbits(a, b, n)
    )
