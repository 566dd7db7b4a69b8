"""Character computation and basis certification against the GF(2) oracle.

The orbit engine is checked against three paths kept here: the full
spanning set of each ideal power over a whole bidegree, reduced weight by
weight and over the whole bidegree at once; ``spanning_block``, each orbit
block built from its d-fold products of minors; and ``peeled_block``, each
orbit block built by peeling its last letter at every weight 2^i 1^j, with
no letter of weight 2 collapsed and every minor on that letter.
``lemma_peel`` builds each multilinear block from the generators of its
lemma alone, and shows that none of them is spare.  The basis certificate
on compressed supports is checked against ``element_certificate``, which
reads each basis tableau as an ``ExtElement`` split into weight pieces:
once per support, and through ``per_n_certificate`` on every basis tableau
on n letters.  Its rows, x-masks on the letters used once, are checked
against the (xmask, ymask) term sets of the same rows, projected onto those
letters, one by one and through ``term_set_support_certificate``, the
certificate as it was built on them.  ``copy_per_weight_certificate`` adds
each weight's rows to its own copy of the d+1 block, where the certificate
keeps them beside the one shared block.  ``checked_subquotient_character``
builds each character through the checked ``OrbitCharacter`` constructor.
"""

import math
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frobtab import characters, gf2_exterior, standard_monomials
from frobtab.characters import (
    _ideal_span_cached,
    _multilinear_block,
    _orbit_block,
    _orbit_columns,
    _rank,
    _support_certificate,
    _weight_pieces,
    ideal_power_span,
    in_ideal_power,
    pieri_filtration_check,
    subquotient_character,
    telescoping_check,
    verify_triple,
)
from frobtab.gf2_exterior import ExtElement, _times_minor, minor, monomial, x_var, y_var
from frobtab.linalg_gf2 import EchelonBasis
from frobtab.standard_monomials import (
    DomainError,
    IndexTriple,
    _exact_support_rows,
    _monomial_terms,
    _monomial_xmasks,
    _rectify_rows,
    basis_index_set,
    exact_support_basis,
    two_standard_monomial,
)
from frobtab.symfunc import (
    OrbitCharacter,
    SymPoly,
    _orbits,
    expected_character,
    h_squarefree,
    schur,
)
from frobtab.tableaux import transpose_shape
from test_symfunc import jacobi_trudi_character, same_character

# (a, b, n) of the differential grid: a <= 6, n <= 6
GRID = [(a, b, n) for n in range(1, 7) for a in range(0, 7) for b in range(0, a + 1)]


def monomial_basis(degree, n):
    """All squarefree (xmask, ymask) pairs of the given bidegree, canonical order."""
    dx, dy = degree
    if dx < 0 or dy < 0 or dx > n or dy > n:
        return []
    xmasks = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), dx))
    ymasks = sorted(sum(1 << b for b in bits) for bits in combinations(range(n), dy))
    return [(xm, ym) for xm in xmasks for ym in ymasks]


def element_vector(e, column_index):
    """The element's terms as a row over the given monomial columns."""
    v = 0
    for t in e.term_masks:
        v |= 1 << column_index[t]
    return v


def _columns(a, b, n):
    return {m: c for c, m in enumerate(monomial_basis((a, b), n))}


def _weight(xm, ym, n):
    return tuple((xm >> p & 1) + (ym >> p & 1) for p in range(n))


def brute_weight_ranks(d, a, b, n):
    """Rank of the d-th ideal power in each weight space of bidegree (a, b),
    from the full spanning set; weights of rank 0 are absent."""
    cols = _columns(a, b, n)
    by_weight = {}
    for g in ideal_power_span(d, (a, b), n):
        w = _weight(*next(iter(g.term_masks)), n)
        by_weight.setdefault(w, EchelonBasis()).add(element_vector(g, cols))
    return {w: eb.rank for w, eb in by_weight.items()}


@lru_cache(maxsize=None)
def brute_echelon(d, a, b, n):
    """Echelon basis of the d-th ideal power over the whole bidegree (a, b)."""
    cols = _columns(a, b, n)
    return EchelonBasis(element_vector(g, cols) for g in ideal_power_span(d, (a, b), n))


def brute_certificate(elements, idx):
    """(independent, spanning) checked over the whole bidegree at once."""
    cols = _columns(idx.a, idx.b, idx.n)
    joint = brute_echelon(idx.d + 1, idx.a, idx.b, idx.n).copy()
    added = sum(joint.add(element_vector(e, cols)) for e in elements)
    full = brute_echelon(idx.d, idx.a, idx.b, idx.n)
    return added == len(elements), joint.rank == full.rank


def quotient_dimension(idx):
    """dim of (d-th power)/(d+1-st power) in bidegree (a, b)."""
    return subquotient_character(idx).evaluate_at_ones()


def element_certificate(elements, idx):
    """(independent, gained) of elements of bidegree (a, b) modulo the
    d+1-st power: whether they are independent there, and the rank they add
    over it.

    Standard monomials are weight homogeneous, so each element is one row
    of one weight space, found by splitting it into weight pieces.  Ranks
    add up over weight spaces, so the gained rank is summed over the weights
    the elements reach.
    """
    a, b, d = idx.a, idx.b, idx.d
    joint = {}
    added = 0
    for e in elements:
        for (x_degree, p2, p1), v in _weight_pieces(e.term_masks).items():
            i, j = p2.bit_count(), p1.bit_count()
            if (x_degree, 2 * i + j - x_degree) != (a, b):
                raise ValueError(f"element {e} is not of bidegree {(a, b)}")
            eb = joint.get((p2, p1))
            if eb is None:
                eb = joint[(p2, p1)] = _orbit_block(d + 1, a, b, i, j).copy()
            added += eb.add(v)
    gained = sum(
        eb.rank - _orbit_block(d + 1, a, b, p2.bit_count(), p1.bit_count()).rank
        for (p2, p1), eb in joint.items()
    )
    return added == len(elements), gained


def certificate(elements, idx):
    """(independent, spanning) of the elements, as ``brute_certificate`` gives it."""
    independent, gained = element_certificate(elements, idx)
    return independent, gained == quotient_dimension(idx)


def per_n_certificate(idx):
    """(basis_count, independent, spanning) from every basis tableau on n letters."""
    tabs = basis_index_set(idx)
    return (len(tabs), *certificate([two_standard_monomial(t, idx) for t in tabs], idx))


def element_support_certificate(a, b, d, m):
    """(count, independent, gained) of the basis tableaux whose letters are
    exactly 1..m, as ``element_certificate`` reads their standard monomials."""
    idx = IndexTriple(a, b, d, max(m, 1))
    tabs = exact_support_basis(a, b, d, m)
    independent, gained = element_certificate(
        [two_standard_monomial(t, idx) for t in tabs], idx
    )
    return len(tabs), independent, gained


def orbit_label(twice, m):
    """The relabelling of a weight onto its orbit: label[v] is the bit of
    the letter v, the letters used twice first, each kind in order."""
    label = [0] * (m + 1)
    for pos, v in enumerate(sorted(range(1, m + 1), key=lambda v: v not in twice)):
        label[v] = 1 << pos
    return label


def once_first_label(twice, m):
    """The relabelling ``_monomial_xmasks`` reads: the letters used once
    first, then those used twice, each kind in order."""
    label = [0] * (m + 1)
    for pos, v in enumerate(sorted(range(1, m + 1), key=lambda v: v in twice)):
        label[v] = 1 << pos
    return label


def term_set_xmasks(row1, row2, a, label):
    """The x-masks of the (xmask, ymask) term set of the relabelled rows."""

    def relabel(row):
        return tuple(label[v].bit_length() for v in row)

    return {xm for xm, _ in _monomial_terms(relabel(row1), relabel(row2), a)}


def term_set_support_certificate(a, b, d, m):
    """``_support_certificate`` with each row built from the (xmask, ymask)
    term set of the relabelled rows."""
    rows = _exact_support_rows(a, b, d, m)
    if not rows:
        return 0, 0
    i = a + b - m
    cols = _orbit_columns(m - i, a - i)
    above = _orbit_block(d + 1, a, b, i, m - i)
    joint = {}
    added = 0
    for row1, row2 in rows:
        twice = frozenset(row1).intersection(row2)  # rectifying keeps the entries
        if twice not in joint:
            joint[twice] = orbit_label(twice, m), above.copy()
        label, basis = joint[twice]
        row1, row2 = _rectify_rows(row1, row2, a, b, d)
        xmasks = term_set_xmasks(row1, row2, a, label)
        added += basis.add(sum(1 << cols[xm >> i] for xm in xmasks))
    return len(rows), added


def copy_per_weight_certificate(a, b, d, m):
    """``_support_certificate`` with each weight's rows added to its own
    copy of the d+1 block, and the letters used twice found as a bit mask."""
    rows = _exact_support_rows(a, b, d, m)
    if not rows:
        return 0, 0
    i = a + b - m
    j = m - i
    cols = _orbit_columns(j, a - i)
    above = _orbit_block(d + 1, a, b, i, j)
    bits = [1 << v for v in range(m + 1)]
    joint = {}
    added = 0
    for row1, row2 in rows:
        twice = sum(map(bits.__getitem__, row1)) & sum(map(bits.__getitem__, row2))
        if twice not in joint:
            label = [0] * (m + 1)
            once, rest = 0, j
            for v in range(1, m + 1):
                if twice >> v & 1:
                    label[v], rest = 1 << rest, rest + 1
                else:
                    label[v], once = 1 << once, once + 1
            joint[twice] = label, above.copy()
        label, basis = joint[twice]
        row1, row2 = _rectify_rows(row1, row2, a, b, d)
        xmasks = _monomial_xmasks(row1, row2, a, label, (1 << j) - 1)
        added += basis.add(sum(1 << cols[xm] for xm in xmasks))
    return len(rows), added


def checked_subquotient_character(idx):
    """``subquotient_character`` through the checked ``OrbitCharacter``
    constructor, zeros included."""
    a, b, d, n = idx.a, idx.b, idx.d, idx.n
    return OrbitCharacter(
        {(i, j): _rank(d, a, b, i, j) - _rank(d + 1, a, b, i, j) for i, j in _orbits(a, b, n)},
        n,
    )


def _take(p, r2, r1):
    """Residual masks after one more use of letter bit ``p``."""
    if r2 & p:
        return r2 ^ p, r1 | p
    return r2, r1 ^ p


@lru_cache(maxsize=None)
def peeled_block(d, a, b, i, j):
    """``_orbit_block`` built by peeling the last letter L at every weight.

    Either L sits only in the monomial, as x_L or y_L (L of weight 1) or
    x_L*y_L (L of weight 2) times the d-th power at the weight without L; or
    L sits in a minor on some p < L, times the (d-1)-st power at the weight
    left after one more use of p and of L, relabelled onto the letters left
    (those of weight 2 first, each kind in order).
    """
    if d > min(a, b) or not 0 <= a - i <= j:
        return EchelonBasis()
    cols = _orbit_columns(j, a - i)
    if d == 0:
        return EchelonBasis(1 << c for c in range(len(cols)))
    w2, w1 = (1 << i) - 1, ((1 << j) - 1) << i
    last = 1 << (i + j - 1)
    if j:
        block = peeled_block(d, a, b - 1, i, j - 1).copy()
        for row in peeled_block(d, a - 1, b, i, j - 1).rows:
            block.add(row << math.comb(j - 1, a - i))
    else:  # one column, which x_L*y_L keeps
        block = peeled_block(d, a - 1, b - 1, i - 1, 0).copy()
    for p in range(i + j - 1):
        if block.rank == len(cols):
            break
        bp = 1 << p
        r2, r1 = _take(last, *_take(bp, w2, w1))
        below = peeled_block(d - 1, a - 1, b - 1, r2.bit_count(), r1.bit_count())
        if not below.rank:
            continue
        ones = [1 << t for t in range(i + j) if r1 >> t & 1]
        images = []
        for xs in sorted(map(sum, combinations(ones, a - 1 - r2.bit_count()))):
            v = 0
            for xm, _ in _times_minor(((r2 | xs, r2 | r1 ^ xs),), bp, last):
                v |= 1 << cols[xm >> i]
            images.append(v)
        for row in below.rows:
            v = 0
            while row:
                low = row & -row
                v ^= images[low.bit_length() - 1]
                row ^= low
            block.add(v)
    return block


@lru_cache(maxsize=None)
def lemma_peel(d, a, b, k=None, x_shift=True, y_shift=True):
    """``_multilinear_block`` built from its lemma at the last letter L, one
    column monomial at a time: y_L and x_L times the blocks of the same power
    (either switchable), and the minors m_pL with p < k (k = d when None)
    times the block one power below on the letters without p and L.  Every
    block below is the lemma's as it stands."""
    if d > min(a, b):
        return EchelonBasis()
    j = a + b
    cols = _orbit_columns(j, a)
    if d == 0:
        return EchelonBasis(1 << c for c in range(len(cols)))
    last = 1 << (j - 1)
    # (block below, its letters in order, its x-degree, the x variables it takes)
    parts = []
    if y_shift:
        parts.append((lemma_peel(d, a, b - 1), range(j - 1), a, (0,)))
    if x_shift:
        parts.append((lemma_peel(d, a - 1, b), range(j - 1), a - 1, (last,)))
    for p in range(d if k is None else k):
        letters = [t for t in range(j - 1) if t != p]
        parts.append((lemma_peel(d - 1, a - 1, b - 1), letters, a - 1, (1 << p, last)))
    block = EchelonBasis()
    for below, letters, ax, xvars in parts:
        images = {}
        for local, c in _orbit_columns(len(letters), ax).items():
            xm = sum(1 << t for s, t in enumerate(letters) if local >> s & 1)
            images[c] = 0
            for x in xvars:
                images[c] ^= 1 << cols[xm | x]
        for row in below.rows:
            v = 0
            for c in range(row.bit_length()):
                if row >> c & 1:
                    v ^= images[c]
            block.add(v)
    return block


def _minor_products(d, letters, r2, r1):
    """Nonzero products of d distinct minors that fit under a residual weight.

    The weight is given by the masks ``r2`` and ``r1`` of the letters that
    may still be used twice and once.  Yields each product's terms as
    (xmask, ymask) pairs with the residual masks left after it.
    """
    pairs = list(combinations(range(letters), 2))

    def extend(start, left, terms, r2, r1):
        if not left:
            yield terms, r2, r1
            return
        for k in range(start, len(pairs) - left + 1):
            p, q = pairs[k]
            bp, bq = 1 << p, 1 << q
            if not (bp & (r2 | r1) and bq & (r2 | r1)):
                continue
            prod = _times_minor(terms, bp, bq)
            if prod:
                s2, s1 = _take(bp, r2, r1)
                yield from extend(k + 1, left - 1, prod, *_take(bq, s2, s1))

    return extend(0, d, {(0, 0)}, r2, r1)


def spanning_block(d, a, b, i, j):
    """``_orbit_block`` from its spanning products, in the same columns.

    Spanning products: d distinct minors whose letters fit under the weight,
    times the monomial the rest of the weight fixes.  A letter left with
    weight 2 goes to both x and y; the letters left with weight 1 are split
    so that the x-degree is a.
    """
    block = EchelonBasis()
    if d > min(a, b) or not 0 <= a - i <= j:
        return block
    cols = _orbit_columns(j, a - i)
    for terms, r2, r1 in _minor_products(d, i + j, (1 << i) - 1, ((1 << j) - 1) << i):
        free = [1 << p for p in range(i + j) if r1 >> p & 1]
        k = a - d - r2.bit_count()
        if k < 0:
            continue
        for xs in combinations(free, k):
            sx = r2 | sum(xs)
            sy = r2 | (r1 ^ sum(xs))
            v = 0
            for xm, ym in terms:
                if not (xm & sx or ym & sy):
                    v |= 1 << cols[(xm | sx) >> i]
            block.add(v)
    return block


@pytest.fixture(scope="module")
def brute_ranks():
    """brute_weight_ranks for every d <= b+1 on GRID; frees the spans after."""
    ranks = {
        (d, a, b, n): brute_weight_ranks(d, a, b, n)
        for a, b, n in GRID
        for d in range(0, b + 2)
    }
    _ideal_span_cached.cache_clear()
    return ranks


def test_monomial_basis_counts():
    for n in range(1, 5):
        for dx in range(0, n + 1):
            for dy in range(0, n + 1):
                got = len(monomial_basis((dx, dy), n))
                assert got == math.comb(n, dx) * math.comb(n, dy)
    assert monomial_basis((3, 0), 2) == []
    assert monomial_basis((-1, 0), 2) == []


def test_element_vector_round_trip():
    n = 3
    cols = {m: i for i, m in enumerate(monomial_basis((1, 1), n))}
    e = minor(1, 2, n)
    v = element_vector(e, cols)
    assert v.bit_count() == 2


def test_ideal_span_degree_zero_is_full_monomial_space():
    span = ideal_power_span(0, (1, 1), 2)
    assert len(span) == 4  # x_i y_j for i, j in [2]


def test_ideal_span_empty_when_degree_too_small():
    assert ideal_power_span(2, (1, 1), 3) == ()


def test_quotient_dimensions_small():
    # bidegree (1,1), n=2: four monomials, one minor
    assert quotient_dimension(IndexTriple(1, 1, 0, 2)) == 3
    assert quotient_dimension(IndexTriple(1, 1, 1, 2)) == 1


def test_in_ideal_power_basics():
    n = 3
    assert in_ideal_power(minor(1, 2, n), 1)
    assert not in_ideal_power(monomial([1], [1], n), 1)
    assert in_ideal_power(ExtElement.zero(n), 5)
    assert in_ideal_power(x_var(1, n) * y_var(2, n), 0)
    # x1 x2 y1 = x1 * [1,2] lands in the ideal even though no single term is a minor
    assert in_ideal_power(monomial([1, 2], [1], n), 1)
    assert in_ideal_power(minor(1, 2, n) * minor(1, 3, n), 2)


def test_in_ideal_power_splits_inhomogeneous_elements():
    n = 3
    e = minor(1, 2, n) + minor(1, 2, n) * minor(1, 3, n)
    assert in_ideal_power(e, 1)
    assert not in_ideal_power(e, 2)


def test_subquotient_character_known_values():
    assert subquotient_character(IndexTriple(1, 1, 1, 2)) == SymPoly({(1, 1): 1}, 2)
    assert subquotient_character(IndexTriple(2, 2, 1, 2)) == SymPoly({(2, 2): 1}, 2)


def test_verify_triple_report_fields(monkeypatch):
    # the difference of the two characters is taken only when they differ
    monkeypatch.delattr(OrbitCharacter, "__sub__")
    rep = verify_triple(IndexTriple(2, 2, 1, 2))
    assert rep.ok
    assert rep.case == "off_by_one"
    assert rep.basis_count == 1 and rep.quotient_dim == 1
    assert rep.match and rep.independent and rep.spanning
    assert rep.mismatched_weights == ()


def test_verify_triple_over_small_grid():
    for n in range(1, 4):
        for a in range(0, 4):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    rep = verify_triple(IndexTriple(a, b, d, n))
                    assert rep.ok, (a, b, d, n, rep)


def test_telescoping_small_grid():
    for n in range(1, 4):
        for a in range(0, 4):
            for b in range(0, a + 1):
                assert telescoping_check(a, b, n), (a, b, n)


def test_pieri_small_grid():
    for n in range(1, 4):
        for a in range(1, 4):
            for b in range(0, a):
                assert pieri_filtration_check(a, b, n), (a, b, n)


def _telescoping_at_every_letter(a, b, n):
    """``telescoping_check`` at every weight: the case formulas expanded by
    Jacobi-Trudi products and summed over d, against h_a * h_b."""
    total = SymPoly.zero(n)
    for d in range(0, b + 1):
        total = total + jacobi_trudi_character(a, b, d, n)
    return total == h_squarefree(a, n) * h_squarefree(b, n)


def _pieri_at_every_letter(a, b, n):
    """``pieri_filtration_check`` with Schur polynomials expanded at every weight."""
    total = SymPoly.zero(n)
    for i in range(0, b + 1):
        total = total + schur(transpose_shape((a + i, b - i)), n)
    return total == h_squarefree(a, n) * h_squarefree(b, n)


def test_checks_agree_with_the_every_weight_references():
    for n in range(1, 9):
        for a in range(0, 5):
            for b in range(0, a + 1):
                want = _telescoping_at_every_letter(a, b, n)
                assert telescoping_check(a, b, n) == want, (a, b, n)
                if a > b:
                    want = _pieri_at_every_letter(a, b, n)
                    assert pieri_filtration_check(a, b, n) == want, (a, b, n)


def test_checks_hold_at_32_letters():
    for a in range(0, 9):
        for b in range(0, a + 1):
            assert telescoping_check(a, b, 32), (a, b)
            if a > b:
                assert pieri_filtration_check(a, b, 32), (a, b)


@pytest.mark.parametrize("n", [0, 33])
def test_checks_reject_an_alphabet_outside_1_to_max_n(n):
    with pytest.raises(DomainError):
        telescoping_check(3, 1, n)
    with pytest.raises(DomainError):
        pieri_filtration_check(3, 1, n)


@pytest.mark.parametrize("flipped_d", [0, 1, 2])
def test_a_flipped_formula_coefficient_fails_telescoping(monkeypatch, flipped_d):
    real = characters.expected_character

    def flipped(a, b, d, n):
        out = real(a, b, d, n)
        if d != flipped_d:
            return out
        w = out.orbit_representatives()[0]
        return out - OrbitCharacter({(w.count(2), w.count(1)): 2 * out.coeff(w)}, n)

    assert telescoping_check(3, 2, 5)
    monkeypatch.setattr(characters, "expected_character", flipped)
    assert not telescoping_check(3, 2, 5)


@pytest.mark.parametrize("k", [0, 1])
def test_a_dropped_cap_2_tableau_fails_pieri(monkeypatch, k):
    # the shape (3 + k, 1 - k) on exactly the letters 1..4 loses its first tableau
    real = characters._exact_support_rows

    def dropped(a, b, d, m):
        rows = real(a, b, d, m)
        return rows[1:] if (a, b, d, m) == (3 + k, 1 - k, 1 - k, 4) else rows

    assert real(3 + k, 1 - k, 1 - k, 4) and pieri_filtration_check(3, 1, 4)
    monkeypatch.setattr(characters, "_exact_support_rows", dropped)
    assert not pieri_filtration_check(3, 1, 4)


def test_checks_build_no_orbit_block_and_no_sympoly(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a SymPoly was built")

    _multilinear_block.cache_clear()
    monkeypatch.setattr(SymPoly, "__init__", refuse)
    assert telescoping_check(7, 7, 32)
    assert pieri_filtration_check(7, 6, 32)
    assert _multilinear_block.cache_info().currsize == 0


def test_pieri_requires_strict_inequality():
    with pytest.raises(ValueError):
        pieri_filtration_check(2, 2, 3)


def test_orbit_ranks_match_brute_force_at_every_weight(brute_ranks):
    for a, b, n in GRID:
        weights = {_weight(xm, ym, n) for xm, ym in monomial_basis((a, b), n)}
        for d in range(0, b + 2):
            brute = brute_ranks[(d, a, b, n)]
            assert set(brute) <= weights
            for w in weights:
                block = _orbit_block(d, a, b, w.count(2), w.count(1))
                assert block.rank == brute.get(w, 0), (d, a, b, n, w)


def test_orbit_blocks_span_the_spanning_products():
    # every block with a, b <= 5 in both orders, including d = min(a, b) + 1;
    # the weight spaces reach i + j = 10 letters, past the brute-force grid
    checked = 0
    for a in range(0, 6):
        for b in range(0, 6):
            for i in range(0, min(a, b) + 1):
                j = a + b - 2 * i
                for d in range(0, min(a, b) + 2):
                    block, oracle = _orbit_block(d, a, b, i, j), spanning_block(d, a, b, i, j)
                    assert block.rank == oracle.rank, (d, a, b, i, j)
                    assert all(oracle.contains(row) for row in block.rows), (d, a, b, i, j)
                    checked += 1
    assert checked == 392


@pytest.fixture(scope="module")
def peeled():
    """``peeled_block``, its cache freed after the module's tests."""
    yield peeled_block
    peeled_block.cache_clear()


def test_orbit_blocks_match_the_peel_at_every_weight(peeled):
    # every block with a, b <= 7 in both orders, including d = min(a, b) + 1:
    # each letter of weight 2 collapses out, and the one-line spaces 2^i
    # follow the rule d = 0 or d <= i - 1
    checked = 0
    for a in range(0, 8):
        for b in range(0, 8):
            for i in range(0, min(a, b) + 1):
                j = a + b - 2 * i
                for d in range(0, min(a, b) + 2):
                    block, oracle = _orbit_block(d, a, b, i, j), peeled(d, a, b, i, j)
                    assert block.rank == oracle.rank, (d, a, b, i, j)
                    assert all(oracle.contains(row) for row in block.rows), (d, a, b, i, j)
                    checked += 1
    assert checked == 1080


@pytest.fixture(scope="module")
def lemma():
    """``lemma_peel``, its cache freed after the module's tests."""
    yield lemma_peel
    lemma_peel.cache_clear()


def test_multilinear_blocks_are_the_lemma_peel(lemma):
    # every block with a, b <= 6 in both orders, including d = min(a, b) + 1
    checked = 0
    for a in range(0, 7):
        for b in range(0, 7):
            for d in range(0, min(a, b) + 2):
                block, oracle = _multilinear_block(d, a, b), lemma(d, a, b)
                assert block.rank == oracle.rank, (d, a, b)
                assert all(block.contains(row) for row in oracle.rows), (d, a, b)
                checked += 1
    assert checked == 189


@pytest.mark.parametrize(
    "switch, below, lowered",
    [
        (lambda d: {"k": d - 1}, lambda d, a, b: (d - 1, a - 1, b - 1), 91),
        (lambda d: {"y_shift": False}, lambda d, a, b: (d, a, b - 1), 70),
        (lambda d: {"x_shift": False}, lambda d, a, b: (d, a - 1, b), 70),
    ],
    ids=["one-minor-family-fewer", "no-y_L-shift", "no-x_L-shift"],
)
def test_the_lemma_is_tight(lemma, switch, below, lowered):
    # on every block with d >= 1 and a, b <= 6, dropping the minor family
    # m_(d-1)L or either shift lowers the rank whenever the dropped rows are
    # not empty: no generator of the lemma is spare
    count = 0
    for a in range(1, 7):
        for b in range(1, 7):
            for d in range(1, min(a, b) + 1):
                short = lemma(d, a, b, **switch(d)).rank < _multilinear_block(d, a, b).rank
                assert short == bool(_multilinear_block(*below(d, a, b)).rank), (d, a, b)
                count += short
    assert count == lowered


def test_subquotients_vanish_where_the_collapse_says(peeled):
    # at n = a + b every orbit (i, j) of bidegree (a, b) is present; a letter
    # of weight 2 absorbs one minor, so (d-th power) / (d+1-st power) is zero
    # at i > d, except on the one-line space 2^i with d = i - 1.  Read from
    # the peel, which collapses nothing, and from the case formulas
    checked = 0
    for a in range(0, 8):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                n = max(a + b, 1)
                formula = expected_character(a, b, d, n)
                for i in range(0, b + 1):
                    j = a + b - 2 * i
                    coeff = peeled(d, a, b, i, j).rank - peeled(d + 1, a, b, i, j).rank
                    may = i <= d or (j == 0 and d == i - 1)
                    assert may or coeff == 0, (a, b, d, i, j)
                    w = (2,) * i + (1,) * j + (0,) * (n - i - j)
                    assert may or formula.coeff(w) == 0, (a, b, d, i, j)
                    checked += 1
    assert checked == 540


def test_a_verify_grid_pass_builds_only_multilinear_blocks():
    # the 498 triples with a <= 6, n <= 6, from an empty cache: one block per
    # (d, a, b) reached, where the peel at every weight built 297
    _multilinear_block.cache_clear()
    _support_certificate.cache_clear()
    for n in range(1, 7):
        for a in range(1, 7):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    assert verify_triple(IndexTriple(a, b, d, n)).ok
    assert _multilinear_block.cache_info().currsize == 58


def test_orbit_blocks_mirror_under_swapping_x_and_y():
    # swapping x and y fixes every minor, so the (b, a) block is the (a, b)
    # block with each column's x letters complemented; the peel reaches
    # blocks with a < b through x_L, so both orders are built
    checked = 0
    for a in range(0, 7):
        for b in range(0, 7):
            for i in range(0, min(a, b) + 1):
                j = a + b - 2 * i
                full = (1 << j) - 1
                mirror = _orbit_columns(j, b - i)
                to_mirror = {c: mirror[xm ^ full] for xm, c in _orbit_columns(j, a - i).items()}
                for d in range(0, min(a, b) + 2):
                    block, swapped = _orbit_block(d, a, b, i, j), _orbit_block(d, b, a, i, j)
                    assert block.rank == swapped.rank, (d, a, b, i, j)
                    for row in block.rows:
                        cs = [c for c in range(row.bit_length()) if row >> c & 1]
                        assert swapped.contains(sum(1 << to_mirror[c] for c in cs)), (d, a, b, i, j)
                    checked += 1
    assert checked == 672


def test_ranks_read_without_a_block_match_the_orbit_blocks():
    # every rank subquotient_character reads: d up to b + 1 at each orbit
    checked = 0
    for a in range(0, 8):
        for b in range(0, a + 1):
            for i in range(0, b + 1):
                j = a + b - 2 * i
                for d in range(0, b + 2):
                    assert _rank(d, a, b, i, j) == _orbit_block(d, a, b, i, j).rank, (d, a, b, i, j)
                    checked += 1
    assert checked == 660


def test_dimensions_and_characters_match_brute_force(brute_ranks):
    for a, b, n in GRID:
        for d in range(0, b + 1):
            lo, hi = brute_ranks[(d, a, b, n)], brute_ranks[(d + 1, a, b, n)]
            idx = IndexTriple(a, b, d, n)
            assert quotient_dimension(idx) == sum(lo.values()) - sum(hi.values()), idx
            expected = SymPoly({w: r - hi.get(w, 0) for w, r in lo.items()}, n)
            assert subquotient_character(idx) == expected, idx


@st.composite
def oracle_cases(draw):
    """(element in the d-th power, monomial outside it or None, d, n)."""
    n = draw(st.integers(2, 6))
    a = draw(st.integers(1, min(n, 4)))
    b = draw(st.integers(1, a))
    d = draw(st.integers(1, b))
    span = ideal_power_span(d, (a, b), n)
    picks = draw(st.lists(st.sampled_from(span), max_size=5)) if span else []
    member = ExtElement.zero(n)
    for g in picks:
        member = member + g
    cols = _columns(a, b, n)
    ideal = brute_echelon(d, a, b, n)
    outside = [m for m in cols if not ideal.contains(1 << cols[m])]
    m = draw(st.sampled_from(outside)) if outside else None
    return member, m, d, n


@settings(max_examples=150, deadline=None)
@given(oracle_cases())
def test_in_ideal_power_agrees_with_full_bidegree_echelon(case):
    member, m, d, n = case
    assert in_ideal_power(member, d)
    if m is not None:
        a, b = m[0].bit_count(), m[1].bit_count()
        outsider = member + ExtElement((m,), n)
        v = element_vector(outsider, _columns(a, b, n))
        assert not brute_echelon(d, a, b, n).contains(v)
        assert not in_ideal_power(outsider, d)


@st.composite
def two_bidegree_sums(draw):
    """(members of the d-th power plus loose monomials over two bidegrees, d).

    The bidegrees are drawn in either order, so a < b occurs.
    """
    n = draw(st.integers(2, 6))
    d = draw(st.integers(0, 3))
    terms = set()
    for _ in range(2):
        a = draw(st.integers(0, min(n, 4)))
        b = draw(st.integers(0, min(n, 4)))
        span = ideal_power_span(d, (a, b), n)
        for g in draw(st.lists(st.sampled_from(span), max_size=4)) if span else []:
            terms ^= g.term_masks
        loose = draw(st.lists(st.sampled_from(monomial_basis((a, b), n)), max_size=2))
        terms ^= set(loose)
    return ExtElement(terms, n), d


def brute_in_ideal_power(e, d):
    """Membership checked bidegree by bidegree against whole-bidegree echelons."""
    pieces = {}
    for xm, ym in e.term_masks:
        pieces.setdefault((xm.bit_count(), ym.bit_count()), set()).add((xm, ym))
    return all(
        brute_echelon(d, a, b, e.n).contains(
            element_vector(ExtElement(piece, e.n), _columns(a, b, e.n))
        )
        for (a, b), piece in pieces.items()
    )


def test_in_ideal_power_holds_for_every_spanning_product_in_either_order():
    # 5 letters is the fewest on which the orbit blocks of (a, b) and (b, a)
    # span different spaces (d = 2, (2, 3), five letters of weight 1), so a
    # lookup that swaps a and b fails here.
    n, checked = 5, 0
    for a in range(0, 5):
        for b in range(0, 5):
            for d in range(1, min(a, b) + 1):
                for g in ideal_power_span(d, (a, b), n):
                    assert in_ideal_power(g, d), (a, b, d, g)
                    checked += 1
    assert checked == 9890


@settings(max_examples=200, deadline=None)
@given(two_bidegree_sums())
def test_in_ideal_power_agrees_with_echelon_on_sums_over_two_bidegrees(case):
    e, d = case
    assert in_ideal_power(e, d) == brute_in_ideal_power(e, d)


def test_certificate_rejects_duplicated_and_dropped_basis_elements():
    checked = 0
    for n in range(1, 5):
        for a in range(1, 5):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    basis = [two_standard_monomial(t, idx) for t in basis_index_set(idx)]
                    if not basis:
                        continue
                    duplicated = basis + [basis[-1]]
                    dropped = basis[1:]
                    assert certificate(basis, idx) == (True, True), idx
                    assert certificate(duplicated, idx) == (False, True), idx
                    assert certificate(dropped, idx) == (True, False), idx
                    for elements in (basis, duplicated, dropped):
                        assert certificate(elements, idx) == brute_certificate(
                            elements, idx
                        ), idx
                    checked += 1
    assert checked >= 40


def test_support_certificate_agrees_with_the_per_n_certificate():
    triples = [IndexTriple(0, 0, 0, n) for n in range(1, 9)] + [
        IndexTriple(a, b, d, n)
        for n in range(1, 9)
        for a in range(1, 6)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    ]
    assert len(triples) == 8 + 440
    # warm: each triple reuses the certificates of the triples before it
    _support_certificate.cache_clear()
    warm = [verify_triple(idx) for idx in triples]
    for idx, warm_rep in zip(triples, warm):
        want = per_n_certificate(idx)
        _support_certificate.cache_clear()
        for rep in (verify_triple(idx), warm_rep):
            assert (rep.basis_count, rep.independent, rep.spanning) == want, idx
            assert want == (rep.quotient_dim, True, True), idx


def test_support_certificate_agrees_with_the_element_certificate():
    checked = 0
    for a in range(0, 6):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    count, added = _support_certificate(a, b, d, m)
                    want = element_support_certificate(a, b, d, m)
                    assert (count, added == count, added) == want, (a, b, d, m)
                    checked += 1
    assert checked == 406


def test_xmasks_match_the_term_sets_on_every_rectified_support_row():
    checked = cancelled = 0
    for a in range(0, 7):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(a, a + b + 1):
                    i = a + b - m
                    for row1, row2 in _exact_support_rows(a, b, d, m):
                        twice = frozenset(row1).intersection(row2)
                        label = once_first_label(twice, m)
                        row1, row2 = _rectify_rows(row1, row2, a, b, d)
                        got = _monomial_xmasks(row1, row2, a, label, (1 << m - i) - 1)
                        assert len(got) == len(set(got)), (row1, row2, a)
                        # the term set's x-masks hold every letter used twice,
                        # on the i low bits of orbit_label; project them out
                        want = term_set_xmasks(row1, row2, a, orbit_label(twice, m))
                        assert all(xm & (1 << i) - 1 == (1 << i) - 1 for xm in want)
                        assert set(got) == {xm >> i for xm in want}, (row1, row2, a)
                        checked += 1
                        cancelled += not want
    assert (checked, cancelled) == (17_696, 0)


def test_support_certificate_agrees_with_the_term_set_certificate():
    checked = 0
    _support_certificate.cache_clear()
    for a in range(0, 7):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    want = term_set_support_certificate(a, b, d, m)
                    assert _support_certificate(a, b, d, m) == want, (a, b, d, m)
                    checked += 1
    assert checked == 714


def test_support_certificate_agrees_with_a_copy_of_the_block_per_weight():
    checked = 0
    _support_certificate.cache_clear()
    for a in range(0, 8):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    want = copy_per_weight_certificate(a, b, d, m)
                    assert _support_certificate(a, b, d, m) == want, (a, b, d, m)
                    checked += 1
    assert checked == 1_170


def test_the_certificate_reduces_each_row_against_the_shared_block(monkeypatch):
    # every standard monomial of the basis lies in the d-th power, so against
    # that block in place of the d+1-st no row raises the rank; a certificate
    # that left the shared block out would count the rows again
    monkeypatch.setattr(characters, "_orbit_block", lambda d, *rest: _orbit_block(d - 1, *rest))
    _support_certificate.cache_clear()
    try:
        rows = 0
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    for m in range(a, a + b + 1):
                        count, added = _support_certificate(a, b, d, m)
                        assert added == 0, (a, b, d, m)
                        rows += count
        assert rows == 3_289
    finally:
        _support_certificate.cache_clear()


def test_the_certificate_copies_no_block(monkeypatch):
    def refused(self):
        raise AssertionError("a block was copied")

    # the blocks are built first: the peel copies the block it extends
    for a in range(0, 7):
        for b in range(0, a + 1):
            for d in range(0, b + 2):
                _multilinear_block(d, a, b)
    monkeypatch.setattr(EchelonBasis, "copy", refused)
    _support_certificate.cache_clear()
    try:
        for a, b, n in GRID:
            for d in range(b + 1):
                assert verify_triple(IndexTriple(a, b, d, n)).ok
        with pytest.raises(AssertionError, match="copied"):
            copy_per_weight_certificate(3, 2, 1, 4)
    finally:
        _support_certificate.cache_clear()


def test_subquotient_character_matches_the_checked_loop():
    checked = 0
    for n in range(1, 13):
        for a in range(0, 7):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    same_character(subquotient_character(idx), checked_subquotient_character(idx))
                    checked += 1
    assert checked == 12 * 84


def test_the_certificate_builds_no_term_set(monkeypatch):
    def refused(*args):
        raise AssertionError("a term set was built")

    calls = []

    def counted(*args):
        calls.append(1)
        return _monomial_xmasks(*args)

    assert not hasattr(characters, "_monomial_terms")
    monkeypatch.setattr(gf2_exterior, "_times_minor", refused)
    monkeypatch.setattr(standard_monomials, "_times_minor", refused)
    monkeypatch.setattr(characters, "_monomial_xmasks", counted)
    _support_certificate.cache_clear()
    try:
        for n in range(1, 9):
            for a in range(0, 6):
                for b in range(0, a + 1):
                    for d in range(0, b + 1):
                        assert verify_triple(IndexTriple(a, b, d, n)).ok
        assert calls
        # the patch holds: the element path still builds term sets
        with pytest.raises(AssertionError, match="term set"):
            element_support_certificate(3, 2, 1, 4)
    finally:
        _support_certificate.cache_clear()


@pytest.fixture
def patch_support_rows(monkeypatch):
    """Sets ``characters._exact_support_rows`` and clears the certificate
    cache, before the patched rows are read and again after the test, so a
    certificate of other rows is never read under the patch, nor one of
    patched rows outside it."""

    def patch(rows):
        monkeypatch.setattr(characters, "_exact_support_rows", rows)
        _support_certificate.cache_clear()

    yield patch
    _support_certificate.cache_clear()


@pytest.mark.parametrize("key", [(3, 2, 1, 4), (3, 3, 2, 3), (4, 4, 4, 6)])
def test_a_support_row_pair_that_is_not_cap_2_fails_rectification(patch_support_rows, key):
    # the certificate rectifies raw rows, and the checks of rectify still run:
    # the last pair gets its first two entries of row 1 swapped
    rows = _exact_support_rows(*key)
    assert rows and _support_certificate(*key)[0] == len(rows)

    def swapped(*args):
        out = _exact_support_rows(*args)
        r1, r2 = out[-1]
        return out[:-1] + [((r1[1], r1[0], *r1[2:]), r2)]

    patch_support_rows(swapped)
    with pytest.raises(DomainError):
        _support_certificate(*key)


def test_verify_triple_builds_no_ext_element(monkeypatch):
    built = []
    original = ExtElement.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ExtElement, "__init__", counted)
    _support_certificate.cache_clear()
    for n in range(1, 9):
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    assert verify_triple(IndexTriple(a, b, d, n)).ok
    assert built == []
    # one support per orbit: the (a, b, d, m) with a <= m <= min(8, a + b)
    assert _support_certificate.cache_info().currsize == 179
    # the counter sees the element path the certificate no longer takes
    element_support_certificate(3, 2, 1, 4)
    assert built


@pytest.mark.parametrize("mutant", ["dropped", "duplicated"])
def test_a_mutated_support_fails_the_certificate_at_every_n_that_holds_it(
    patch_support_rows, mutant
):
    # dropping a tableau of support m breaks spanning, duplicating one breaks
    # independence, at every n >= m and at no smaller n
    original = _exact_support_rows
    for a, b, d, m in [(1, 1, 0, 1), (3, 2, 1, 4), (3, 3, 3, 4), (4, 4, 3, 4), (5, 3, 2, 7)]:
        def mutated(*key, target=(a, b, d, m)):
            rows = original(*key)
            if key != target:
                return rows
            return rows[1:] if mutant == "dropped" else rows + rows[:1]

        patch_support_rows(mutated)
        assert original(a, b, d, m), (a, b, d, m)
        for n in list(range(1, 10)) + [32]:
            rep = verify_triple(IndexTriple(a, b, d, n))
            holds = n >= m
            assert rep.match, (a, b, d, n)
            assert rep.spanning == (mutant == "duplicated" or not holds), (a, b, d, n)
            assert rep.independent == (mutant == "dropped" or not holds), (a, b, d, n)
            sign = 1 if mutant == "dropped" else -1
            assert rep.quotient_dim - rep.basis_count == sign * math.comb(n, m), (a, b, d, n)


def test_no_support_with_fewer_letters_than_a_holds_a_basis_tableau():
    # row 1 holds a + b - d >= a distinct letters, so verify_triple reads the
    # supports of the orbits only, m = i + j from a to a + b
    checked = 0
    for a in range(0, 9):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(a):
                    assert _exact_support_rows(a, b, d, m) == [], (a, b, d, m)
                    checked += 1
    assert checked == 990


def test_verify_triple_asks_only_for_the_supports_of_its_orbits(monkeypatch):
    asked = []
    original = characters._support_certificate

    def recorded(a, b, d, m):
        asked.append(m)
        return original(a, b, d, m)

    monkeypatch.setattr(characters, "_support_certificate", recorded)
    for a, b, n in GRID:
        for d in range(b + 1):
            asked.clear()
            assert verify_triple(IndexTriple(a, b, d, n)).ok
            assert sorted(asked) == list(range(a, min(n, a + b) + 1)), (a, b, d, n)


def test_verify_triple_reads_the_character_once(monkeypatch):
    calls = []
    original = characters.subquotient_character

    def counted(idx):
        calls.append(idx)
        return original(idx)

    monkeypatch.setattr(characters, "subquotient_character", counted)
    assert verify_triple(IndexTriple(3, 2, 1, 5)).ok
    assert calls == [IndexTriple(3, 2, 1, 5)]


def test_mismatched_weights_list_one_weight_per_flipped_orbit(monkeypatch):
    # the orbit (0, 12) alone has C(32, 12) weights; expanding it would hang
    flip = OrbitCharacter({(0, 12): 1, (6, 0): -1}, 32)
    monkeypatch.setattr(
        characters, "expected_character", lambda *args: expected_character(*args) + flip
    )
    rep = verify_triple(IndexTriple(6, 6, 0, 32))
    assert not rep.match and not rep.ok
    assert rep.independent and rep.spanning
    assert rep.mismatched_weights == ((1,) * 12 + (0,) * 20, (2,) * 6 + (0,) * 26)


def test_the_caches_of_characters_are_the_orbit_span_and_certificate_caches():
    cached = {name for name, value in vars(characters).items() if hasattr(value, "cache_info")}
    assert cached == {
        "_ideal_span_cached",
        "_orbit_columns",
        "_multilinear_block",
        "_support_certificate",
    }
