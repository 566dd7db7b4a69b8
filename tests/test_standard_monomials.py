"""Standard monomials, the rectification map, and straightness."""

import itertools
from collections import Counter
from operator import eq, le

import pytest

from frobtab import standard_monomials
from frobtab.gf2_exterior import ExtElement, mask_of, minor, monomial, x_var, y_var
from frobtab.standard_monomials import (
    DomainError,
    IndexTriple,
    _monomial_terms,
    _monomial_xmasks,
    _tail_masks,
    basis_index_set,
    case_tag,
    _exact_support_rows,
    _rectify_rows,
    _relabel_rows,
    _straight_rows,
    exact_support_basis,
    is_two_straight,
    rectify,
    rows_two_straight,
    standard_monomial,
    two_standard_monomial,
)
from frobtab.symfunc import CASE_ALL_EQUAL, CASE_OFF_BY_ONE, classify_triple
from frobtab.tableaux import Tableau, enumerate_tableaux, rows_are_ssyt, weight


def test_standard_monomial_golden_string():
    t = Tableau((1, 1, 2, 3), (2, 3, 4, 5), 5)
    assert str(standard_monomial(t, 4)) == "x1x2x3x4y1y2y3y5 + x1x2x3x5y1y2y3y4"


def test_standard_monomial_factors():
    # [1,2][3,4] * x5 * y6
    t = Tableau((1, 3, 5, 6), (2, 4), 6)
    want = minor(1, 2, 6) * minor(3, 4, 6) * monomial([5], [6], 6)
    assert standard_monomial(t, 3) == want


def test_standard_monomial_degenerate_column_is_zero():
    t = Tableau((2, 2), (2, 3), 3)  # first column repeats the value 2
    assert standard_monomial(t, 2).is_zero


def product_chain(t, a):
    """The standard monomial as a chain of ring products (reference)."""
    out = ExtElement.one(t.n)
    for u, w in zip(t.row1, t.row2):
        if u == w:
            return ExtElement.zero(t.n)
        out = out * minor(u, w, t.n)
    for v in t.row1[t.shape[1] : a]:
        out = out * x_var(v, t.n)
    for v in t.row1[a:]:
        out = out * y_var(v, t.n)
    return out


def every_filling():
    """Every filling over 4 letters, ordered or not, with d <= r1 <= 4 and
    r1 + d <= 6, at every split point: degenerate columns, repeated minors,
    letters used three times and repeated tail letters all occur."""
    n = 4
    for r1 in range(0, 5):
        for d in range(0, min(r1, 6 - r1) + 1):
            for cells in itertools.product(range(1, n + 1), repeat=r1 + d):
                t = Tableau(cells[:r1], cells[r1:], n)
                for a in range(d, r1 + 1):
                    yield t, a


def test_standard_monomial_matches_the_product_chain_on_every_filling():
    checked = 0
    for t, a in every_filling():
        assert standard_monomial(t, a) == product_chain(t, a), (t, a)
        checked += 1
    assert checked == 25_289


def syntactic_zero_oracle(A, B, a):
    """Repeats in the x or y tail, a value three times, or a repeated column
    among the first d, tested with sets and a sorted list (reference)."""
    d = len(B)
    x, y = A[d:a], A[a:]
    s = sorted(A + B)
    return (
        len(set(x)) < len(x)
        or len(set(y)) < len(y)
        or any(map(eq, s, s[2:]))
        or len({(A[i], B[i]) for i in range(d)}) < d
    )


def test_syntactic_zero_test_matches_the_set_oracle_on_every_filling():
    hits = semistandard_hits = 0
    for t, a in every_filling():
        tails = _tail_masks(t.row1, t.row2, a)
        hit = tails is None
        assert hit == syntactic_zero_oracle(t.row1, t.row2, a), (t, a)
        if not hit:
            d = t.shape[1]
            assert tails == (mask_of(t.row1[d:a], t.n), mask_of(t.row1[a:], t.n)), (t, a)
        else:
            # the reference product, which has no zero test of its own
            assert product_chain(t, a).is_zero, (t, a)
            hits += 1
            semistandard_hits += rows_are_ssyt(t.row1, t.row2)
    assert (hits, semistandard_hits) == (15_972, 953)


def split_label(A, B):
    """The label of ``_monomial_xmasks`` over 4 letters: the letters used
    once on the low bits, then those used twice, each kind in order (unused
    letters last), and the mask of the bits of the letters used once."""
    counts = Counter(A + B)
    kind = {1: 0, 2: 1}  # once, twice; any other count sorts last
    label = [0] * 5
    for pos, v in enumerate(sorted(range(1, 5), key=lambda v: kind.get(counts[v], 2))):
        label[v] = 1 << pos
    return label, (1 << sum(c == 1 for c in counts.values())) - 1


def once_xmasks(A, B, a):
    """The x-masks of the term set, projected onto the letters used once,
    packed in order (reference).  Every term holds x_v*y_v for each letter
    v used twice, since a variable squares to zero."""
    counts = Counter(A + B)
    once = sorted(v for v, c in counts.items() if c == 1)
    twice = mask_of((v for v, c in counts.items() if c == 2), 4)
    out = set()
    for xm, ym in _monomial_terms(A, B, a):
        assert xm & ym & twice == twice, (A, B, a)
        out.add(sum(1 << k for k, v in enumerate(once) if xm >> (v - 1) & 1))
    return out


def test_xmasks_match_the_term_sets_on_every_filling():
    checked = cancelled = 0
    for t, a in every_filling():
        if max(Counter(t.row1 + t.row2).values(), default=0) > 2:
            continue  # outside the domain of _monomial_xmasks
        got = _monomial_xmasks(t.row1, t.row2, a, *split_label(t.row1, t.row2))
        assert len(got) == len(set(got)), (t, a)
        assert set(got) == once_xmasks(t.row1, t.row2, a), (t, a)
        checked += 1
        cancelled += not got
    assert (checked, cancelled) == (11_629, 5_904)


@pytest.mark.parametrize(
    "row1, row2, a, want",
    [
        ((1, 3, 3, 4), (2,), 3, set()),  # repeated x-tail letter
        ((1, 3, 4, 4), (2,), 2, set()),  # repeated y-tail letter
        ((1, 1, 3), (2, 2), 2, set()),  # repeated column: a cycle of two
        ((2, 3), (2,), 1, set()),  # degenerate column
        ((1, 3, 3), (2,), 2, {0b01, 0b10}),  # x3*y3*[1, 2]: 3 in both tails
        ((1, 3, 3), (2, 4), 2, {0b001, 0b010}),  # y3*[1, 2]*[3, 4]: one free column
        ((1, 1, 2), (2, 3, 3), 3, set()),  # a cycle of three columns
        # [1, 2][2, 3] is x2*y2*[1, 3]; the tails on 1 and 3 pick one term
        ((1, 2, 1, 4, 3), (2, 3), 4, {0b1}),  # x1*x4*y3: one x end, one y end
        ((1, 2, 1, 3, 4), (2, 3), 4, set()),  # x1*x3*y4: both ends take x
        ((1, 2, 4, 1, 3), (2, 3), 3, set()),  # x4*y1*y3: both ends take y
        ((1, 2, 1), (2, 3), 3, {0b1}),  # x1: the far end 3 takes x
        ((1, 2, 1), (2, 3), 2, {0b0}),  # y1: the far end 3 takes y
        ((1, 2, 3), (2, 3, 4), 3, {0b01, 0b10}),  # [1, 2][2, 3][3, 4]: an open path
        ((1, 3, 2), (2, 4, 3), 3, {0b01, 0b10}),  # the same path, its middle column last
    ],
)
def test_xmasks_of_hand_built_rows(row1, row2, a, want):
    assert once_xmasks(row1, row2, a) == want
    assert set(_monomial_xmasks(row1, row2, a, *split_label(row1, row2))) == want


def test_standard_monomial_split_point_validation():
    t = Tableau((1, 2, 3), (2, 3), 4)
    with pytest.raises(DomainError):
        standard_monomial(t, 1)  # below the column count
    with pytest.raises(DomainError):
        standard_monomial(t, 4)  # beyond the row


@pytest.mark.parametrize("a", [True, 1.0, 2.0, "1", None])
def test_a_split_point_that_is_not_an_int_is_rejected(a):
    # a bool or a float would pass the range check: True read as x1y2
    with pytest.raises(DomainError, match="split point"):
        standard_monomial(Tableau((1, 2), (), 3), a)
    assert str(standard_monomial(Tableau((1, 2), (), 3), 1)) == "x1y2"


def test_index_triple_validation():
    with pytest.raises(DomainError):
        IndexTriple(1, 2, 0, 4)  # b > a
    with pytest.raises(DomainError):
        IndexTriple(2, 1, 2, 4)  # d > b
    assert IndexTriple(3, 2, 1, 4).shape == (4, 1)
    # a bool would pass the range checks, and a float would fail only inside comb
    for fields in [(2, 1, 0, True), (2.0, 1, 0, 3), (2, 1, False, 3), (2, 1, 0, "3")]:
        with pytest.raises(DomainError, match="must be ints"):
            IndexTriple(*fields)


def test_case_tags():
    assert case_tag(IndexTriple(2, 2, 2, 4)) == "all_equal"
    assert case_tag(IndexTriple(3, 3, 2, 4)) == "off_by_one"
    assert case_tag(IndexTriple(3, 2, 1, 4)) == "general"


def test_rectify_worked_examples():
    t = rectify(Tableau((1, 2, 3, 5, 6), (1, 2, 4, 5), 6), IndexTriple(5, 4, 4, 6))
    assert (t.row1, t.row2) == ((1, 1, 2, 5, 5), (2, 3, 4, 6))
    t = rectify(Tableau((1, 2, 3, 5, 6), (1, 2, 4, 5, 6), 6), IndexTriple(5, 5, 5, 6))
    assert (t.row1, t.row2) == ((1, 1, 2, 4, 5), (2, 3, 5, 6, 6))
    t = rectify(Tableau((1, 2, 4, 5), (1, 2, 4, 5), 5), IndexTriple(4, 4, 3, 5))
    assert (t.row1, t.row2) == ((1, 1, 2, 4, 5), (2, 4, 5))


def test_two_standard_monomial_golden_value():
    t = Tableau((1, 2, 3, 5, 6), (1, 2, 4, 5), 6)
    want = monomial([1, 2, 5, 6], [1, 2, 5], 6) * minor(3, 4, 6)
    assert two_standard_monomial(t, IndexTriple(5, 4, 4, 6)) == want


def test_rectify_fixes_tableaux_without_repeated_columns():
    idx = IndexTriple(3, 2, 1, 4)
    t = Tableau((1, 2, 3, 4), (2,), 4)
    assert rectify(t, idx) == t


def test_rectify_is_injective_and_weight_preserving():
    for n in range(1, 6):
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    seen = {}
                    for t in basis_index_set(idx):
                        u = rectify(t, idx)
                        assert weight(u) == weight(t), (idx, t)
                        key = (u.row1, u.row2)
                        assert key not in seen, (idx, t, seen[key])
                        seen[key] = t


def test_straightness_predicate_is_exactly_the_rectify_image():
    for n in range(1, 6):
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    image = {
                        (u.row1, u.row2)
                        for u in (rectify(t, idx) for t in basis_index_set(idx))
                    }
                    for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                        assert is_two_straight(t, idx) == (
                            (t.row1, t.row2) in image
                        ), (idx, t)


def _straight_by_inequalities(A, B, a, b, d):
    """The paper's straightness rules as explicit inequalities on the rows.

    A test oracle for ``rows_two_straight``, which looks rows up in the image
    of rectification instead.  For the triple (1,1,0) every weakly increasing
    pair is straight: (v, v) rectifies the identical-row singleton.
    """
    r1 = a + b - d
    if not rows_are_ssyt(A, B):
        return False
    if (a, b, d) == (1, 1, 0):
        return True
    if _tail_masks(A, B, a) is None:  # a syntactic zero
        return False
    if a == b == d:
        for i0 in range(1, a - 1):
            if A[i0] == A[i0 + 1] and not B[i0 - 1] < A[i0]:
                return False
        for i0 in range(a - 1):
            if A[i0] != A[i0 + 1]:
                continue
            J = [j0 for j0 in range(i0, a - 2) if B[j0] != A[j0 + 2]]
            if J:
                if not B[J[0]] < A[J[0] + 2]:
                    return False
            elif not B[a - 2] < B[a - 1]:
                return False
        for i0 in range(a - 2):
            if not B[i0] < B[i0 + 1]:
                return False
        if a >= 2 and B[a - 2] == B[a - 1]:
            Jp = [j0 for j0 in range(2, a) if B[j0 - 2] != A[j0]]
            if Jp:
                j0 = max(Jp)
                if not B[j0 - 2] < A[j0]:
                    return False
            elif not A[0] < A[1]:
                return False
        return True
    for i0 in range(1, d):
        if A[i0] == A[i0 + 1] and not B[i0 - 1] < A[i0]:
            return False
    for i0 in range(d):
        if A[i0] != A[i0 + 1]:
            continue
        J = [j0 for j0 in range(i0, d) if j0 + 2 <= r1 - 1 and B[j0] != A[j0 + 2]]
        if J:
            if not B[J[0]] < A[J[0] + 2]:
                return False
        elif not (a - 1 == b == d or a - 1 == b - 1 == d and i0 == 0):
            return False
    for i0 in range(d - 1):
        if not B[i0] < B[i0 + 1]:
            return False
    for i0 in range(d, r1 - 1):
        if not A[i0] < A[i0 + 1]:
            return False
    return True


def test_straightness_lookup_agrees_with_the_inequality_rules():
    checked = straight = 0
    for a in range(0, 5):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    letters = set(range(1, m + 1))
                    for t in enumerate_tableaux((a + b - d, d), max(m, 1), kind="ssyt"):
                        if set(t.row1 + t.row2) != letters:
                            continue
                        want = _straight_by_inequalities(t.row1, t.row2, a, b, d)
                        assert rows_two_straight(t.row1, t.row2, a, b, d) == want, (a, b, d, t)
                        checked += 1
                        straight += want
    assert (checked, straight) == (3993, 621)


@pytest.fixture
def cold_straight_rows():
    """Empty the straight-rows cache before and after the test."""
    _straight_rows.cache_clear()
    yield
    _straight_rows.cache_clear()


@pytest.mark.parametrize("a, b, d, m", [(3, 2, 1, 4), (3, 3, 3, 4), (3, 3, 2, 3), (1, 1, 0, 1)])
def test_straightness_lookup_misses_a_dropped_basis_row(
    monkeypatch, cold_straight_rows, a, b, d, m
):
    # drop the last basis row on 1..m from the lookup: the rectify image of
    # basis_index_set, which never reads that row list, must tell
    real = _exact_support_rows
    dropped = _rectify_rows(*real(a, b, d, m)[-1], a, b, d)
    monkeypatch.setattr(
        standard_monomials,
        "_exact_support_rows",
        lambda *key: real(*key)[: -1 if key == (a, b, d, m) else None],
    )
    # the dropped rows moved onto the letters 2..m+1, so the lookup relabels
    idx = IndexTriple(a, b, d, m + 1)
    t = Tableau(*(tuple(v + 1 for v in row) for row in dropped), idx.n)
    image = {(u.row1, u.row2) for u in (rectify(s, idx) for s in basis_index_set(idx))}
    assert (t.row1, t.row2) in image
    assert not is_two_straight(t, idx)
    # the two disagree on exactly the tableaux with the dropped letter pattern
    for u in enumerate_tableaux(idx.shape, idx.n, kind="ssyt"):
        miss = is_two_straight(u, idx) != ((u.row1, u.row2) in image)
        assert miss == (_relabel_rows((u.row1, u.row2))[0] == dropped), u


def filtered_support_rows(a, b, d, m):
    """``_exact_support_rows`` as it was before it built only kept rows: every
    choice of shared letters, sorted into a row 2 and filtered on the
    columns."""
    case = classify_triple(a, b, d)
    len1, len2 = a + b - d, d
    shared = len2 - (m - len1)
    out = []
    if shared >= 0:
        letters = set(range(1, m + 1))
        for row1 in itertools.combinations(range(1, m + 1), len1):
            missing = letters.difference(row1)
            for extra in itertools.combinations(row1, shared):
                row2 = tuple(sorted(missing.union(extra)))
                if all(map(le, row1, row2)) and not (case == CASE_ALL_EQUAL and row1 == row2):
                    out.append((row1, row2))
    if case == CASE_OFF_BY_ONE and m == a:
        out.append((tuple(range(1, a + 1)), tuple(range(1, a + 1))))
    return out


def test_exact_support_rows_equal_the_filtered_rows_in_order():
    checked = rows = 0
    for a in range(0, 8):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 2):
                    got = _exact_support_rows(a, b, d, m)
                    assert got == filtered_support_rows(a, b, d, m), (a, b, d, m)
                    checked += 1
                    rows += len(got)
    assert (checked, rows) == (1290, 96288)


def test_exact_support_basis_is_the_basis_on_exactly_m_letters():
    assert exact_support_basis(0, 0, 0, 0) == [Tableau((), (), 1)]
    checked = 0
    for a in range(0, 6):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(1, a + b + 1):
                    want = {
                        t
                        for t in basis_index_set(IndexTriple(a, b, d, m))
                        if set(t.row1 + t.row2) == set(range(1, m + 1))
                    }
                    got = exact_support_basis(a, b, d, m)
                    assert len(got) == len(want) and set(got) == want, (a, b, d, m)
                    checked += 1
    assert checked == 350


def test_straightness_golden_negative():
    t = Tableau((1, 2, 2, 3), (2, 3, 4, 5), 5)
    assert not is_two_straight(t, IndexTriple(4, 4, 4, 5))


def test_straightness_rejects_wrong_shape():
    with pytest.raises(DomainError):
        is_two_straight(Tableau((1, 2), (2,), 4), IndexTriple(3, 2, 1, 4))


def test_basis_counts_telescope_to_ring_dimension():
    import math

    for n in range(1, 7):
        for a in range(0, 6):
            for b in range(0, a + 1):
                total = sum(
                    len(basis_index_set(IndexTriple(a, b, d, n)))
                    for d in range(0, b + 1)
                )
                assert total == math.comb(n, a) * math.comb(n, b), (a, b, n)


def test_basis_elements_are_nonzero_of_right_bidegree():
    from frobtab.gf2_exterior import bidegree_of

    for n in range(1, 5):
        for a in range(0, 4):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    for t in basis_index_set(idx):
                        g = two_standard_monomial(t, idx)
                        assert not g.is_zero, (idx, t)
                        if a + b:
                            assert bidegree_of(g) == (a, b), (idx, t)
