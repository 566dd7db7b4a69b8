"""Symmetric polynomials, case formulas, and the promote/demote bijection."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, strategies as st

from frobtab.characters import subquotient_character
from frobtab.standard_monomials import IndexTriple
from frobtab.symfunc import (
    CASE_ALL_EQUAL,
    CASE_GENERAL,
    CASE_OFF_BY_ONE,
    OrbitCharacter,
    SymPoly,
    alternating_sum_matches_distinct_rows,
    classify_triple,
    demote,
    expected_character,
    h_squarefree,
    promotable_tableaux,
    promote,
    schur,
    schur_squarefree,
    _formula_terms,
    _orbits,
    _truncated_schur_coeff,
    tableau_term,
    unpromotable_tableaux,
)
from frobtab.tableaux import Tableau, enumerate_tableaux, transpose_shape, weight


def is_symmetric(p):
    """Invariance under all adjacent variable swaps."""
    for i in range(p.n - 1):
        swapped = {}
        for exps, c in p.items():
            e = list(exps)
            e[i], e[i + 1] = e[i + 1], e[i]
            swapped[tuple(e)] = c
        if SymPoly(swapped, p.n) != p:
            return False
    return True


def elementary(d, n):
    """Elementary symmetric polynomial e_d via the one-variable-at-a-time recurrence."""
    if d < 0:
        return SymPoly.zero(n)
    dp = [SymPoly.one(n)] + [SymPoly.zero(n)] * d
    for k in range(1, n + 1):
        tk = SymPoly.variable(k, n)
        for j in range(min(d, k), 0, -1):
            dp[j] = dp[j] + tk * dp[j - 1]
    return dp[d]


def small_polys(n=3):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    return st.builds(
        lambda items: SymPoly(dict(items), n),
        st.lists(st.tuples(exps, st.integers(-3, 3)), max_size=4),
    )


@given(small_polys(), small_polys(), small_polys())
def test_sympoly_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p - p == SymPoly.zero(p.n)


def test_sympoly_str():
    p = SymPoly({(1, 1): 1, (2, 0): -1}, 2)
    assert str(SymPoly.zero(2)) == "0"
    assert "t1*t2" in str(p) and "t1^2" in str(p)


def test_sympoly_variable_index_is_checked():
    assert SymPoly.variable(1, 3) == SymPoly({(1, 0, 0): 1}, 3)
    assert SymPoly.variable(3, 3) == SymPoly({(0, 0, 1): 1}, 3)
    for i in (-1, 0, 4):
        with pytest.raises(ValueError):
            SymPoly.variable(i, 3)


def test_squarefree_complete_is_elementary():
    # in the squarefree world the complete homogeneous sum has no choice but
    # to be multilinear, which is exactly the elementary polynomial
    for n in range(1, 6):
        for d in range(0, n + 2):
            assert h_squarefree(d, n) == elementary(d, n), (d, n)


def test_h_squarefree_out_of_range_is_zero():
    assert h_squarefree(-1, 4) == SymPoly.zero(4)
    assert h_squarefree(5, 4) == SymPoly.zero(4)
    assert h_squarefree(0, 4) == SymPoly.one(4)


def test_truncated_schur_known_value():
    # shape (1,1) on two variables: t1^2 + t1t2 + t2^2
    want = SymPoly({(2, 0): 1, (1, 1): 1, (0, 2): 1}, 2)
    assert schur_squarefree(1, 1, 2) == want


def test_truncated_schur_is_symmetric():
    for n in range(1, 5):
        for r1 in range(0, 5):
            for r2 in range(0, r1 + 1):
                assert is_symmetric(schur_squarefree(r1, r2, n)), (r1, r2, n)


def test_schur_of_transpose_equals_truncated_schur():
    for n in range(1, 6):
        for r1 in range(0, 6):
            for r2 in range(0, r1 + 1):
                assert schur_squarefree(r1, r2, n) == schur(
                    transpose_shape((r1, r2)), n
                ), (r1, r2, n)


def test_cap2_generating_function_matches_truncated_schur():
    for n in range(1, 6):
        for r1 in range(0, 6):
            for r2 in range(0, r1 + 1):
                total = SymPoly.zero(n)
                for t in enumerate_tableaux((r1, r2), n, kind="2ssyt"):
                    total = total + tableau_term(t)
                assert total == schur_squarefree(r1, r2, n), (r1, r2, n)


def test_case_classification():
    assert classify_triple(3, 3, 3) == CASE_ALL_EQUAL
    assert classify_triple(3, 3, 2) == CASE_OFF_BY_ONE
    assert classify_triple(1, 1, 0) == CASE_OFF_BY_ONE
    assert classify_triple(3, 2, 2) == CASE_GENERAL
    assert classify_triple(3, 1, 0) == CASE_GENERAL
    # the degenerate triple: both special patterns would claim it, but its
    # subquotient is one-dimensional which only the general formula gives
    assert classify_triple(0, 0, 0) == CASE_GENERAL


def test_expected_character_known_values():
    assert expected_character(1, 1, 1, 2) == SymPoly({(1, 1): 1}, 2)
    assert expected_character(2, 2, 1, 2) == SymPoly({(2, 2): 1}, 2)
    assert expected_character(0, 0, 0, 3) == SymPoly.one(3)


def test_expected_character_is_symmetric():
    for n in range(1, 5):
        for a in range(0, 4):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    assert is_symmetric(expected_character(a, b, d, n))


def jacobi_trudi_character(a, b, d, n):
    """The case formula expanded as a ``SymPoly``, by multiplying out the
    Jacobi-Trudi determinants of ``schur_squarefree``."""
    case = classify_triple(a, b, d)
    if case == CASE_ALL_EQUAL:
        terms = [(1 if j % 2 == 1 else -1, a + j, a - j) for j in range(1, a + 1)]
    elif case == CASE_OFF_BY_ONE:
        terms = [(1, a, a)] + [(1 if j % 2 == 0 else -1, a + j, a - j) for j in range(2, a + 1)]
    else:
        terms = [(1, a + b - d, d)]
    out = SymPoly.zero(n)
    for sign, r1, r2 in terms:
        term = _schur_squarefree(r1, r2, n)
        out = out + term if sign == 1 else out - term
    return out


@lru_cache(maxsize=None)
def _schur_squarefree(r1, r2, n):
    return schur_squarefree(r1, r2, n)


def test_orbit_tables_match_the_jacobi_trudi_expansion_at_every_weight():
    checked = 0
    for n in range(1, 9):
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    want = jacobi_trudi_character(a, b, d, n)
                    closed = expected_character(a, b, d, n)
                    assert closed.to_sympoly() == want, (a, b, d, n)
                    assert all(closed.coeff(w) == c for w, c in want.items()), (a, b, d, n)
                    assert closed.evaluate_at_ones() == want.evaluate_at_ones()
                    computed = subquotient_character(IndexTriple(a, b, d, n))
                    assert computed.to_sympoly() == want, (a, b, d, n)
                    checked += 1
    assert checked == 8 * 56


def checked_expected_character(a, b, d, n):
    """``expected_character`` as a loop over ``_orbits`` into the checked
    ``OrbitCharacter`` constructor, zeros included."""
    terms = _formula_terms(a, b, d)
    table = {}
    for i, j in _orbits(a, b, n):
        table[(i, j)] = sum(s * _truncated_schur_coeff(r1, r2, i, j) for s, r1, r2 in terms)
    return OrbitCharacter(table, n)


def same_character(got, want):
    """Equal, with the same table in the same order (``repr``), and, where
    the weights are few enough to list, the same ``str`` and JSON entries."""
    assert got == want
    assert repr(got) == repr(want)
    if got.n <= 6:
        assert str(got) == str(want)
        assert got.to_json_entries() == want.to_json_entries()


def test_expected_character_matches_the_checked_loop():
    checked = 0
    for n in range(1, 33):
        for a in range(0, 9):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    same_character(expected_character(a, b, d, n), checked_expected_character(a, b, d, n))
                    checked += 1
    assert checked == 32 * 165


@pytest.mark.parametrize(
    "table, n",
    [
        ({(0, 1): 1}, True),
        ({(0, 1): 1}, 2.5),
        ({(0, 1): 1}, 40),
        ({(True, 1): 1}, 3),
        ({(0, 1.0): 1}, 3),
        ({(0, 1, 0): 1}, 3),
        ({(-1, 2): 1}, 3),
        ({(2, 2): 1}, 3),
        ({(0, 1): 1.5}, 3),
        ({(0, 1): True}, 3),
        ({(0, 1): "1"}, 3),
    ],
)
def test_orbit_character_rejects_what_is_not_an_int_table_in_1_to_max_n(table, n):
    with pytest.raises(ValueError):
        OrbitCharacter(table, n)


def test_orbit_character_checks_keep_their_messages():
    with pytest.raises(ValueError, match="need n >= 1"):
        OrbitCharacter({}, 0)
    with pytest.raises(ValueError, match="need n <= 32, got 40"):
        OrbitCharacter({}, 40)
    # a zero coefficient is dropped, as before
    assert OrbitCharacter({(0, 1): 0, (1, 0): 2}, 3) == OrbitCharacter({(1, 0): 2}, 3)


@pytest.mark.parametrize(
    "args",
    [(True, True, 0, 3), (2, 1, False, 3), (2.0, 1, 0, 3), (2, 1, 0, 2.5), (2, 1, 0, True), (2, 1, 0, 40)],
)
def test_expected_character_rejects_arguments_that_are_not_ints_in_range(args):
    with pytest.raises(ValueError):
        expected_character(*args)


def test_expected_character_rejects_an_empty_alphabet_and_a_bad_triple():
    with pytest.raises(ValueError, match="need n >= 1"):
        expected_character(2, 1, 0, 0)
    with pytest.raises(ValueError, match="need a >= b >= d >= 0"):
        expected_character(1, 2, 0, 3)


def test_orbit_character_coeff_outside_its_weights_is_zero():
    p = expected_character(2, 1, 1, 3)
    assert p.coeff((2, 1, 0)) == 1
    assert p.coeff((3, 0, 0)) == 0
    assert p.coeff((2, 1, 0, 0)) == 0
    assert p.coeff((2, 1)) == 0
    assert p.coeff((2, -1, 2)) == 0
    for w in product(range(4), repeat=3):
        assert p.coeff(w) == p.to_sympoly().coeff(w), w


def test_orbit_character_equals_sympoly_in_both_orders():
    p = expected_character(2, 2, 1, 3)
    q = p.to_sympoly()
    assert p == q and q == p
    assert not (p != q) and not (q != p)
    bumped = q + SymPoly({(2, 2, 0): 1}, 3)
    assert p != bumped and bumped != p
    dropped = SymPoly({w: c for w, c in q.items() if w != (0, 2, 2)}, 3)
    assert p != dropped and dropped != p
    assert OrbitCharacter.zero(3) == SymPoly.zero(3) == OrbitCharacter.zero(3)
    assert OrbitCharacter.zero(2) != SymPoly.zero(3)


def test_orbit_character_arithmetic_and_output():
    p = OrbitCharacter({(1, 0): 2, (0, 2): -1}, 2)
    q = OrbitCharacter({(0, 2): 1}, 2)
    assert p + q == OrbitCharacter({(1, 0): 2}, 2)
    assert (p - p).is_zero
    assert p.evaluate_at_ones() == p.to_sympoly().evaluate_at_ones() == 3
    assert p.items() == p.to_sympoly().items()
    assert p.to_json_entries() == p.to_sympoly().to_json_entries()
    assert str(p) == str(p.to_sympoly()) == "2*t2^2 - t1*t2 + 2*t1^2"
    assert str(OrbitCharacter.zero(2)) == "0"
    with pytest.raises(ValueError):
        OrbitCharacter({(2, 1): 1}, 2)
    with pytest.raises(ValueError):
        p + OrbitCharacter.zero(3)


def test_promote_demote_are_inverse_weight_preserving_bijections():
    for n in range(1, 6):
        for a in range(1, 5):
            for i in range(0, a):
                dom = promotable_tableaux(a, i, n)
                cod = unpromotable_tableaux(a, i + 1, n)
                image = []
                for t in dom:
                    u = promote(t)
                    assert weight(u) == weight(t), (t, u)
                    assert demote(u) == t, (t, u)
                    image.append(u)
                assert sorted((u.row1, u.row2) for u in image) == sorted(
                    (u.row1, u.row2) for u in cod
                ), (a, i, n)
                for u in cod:
                    assert promote(demote(u)) == u, u


def test_alternating_sum_identity():
    for n in range(1, 6):
        for a in range(1, 5):
            assert alternating_sum_matches_distinct_rows(a, n), (a, n)


def test_promote_rejects_unpromotable():
    # (1 1 / 1 1) has no disagreement at any column
    t = Tableau((1, 1), (1, 1), 2)
    with pytest.raises(ValueError):
        promote(t)
