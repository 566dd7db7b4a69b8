"""Two-row tableaux, the cap-2 condition, enumeration, and text form."""

import itertools
from dataclasses import FrozenInstanceError
from operator import le, lt

import pytest
from hypothesis import given, strategies as st

from frobtab.standard_monomials import IndexTriple, basis_index_set, exact_support_basis, rectify
from frobtab.straightening import classical_straighten, two_straighten
from frobtab.symfunc import demote, promotable_tableaux, promote, unpromotable_tableaux
from frobtab.tableaux import (
    Tableau,
    enumerate_column_strict,
    enumerate_tableaux,
    format_tableau,
    is_2ssyt,
    is_ssyt,
    is_ssyt_rows,
    parse_tableau,
    rows_are_ssyt,
    transpose_shape,
    transpose_tableau,
    weight,
)


def count_column_strict(partition, n):
    return sum(1 for _ in enumerate_column_strict(partition, n))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau((1, 2), (1, 2, 3), 4)  # second row longer than first
    with pytest.raises(ValueError):
        Tableau((0, 1), (), 4)  # entries must be >= 1
    with pytest.raises(ValueError):
        Tableau((1, 5), (), 4)  # entries must be <= n


@pytest.mark.parametrize(
    "row1, row2, n",
    [
        ((1.5,), (), 3),  # an entry that is not an int
        ((2.0,), (), 3),
        ((True, 2), (), 3),  # a bool is not an entry
        ((1, 2), (False,), 3),
        ((1,), (), 40),  # more letters than MAX_N = 32
        ((1,), (), 33),
        ((1,), (), 0),
        ((1,), (), 2.5),  # an n that is not an int
        ((1,), (), True),  # a bool is not an n
        ((1,), (), "3"),
    ],
)
def test_tableau_rejects_entries_and_n_that_are_not_ints_in_range(row1, row2, n):
    with pytest.raises(ValueError):
        Tableau(row1, row2, n)


def test_tableau_accepts_every_alphabet_size_up_to_max_n():
    assert Tableau((1, 32), (32,), 32).n == 32
    assert Tableau([1, 2], [2], 2).row1 == (1, 2)  # rows become tuples


def test_classical_ssyt_predicate():
    assert is_ssyt(Tableau((1, 1, 2), (2, 3), 4))
    assert not is_ssyt(Tableau((1, 1, 2), (1, 3), 4))  # column not strict
    assert not is_ssyt(Tableau((1, 2, 1), (2, 3), 4))  # row decreases


def test_rows_are_ssyt_agrees_with_the_index_scan():
    def index_scan(row1, row2):
        if any(row1[i] > row1[i + 1] for i in range(len(row1) - 1)):
            return False
        if any(row2[i] > row2[i + 1] for i in range(len(row2) - 1)):
            return False
        return all(row1[i] < row2[i] for i in range(len(row2)))

    for len1 in range(5):
        for len2 in range(len1 + 1):
            for row1 in itertools.product(range(1, 4), repeat=len1):
                for row2 in itertools.product(range(1, 4), repeat=len2):
                    assert rows_are_ssyt(row1, row2) == index_scan(row1, row2), (row1, row2)


def test_cap2_allows_equal_columns_but_not_row_repeats():
    assert is_2ssyt(Tableau((1, 2), (1, 2), 3))  # repeated columns are fine
    assert not is_2ssyt(Tableau((1, 1), (2, 3), 3))  # repeat inside a row is not
    assert not is_2ssyt(Tableau((2, 3), (1, 3), 3))  # columns must weakly increase


def test_single_box_column_with_equal_entries_is_cap2():
    assert is_2ssyt(Tableau((1,), (1,), 3))


def test_cap2_agrees_with_transposed_classical_tableau():
    import itertools

    for shape in [(1, 0), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 2)]:
        r1, r2 = shape
        for n in range(1, 4):
            for row1 in itertools.product(range(1, n + 1), repeat=r1):
                for row2 in itertools.product(range(1, n + 1), repeat=r2):
                    t = Tableau(row1, row2, n)
                    assert is_2ssyt(t) == is_ssyt_rows(transpose_tableau(t)), t


def test_enumeration_counts_match_transpose_ssyt_counts():
    for n in range(1, 6):
        for r1 in range(0, 6):
            for r2 in range(0, r1 + 1):
                got = len(enumerate_tableaux((r1, r2), n, kind="2ssyt"))
                expect = count_column_strict(transpose_shape((r1, r2)), n)
                assert got == expect, ((r1, r2), n)


def test_enumeration_is_sorted_duplicate_free_and_self_consistent():
    for kind, pred in (("ssyt", is_ssyt), ("2ssyt", is_2ssyt)):
        for shape in [(2, 1), (3, 2), (2, 2)]:
            for n in range(1, 5):
                ts = enumerate_tableaux(shape, n, kind=kind)
                keys = [(t.row1, t.row2) for t in ts]
                assert keys == sorted(set(keys))
                assert all(pred(t) for t in ts)


def test_enumeration_matches_the_column_strict_oracle():
    # a classical tableau is a column-strict filling of its own shape; a cap-2
    # tableau is one of the transposed shape, whose rows are its columns
    for n in range(1, 7):
        for r1 in range(0, 7):
            for r2 in range(0, r1 + 1):
                classical = [(t.row1, t.row2) for t in enumerate_tableaux((r1, r2), n, kind="ssyt")]
                # the oracle drops empty rows, so pad its fillings back to two
                expect = [(*f, (), ())[:2] for f in enumerate_column_strict((r1, r2), n)]
                assert classical == sorted(expect), ((r1, r2), n)

                cap2 = [(t.row1, t.row2) for t in enumerate_tableaux((r1, r2), n, kind="2ssyt")]
                expect = [
                    (tuple(c[0] for c in f), tuple(c[1] for c in f[:r2]))
                    for f in enumerate_column_strict(transpose_shape((r1, r2)), n)
                ]
                assert cap2 == sorted(expect), ((r1, r2), n)


def filtered_enumeration(shape, n, kind):
    """The enumerator as it was before its rows were grouped by head: every
    bottom row from the first column's least letter, filtered on the other
    columns, each tableau built by the checked constructor."""
    len1, len2 = shape
    if kind == "2ssyt":
        rows, column, gap = itertools.combinations, le, 0
    else:
        rows, column, gap = itertools.combinations_with_replacement, lt, 1
    bottoms = {lo: list(rows(range(lo, n + 1), len2)) for lo in range(1, n + 2)}
    return [
        Tableau(row1, row2, n)
        for row1 in rows(range(1, n + 1), len1)
        for row2 in bottoms[row1[0] + gap if row1 else 1]
        if all(map(column, row1, row2))
    ]


@pytest.mark.parametrize("kind", ["ssyt", "2ssyt"])
def test_enumeration_equals_the_filtered_checked_enumerator(kind):
    shapes = 0
    for n in range(1, 8):
        for r1 in range(0, 7):
            for r2 in range(0, r1 + 1):
                got = enumerate_tableaux((r1, r2), n, kind=kind)
                want = filtered_enumeration((r1, r2), n, kind)
                assert got == want, ((r1, r2), n)
                assert [(t.row1, t.row2) for t in got] == [(t.row1, t.row2) for t in want]
                shapes += 1
    assert shapes == 7 * 28


def assert_built_like_checked(tableaux):
    count = 0
    for t in tableaux:
        assert type(t.row1) is tuple and type(t.row2) is tuple, t
        checked = Tableau(t.row1, t.row2, t.n)
        assert t == checked and hash(t) == hash(checked), t
        with pytest.raises(FrozenInstanceError):
            t.row1 = t.row2
        with pytest.raises(FrozenInstanceError):
            t.n = t.n
        count += 1
    return count


def test_every_internal_producer_builds_tableaux_like_the_checked_constructor():
    built = dict.fromkeys(
        ["enumerate", "exact_support", "basis", "rectify", "two_straighten", "classical", "promote"], 0
    )
    for kind in ("ssyt", "2ssyt"):
        for n in range(1, 6):
            for r1 in range(0, 5):
                for r2 in range(0, r1 + 1):
                    built["enumerate"] += assert_built_like_checked(
                        enumerate_tableaux((r1, r2), n, kind)
                    )
    for a in range(0, 5):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    built["exact_support"] += assert_built_like_checked(exact_support_basis(a, b, d, m))
                for n in range(1, 6):
                    idx = IndexTriple(a, b, d, n)
                    basis = basis_index_set(idx)
                    built["basis"] += assert_built_like_checked(basis)
                    built["rectify"] += assert_built_like_checked(rectify(t, idx) for t in basis)
                    if a <= 3:
                        for t in enumerate_tableaux(idx.shape, n):
                            built["two_straighten"] += assert_built_like_checked(
                                two_straighten(t, idx).terms
                            )
    for t in (Tableau((3, 1, 2), (4, 5), 5), Tableau((2, 1, 3, 1), (4, 3), 5)):
        built["classical"] += assert_built_like_checked(classical_straighten(t, 3).terms)
    for a in range(1, 4):
        for i in range(0, a):
            built["promote"] += assert_built_like_checked(
                promote(t) for t in promotable_tableaux(a, i, 5)
            )
            if i >= 1:
                built["promote"] += assert_built_like_checked(
                    demote(t) for t in unpromotable_tableaux(a, i, 5)
                )
    assert built == {
        "enumerate": 3927,
        "exact_support": 621,
        "basis": 825,
        "rectify": 825,
        "two_straighten": 812,
        "classical": 6,
        "promote": 185,
    }


def test_known_enumeration_count():
    assert len(enumerate_tableaux((2, 1), 3, kind="2ssyt")) == 8


def test_empty_shape_has_one_tableau():
    ts = enumerate_tableaux((0, 0), 5, kind="2ssyt")
    assert [(t.row1, t.row2) for t in ts] == [((), ())]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_tableaux((2, 1), 3, kind="rowstrict")


@pytest.mark.parametrize("shape", [(2, 1), (0, 0)])
@pytest.mark.parametrize("n", [0, -1])
def test_empty_alphabet_rejected(shape, n):
    with pytest.raises(ValueError, match="need n >= 1"):
        enumerate_tableaux(shape, n)


@pytest.mark.parametrize("shape", [(2, 1), (0, 0)])
def test_too_many_letters_rejected(shape):
    with pytest.raises(ValueError, match="need n <= 32, got 33"):
        enumerate_tableaux(shape, 33)


@pytest.mark.parametrize("n", [True, 3.0, "3", None])
def test_alphabet_size_that_is_not_an_int_rejected(n):
    # the tableaux are built unchecked, so a bool n would reach them
    with pytest.raises(ValueError, match="need an int n"):
        enumerate_tableaux((2, 1), n)


def test_weight_counts_occurrences():
    t = Tableau((1, 1, 3), (2, 3), 4)
    assert weight(t) == (2, 1, 2, 0)


def test_transpose_shape():
    assert transpose_shape((4, 2)) == (2, 2, 1, 1)
    assert transpose_shape((3, 3)) == (2, 2, 2)
    assert transpose_shape((2, 0)) == (1, 1)
    assert transpose_shape((0, 0)) == ()


def test_column_strict_enumeration_counts():
    # single column of height h on [n]: C(n, h)
    assert count_column_strict((1, 1, 1), 4) == 4
    assert count_column_strict((2, 1), 3) == 8
    assert count_column_strict((), 3) == 1
    assert list(enumerate_column_strict((1,), 2)) == [((1,),), ((2,),)]


def test_wire_format_round_trip_examples():
    t = Tableau((1, 1, 2, 3), (2, 3, 4, 5), 5)
    assert format_tableau(t) == "1 1 2 3 / 2 3 4 5"
    assert parse_tableau("1 1 2 3 / 2 3 4 5", 5) == t
    assert format_tableau(Tableau((), (), 3)) == "/"
    assert parse_tableau("/", 3) == Tableau((), (), 3)
    assert parse_tableau("1 2 /", 3) == Tableau((1, 2), (), 3)


def test_wire_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tableau("1 2 3", 4)  # no separator
    with pytest.raises(ValueError):
        parse_tableau("1 / 2 / 3", 4)  # too many separators


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(1, n), max_size=5),
            st.lists(st.integers(1, n), max_size=5),
        )
    )
)
def test_wire_format_round_trips(args):
    n, r1, r2 = args
    if len(r2) > len(r1):
        r1, r2 = r2, r1
    t = Tableau(tuple(r1), tuple(r2), n)
    assert parse_tableau(format_tableau(t), n) == t
