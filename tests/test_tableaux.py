"""Two-row tableaux, the cap-2 condition, enumeration, and text form."""

import itertools

import pytest
from hypothesis import given, strategies as st

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
