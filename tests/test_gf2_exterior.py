"""Arithmetic laws and rendering of the squarefree GF(2) ring."""

import itertools

import pytest
from hypothesis import given, strategies as st

from frobtab.gf2_exterior import (
    DegenerateMinorError,
    ExtElement,
    MismatchedGroundSetError,
    bidegree_of,
    indices_of,
    mask_of,
    minor,
    monomial,
    x_var,
    y_var,
)

N = 6


def rand_elements(n=N, max_terms=4):
    masks = st.integers(min_value=0, max_value=(1 << n) - 1)
    term = st.tuples(masks, masks)
    return st.builds(
        lambda ts: ExtElement(frozenset(ts), n),
        st.lists(term, max_size=max_terms),
    )


@given(rand_elements())
def test_every_element_is_its_own_negative(e):
    assert (e + e).is_zero


@given(rand_elements(), rand_elements())
def test_addition_commutes(e, f):
    assert e + f == f + e


@given(rand_elements(), rand_elements(), rand_elements())
def test_addition_associates(e, f, g):
    assert (e + f) + g == e + (f + g)


@given(rand_elements(), rand_elements(), rand_elements())
def test_multiplication_associates(e, f, g):
    assert (e * f) * g == e * (f * g)


@given(rand_elements(), rand_elements())
def test_multiplication_commutes(e, f):
    # no signs survive in characteristic 2
    assert e * f == f * e


@given(rand_elements(), rand_elements(), rand_elements())
def test_multiplication_distributes(e, f, g):
    assert e * (f + g) == e * f + e * g


@given(st.integers(min_value=1, max_value=N))
def test_variables_square_to_zero(i):
    assert (x_var(i, N) * x_var(i, N)).is_zero
    assert (y_var(i, N) * y_var(i, N)).is_zero


def test_zero_and_one():
    zero = ExtElement.zero(N)
    one = ExtElement.one(N)
    e = minor(1, 2, N)
    assert (e * one) == e
    assert (e * zero).is_zero
    assert (e + zero) == e
    assert str(zero) == "0"
    assert str(one) == "1"


def test_plucker_relation_for_all_quadruples():
    # [ij][kl] + [ik][jl] + [il][jk] == 0
    for i, j, k, l in itertools.combinations(range(1, N + 1), 4):
        total = (
            minor(i, j, N) * minor(k, l, N)
            + minor(i, k, N) * minor(j, l, N)
            + minor(i, l, N) * minor(j, k, N)
        )
        assert total.is_zero, (i, j, k, l)


def test_minor_variable_relation_for_all_triples():
    # [ij]x_k + [ik]x_j + [jk]x_i == 0
    for i, j, k in itertools.combinations(range(1, N + 1), 3):
        total = (
            minor(i, j, N) * x_var(k, N)
            + minor(i, k, N) * x_var(j, N)
            + minor(j, k, N) * x_var(i, N)
        )
        assert total.is_zero, (i, j, k)


def test_products_of_distinct_minors_are_squarefree():
    for pairs in itertools.combinations(itertools.combinations(range(1, 5), 2), 3):
        prod = ExtElement.one(4)
        for i, j in pairs:
            prod = prod * minor(i, j, 4)
        for xm, ym in prod.term_masks:
            assert xm.bit_count() == 3 and ym.bit_count() == 3


def test_rendering_matches_golden_strings():
    assert str(minor(1, 2, 4)) == "x1y2 + x2y1"
    e = monomial([1, 3], [2], 4)
    assert str(e) == "x1x3y2"
    assert str(x_var(2, 3) * y_var(2, 3)) == "x2y2"
    # ascending (xmask, ymask) order puts x1x2... before x1x3...
    f = minor(2, 3, 5) * monomial([1], [1], 5)
    assert str(f) == "x1x2y1y3 + x1x3y1y2"


def test_bidegree_reporting():
    assert bidegree_of(minor(1, 2, 3)) == (1, 1)
    assert bidegree_of(ExtElement.zero(3)) == "any"
    mixed = minor(1, 2, 3) + monomial([1], [], 3)
    assert bidegree_of(mixed) == "inhomogeneous"


def test_mask_round_trip():
    assert indices_of(mask_of([2, 5], 6)) == (2, 5)
    assert mask_of([], 6) == 0
    assert indices_of(0) == ()


def test_degenerate_minor_raises():
    with pytest.raises(DegenerateMinorError):
        minor(3, 3, 5)


def test_mismatched_ground_sets_raise():
    with pytest.raises(MismatchedGroundSetError):
        minor(1, 2, 3) + minor(1, 2, 4)
    with pytest.raises(MismatchedGroundSetError):
        minor(1, 2, 3) * minor(1, 2, 4)


def test_out_of_range_indices_raise():
    with pytest.raises(ValueError):
        x_var(0, 3)
    with pytest.raises(ValueError):
        y_var(4, 3)


@pytest.mark.parametrize("n", [1, 5, 32])
def test_constructor_rejects_term_masks_outside_the_alphabet(n):
    top = (1 << n) - 1
    assert ExtElement({(top, 0), (0, top)}, n).n == n
    for bad in (1 << n, top | 1 << (n + 7), -1, -(1 << n)):
        for term in ((bad, 0), (0, bad), (1, bad)):
            with pytest.raises(ValueError, match="out of range"):
                ExtElement({(0, 1), term}, n)
