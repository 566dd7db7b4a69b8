"""GF(2) echelon basis and the monomial columns of a bidegree."""

from frobtab.gf2_exterior import minor
from frobtab.linalg_gf2 import EchelonBasis, element_vector, monomial_basis


def test_rank_of_known_bit_matrices():
    assert EchelonBasis([]).rank == 0
    assert EchelonBasis([0b001, 0b010, 0b100]).rank == 3
    assert EchelonBasis([0b011, 0b101, 0b110]).rank == 2  # third row is the XOR of the others
    assert EchelonBasis([0b111, 0b111, 0]).rank == 1


def test_echelon_basis_membership_and_copy():
    eb = EchelonBasis([0b110, 0b011])
    assert eb.contains(0b101)
    assert not eb.contains(0b100)
    clone = eb.copy()
    clone.add(0b100)
    assert clone.rank == 3
    assert eb.rank == 2  # copy does not alias the original


def test_monomial_basis_counts():
    import math

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
