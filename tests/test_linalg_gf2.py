"""GF(2) echelon basis."""

from frobtab.linalg_gf2 import EchelonBasis


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


def test_rows_rebuild_a_basis_of_the_same_rank():
    eb = EchelonBasis([0b1011, 0b0110, 0b1101, 0b0011, 0b1110])
    rows = list(eb.rows)
    assert len(rows) == eb.rank == 3
    rebuilt = EchelonBasis(rows)
    assert rebuilt.rank == eb.rank
    assert all(eb.contains(r) for r in rows)
