"""GF(2) echelon basis."""

import random

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


def test_rows_added_beside_a_basis_match_a_copy_of_it():
    rng = random.Random(7)
    for width in (1, 5, 12, 40):
        base = EchelonBasis(rng.getrandbits(width) for _ in range(rng.randrange(width + 1)))
        base_rows = set(base.rows)
        for _ in range(20):
            beside, clone = {}, base.copy()
            for _ in range(rng.randrange(2 * width + 2)):
                # half the rows lie in the span of the base rows and those added so far
                v = rng.getrandbits(width)
                if rng.random() < 0.5:
                    for r in [*base.rows, *beside.values()]:
                        if rng.random() < 0.5:
                            v ^= r
                assert base.add_beside(beside, v) == clone.add(v)
            assert set(base.rows) == base_rows  # the base is not changed
            assert base.rank + len(beside) == clone.rank
            assert set(clone.rows) == base_rows | set(beside.values())
            assert not base_rows & set(beside.values())


def test_rows_added_beside_a_basis_reduce_against_both():
    eb = EchelonBasis([0b110, 0b011])
    beside = {}
    assert not eb.add_beside(beside, 0b101)  # the sum of the two base rows
    assert eb.add_beside(beside, 0b111)
    assert beside == {1: 0b001}  # 0b111 ^ 0b110 = 0b001
    assert not eb.add_beside(beside, 0b100)  # 0b110 ^ 0b011 ^ 0b001
    assert eb.rank == 2
