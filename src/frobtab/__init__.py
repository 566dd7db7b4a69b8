"""Straight tableaux and characters for 2x2 minors in the squarefree ring, char 2.

The ground ring is k[x_1..x_n, y_1..y_n] over GF(2) with all squares of
variables set to zero.  The package studies the powers of the ideal of 2x2
minors of the generic matrix with rows (x_i) and (y_i): it builds straight
tableau bases of the successive subquotients, rewrites arbitrary tableau
products into those bases, and certifies the results against independently
computed torus characters.
"""

from .characters import (
    CharacterReport,
    ideal_power_span,
    in_ideal_power,
    pieri_filtration_check,
    subquotient_character,
    telescoping_check,
    verify_triple,
)
from .gf2_exterior import (
    MAX_N,
    DegenerateMinorError,
    ExtElement,
    MismatchedGroundSetError,
    bidegree_of,
    minor,
    monomial,
    x_var,
    y_var,
)
from .standard_monomials import (
    DomainError,
    IndexTriple,
    basis_index_set,
    case_tag,
    is_two_straight,
    rectify,
    rows_two_straight,
    standard_monomial,
    two_standard_monomial,
)
from .straightening import (
    StraighteningInvariantError,
    StraighteningLimitExceeded,
    TableauSum,
    classical_straighten,
    collapse_interlocked,
    interlocked_triple,
    swap_repeat_32,
    swap_repeat_33,
    two_straighten,
)
from .symfunc import (
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
    unpromotable_tableaux,
)
from .tableaux import (
    Tableau,
    enumerate_column_strict,
    enumerate_tableaux,
    format_tableau,
    is_2ssyt,
    is_ssyt,
    parse_tableau,
    transpose_shape,
    transpose_tableau,
    weight,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # ground ring
    "MAX_N",
    "ExtElement",
    "DegenerateMinorError",
    "MismatchedGroundSetError",
    "x_var",
    "y_var",
    "monomial",
    "minor",
    "bidegree_of",
    # tableaux
    "Tableau",
    "is_ssyt",
    "is_2ssyt",
    "weight",
    "enumerate_tableaux",
    "enumerate_column_strict",
    "transpose_shape",
    "transpose_tableau",
    "format_tableau",
    "parse_tableau",
    # standard monomials
    "DomainError",
    "IndexTriple",
    "case_tag",
    "standard_monomial",
    "rectify",
    "two_standard_monomial",
    "basis_index_set",
    "is_two_straight",
    "rows_two_straight",
    # straightening
    "TableauSum",
    "StraighteningLimitExceeded",
    "StraighteningInvariantError",
    "classical_straighten",
    "two_straighten",
    "collapse_interlocked",
    "swap_repeat_33",
    "swap_repeat_32",
    "interlocked_triple",
    # symmetric functions
    "SymPoly",
    "OrbitCharacter",
    "CASE_GENERAL",
    "CASE_ALL_EQUAL",
    "CASE_OFF_BY_ONE",
    "h_squarefree",
    "schur_squarefree",
    "schur",
    "classify_triple",
    "expected_character",
    "promote",
    "demote",
    "promotable_tableaux",
    "unpromotable_tableaux",
    "alternating_sum_matches_distinct_rows",
    # characters
    "CharacterReport",
    "ideal_power_span",
    "subquotient_character",
    "in_ideal_power",
    "verify_triple",
    "telescoping_check",
    "pieri_filtration_check",
]
