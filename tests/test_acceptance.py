"""Acceptance suite.

Each test certifies one headline claim over its full stated grid, with exact
GF(2)/integer arithmetic throughout (zero tolerance), and prints a one-line
verdict so the run log shows the complete scorecard.
"""

import itertools
import time

from frobtab.characters import (
    in_ideal_power,
    pieri_filtration_check,
    subquotient_character,
    telescoping_check,
    verify_triple,
)
from frobtab.gf2_exterior import ExtElement, minor, x_var
from frobtab.standard_monomials import (
    IndexTriple,
    basis_index_set,
    is_two_straight,
    rectify,
    standard_monomial,
)
from frobtab.straightening import (
    collapse_interlocked,
    interlocked_triple,
    swap_repeat_32,
    swap_repeat_33,
    two_straighten,
)
from frobtab.symfunc import (
    SymPoly,
    alternating_sum_matches_distinct_rows,
    expected_character,
    promotable_tableaux,
    promote,
    demote,
    schur,
    schur_squarefree,
    tableau_term,
    unpromotable_tableaux,
)
from frobtab.tableaux import (
    Tableau,
    enumerate_column_strict,
    enumerate_tableaux,
    is_2ssyt,
    is_ssyt,
    transpose_shape,
    weight,
)


def count_column_strict(partition, n):
    return sum(1 for _ in enumerate_column_strict(partition, n))


def grid_triples(max_a=4, max_n=5):
    return [
        IndexTriple(a, b, d, n)
        for n in range(1, max_n + 1)
        for a in range(0, max_a + 1)
        for b in range(0, a + 1)
        for d in range(0, b + 1)
    ]


def _verdict(capsys, ok: bool, label: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_subquotient_characters_match_case_formulas(capsys):
    t0 = time.time()
    bad = [
        idx
        for idx in grid_triples()
        if subquotient_character(idx) != expected_character(idx.a, idx.b, idx.d, idx.n)
    ]
    _verdict(
        capsys,
        not bad,
        f"subquotient characters match the three case formulas on a<=4, n<=5 "
        f"({time.time() - t0:.1f}s)" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_straight_tableau_bases_are_bases(capsys):
    bad = []
    for idx in grid_triples():
        rep = verify_triple(idx)
        if not (rep.independent and rep.spanning and rep.basis_count == rep.quotient_dim):
            bad.append(idx)
    _verdict(
        capsys,
        not bad,
        "straight tableaux are independent, spanning, and counted by the "
        "quotient dimension on a<=4, n<=5"
        + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_filtration_characters_telescope(capsys):
    bad = [
        (a, b, n)
        for n in range(1, 6)
        for a in range(0, 5)
        for b in range(0, a + 1)
        if not telescoping_check(a, b, n)
    ]
    _verdict(
        capsys,
        not bad,
        "subquotient characters telescope to the full bidegree character on "
        "a<=4, n<=5" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_interlock_identities_hold_exhaustively(capsys):
    n = 6
    ok = True

    # collapse of a fully interlocked square tableau, plus its golden string
    golden = Tableau((1, 1, 2, 3), (2, 3, 4, 5), 5)
    ok &= (
        str(standard_monomial(golden, 4))
        == "x1x2x3x4y1y2y3y5 + x1x2x3x5y1y2y3y4"
    )
    ok &= standard_monomial(golden, 4) == collapse_interlocked(golden)
    for m in range(0, 3):
        for vals in itertools.permutations(range(1, n + 1), m + 3):
            alpha, delta, eps = vals[0], vals[m + 1], vals[m + 2]
            betas = tuple(sorted(vals[1 : m + 1]))
            t = Tableau((alpha, alpha) + betas, betas + (delta, eps), n)
            ok &= collapse_interlocked(t) == standard_monomial(t, m + 2)

    # the two swap identities
    for alpha, gamma, delta, eps, eta in itertools.permutations(range(1, n + 1), 5):
        t = Tableau((alpha, alpha, gamma), (delta, eps, eta), n)
        ok &= standard_monomial(t, 3) == standard_monomial(swap_repeat_33(t), 3)
    for alpha, gamma, delta, eps in itertools.permutations(range(1, n + 1), 4):
        t = Tableau((alpha, alpha, gamma), (delta, eps), n)
        for a in (2, 3):
            ok &= standard_monomial(t, a) == standard_monomial(swap_repeat_32(t), a)

    # three-term interlocked relations, square and truncated, plus the
    # golden example over an eight-letter alphabet
    s = Tableau((1, 1, 2, 4, 5), (2, 4, 6, 7, 8), 8)
    t, u = interlocked_triple(s)
    ok &= (
        standard_monomial(s, 5) + standard_monomial(t, 5) + standard_monomial(u, 5)
    ).is_zero
    for m in range(0, 2):
        for vals in itertools.permutations(range(1, n + 1), m + 5):
            alpha, gamma = vals[0], vals[1]
            betas = tuple(sorted(vals[2 : 2 + m]))
            delta, eps, eta = vals[m + 2], vals[m + 3], vals[m + 4]
            s = Tableau(
                (alpha, alpha) + betas + (gamma,), betas + (delta, eps, eta), n
            )
            t, u = interlocked_triple(s)
            total = (
                standard_monomial(s, m + 3)
                + standard_monomial(t, m + 3)
                + standard_monomial(u, m + 3)
            )
            ok &= total.is_zero
        for vals in itertools.permutations(range(1, n + 1), m + 4):
            alpha, gamma = vals[0], vals[1]
            betas = tuple(sorted(vals[2 : 2 + m]))
            delta, eps = vals[m + 2], vals[m + 3]
            s = Tableau((alpha, alpha) + betas + (gamma,), betas + (delta, eps), n)
            t, u = interlocked_triple(s)
            for a in (m + 2, m + 3):
                total = (
                    standard_monomial(s, a)
                    + standard_monomial(t, a)
                    + standard_monomial(u, a)
                )
                ok &= total.is_zero

    _verdict(
        capsys,
        ok,
        "all four interlock identities hold for every admissible tuple, n<=6, "
        "worked examples byte-exact",
    )


def test_straightening_lands_on_straight_congruent_sums(capsys):
    t0 = time.time()
    count = 0
    bad = None
    for idx in grid_triples():
        for t in enumerate_tableaux(idx.shape, idx.n, kind="ssyt"):
            count += 1
            out = two_straighten(t, idx)
            if not all(is_two_straight(u, idx) for u in out.terms):
                bad = bad or (idx, t, "output not straight")
                continue
            diff = standard_monomial(t, idx.a) + out.element_sum()
            if not in_ideal_power(diff, idx.d + 1):
                bad = bad or (idx, t, "not congruent")

    flagship = two_straighten(
        Tableau((1, 2, 2, 4, 5), (3, 3, 6, 7, 7), 7), IndexTriple(5, 5, 5, 7)
    )
    if {(u.row1, u.row2) for u in flagship.terms} != {
        ((1, 2, 3, 5, 6), (2, 3, 4, 7, 7)),
        ((1, 2, 3, 4, 6), (2, 3, 5, 7, 7)),
    }:
        bad = bad or ("flagship example mismatch",)

    _verdict(
        capsys,
        bad is None,
        f"straightening of all {count} semistandard tableaux (a<=4, n<=5) "
        f"yields straight sums congruent modulo the higher ideal power "
        f"({time.time() - t0:.1f}s)" + (f"; first failure {bad}" if bad else ""),
    )


def test_cap2_schur_three_way_identity(capsys):
    bad = None
    for n in range(1, 6):
        for a in range(0, 6):
            for b in range(0, a + 1):
                lhs = schur_squarefree(a, b, n)
                mid = schur(transpose_shape((a, b)), n)
                rhs = SymPoly.zero(n)
                for t in enumerate_tableaux((a, b), n, kind="2ssyt"):
                    rhs = rhs + tableau_term(t)
                if not (lhs == mid == rhs):
                    bad = bad or (a, b, n)
    _verdict(
        capsys,
        bad is None,
        "truncated Schur == transpose Schur == cap-2 tableau generating "
        "function for a<=5, n<=5" + (f"; first failure {bad}" if bad else ""),
    )


def test_promotion_is_an_inverse_pair_of_weight_preserving_bijections(capsys):
    bad = None
    for n in range(1, 6):
        for a in range(1, 5):
            for i in range(0, a):
                dom = promotable_tableaux(a, i, n)
                cod = unpromotable_tableaux(a, i + 1, n)
                image = []
                for t in dom:
                    u = promote(t)
                    if weight(u) != weight(t) or demote(u) != t:
                        bad = bad or (a, i, n, t)
                    image.append((u.row1, u.row2))
                if sorted(image) != sorted((u.row1, u.row2) for u in cod):
                    bad = bad or (a, i, n, "image mismatch")
                for u in cod:
                    if promote(demote(u)) != u:
                        bad = bad or (a, i, n, u)
            if not alternating_sum_matches_distinct_rows(a, n):
                bad = bad or (a, n, "alternating sum")
    _verdict(
        capsys,
        bad is None,
        "promotion and demotion are mutually inverse weight-preserving "
        "bijections and the alternating sum identity holds (a<=4, n<=5)"
        + (f"; first failure {bad}" if bad else ""),
    )


def test_pieri_decomposition_of_bidegree_characters(capsys):
    bad = [
        (a, b, n)
        for n in range(1, 6)
        for a in range(1, 5)
        for b in range(0, a)
        if not pieri_filtration_check(a, b, n)
    ]
    _verdict(
        capsys,
        not bad,
        "bidegree characters decompose over transposed two-row shapes for "
        "all a > b on the grid" + (f"; first failure {bad[0]}" if bad else ""),
    )


def test_property_suite(capsys):
    failures = []

    # characteristic-2 laws
    n = 6
    e = minor(1, 2, n) * x_var(3, n) + minor(4, 5, n)
    if not (e + e).is_zero or not (e * ExtElement.zero(n)).is_zero:
        failures.append("char-2 laws")

    # exchange relations for all distinct index tuples
    for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
        total = (
            minor(i, j, n) * minor(k, l, n)
            + minor(i, k, n) * minor(j, l, n)
            + minor(i, l, n) * minor(j, k, n)
        )
        if not total.is_zero:
            failures.append(f"exchange {(i, j, k, l)}")
    for i, j, k in itertools.combinations(range(1, n + 1), 3):
        total = (
            minor(i, j, n) * x_var(k, n)
            + minor(i, k, n) * x_var(j, n)
            + minor(j, k, n) * x_var(i, n)
        )
        if not total.is_zero:
            failures.append(f"minor-variable {(i, j, k)}")

    # rectification is injective and weight-preserving; straightness is
    # exactly its image
    for nn in range(1, 6):
        for a in range(0, 6):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, nn)
                    image = set()
                    for t in basis_index_set(idx):
                        u = rectify(t, idx)
                        if weight(u) != weight(t):
                            failures.append(f"weight {idx} {t}")
                        key = (u.row1, u.row2)
                        if key in image:
                            failures.append(f"injectivity {idx} {t}")
                        image.add(key)
                    for t in enumerate_tableaux(idx.shape, nn, kind="ssyt"):
                        if is_two_straight(t, idx) != ((t.row1, t.row2) in image):
                            failures.append(f"characterization {idx} {t}")

    # enumeration: sorted, duplicate-free, self-consistent, counted by the
    # transpose enumeration
    for nn in range(1, 6):
        for r1 in range(0, 6):
            for r2 in range(0, r1 + 1):
                for kind, pred in (("ssyt", is_ssyt), ("2ssyt", is_2ssyt)):
                    ts = enumerate_tableaux((r1, r2), nn, kind=kind)
                    keys = [(t.row1, t.row2) for t in ts]
                    if keys != sorted(set(keys)) or not all(pred(t) for t in ts):
                        failures.append(f"enumeration {kind} {(r1, r2, nn)}")
                got = len(enumerate_tableaux((r1, r2), nn, kind="2ssyt"))
                if got != count_column_strict(transpose_shape((r1, r2)), nn):
                    failures.append(f"transpose count {(r1, r2, nn)}")

    _verdict(
        capsys,
        not failures,
        "property suite: algebra laws, exchange relations, rectification "
        "image, enumeration oracles — exhaustive, zero failures"
        + (f"; first failure {failures[0]}" if failures else ""),
    )
