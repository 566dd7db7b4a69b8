"""Rewriting engines: classical straightening and cap-2 straightening, with
the paper's junction rules (``junction_oracle``) as the cap-2 oracle."""

import ast
import hashlib
import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import junction_oracle
from frobtab import straightening
from frobtab.characters import in_ideal_power
from frobtab.gf2_exterior import minor, monomial
from frobtab.standard_monomials import (
    DomainError,
    IndexTriple,
    _tail_masks,
    is_two_straight,
    standard_monomial,
)
from frobtab.straightening import (
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
from frobtab.tableaux import Tableau, enumerate_tableaux


def all_column_strict_fillings(n, r1, d):
    for row1 in itertools.product(range(1, n + 1), repeat=r1):
        for row2 in itertools.product(range(1, n + 1), repeat=d):
            if all(row1[i] < row2[i] for i in range(d)):
                yield Tableau(row1, row2, n)


def test_classical_straightening_is_exact_and_lands_on_ssyt():
    n = 3
    for r1 in range(0, 5):
        for d in range(0, r1 + 1):
            for t in all_column_strict_fillings(n, r1, d):
                for a in range(d, r1 + 1):
                    out = classical_straighten(t, a)
                    assert out.element_sum() == standard_monomial(t, a), (t, a)
                    for u in out.terms:
                        assert u.shape[0] >= u.shape[1]


def test_classical_straighten_output_is_pinned():
    # The exactness test accepts any semistandard sum of the same value; this
    # digest pins the exact terms at every split point of every column-strict
    # filling over 4 letters with r1 <= 5, r1 + d <= 7 (30,507 pairs).
    n = 4
    h = hashlib.sha256()
    for r1 in range(0, 6):
        for d in range(0, min(r1, 7 - r1) + 1):
            for t in all_column_strict_fillings(n, r1, d):
                for a in range(d, r1 + 1):
                    h.update(f"{t}|{a}|{classical_straighten(t, a)}\n".encode())
    assert h.hexdigest() == "921d4e61a77b1277f5cf979bdc432924a8f22088945f7e3704a703db0e9b97a7"


def test_classical_straightening_known_exchange():
    # [1,4][2,3] = [1,2][3,4] + [1,3][2,4]
    out = classical_straighten(Tableau((1, 2), (4, 3), 4), 2)
    got = {(u.row1, u.row2) for u in out.terms}
    assert got == {((1, 3), (2, 4)), ((1, 2), (3, 4))}


def test_classical_straightening_can_cross_strata():
    # x2 y1 = x1 y2 + [1,2]: one term has an extra column
    out = classical_straighten(Tableau((2, 1), (), 2), 1)
    assert out.shape is None
    assert {u.shape for u in out.terms} == {(2, 0), (1, 1)}


def test_classical_straightening_rejects_degenerate_columns():
    with pytest.raises(DomainError):
        classical_straighten(Tableau((2, 1), (2,), 3), 1)


@pytest.mark.parametrize("a", [True, 1.0, "1"])
def test_a_split_point_that_is_not_an_int_is_rejected(a):
    # 1.0 would reach the slicing of the rows and fail there with a TypeError
    t = Tableau((1, 2), (), 3)
    with pytest.raises(DomainError, match="split point"):
        classical_straighten(t, a)
    with pytest.raises(DomainError, match="split point"):
        TableauSum(frozenset([t]), a, 3).element_sum()
    assert TableauSum(frozenset([t]), 1, 3).element_sum() == classical_straighten(t, 1).element_sum()


def test_tableau_sum_basics():
    t = Tableau((1, 2), (2, 3), 3)
    s = TableauSum(frozenset([t]), 2, 3)
    assert s.shape == (2, 2)
    assert len(s) == 1
    assert str(s) == str(t)
    assert str(TableauSum(frozenset(), 2, 3)) == "0"
    # a term whose columns lie past the split point is outside the element map
    with pytest.raises(DomainError):
        TableauSum(frozenset([t, Tableau((1, 2), (2,), 3)]), 0, 3).element_sum()
    # a term over another alphabet is not an element of this ring
    with pytest.raises(DomainError, match="n=3 in a sum over n=2"):
        TableauSum(frozenset([Tableau((1,), (), 3)]), 1, 2).element_sum()


def test_collapse_interlocked_golden_example():
    t = Tableau((1, 1, 2, 3), (2, 3, 4, 5), 5)
    want = (
        monomial([1], [1], 5)
        * monomial([2], [2], 5)
        * monomial([3], [3], 5)
        * minor(4, 5, 5)
    )
    assert collapse_interlocked(t) == want
    assert standard_monomial(t, 4) == want


def test_collapse_interlocked_exhaustive():
    n = 6
    for m in range(0, 3):
        for vals in itertools.permutations(range(1, n + 1), m + 3):
            alpha, delta, eps = vals[0], vals[m + 1], vals[m + 2]
            betas = tuple(sorted(vals[1 : m + 1]))
            t = Tableau((alpha, alpha) + betas, betas + (delta, eps), n)
            assert collapse_interlocked(t) == standard_monomial(t, m + 2), t


def test_collapse_interlocked_rejects_non_interlocking():
    with pytest.raises(DomainError):
        collapse_interlocked(Tableau((1, 2, 3), (2, 4, 5), 5))


def test_swap_repeat_identities_exhaustive():
    n = 6
    for alpha, gamma, delta, eps, eta in itertools.permutations(range(1, n + 1), 5):
        t = Tableau((alpha, alpha, gamma), (delta, eps, eta), n)
        assert standard_monomial(t, 3) == standard_monomial(swap_repeat_33(t), 3), t
    for alpha, gamma, delta, eps in itertools.permutations(range(1, n + 1), 4):
        t = Tableau((alpha, alpha, gamma), (delta, eps), n)
        for a in (2, 3):
            assert standard_monomial(t, a) == standard_monomial(
                swap_repeat_32(t), a
            ), (t, a)


def test_interlocked_triple_golden_example():
    s = Tableau((1, 1, 2, 4, 5), (2, 4, 6, 7, 8), 8)
    t, u = interlocked_triple(s)
    assert (t.row1, t.row2) == ((1, 1, 2, 4, 6), (2, 4, 5, 7, 8))
    assert (u.row1, u.row2) == ((1, 1, 2, 4, 7), (2, 4, 5, 6, 8))
    total = (
        standard_monomial(s, 5) + standard_monomial(t, 5) + standard_monomial(u, 5)
    )
    assert total.is_zero


def test_interlocked_triple_exhaustive():
    n = 6
    for m in range(0, 2):
        for vals in itertools.permutations(range(1, n + 1), m + 5):
            alpha, gamma = vals[0], vals[1]
            betas = tuple(sorted(vals[2 : 2 + m]))
            delta, eps, eta = vals[m + 2], vals[m + 3], vals[m + 4]
            s = Tableau((alpha, alpha) + betas + (gamma,), betas + (delta, eps, eta), n)
            t, u = interlocked_triple(s)
            total = (
                standard_monomial(s, m + 3)
                + standard_monomial(t, m + 3)
                + standard_monomial(u, m + 3)
            )
            assert total.is_zero, s
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
                assert total.is_zero, (s, a)


def test_two_straighten_golden_example():
    t = Tableau((1, 2, 2, 4, 5), (3, 3, 6, 7, 7), 7)
    out = two_straighten(t, IndexTriple(5, 5, 5, 7))
    got = {(u.row1, u.row2) for u in out.terms}
    assert got == {
        ((1, 2, 3, 5, 6), (2, 3, 4, 7, 7)),
        ((1, 2, 3, 4, 6), (2, 3, 5, 7, 7)),
    }


def test_two_straighten_fixes_straight_tableaux():
    for n in range(1, 5):
        for a in range(0, 4):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                        if is_two_straight(t, idx):
                            out = two_straighten(t, idx)
                            assert out.terms == frozenset([t]), (idx, t)


def test_two_straighten_kills_repeated_columns():
    idx = IndexTriple(2, 2, 2, 3)
    out = two_straighten(Tableau((1, 1), (2, 2), 3), idx)
    assert not out.terms
    assert standard_monomial(Tableau((1, 1), (2, 2), 3), 2).is_zero


def test_two_straighten_outputs_are_straight_and_congruent():
    for n in range(1, 5):
        for a in range(0, 4):
            for b in range(0, a + 1):
                for d in range(0, b + 1):
                    idx = IndexTriple(a, b, d, n)
                    for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                        out = two_straighten(t, idx)
                        for u in out.terms:
                            assert is_two_straight(u, idx), (idx, t, u)
                        diff = standard_monomial(t, a) + out.element_sum()
                        assert in_ideal_power(diff, d + 1), (idx, t)


@st.composite
def wide_semistandard_cases(draw):
    """A semistandard tableau over 8..32 letters with its index triple.

    The letters come from a pool of at most a + b + 1 of them, so letters
    repeat and the junction moves run.  The second row avoids the pool's
    least letter, and each first-row cell above a second-row cell is drawn
    smaller than that cell, so the columns increase strictly and a choice
    always exists.
    """
    n = draw(st.integers(8, 32))
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0, a))
    d = draw(st.integers(0, b))
    size = a + b + 1
    pool = sorted(draw(st.sets(st.integers(1, n), min_size=min(2, size), max_size=size)))
    row2 = sorted(draw(st.lists(st.sampled_from(pool[1:]), min_size=d, max_size=d))) if d else []
    row1 = []
    for i in range(a + b - d):
        lo = row1[-1] if row1 else pool[0]
        choices = [v for v in pool if lo <= v and (i >= d or v < row2[i])]
        row1.append(draw(st.sampled_from(choices)))
    return Tableau(tuple(row1), tuple(row2), n), IndexTriple(a, b, d, n)


@settings(max_examples=300, deadline=None)
@given(wide_semistandard_cases())
def test_two_straighten_is_straight_and_congruent_up_to_32_letters(case):
    t, idx = case
    out = two_straighten(t, idx)
    assert all(is_two_straight(u, idx) for u in out)
    assert in_ideal_power(standard_monomial(t, idx.a) + out.element_sum(), idx.d + 1)


def test_two_straighten_output_is_pinned():
    # The certification tests accept any straight, congruent sum; this digest
    # pins the exact terms of every rewrite at n = 5, a <= 5 (42,878 tableaux).
    n = 5
    h = hashlib.sha256()
    for a in range(0, 6):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                idx = IndexTriple(a, b, d, n)
                for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                    h.update(f"{a} {b} {d} | {t} | {two_straighten(t, idx)}\n".encode())
    assert h.hexdigest() == "64e88abf325f266e3a514ef255d8ddcb24b6d80c2e8fccf36a6a210fa053aec7"


def semistandard_cases(max_a, n):
    for a in range(0, max_a + 1):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                idx = IndexTriple(a, b, d, n)
                for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                    yield t, idx


def exact_support_cases(max_a):
    """Every semistandard tableau whose letters are exactly 1..m, m <= a + b,
    over the alphabet 1..max(m, 1), with its index triple.  Straightening
    only sees the order of the letters, so these stand for every tableau
    at every n."""
    for a in range(0, max_a + 1):
        for b in range(0, a + 1):
            for d in range(0, b + 1):
                for m in range(0, a + b + 1):
                    n = max(m, 1)
                    idx = IndexTriple(a, b, d, n)
                    for t in enumerate_tableaux(idx.shape, n, kind="ssyt"):
                        if set(t.row1 + t.row2) == set(range(1, m + 1)):
                            yield t, idx


def test_two_straighten_agrees_with_the_junction_rules_on_every_letter_pattern(monkeypatch):
    # from a cold memo and cold weight tables, so every pattern runs the
    # reduction; each weight's expansion, read directly, gives the same sum,
    # a straight pattern included
    monkeypatch.setattr(straightening, "_TS_CACHE", {})
    straightening._weight_expansion.cache_clear()
    straightening._support_table.cache_clear()
    cases = list(exact_support_cases(4))
    nonzero = 0
    for t, idx in cases:
        rows = (t.row1, t.row2)
        got = {(u.row1, u.row2) for u in two_straighten(t, idx).terms}
        want = junction_oracle._ts(rows, idx.a, idx.b, idx.d)
        assert got == want, (idx, t)
        if _tail_masks(t.row1, t.row2, idx.a) is not None:
            m = len(set(t.row1 + t.row2))
            expand = straightening._weight_expansion(
                idx.a, idx.b, idx.d, m, straightening._letters_used_twice(rows)
            )
            assert expand(rows) == want, (idx, t)
            nonzero += 1
    assert (len(cases), nonzero) == (3993, 1423)


def test_two_straighten_commutes_with_spreading_the_letters(monkeypatch):
    # The memo is keyed on rows relabelled onto 1..m.  Moving a tableau onto
    # spread-out letters by an order-preserving map must move its output the
    # same way, and must match the junction rules run on the raw letters.
    monkeypatch.setattr(straightening, "_TS_CACHE", {})
    rng = random.Random(7)
    cases = []
    for n in range(1, 7):
        spread = (0, *sorted(rng.sample(range(1, 33), n)))

        def move(row):
            return tuple(map(spread.__getitem__, row))

        for t, idx in semistandard_cases(4, n):
            want = {(move(u.row1), move(u.row2)) for u in two_straighten(t, idx).terms}
            wide = Tableau(move(t.row1), move(t.row2), 32)
            wide_idx = IndexTriple(idx.a, idx.b, idx.d, 32)
            got = {(u.row1, u.row2) for u in two_straighten(wide, wide_idx).terms}
            assert got == want, (idx, t)
            cases.append((wide.row1, wide.row2, idx, got))
    assert len(cases) == 47195
    for row1, row2, idx, got in cases:
        assert junction_oracle._ts((row1, row2), idx.a, idx.b, idx.d) == got, (idx, row1, row2)


def test_straightening_memo_does_not_grow_with_the_alphabet(monkeypatch):
    # keys live on at most a + b letters, so every pattern and every weight
    # for a <= 3 already occurs at n = 6
    monkeypatch.setattr(straightening, "_TS_CACHE", {})
    straightening._weight_expansion.cache_clear()
    for t, idx in semistandard_cases(3, 6):
        two_straighten(t, idx)
    size = len(straightening._TS_CACHE)
    weights = straightening._weight_expansion.cache_info().currsize
    assert size and weights
    for t, idx in semistandard_cases(3, 9):
        two_straighten(t, idx)
    assert len(straightening._TS_CACHE) == size
    assert straightening._weight_expansion.cache_info().currsize == weights
    # syntactic zeros are dropped before the memo is read
    for (A, B), a, _, _ in straightening._TS_CACHE:
        assert _tail_masks(A, B, a) is not None, (A, B, a)


def test_classical_straighten_raises_at_cap_zero(monkeypatch):
    t = Tableau((1, 2), (4, 3), 4)  # the exchange makes two terms
    assert len(classical_straighten(t, 2)) == 2
    monkeypatch.setattr(straightening, "ITERATION_CAP", 0)
    with pytest.raises(StraighteningLimitExceeded, match="classical .* exceeded 0 steps"):
        classical_straighten(t, 2)


def test_two_straighten_validates_input():
    idx = IndexTriple(2, 2, 1, 3)
    with pytest.raises(DomainError):
        two_straighten(Tableau((1, 2), (2,), 3), idx)  # wrong shape
    with pytest.raises(DomainError):
        two_straighten(Tableau((2, 1, 1), (3,), 3), idx)  # not semistandard


def test_a_missing_straight_row_raises_a_typed_error_under_python_O():
    # Drop the basis row of (2, 1, 1) on 1..3 whose rectified rows are the
    # least.  Those rows are no longer straight, and the rows left in their
    # weight cannot expand them, so the reduction leaves a remainder.  A
    # check written as ``assert`` would vanish under python -O.
    code = (
        "from frobtab import standard_monomials, straightening\n"
        "from frobtab.standard_monomials import IndexTriple, _exact_support_rows, _rectify_rows\n"
        "from frobtab.tableaux import Tableau\n"
        "basis = _exact_support_rows(2, 1, 1, 3)\n"
        "gone = min(basis, key=lambda rows: _rectify_rows(*rows, 2, 1, 1))\n"
        "dropped = _rectify_rows(*gone, 2, 1, 1)\n"
        "standard_monomials._exact_support_rows = lambda *key: [\n"
        "    rows for rows in _exact_support_rows(*key) if rows != gone\n"
        "]\n"
        "try:\n"
        "    straightening.two_straighten(Tableau(*dropped, 3), IndexTriple(2, 1, 1, 3))\n"
        "except straightening.StraighteningInvariantError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_a_dependent_straight_row_raises_a_typed_error(monkeypatch):
    # a non-straight row of the golden example's weight, added to the
    # straight rows, is congruent to a sum of them
    rows = ((1, 2, 2, 4, 5), (3, 3, 6, 7, 7))
    twice = 1 << 2 | 1 << 3 | 1 << 7
    original = straightening._support_table

    def with_rows(*key):
        table = dict(original(*key))
        table[twice] = [*table.get(twice, ()), rows]
        return table

    monkeypatch.setattr(straightening, "_support_table", with_rows)
    straightening._weight_expansion.cache_clear()
    try:
        with pytest.raises(StraighteningInvariantError, match="are dependent"):
            straightening._weight_expansion(5, 5, 5, 7, twice)
    finally:
        straightening._weight_expansion.cache_clear()


def test_library_has_no_assert_statements():
    # invariants raise typed errors; python -O strips assert statements and
    # sets __debug__ to False, so the library reads neither
    src = Path(straightening.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
    ]
    assert found == []


def test_library_has_no_unused_imports():
    src = Path(straightening.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the public re-exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [
                    f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name).split(".")[0] not in read
                ]
    assert unused == []


def test_square_junction_full_chain_without_repeated_head_is_unreachable():
    # B[k] == A[k+2] for every k, so no chain break exists; with A[0] == A[1]
    # the minor-chain move would have applied first
    with pytest.raises(StraighteningInvariantError):
        junction_oracle._square_junction((1, 2, 3), (3, 4, 4), 3)
