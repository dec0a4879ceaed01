from itertools import product

import pytest

from qcgirth.girth import count_4cycles, girth_bfs, girth_from_shifts
from qcgirth.lifting import ShiftMatrix, export_alist, import_alist, lift
from qcgirth.mappings import Permutation, is_complete_mapping
from qcgirth.search import (
    SearchBudgetError,
    exists_code,
    girth6_even_L,
    girth6_odd_L_explicit,
    min_lifting_factor,
)


def brute_exists(j, l, n, girth6=True):
    """Unreduced oracle: scan every matrix with zero first row and column.

    Only the zero row/column reduction is assumed (a graph isomorphism);
    the ordering reductions under test are not applied.
    """
    free = (j - 1) * (l - 1)
    for vals in product(range(n), repeat=free):
        rows = [(0,) * l]
        for r in range(j - 1):
            rows.append((0,) + vals[r * (l - 1):(r + 1) * (l - 1)])
        p = ShiftMatrix(entries=tuple(rows), lifting_factor=n)
        if count_4cycles(p) == 0:
            return True
    return False


def test_exists_code_examples():
    assert exists_code(3, 6, 6, 6)[0] is False  # even L at N=L
    found, witness = exists_code(3, 5, 5, 6)
    assert found and witness is not None
    assert exists_code(4, 9, 9, 6)[0] is False


def test_exists_code_guards():
    assert exists_code(3, 4, 3, 6) == (False, None)  # N < L
    assert exists_code(3, 4, 6, 8) == (False, None)  # N <= 2(L-1) at J >= 3
    # two-row matrices have no 6-cycles, so the J >= 3 bound does not apply
    found, witness = exists_code(2, 2, 4, 8)
    assert found
    assert girth_from_shifts(witness, 16).girth == 16


def test_exists_code_validation():
    with pytest.raises(ValueError, match="girth"):
        exists_code(3, 4, 5, 10)
    with pytest.raises(ValueError, match="J >= 2"):
        exists_code(1, 4, 5, 6)


def test_reductions_match_unreduced_search():
    # the ordering reductions must not change existence verdicts
    for j, l, n in ((3, 4, 4), (3, 4, 5), (3, 5, 6), (4, 3, 7), (4, 3, 6)):
        assert exists_code(j, l, n, 6)[0] == brute_exists(j, l, n), (j, l, n)


def test_min_lifting_factor_girth6():
    r = min_lifting_factor(3, 4, 6, 12)
    assert (r.min_n, r.exhaustive) == (5, True)
    assert r.witness.rows == 3 and r.witness.cols == 4
    assert girth_bfs(lift(r.witness), 12).girth >= 6

    r8 = min_lifting_factor(3, 8, 6, 12)
    assert r8.min_n == 9


def test_min_lifting_factor_odd_L_hits_N_equals_L():
    for l in (5, 7, 9, 11, 13):
        r = min_lifting_factor(3, l, 6, l + 2)
        assert r.min_n == l
        # row 2 is forced to 0..L-1, so row 3 must be a complete mapping
        assert r.witness.entries[1] == tuple(range(l))
        assert is_complete_mapping(Permutation(r.witness.entries[2]))


def test_min_lifting_factor_even_L_hits_N_plus_one():
    for l in (4, 6, 8):
        r = min_lifting_factor(3, l, 6, l + 2)
        assert r.min_n == l + 1
        assert exists_code(3, l, l, 6)[0] is False


def test_min_lifting_factor_girth8():
    r = min_lifting_factor(3, 4, 8, 12)
    assert r.min_n == 9
    assert r.min_n >= 2 * 4 - 1
    assert girth_from_shifts(r.witness, 12).girth >= 8


def test_min_lifting_factor_not_found():
    r = min_lifting_factor(3, 4, 8, 8)  # below the 2(L-1) bound
    assert r.min_n is None
    assert r.exhaustive


def test_min_lifting_factor_validation():
    with pytest.raises(ValueError, match="J must be"):
        min_lifting_factor(2, 4, 6, 10)
    with pytest.raises(ValueError, match="J must be"):
        min_lifting_factor(6, 4, 6, 10)
    with pytest.raises(ValueError, match="L >= 3"):
        min_lifting_factor(3, 2, 6, 10)
    with pytest.raises(ValueError, match="L >= 4"):
        min_lifting_factor(3, 3, 8, 10)
    with pytest.raises(ValueError, match="target girth"):
        min_lifting_factor(3, 4, 10, 10)


def test_search_budget():
    with pytest.raises(SearchBudgetError) as info:
        min_lifting_factor(3, 6, 6, 7, budget=5)
    partial = info.value.partial
    assert partial.min_n is None
    assert not partial.exhaustive
    assert partial.nodes >= 5


def test_search_witness_survives_alist_roundtrip():
    r = min_lifting_factor(3, 5, 6, 8)
    h = lift(r.witness)
    again = import_alist(export_alist(h))
    assert again == h
    assert girth_bfs(again, 12).girth == girth_bfs(h, 12).girth


def test_girth6_even_L():
    for l in (4, 6, 8):
        p = girth6_even_L(l)
        assert p.cols == l and p.lifting_factor == l + 1
        assert girth_bfs(lift(p), 12).girth == 6
    with pytest.raises(ValueError, match="even"):
        girth6_even_L(5)


def test_girth6_odd_L_explicit():
    p = girth6_odd_L_explicit(5, 2)
    assert p.entries[2] == (0, 2, 4, 1, 3)
    default = girth6_odd_L_explicit(9)
    assert default.entries[2] == tuple((2 * i) % 9 for i in range(9))
    assert girth_bfs(lift(default), 12).girth == 6
    # girth stays exactly 6 even at the largest desk size
    wide = girth6_odd_L_explicit(15, 2)
    assert girth_from_shifts(wide, 12).girth == 6
    with pytest.raises(ValueError, match="odd"):
        girth6_odd_L_explicit(4)
