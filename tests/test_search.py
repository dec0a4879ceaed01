from itertools import product

import pytest

from qcgirth import search
from qcgirth.girth import (
    count_4cycles,
    girth_bfs,
    girth_from_shifts,
    has_girth_at_least,
)
from qcgirth.girth8 import verify_girth8_bound
from qcgirth.lifting import ShiftMatrix, export_alist, import_alist, lift
from qcgirth.mappings import BudgetError, Permutation, is_complete_mapping
from qcgirth.search import (
    SearchResult,
    exists_code,
    girth6_even_L,
    girth6_odd_L_explicit,
    min_lifting_factor,
)


def brute_exists(j, l, n, girth=6):
    """Unreduced oracle: scan every matrix with zero first row and column.

    Only the zero row/column reduction is assumed (a graph isomorphism);
    the ordering reductions under test are not applied.  Girth 8 is judged
    by the shift-tuple oracle, which shares no code with the search masks.
    """
    free = (j - 1) * (l - 1)
    for vals in product(range(n), repeat=free):
        rows = [(0,) * l]
        for r in range(j - 1):
            rows.append((0,) + vals[r * (l - 1):(r + 1) * (l - 1)])
        p = ShiftMatrix(entries=tuple(rows), lifting_factor=n)
        if girth == 6 and count_4cycles(p) == 0:
            return True
        if girth == 8 and has_girth_at_least(p, 8):
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


def test_exists_code_checks_its_witness(monkeypatch):
    # both routes, backtracking (J = 3) and complete mappings (J = 4 at
    # N = L), hand their witness to the shift oracle before returning it
    monkeypatch.setattr(search, "has_girth_at_least", lambda matrix, girth: False)
    for j in (3, 4):
        with pytest.raises(RuntimeError, match="lacks girth 6"):
            exists_code(j, 5, 5, 6)


def test_search_zero_budget_partial():
    # a zero budget is valid: the search stops before its first node
    with pytest.raises(BudgetError) as info:
        min_lifting_factor(3, 4, 6, 6, budget=0)
    assert info.value.partial == SearchResult(min_n=None, witness=None, nodes=0)


def test_reductions_match_unreduced_search():
    # the ordering reductions must not change existence verdicts
    for j, l, n in ((3, 4, 4), (3, 4, 5), (3, 5, 6), (4, 3, 7), (4, 3, 6)):
        assert exists_code(j, l, n, 6)[0] == brute_exists(j, l, n), (j, l, n)
    # girth 8, where the search rejects 6-cycles too: two misses, two hits
    for j, l, n, want in ((3, 3, 6, False), (3, 3, 7, True), (4, 3, 5, False),
                          (4, 3, 9, True)):
        assert exists_code(j, l, n, 8)[0] is want, (j, l, n)
        assert brute_exists(j, l, n, girth=8) is want, (j, l, n)


def test_min_lifting_factor_girth6():
    r = min_lifting_factor(3, 4, 6, 12)
    assert r.min_n == 5
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
    with pytest.raises(BudgetError) as info:
        min_lifting_factor(3, 6, 6, 7, budget=5)
    assert info.value.partial.nodes == 5
    assert str(info.value) == "node budget exhausted after 5 nodes"


def test_search_node_counts():
    # the pruning may get cheaper per node, but which nodes it visits, and
    # so these counts, must not change without a reason
    for args, want in (
        ((3, 4, 8, 12), (9, 2942)),
        ((3, 5, 8, 14), (13, 217128)),
        ((4, 6, 6, 9), (7, 2924)),
        ((5, 6, 6, 9), (7, 9776)),
        ((4, 9, 6, 12), (10, 20232)),
    ):
        r = min_lifting_factor(*args)
        assert (r.min_n, r.nodes) == want, args


def test_first_valid_girth8_table_matches_search():
    # two independent routes to the J = 3, L = 4 girth-8 minimum: the
    # L' = 3 difference-table sweep and the canonical search
    report = verify_girth8_bound(3, 9)
    first = min(row.n for row in report.rows if row.valid_tables)
    assert first == min_lifting_factor(3, 4, 8, 12).min_n == 9


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
