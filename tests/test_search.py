import time
from itertools import combinations, product
from math import gcd
from typing import Optional

import pytest

from qcgirth import mappings, search
from qcgirth.girth import (
    count_4cycles,
    girth_bfs,
    girth_from_shifts,
    has_girth_at_least,
)
from qcgirth.girth8 import check_girth8_conditions, verify_girth8_bound
from qcgirth.lifting import ShiftMatrix, export_alist, import_alist, lift
from qcgirth.mappings import (
    BudgetError,
    Permutation,
    compatible_pairs,
    enumerate_complete_mappings,
    is_complete_mapping,
)
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


def tails_backtrack(j, l, n, want8, budget, nodes_in):
    """In-test reference: the search kernel that tests every tail.

    Per second-row value v1 it enumerates all N^(J-2) tails (rows 2..J-1),
    skips those that break the tie-break of rows tied on every placed
    column, counts the rest as nodes and only then tests the masks.
    Same masks and visiting order as search._backtrack, far more nodes.
    """
    row_pairs = list(combinations(range(j), 2))  # p < q
    tails = list(product(range(n), repeat=j - 2))  # rows 2..J-1 of a column
    cols = [(0,) * j]
    nodes = nodes_in

    def place(masks, x):
        out = []
        for m, (p, q) in zip(masks, row_pairs):
            m |= 1 << ((x[q] - x[p]) % n)  # 4-cycle on columns x, y
            if want8:
                # 6-cycles on columns x, z, y through rows p, q, r
                for z in cols:
                    for r in range(j):
                        if r != p and r != q:
                            m |= 1 << ((x[q] - x[r] + z[r] - z[p]) % n)
                            m |= 1 << ((z[q] - z[r] + x[r] - x[p]) % n)
            out.append(m)
        return tuple(out)

    def rec(c, masks):
        nonlocal nodes
        if c == l:
            return tuple(cols)
        tied = [
            k for k in range(j - 3) if all(col[k + 2] == col[k + 3] for col in cols)
        ]
        lo1 = cols[c - 1][1] + 1 if c > 1 else 1
        for v1 in range(lo1, n - (l - 1 - c)):
            for tail in tails:
                if any(tail[k] > tail[k + 1] for k in tied):
                    continue
                if budget is not None and nodes >= budget:
                    raise BudgetError(
                        f"node budget exhausted after {nodes} nodes",
                        SearchResult(min_n=None, witness=None, nodes=nodes),
                    )
                nodes += 1
                y = (0, v1) + tail
                if any(
                    m >> ((y[q] - y[p]) % n) & 1 for m, (p, q) in zip(masks, row_pairs)
                ):
                    continue
                next_masks = place(masks, y)
                cols.append(y)
                hit = rec(c + 1, next_masks)
                if hit is not None:
                    return hit
                cols.pop()
        return None

    hit = rec(1, (1,) * len(row_pairs))
    if hit is None:
        return None, nodes
    entries = tuple(tuple(col[r] for col in hit) for r in range(j))
    return ShiftMatrix(entries=entries, lifting_factor=n), nodes


def lex_beaten(x, cols, n):
    """The lex-leader test of search, one unit at a time and with no table.

    True when, for a placed column w and ordered rows r0 != r1 with
    d = a[r1] - a[r0], a = x - w, either gcd(d, N) < x1, or a unit u with
    u*d = x1 maps some other row's a[r] - a[r0] below column 1's row-2
    entry.  cols holds the placed columns, column 1 among them once it is
    placed; x is column 1 itself otherwise.
    """
    col1 = cols[1] if len(cols) > 1 else x
    x1, j = col1[1], len(x)
    for w in cols:
        a = [xr - wr for xr, wr in zip(x, w)]
        for r0, r1 in product(range(j), repeat=2):
            rest = [r for r in range(j) if r not in (r0, r1)]
            if r0 == r1 or not rest:
                continue
            d = (a[r1] - a[r0]) % n
            if gcd(d, n) < x1:
                return True
            for u in range(1, n):
                if gcd(u, n) == 1 and u * d % n == x1:
                    if min(u * (a[r] - a[r0]) % n for r in rest) < col1[2]:
                        return True
    return False


def uncut_backtrack(j, l, n, want8, budget, nodes_in, x1_mask=-1, lex=False):
    """In-test reference: the search kernel without the lex-leader test.

    Column 1's row-1 entry ranges over every residue, not only the
    divisors of N, unless the bitmask x1_mask narrows it.  Same masks,
    bounds and visiting order otherwise, so the kernel must find the same
    witness, in no more nodes.  With the divisors as x1_mask it is the
    kernel with the unit-scaling cut alone.
    With lex, each later column that fails the gcd test against a placed
    column is skipped before it is counted, as the kernel's masks skip it,
    and each counted column goes on only if lex_beaten clears it: the
    kernel's test, decided one unit at a time.
    """
    row_pairs = list(combinations(range(j), 2))  # p < q
    # below[q] pairs each row p < q with the index of mask(p, q)
    below = [[(p, row_pairs.index((p, q))) for p in range(q)] for q in range(j)]
    full = (1 << n) - 1
    cols: list[tuple[int, ...]] = [(0,) * j]
    nodes = nodes_in

    def gcd_skips(x):
        x1 = cols[1][1]
        return any(
            gcd(x[q] - x[p] - z[q] + z[p], n) < x1
            for z in cols
            for p, q in row_pairs
        )

    def place(masks: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
        # the residues of y[q] - y[p] that column x forbids to later columns
        # y, on top of what the placed columns (cols, without x) forbid
        out = []
        for m, (p, q) in zip(masks, row_pairs):
            m |= 1 << ((x[q] - x[p]) % n)  # 4-cycle on columns x, y
            if want8:
                # 6-cycles on columns x, z, y through rows p, q, r
                for r in range(j):
                    if r != p and r != q:
                        a, b = x[q] - x[r], x[r] - x[p]
                        for z in cols:
                            m |= 1 << ((a + z[r] - z[p]) % n)
                            m |= 1 << ((b + z[q] - z[r]) % n)
            out.append(m)
        return tuple(out)

    def fill(
        c: int, masks: tuple[int, ...], y: list[int]
    ) -> Optional[list[tuple[int, ...]]]:
        # draw row q = len(y) of column c, then the rows below it and the
        # columns after it; returns every column of a witness, or None
        nonlocal nodes
        q = len(y)
        free = full
        for p, i in below[q]:
            m, s = masks[i], y[p]
            free &= ~((m << s) | (m >> (n - s)))
        if q == 1:  # ascending, and leaving room for the later columns
            free &= (full >> (l - 1 - c)) & (-2 << cols[-1][1])
            if c == 1:
                free &= x1_mask
        elif c == 1 and q >= 3:  # the row-block tie-break
            free &= -1 << y[q - 1]
        while free:
            low = free & -free
            free ^= low
            y.append(low.bit_length() - 1)
            hit = None
            if q + 1 < j:
                hit = fill(c, masks, y)
            elif not (lex and c > 1 and gcd_skips(tuple(y))):
                if budget is not None and nodes >= budget:
                    raise BudgetError(
                        f"node budget exhausted after {nodes} nodes",
                        SearchResult(min_n=None, witness=None, nodes=nodes),
                    )
                nodes += 1
                x = tuple(y)
                if c + 1 == l:
                    return cols + [x]
                if not (lex and lex_beaten(x, cols, n)):
                    next_masks = place(masks, x)
                    cols.append(x)
                    hit = fill(c + 1, next_masks, [0])
                    cols.pop()
            y.pop()
            if hit is not None:
                return hit
        return None

    # column 0 is all zeros, so it forbids difference 0 on every row pair
    hit = fill(1, (1,) * len(row_pairs), [0])
    if hit is None:
        return None, nodes
    entries = tuple(tuple(col[r] for col in hit) for r in range(j))
    return ShiftMatrix(entries=entries, lifting_factor=n), nodes


def clique_route(j: int, l: int) -> Optional[ShiftMatrix]:
    """Girth-6 existence at N = L for J >= 4 via pairwise complete mappings.

    Rows 3..J of a canonical girth-6 matrix at N = L are complete mappings
    that are pairwise complete mappings of each other, so they form a
    clique of J - 2 compatible mappings.  Returns a witness matrix or None.
    """
    census = enumerate_complete_mappings(l)
    samples = census.samples
    need = j - 2
    pairs = set(compatible_pairs(census))

    def grow(chosen: list[int], start: int) -> Optional[list[int]]:
        if len(chosen) == need:
            return chosen
        for nxt in range(start, len(samples)):
            if all((c, nxt) in pairs for c in chosen):
                hit = grow(chosen + [nxt], nxt + 1)
                if hit is not None:
                    return hit
        return None

    clique = grow([], 0)
    if clique is None:
        return None
    rows = ((0,) * l, tuple(range(l))) + tuple(samples[idx] for idx in clique)
    return ShiftMatrix(entries=rows, lifting_factor=l)


def assert_girth_exactly_6(witness):
    assert girth_from_shifts(witness, 12).girth == 6
    assert girth_bfs(lift(witness), 12).girth == 6


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


def test_exists_code_rejects_lifting_factor_below_1():
    # N = 0 used to answer (False, None), and N = -1 failed in the kernel
    # with "negative shift count"
    for j, l, n, girth in ((3, 4, 0, 6), (2, 3, -1, 8), (4, 5, -5, 6)):
        with pytest.raises(ValueError, match=f"need N >= 1, got {n}"):
            exists_code(j, l, n, girth)


def test_exists_code_checks_its_witness(monkeypatch):
    # every witness, J = 3 and J = 4 at N = L alike, comes from the
    # backtracking kernel and goes to the shift oracle before it is returned
    monkeypatch.setattr(search, "has_girth_at_least", lambda matrix, girth: False)
    for j in (3, 4):
        with pytest.raises(RuntimeError, match="lacks girth 6"):
            exists_code(j, 5, 5, 6)


def test_certificate_matches_clique_route():
    # at N = L no census certifies nonexistence any more: odd N = L is
    # decided by backtracking alone, and the clique route, which builds on
    # the census and its mate scan instead, decides the same.
    # Even L has no complete mappings, and of the odd L here mates exist at
    # L = 5 and 7 only, so the kernel exhausts L = 3 and 9
    for j in (4, 5):
        for l in (3, 4, 5, 6, 7, 8, 9, 10, 12):
            found, witness = exists_code(j, l, l, 6)
            assert found == (clique_route(j, l) is not None), (j, l)
            if found:
                assert_girth_exactly_6(witness)


def test_certificate_matches_kernel_at_n_equals_l():
    # the search at N = L, pre-checks, kernel and witness oracle together,
    # against the in-test reference kernel, which has no lex-leader cut:
    # mates exist at L = 5 and 7 only
    for l, want in ((3, False), (5, True), (7, True), (9, False)):
        reference = uncut_backtrack(4, l, l, False, None, 0)[0] is not None
        assert reference is want, l
        assert exists_code(4, l, l, 6)[0] is reference, l


def test_n_equals_l_runs_no_census(monkeypatch):
    # odd N = L is decided by backtracking alone, also at L = 15, where
    # the census would pass its witness cap
    def no_census(*args, **kwargs):
        raise AssertionError("ran a census at N = L")

    monkeypatch.setattr(mappings, "enumerate_complete_mappings", no_census)
    monkeypatch.setattr(search, "enumerate_complete_mappings", no_census)
    assert search._exists_at_n(4, 9, 9, 6, None, 0) == (None, 9787)
    assert search._exists_at_n(5, 9, 9, 6, None, 0) == (None, 39771)
    r = min_lifting_factor(4, 15, 6, 15)
    assert (r.min_n, r.nodes) == (15, 168700)
    assert_girth_exactly_6(r.witness)


def test_kernel_finds_four_rows_at_n_equals_l():
    # a 4-row girth-6 matrix exists at N = L = 13 and 15; at 15 every valid
    # product multiplier is 2 mod 3, so its rows 3 and 4 are not both linear
    for l, want_nodes in ((13, 31285), (15, 168700)):
        witness, nodes = search._backtrack(4, l, l, False, None, 0)
        assert nodes == want_nodes, l
        assert witness.entries[1] == tuple(range(l))
        assert_girth_exactly_6(witness)


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


def test_kernel_matches_tails_reference(monkeypatch):
    # the kernel draws each column's entries from the masks; the reference
    # tests every tail against them.  Same verdict and witness at every N,
    # for J = 2..5 and both girths, including every N below a minimum;
    # column 1 is where the tied rows 2..J-1 of column 0 must ascend
    grid = [
        (j, l, n, want8)
        for j in (2, 3, 4, 5)
        for l in (2, 3, 4)
        for want8 in (False, True)
        for n in range(1, 9)
    ]
    # the first girth-8 witnesses at J = 4, L = 4 and J = 5, L = 3
    for j, l, n, want8 in grid + [(4, 4, 15, True), (5, 3, 13, True)]:
        got = search._backtrack(j, l, n, want8, None, 0)[0]
        want = tails_backtrack(j, l, n, want8, None, 0)[0]
        assert got == want, (j, l, n, want8)
    assert got is not None  # the last case has a witness
    cases = (
        (3, 4, 6, 8), (3, 6, 6, 9), (3, 4, 8, 12), (3, 5, 8, 14),
        (3, 5, 8, 12),  # no witness up to n_max
        (4, 4, 6, 8), (4, 6, 6, 9), (4, 9, 6, 12),
        (5, 4, 6, 8), (5, 6, 6, 9),
    )
    got = [min_lifting_factor(*case) for case in cases]
    monkeypatch.setattr(search, "_backtrack", tails_backtrack)
    want = [min_lifting_factor(*case) for case in cases]
    assert [(r.min_n, r.witness) for r in got] == [
        (r.min_n, r.witness) for r in want
    ]
    assert [r.min_n for r in got] == [5, 7, 9, 13, None, 5, 7, 10, 5, 7]


def test_unit_scaling_cut_keeps_every_witness():
    # column 1's row-1 entry is drawn from the divisors of N only; the
    # first canonical witness has such an entry, so existence and witness
    # match the uncut kernel at every N
    cases = [
        (3, l, n, want8)
        for l in (4, 5, 6)
        for want8 in (False, True)
        for n in range(1, 21)
    ] + [(4, 4, n, want8) for want8 in (False, True) for n in range(1, 17)]
    witnesses = 0
    for j, l, n, want8 in cases:
        got, nodes = search._backtrack(j, l, n, want8, None, 0)
        want, uncut_nodes = uncut_backtrack(j, l, n, want8, None, 0)
        assert got == want, (j, l, n, want8)
        assert nodes <= uncut_nodes, (j, l, n, want8)
        witnesses += j == 3 and got is not None
    assert witnesses == 69  # of the 120 cases at J = 3


def test_unit_scaling_cut_draws_x1_from_the_divisors():
    # at an exhausted composite N the kernel visits exactly the nodes of
    # the unit-by-unit lex-leader reference restricted to the divisors of
    # N, and more than that reference restricted to x1 = 1, so its mask is
    # the divisors, not {1}.  The reference without the lex-leader test
    # visits more nodes still
    pinned = {
        (3, 5, 12): (389, 349, 3018),
        (3, 6, 12): (331, 291, 2266),
        (3, 4, 8): (31, 19, 72),
    }
    cases = [
        (3, l, n)
        for l, first in ((4, 9), (5, 13), (6, 18))
        for n in range(8, min(first, 13))
        if any(n % d == 0 for d in range(2, n))
    ] + [(4, 4, 12)]
    counts = {}
    for j, l, n in cases:
        got, nodes = search._backtrack(j, l, n, True, None, 0)
        assert got is None, (j, l, n)
        divisors = sum(1 << d for d in range(1, n) if n % d == 0)
        assert uncut_backtrack(j, l, n, True, None, 0, divisors, lex=True) == (
            None,
            nodes,
        )
        _, unit_nodes = uncut_backtrack(j, l, n, True, None, 0, 1 << 1, lex=True)
        _, old_nodes = uncut_backtrack(j, l, n, True, None, 0, divisors)
        assert unit_nodes < nodes < old_nodes, (j, l, n)
        counts[j, l, n] = (nodes, unit_nodes, old_nodes)
    assert {case: counts[case] for case in pinned} == pinned


def test_lex_leader_table_matches_unit_by_unit_test():
    # the kernel decides the lex-leader test from the masks and one table
    # per column 1; the reference tries every unit of Z/N on every pair of
    # columns.  Same witness and the same nodes, both girths, J = 2..5,
    # including every N below each minimum
    cases = [
        (j, l, n, want8)
        for j in (2, 3, 4, 5)
        for l in (2, 3, 4, 5, 6)
        for want8 in (False, True)
        for n in range(1, 17)
        if not want8 or j * l <= 20
    ]
    for j, l, n, want8 in cases:
        divisors = sum(1 << d for d in range(1, n) if n % d == 0)
        want = uncut_backtrack(j, l, n, want8, None, 0, divisors, lex=True)
        assert search._backtrack(j, l, n, want8, None, 0) == want, (j, l, n, want8)


def test_lex_leader_keeps_every_witness():
    # the reference is the kernel with the unit-scaling cut alone: column
    # 1's row-1 entry divides N, nothing else is cut.  Same existence and
    # witness at every N <= 20, in no more nodes.  J = 4 girth 8 at L = 6
    # and J = 5 girth 8 at L = 5, 6 are left out: the reference alone
    # takes 17-24 s on each
    cases = [(3, l, want8) for l in (4, 5, 6) for want8 in (False, True)]
    cases += [(j, l, False) for j in (4, 5) for l in (4, 5, 6)]
    cases += [(4, 4, True), (4, 5, True), (5, 4, True)]
    witnesses = nodes_total = old_total = 0
    for j, l, want8 in cases:
        for n in range(1, 21):
            divisors = sum(1 << d for d in range(1, n) if n % d == 0)
            got, nodes = search._backtrack(j, l, n, want8, None, 0)
            want, old_nodes = uncut_backtrack(j, l, n, want8, None, 0, divisors)
            assert got == want, (j, l, n, want8)
            assert nodes <= old_nodes, (j, l, n, want8)
            witnesses += got is not None
            nodes_total += nodes
            old_total += old_nodes
    assert witnesses == 169
    assert (nodes_total, old_total) == (189314, 1323002)


def test_even_n_equals_l_needs_no_search(monkeypatch):
    # Z/L has no complete mapping for even L (Hall and Paige), so girth 6
    # at even N = L is ruled out before backtracking
    for n in range(2, 15, 2):
        census = enumerate_complete_mappings(n, limit=0)
        assert census.count == 0, n
    # Z/14's whole tree, mirrored branches included, shows it is empty
    assert census.nodes == 9819544
    for l in range(4, 13, 2):
        assert search._backtrack(3, l, l, False, None, 0)[0] is None, l

    def no_search(*args, **kwargs):
        raise AssertionError("searched at even N = L")

    monkeypatch.setattr(search, "_backtrack", no_search)
    for j in (3, 4, 5):
        for l in range(4, 13, 2):
            assert search._exists_at_n(j, l, l, 6, None, 7) == (None, 7), (j, l)


def test_min_lifting_factor_girth8_l7():
    # J = 3 girth 8 at L = 7: Tasdighi, Banihashemi and Sadeghi (2016) give
    # 21.  The node count is pinned so that a pruning regression fails here
    r = min_lifting_factor(3, 7, 8, 21)
    assert (r.min_n, r.nodes) == (21, 115912)
    assert r.witness.entries[1:] == (
        (0, 1, 3, 4, 7, 9, 16),
        (0, 2, 6, 14, 15, 18, 20),
    )
    assert girth_from_shifts(r.witness, 8).girth == 8
    assert girth_bfs(lift(r.witness), 8).girth == 8
    assert check_girth8_conditions(r.witness).valid


def test_min_lifting_factor_j4_girth8_l6():
    # J = 4 girth 8 at L = 6: minimum 21, the witness accepted by both
    # oracles.  About 2 s on a 2-core host; a slow search fails here
    # rather than passing or skipping
    started = time.perf_counter()
    r = min_lifting_factor(4, 6, 8, 21)
    elapsed = time.perf_counter() - started
    assert (r.min_n, r.nodes) == (21, 378894)
    assert r.witness.entries[1:] == (
        (0, 1, 2, 4, 12, 17),
        (0, 3, 8, 20, 5, 9),
        (0, 6, 10, 16, 19, 18),
    )
    assert girth_from_shifts(r.witness, 12).girth == 8
    assert girth_bfs(lift(r.witness), 12).girth == 8
    assert elapsed < 60, f"J=4 L=6 girth-8 search took {elapsed:.0f}s, budget 60s"


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
    # the search stops at its budget, never past it (1019 nodes in all)
    for budget in (0, 1, 5, 100):
        with pytest.raises(BudgetError) as info:
            min_lifting_factor(3, 5, 8, 14, budget=budget)
        assert info.value.partial.nodes == budget
    # at N = L too: every witness there is a counted, budgeted kernel node
    for args, budget in (((4, 7, 6, 7), 0), ((4, 11, 6, 14), 100)):
        with pytest.raises(BudgetError) as info:
            min_lifting_factor(*args, budget=budget)
        assert info.value.partial.nodes == budget, args


def test_search_node_counts():
    # the pruning may get cheaper per node, but which nodes it visits, and
    # so these counts, must not change without a reason.  A node is one
    # column that passes the masks of all its row pairs
    for args, want in (
        # girth 8: the lex-leader test prunes
        ((3, 4, 8, 12), (9, 43)),
        ((3, 5, 8, 14), (13, 1019)),
        ((4, 6, 6, 9), (7, 40)),
        ((5, 6, 6, 9), (7, 20)),
        # N = 9 = L is exhausted by the kernel, in 9787 of these nodes
        ((4, 9, 6, 12), (10, 9938)),
        # N = L = 11 by backtracking; L = 10 is ruled out at N = L because
        # Z/10, of even order, has no complete mapping
        ((4, 11, 6, 14), (11, 3653)),
        ((4, 10, 6, 14), (11, 17539)),
        # exhausted at every N: 6x more nodes without the row tie-break
        ((5, 4, 8, 12), (None, 992)),
    ):
        r = min_lifting_factor(*args)
        assert (r.min_n, r.nodes) == want, args


def test_first_valid_girth8_table_matches_search():
    # two independent routes to the J = 3, L = L' + 1 girth-8 minimum: the
    # L' difference-table sweep and the canonical search
    for l_prime, want in ((3, 9), (4, 13), (5, 18)):
        report = verify_girth8_bound(l_prime, want)
        first = min(row.n for row in report.rows if row.valid_tables)
        result = min_lifting_factor(3, l_prime + 1, 8, want)
        assert first == result.min_n == want, l_prime
    # the L = 6 witness, judged by the lifted-graph oracle and the x_i route
    assert girth_bfs(lift(result.witness), 8).girth == 8
    assert check_girth8_conditions(result.witness).valid


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
