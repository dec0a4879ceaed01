"""Minimal-lifting-factor search by canonical backtracking.

Search runs over canonical shift matrices: first row and column zero,
second-row entries strictly ascending (column permutation), and rows
3..J in nondecreasing lexicographic order (row-block permutation).
Every girth-6 or girth-8 matrix is equivalent to a canonical one, so
exhausting the canonical space at a given N certifies nonexistence.
Columns are assigned left to right.  A 4-cycle (or, for girth 8, a
6-cycle) through a new column y closes exactly when, for some row pair
p < q, y[q] - y[p] hits a residue fixed by the placed columns
(Fossorier's condition: an alternating sum of shifts vanishes mod N).
The residues that (q, p) forbids are the negatives of those of (p, q),
so the search keeps one forbidden-residue bitmask per unordered row pair,
filled in as each column x is placed: bit x[q] - x[p] for 4-cycles and,
for girth 8, bit x[q] - x[r] + z[r] - z[p] (and its mirror) per earlier
column z and third row r for 6-cycles.

Candidates are drawn from the masks rather than tested against them.
A new column is filled one row at a time, and row q takes its entries,
ascending, from the complement of the OR of mask(p, q) rotated by y[p]
over the rows p < q already filled; ints serve as the bitsets.  So only
columns that pass the masks of all their row pairs are ever built, in
lexicographic order.  Such a column is one search node: the unit of the
node count and of the node budget.

Counting rows and columns from 0, column 1's row-1 entry x1, the smallest
nonzero entry of row 1, is drawn from the divisors of N only (the
unit-scaling cut); at prime N that is 1 alone.  The cut keeps the first
canonical witness, so every N is still exhausted and every minimum and
witness stays the same:

- Fossorier's condition is linear, so multiplying every entry by a unit
  u of Z/N keeps the girth, and keeps row 0 and column 0 zero.
- For each a in Z/N there is a unit u with u*a = gcd(a, N) mod N: with
  g = gcd(a, N), a/g is a unit mod N/g, and every unit mod N/g lifts to
  a unit mod N.
- Scale a canonical witness with x1 = a by that u, re-sort its columns
  by row 1 and its rows 2..J-1 by column 1.  Both are permutations that
  keep the girth, and the result is a canonical witness whose x1 is the
  smallest scaled row-1 entry, so at most gcd(a, N).
- Columns are compared from column 1 on, so the lexicographically first
  witness has the smallest x1 of all witnesses.  Hence its x1 equals
  gcd(x1, N), that is, x1 divides N.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .girth import girth_from_shifts, has_girth_at_least
from .lifting import ShiftMatrix, canonical_from_mapping
# compatible_pairs is not called here.  It stays importable from search
# because perfbench's traced run (--trace 1) wraps it there, next to
# enumerate_complete_mappings, and tests/test_tooling.py checks that
from .mappings import (
    BudgetError,
    _mates,
    compatible_pairs,  # noqa: F401
    enumerate_complete_mappings,
    product_mapping,
)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimal-N search.

    min_n is None when no admissible matrix exists with N <= n_max.  Every
    N below the reported one (or up to n_max) was fully explored, since a
    search that runs out of budget raises BudgetError instead of returning;
    its partial is a SearchResult with no minimum and the nodes visited.
    """

    min_n: Optional[int]
    witness: Optional[ShiftMatrix]
    nodes: int


def _exists_at_n(
    j: int,
    l: int,
    n: int,
    target_girth: int,
    budget: Optional[int],
    nodes_in: int,
) -> tuple[Optional[ShiftMatrix], int]:
    """Find one canonical J x L matrix over Z/N with girth >= target, or None.

    The one per-N step of every search: the girth and budget checks, the
    infeasibility pre-checks, a nonexistence certificate at N = L, then
    backtracking, and the witness check by the shift oracle.  Every
    witness comes from _backtrack, so it is counted in the nodes and
    bounded by the budget.  Returns (witness, nodes) with nodes counted on
    from nodes_in, and raises BudgetError when nodes reach budget.

    At N = L and J >= 3, row 2 of a canonical girth-6 matrix is 0..L-1,
    so row 3 is a complete mapping of Z/L.  For even L none exists (Hall
    and Paige, 1955): the differences p(i) - i of a complete mapping sum
    to 0 mod L, while a permutation of Z/L sums to L/2.  So even N = L is
    ruled out before any census or backtracking, at J >= 4 too.  For odd
    L and J >= 4, rows 3 and 4 are complete mappings that are mates: their
    columnwise differences are all distinct.  When the census of Z/L holds
    every mapping and no two of them are mates, no such matrix exists.
    The pairs are tested until the first mate pair; a census cut short by
    its witness cap certifies nothing, and both cases go on to backtrack.
    """
    if target_girth not in (6, 8):
        raise ValueError(f"target girth must be 6 or 8, got {target_girth}")
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")
    if target_girth == 6 and n < l:
        return None, nodes_in  # a girth-6 row holds L distinct residues
    if target_girth == 8 and j >= 3 and n <= 2 * (l - 1):
        # rows 2 and 3 of a canonical girth-8 matrix need 2(L-1) distinct
        # nonzero residues; two-row matrices escape this bound
        return None, nodes_in
    if target_girth == 6 and n == l and j >= 3 and l % 2 == 0:
        return None, nodes_in  # Z/L has no complete mapping for even L
    if target_girth == 6 and n == l and j >= 4:
        census = enumerate_complete_mappings(l)
        rows = census.samples
        pairs = combinations(range(len(rows)), 2)
        if not census.truncated and next(_mates(rows, l, pairs), None) is None:
            return None, nodes_in
    witness, nodes = _backtrack(j, l, n, target_girth == 8, budget, nodes_in)
    if witness is not None and not has_girth_at_least(witness, target_girth):
        raise RuntimeError(f"search witness at N={n} lacks girth {target_girth}")
    return witness, nodes


def _backtrack(
    j: int, l: int, n: int, want8: bool, budget: Optional[int], nodes_in: int
) -> tuple[Optional[ShiftMatrix], int]:
    """Canonical backtracking at one N; returns (witness or None, nodes).

    Column c is built one row at a time below its fixed 0.  Row q takes
    each entry t, ascending, from the complement of the OR of mask(p, q)
    rotated by y[p] over the rows p < q already placed in the column, so
    t - y[p] misses every residue mask(p, q) forbids.  Two bounds follow
    the canonical form: row 1 stays above the previous column's entry and
    leaves room for the columns still to come, and in column 1 rows
    2..J-1 ascend.  That is the whole row-block tie-break: rows tie only
    on the all-zero column 0, and since every mask holds residue 0, each
    later column has distinct entries and breaks every tie.  Row 1 of
    column 1 is also drawn from the divisors of N only: the unit-scaling
    cut of the module docstring, which keeps the first witness.
    A node is one complete column, so one that passes the masks of all its
    row pairs.  It is counted after the budget test, and the search goes
    on to column c + 1 with the masks that column adds.  Columns come out
    in lexicographic order, so the witness is the first canonical matrix
    in column-by-column lexicographic order.
    """
    row_pairs = list(combinations(range(j), 2))  # p < q
    # below[q] pairs each row p < q with the index of mask(p, q)
    below = [[(p, row_pairs.index((p, q))) for p in range(q)] for q in range(j)]
    full = (1 << n) - 1
    # row 1 of column c leaves room for the l - 1 - c columns after it,
    # and row 1 of column 1 divides N
    room = [full >> (l - 1 - c) for c in range(l)]
    room[1] &= sum(1 << d for d in range(1, n) if n % d == 0)
    cols: list[tuple[int, ...]] = [(0,) * j]
    nodes = nodes_in

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
            free &= room[c] & (-2 << cols[-1][1])
        elif c == 1 and q >= 3:  # the row-block tie-break
            free &= -1 << y[q - 1]
        while free:
            low = free & -free
            free ^= low
            y.append(low.bit_length() - 1)
            if q + 1 < j:
                hit = fill(c, masks, y)
            else:
                if budget is not None and nodes >= budget:
                    raise BudgetError(
                        f"node budget exhausted after {nodes} nodes",
                        SearchResult(min_n=None, witness=None, nodes=nodes),
                    )
                nodes += 1
                x = tuple(y)
                if c + 1 == l:
                    return cols + [x]
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


def exists_code(
    j: int,
    l: int,
    n: int,
    target_girth: int,
    budget: Optional[int] = None,
) -> tuple[bool, Optional[ShiftMatrix]]:
    """Exhaustive (under canonical reductions) existence check at fixed N."""
    if j < 2 or l < 2:
        raise ValueError(f"need J >= 2 and L >= 2, got ({j}, {l})")
    if n < 1:
        raise ValueError(f"need N >= 1, got {n}")
    witness, _ = _exists_at_n(j, l, n, target_girth, budget, 0)
    return (witness is not None), witness


def min_lifting_factor(
    j: int,
    l: int,
    target_girth: int,
    n_max: int,
    budget: Optional[int] = None,
) -> SearchResult:
    """Smallest N <= n_max admitting a J x L matrix with girth >= target.

    Exhausts each N in turn, so the reported minimum carries nonexistence
    certificates for every smaller N.
    """
    if target_girth == 6 and l < 3:
        raise ValueError(f"girth-6 search needs L >= 3, got {l}")
    if target_girth == 8 and l < 4:
        raise ValueError(f"girth-8 search needs L >= 4, got {l}")
    if not 3 <= j <= 5:
        raise ValueError(f"J must be in [3, 5], got {j}")
    if n_max < 1:
        raise ValueError(f"need n_max >= 1, got {n_max}")
    nodes = 0
    for n in range(1, n_max + 1):  # the step's pre-checks pass over small N
        witness, nodes = _exists_at_n(j, l, n, target_girth, budget, nodes)
        if witness is not None:
            return SearchResult(min_n=n, witness=witness, nodes=nodes)
    return SearchResult(min_n=None, witness=None, nodes=nodes)


def girth6_even_L(l: int) -> ShiftMatrix:
    """Girth-6 witness at N = L+1 for even L by dropping one column.

    The canonical matrix of the doubling mapping over Z/(L+1) has girth 6;
    removing its last column keeps girth 6 because girth 8 would need
    N > 2(L-1), which L+1 cannot reach for L >= 4.
    """
    if l < 4 or l % 2:
        raise ValueError(f"L must be even and >= 4, got {l}")
    n = l + 1
    full = girth6_odd_L_explicit(n)
    trimmed = ShiftMatrix(
        entries=tuple(row[:l] for row in full.entries), lifting_factor=n
    )
    # dropping a column cannot shorten cycles, and girth 8 would need
    # N > 2(L-1) > L+1, so the girth is exactly 6
    report = girth_from_shifts(trimmed, 8)
    if report.girth != 6:
        raise RuntimeError(f"expected girth 6 at L={l}, got {report.girth}")
    return trimmed


def girth6_odd_L_explicit(l: int, h: int = 2) -> ShiftMatrix:
    """Canonical 3 x L girth-6 matrix at N = L for odd L via i -> h*i.

    h defaults to 2, the smallest valid multiplier for every odd L >= 3,
    since gcd(2, L) = gcd(1, L) = 1.
    """
    return canonical_from_mapping(product_mapping(h, l))
