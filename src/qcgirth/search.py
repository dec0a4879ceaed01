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

Counting rows and columns from 0, write x1 for column 1's row-1 entry,
the smallest nonzero entry of row 1.  The search prunes by a lex-leader
test: it drops a prefix when every completion of it has an equivalent
canonical matrix that is lexicographically smaller.  The first canonical
witness is never dropped, so every N is still exhausted and every
minimum and witness stays the same:

- The equivalences.  Fossorier's condition is an alternating sum of
  shifts, so it is kept by adding a constant to a row or a column, by
  multiplying every entry by a unit u of Z/N, and by permuting rows or
  columns.  Take a matrix M with no 4-cycle, a column w, ordered rows
  r0 != r1 and a unit u.  Let M'[r][c] = u*(M[r][c] - M[r][w] - M[r0][c]
  + M[r0][w]), put row r0 first and row r1 second, the columns in order
  of row r1 (column w first) and the other rows in order of the new
  column 1.  No 4-cycle makes row r1 and each column of M' distinct
  residues, so the result T is canonical, with the girth of M.
- The order.  Columns are compared from column 1 on, and the search
  builds canonical matrices in that order, so its first witness W is the
  least canonical witness.  Every T(W) is a canonical witness too, so
  T(W) >= W, and a rule that drops only matrices M with some T(M) < M
  never drops W.
- Write a = y - w for a column y != w of M, and d = a[r1] - a[r0], which
  is row r1 of M' at column y before the scaling.  T's x1 is the least
  u*d over the columns y != w.
- The gcd half.  With g = gcd(d, N), d/g is a unit mod N/g, and every unit
  mod N/g lifts to a unit mod N, so some unit u has u*d = g.  If g < x1,
  T has a smaller x1 than M, so T(M) < M for every completion of any
  prefix that holds w and y.  So y[r1] - y[r0] must miss w[r1] - w[r0] + B
  for every earlier column w, where B = {d : gcd(d, N) < x1}.  B = -B,
  so one rule serves both orders of a row pair.  B is fixed once column 1
  is placed, and empty when x1 = 1, as it is at every prime N.  Then
  mask(p, q) gains B itself for column 0 and B rotated by w[q] - w[p] as
  each column w is placed, so no column after column 1 breaks the rule.
  The unit-scaling cut is the case w = column 0, y = column 1,
  (r0, r1) = (0, 1): then d = x1, so x1 <= gcd(x1, N), that is, x1
  divides N, and column 1's row-1 entry is drawn from the divisors of N
  only.
- The column-1 half.  If g = x1, each unit u with u*d = x1 gives a T
  whose x1 is at most x1.  If it is smaller, T(M) < M.  If it is equal,
  T's column 1 is the image of y: 0, x1, then the values u*(a[r] - a[r0])
  of the other rows r, sorted.  When that sorted tail is lexicographically
  below M's column 1 in rows 2..J-1, T(M) < M again, whatever columns
  follow.  Both tails ascend strictly, since two equal entries in one
  column of M or M' close a 4-cycle.
- The least entry.  The tail is below when its least value is below M's
  column-1 entry in row 2.  For J = 3 that is the whole comparison.  Once
  column 1 is placed, one table per d lists the e = a[r] - a[r0] that so
  prune: every e when gcd(d, N) < x1 (column 1 meets the gcd half against
  column 0 here), and the e with u*e below column 1's row-2 entry for some
  unit u with u*d = x1 otherwise.
- The tie.  For J >= 4 the least value may equal that row-2 entry.  A
  second table per d lists the e with u*e equal to it for some unit u with
  u*d = x1, and only a hit there costs the sorted comparison, made for
  each such u.  A tied tail that is below first differs from column 1's at
  some row k >= 3, where it holds a value strictly between column 1's
  entries in rows k-1 and k.  No value in B occurs in a tail, since the
  pair (r0, r) would meet the gcd half.  So when no residue outside B lies
  strictly between two consecutive entries of column 1's rows 2..J-1, a
  tie never prunes and the second table is not built: at N = L, column 1
  (0, 1, 2, 3, ...) pays nothing for it.
- The lookup.  Each complete column y is looked up against each placed
  column w, for each (r0, r1) and each other row r.  Making y the zero
  column instead negates a and u, which gives the same candidate, so one
  orientation is enough.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Optional

from .girth import girth_from_shifts, has_girth_at_least
from .lifting import ShiftMatrix, canonical_from_mapping
# neither census name is called here: both stay importable from search only
# for the hooks of perfbench's traced run (--trace 1), which wrap them here
from .mappings import (
    BudgetError,
    _record,
    compatible_pairs,  # noqa: F401
    enumerate_complete_mappings,  # noqa: F401
    product_mapping,
)

# the tie table of the lex-leader test: looks, lifts and column 1's tail
Ties = tuple[list[int], list[list[int]], list[int]]


@_record
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
    infeasibility pre-checks, then backtracking, and the witness check by
    the shift oracle.  Every witness comes from _backtrack, so it is
    counted in the nodes and bounded by the budget.  Returns (witness,
    nodes) with nodes counted on from nodes_in, and raises BudgetError
    when nodes reach budget.

    At N = L and J >= 3, row 2 of a canonical girth-6 matrix is 0..L-1,
    so row 3 is a complete mapping of Z/L.  For even L none exists (Hall
    and Paige, 1955): the differences p(i) - i of a complete mapping sum
    to 0 mod L, while a permutation of Z/L sums to L/2.  So even N = L is
    ruled out before backtracking, at J >= 4 too.  Odd N = L goes straight
    to backtracking: a census of Z/L with a scan for mates only ever
    decided L = 3 and 9, and its witness cap cuts it short from L = 15 on.
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
    later column has distinct entries and breaks every tie.  The
    lex-leader test of the module docstring keeps the first witness: row 1
    of column 1 is drawn from the divisors of N only, the masks of every
    later column hold the gcd half, and each complete column is looked up
    in the tables that column 1 fixes.
    A node is one complete column, so one that passes the masks of all its
    row pairs.  It is counted after the budget test; unless the tables
    prune it, the search goes on to column c + 1 with the masks that
    column adds.  Columns come out in lexicographic order, so the witness
    is the first canonical matrix in column-by-column lexicographic order.
    """
    row_pairs = list(combinations(range(j), 2))  # p < q
    # below[q] pairs each row p < q with the index of mask(p, q)
    below = [[(p, row_pairs.index((p, q))) for p in range(q)] for q in range(j)]
    # the ordered row pairs (r0, r1) of the column-1 half, with their other rows
    orders = [
        (r0, r1, [r for r in range(j) if r != r0 and r != r1])
        for r0 in range(j)
        for r1 in range(j)
        if r0 != r1
    ]
    full = (1 << n) - 1
    # per x1 | N: gaps[x1] is the set B of the gcd half, and forbids[x1][s]
    # the residues s + d with d = 0 (the 4-cycle) or d in B
    gaps = {
        x1: sum(1 << d for d in range(1, n) if gcd(d, n) < x1)
        for x1 in range(1, n)
        if n % x1 == 0
    }
    # row 1 of column c leaves room for the l - 1 - c columns after it,
    # and row 1 of column 1 divides N
    room = [full >> (l - 1 - c) for c in range(l)]
    room[1] &= sum(1 << x1 for x1 in gaps)
    forbids = {
        x1: [((b | 1) << s | (b | 1) >> (n - s)) & full for s in range(n)]
        for x1, b in gaps.items()
    }
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    cols: list[tuple[int, ...]] = [(0,) * j]
    nodes = nodes_in
    # all set as column 1 is placed: forbid = forbids[x1], and the lex-leader
    # tables, beats (None when it prunes nothing) and ties (None when no tie
    # can prune)
    forbid: list[int] = []
    beats: Optional[list[int]] = None
    ties: Optional[Ties] = None

    def tables(col1: tuple[int, ...]) -> tuple[Optional[list[int]], Optional[Ties]]:
        # beats[d] holds the e = a[r] - a[r0] that prune with d = a[r1] - a[r0]:
        # every e when gcd(d, N) < x1, and when gcd(d, N) = x1 the e with
        # u*e < col1[2] for a unit u with u*d = x1.  Values u*e of 0 or x1
        # close 4-cycles, and one in B prunes through the pair (r0, r), so
        # only the other values below col1[2] are listed.  ties is (looks,
        # lifts, col1[2:]): looks[d] adds to beats[d] the e with u*e = col1[2],
        # and lifts[d] lists the units u with u*d = x1.  It is None unless a
        # residue outside B lies strictly between two consecutive entries of
        # col1[2:]
        if j < 3:
            return None, None
        x1, top = col1[1], col1[2]
        gap = gaps[x1]
        values = [v for v in range(1, top) if v != x1 and not gap >> v & 1]
        between = any(
            not gap >> v & 1
            for lo, hi in zip(col1[2:], col1[3:])
            for v in range(lo + 1, hi)
        )
        if not (gap or values or between):
            return None, None
        out = [full if gap >> d & 1 else 0 for d in range(n)]
        for w in units:  # w = 1/u, so d = w*x1 and e = w*v
            out[w * x1 % n] |= sum(1 << (w * v % n) for v in values)
        if not between:
            return out, None
        looks = out[:]
        lifts: list[list[int]] = [[] for _ in range(n)]
        for w in units:
            looks[w * x1 % n] |= 1 << (w * top % n)
            lifts[w * x1 % n].append(pow(w, -1, n))
        return out, (looks, lifts, list(col1[2:]))

    def beaten(x: tuple[int, ...]) -> bool:
        # is there a placed column w and ordered rows (r0, r1) whose
        # equivalent canonical matrix has a smaller column 1?  a = x - w
        looks, lifts, tail = ties or (beats, [], [])
        for w in cols:
            a = [xr - wr for xr, wr in zip(x, w)]
            for r0, r1, rest in orders:
                d = (a[r1] - a[r0]) % n
                b = looks[d]
                if b:
                    for r in rest:
                        e = (a[r] - a[r0]) % n
                        if b >> e & 1:
                            if beats[d] >> e & 1:
                                return True
                            # a tie: compare the sorted tails, one per unit.
                            # A later hit in beats[d] would make some tail
                            # below too, so this order of rows is done
                            es = [(a[s] - a[r0]) % n for s in rest]
                            for u in lifts[d]:
                                if sorted(u * v % n for v in es) < tail:
                                    return True
                            break
        return False

    def place(masks: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, ...]:
        # the residues of y[q] - y[p] that column x forbids to later columns
        # y, on top of what the placed columns (cols, without x) forbid
        out = []
        for m, (p, q) in zip(masks, row_pairs):
            # 4-cycle on columns x, y, and the gcd half
            m |= forbid[(x[q] - x[p]) % n]
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
        nonlocal nodes, forbid, beats, ties
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
                if c == 1:
                    # x1 fixes B and the tables; the masks so far are column
                    # 0's, which forbid forbid[0], that is 0 and B
                    forbid = forbids[x[1]]
                    beats, ties = tables(x)
                    masks = (forbid[0],) * len(row_pairs)
                if beats is not None and beaten(x):
                    hit = None
                else:
                    next_masks = place(masks, x)
                    cols.append(x)
                    hit = fill(c + 1, next_masks, [0])
                    cols.pop()
            y.pop()
            if hit is not None:
                return hit
        return None

    # column 0 is all zeros, so it forbids difference 0 on every row pair
    try:
        hit = fill(1, (1,) * len(row_pairs), [0])
    finally:
        # fill reaches itself through its closure cell; clearing the cell
        # frees the closure without the cycle collector
        del fill
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
