"""Difference-table analysis for girth-8 liftings of 3 x L complete protographs.

For a canonical 3 x L shift matrix (zero first row and column) write row 2
as (0, x_1, ..., x_{L'}) and row 3 as (0, x_{L'+1}, ..., x_{2L'}) with
L' = L - 1.  The L' x L' table of differences entry(r, c) =
x_{L'+r} - x_c mod N, with diagonal d_i = entry(i, i), captures every
4- and 6-cycle constraint: the lifting has girth >= 8 exactly when the
table passes five conditions (distinct nonzero headers; no diagonal equal
to a negated column header, a row header, or an off-diagonal entry;
distinct diagonal).

Viewing table rows as sets A_i, any valid table in which some pair
intersects in 0 or L'-1 elements forces N >= 3L'-1.  The pair structure
behind the L'-1 case is classified here: the union A_i plus the other
diagonal is either a single arithmetic chain with difference
delta = x_{L'+j} - x_{L'+i}, or a shorter chain plus blocks closed under
adding delta.  The closed-block shape yields the stronger arithmetic
bound N >= L' + 2 + k^2 * ell checked by partition_case_bound.

verify_girth8_bound sweeps every canonical table at each N.  Row headers
are placed one row at a time in ascending order, and three bitmasks over
Z/N (the row headers, the diagonals, and the values a new diagonal may
not take) reject a partial table as soon as its headers break one of the
five conditions.  Every table that survives still goes through
validate_g8_table.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from itertools import combinations
from typing import Optional

from .lifting import ShiftMatrix
from .mappings import _map_branches, _record


@_record
class Girth8Table:
    """L' x L' difference table with its headers and diagonal."""

    modulus: int
    col_headers: tuple[int, ...]
    row_headers: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.modulus
        if n < 1:
            raise ValueError(f"modulus must be >= 1, got {n}")
        if len(self.col_headers) != len(self.row_headers):
            raise ValueError("header lengths differ")
        if len(self.col_headers) < 2:
            raise ValueError("table needs L' >= 2")
        object.__setattr__(
            self, "col_headers", tuple(v % n for v in self.col_headers)
        )
        object.__setattr__(
            self, "row_headers", tuple(v % n for v in self.row_headers)
        )

    @property
    def l_prime(self) -> int:
        return len(self.col_headers)

    def entry(self, r: int, c: int) -> int:
        return (self.row_headers[r] - self.col_headers[c]) % self.modulus

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.entry(i, i) for i in range(self.l_prime))


@_record
class ValidityVerdict:
    """Outcome of the five ordered validity conditions.

    failed_condition is the 1-based index of the first failed condition;
    witness carries the indices (and values) demonstrating the failure.
    """

    valid: bool
    failed_condition: Optional[int] = None
    witness: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.valid and self.failed_condition is not None:
            raise ValueError("valid verdicts carry no failed condition")


class StructureKind(enum.Enum):
    CHAIN = "chain"
    CHAIN_AND_BLOCKS = "chain-and-blocks"
    UNRECOGNIZED = "unrecognized"


@_record
class CaseClassification:
    """Arrangement of A_i united with the partner diagonal element.

    CHAIN: a single delta-increment chain of L'+1 elements from d_i to d_j.
    CHAIN_AND_BLOCKS: a shorter chain plus block_count blocks of size
    block_size, each a coset of the subgroup generated by delta (so
    block_size * delta == 0 mod N).
    """

    kind: StructureKind
    delta: int
    chain: Optional[tuple[int, ...]] = None
    blocks: Optional[tuple[tuple[int, ...], ...]] = None
    block_size: Optional[int] = None
    block_count: Optional[int] = None


def _require_canonical_3_row(p: ShiftMatrix) -> None:
    """Reject all but canonical 3 x L shift matrices with L >= 4."""
    if p.rows != 3:
        raise ValueError(f"need a 3-row shift matrix, got {p.rows} rows")
    if p.cols < 4:
        raise ValueError(f"need L >= 4 columns, got {p.cols}")
    if not p.is_canonical():
        raise ValueError("shift matrix is not canonical; normalize() it first")


def build_g8_table(p: ShiftMatrix) -> Girth8Table:
    """Difference table of a canonical 3 x L shift matrix, L >= 4."""
    _require_canonical_3_row(p)
    return Girth8Table(
        modulus=p.lifting_factor,
        col_headers=p.entries[1][1:],
        row_headers=p.entries[2][1:],
    )


def validate_g8_table(t: Girth8Table) -> ValidityVerdict:
    """Check the five validity conditions in order; first failure wins.

    1 headers are 2L' distinct nonzero elements; 2 no diagonal element
    equals a negated column header; 3 none equals a row header; 4 none
    equals an off-diagonal entry; 5 diagonal elements are distinct.
    """
    n = t.modulus
    lp = t.l_prime
    headers = t.col_headers + t.row_headers
    seen: dict[int, int] = {}
    for idx, v in enumerate(headers):
        if v == 0 or v in seen:
            prev = seen.get(v, idx)
            return ValidityVerdict(False, 1, (prev, idx, v))
        seen[v] = idx
    diag = t.diagonal
    neg_cols = {(-x) % n: c for c, x in enumerate(t.col_headers)}
    for i, d in enumerate(diag):
        if d in neg_cols:
            return ValidityVerdict(False, 2, (i, neg_cols[d], d))
    row_pos = {x: r for r, x in enumerate(t.row_headers)}
    for i, d in enumerate(diag):
        if d in row_pos:
            return ValidityVerdict(False, 3, (i, row_pos[d], d))
    diag_pos = {d: i for i, d in enumerate(diag)}
    for r in range(lp):
        for c in range(lp):
            if r == c:
                continue
            e = t.entry(r, c)
            if e in diag_pos:
                return ValidityVerdict(False, 4, (diag_pos[e], r, c, e))
    if len(diag_pos) != lp:
        for i in range(lp):
            for j in range(i + 1, lp):
                if diag[i] == diag[j]:
                    return ValidityVerdict(False, 5, (i, j, diag[i]))
    return ValidityVerdict(True)


def check_girth8_conditions(p: ShiftMatrix) -> ValidityVerdict:
    """The girth >= 8 test evaluated directly on the x_i of a canonical P.

    Shares its verdict shape with validate_g8_table but none of its code:
    conditions are read as difference constraints over the 2L' header
    values x_1..x_{2L'}.  Agrees with the table route on every input.
    """
    _require_canonical_3_row(p)
    n = p.lifting_factor
    lp = p.cols - 1
    x = (None,) + p.entries[1][1:] + p.entries[2][1:]  # x[1..2L'], 1-based

    # condition 1: all x_i distinct and nonzero
    for i in range(1, 2 * lp + 1):
        if x[i] == 0:
            return ValidityVerdict(False, 1, (i, i, 0))
        for j in range(i + 1, 2 * lp + 1):
            if x[i] == x[j]:
                return ValidityVerdict(False, 1, (i, j, x[i]))
    # condition 2: x_{L'+i} - x_i != -x_k for every column header x_k, k != i
    for i in range(1, lp + 1):
        d = (x[lp + i] - x[i]) % n
        for k in range(1, lp + 1):
            if k != i and d == (-x[k]) % n:
                return ValidityVerdict(False, 2, (i - 1, k - 1, d))
    # condition 3: x_{L'+i} - x_i != x_k for every row header x_k, k != L'+i
    for i in range(1, lp + 1):
        d = (x[lp + i] - x[i]) % n
        for k in range(lp + 1, 2 * lp + 1):
            if k != lp + i and d == x[k]:
                return ValidityVerdict(False, 3, (i - 1, k - lp - 1, d))
    # condition 4: x_{L'+i} - x_i != x_{L'+r} - x_c for r != i, c != i, r != c
    for i in range(1, lp + 1):
        d = (x[lp + i] - x[i]) % n
        for r in range(1, lp + 1):
            if r == i:
                continue
            for c in range(1, lp + 1):
                if c == i or c == r:
                    continue
                if d == (x[lp + r] - x[c]) % n:
                    return ValidityVerdict(False, 4, (i - 1, r - 1, c - 1, d))
    # condition 5: the L' diagonal differences are pairwise distinct
    for i in range(1, lp + 1):
        for j in range(i + 1, lp + 1):
            if (x[lp + i] - x[i]) % n == (x[lp + j] - x[j]) % n:
                return ValidityVerdict(
                    False, 5, (i - 1, j - 1, (x[lp + i] - x[i]) % n)
                )
    return ValidityVerdict(True)


def row_sets(t: Girth8Table) -> list[frozenset[int]]:
    """Table rows viewed as element sets A_1..A_{L'} (0-indexed list)."""
    lp = t.l_prime
    return [
        frozenset(t.entry(r, c) for c in range(lp)) for r in range(lp)
    ]


def extreme_intersection_pair(
    t: Girth8Table,
) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """First row pair (i, j) whose set intersection has size 0 or L'-1.

    Returns (found, (i, j, size)); requires a valid table.  Any valid
    table admitting such a pair forces N >= 3L'-1.
    """
    if not validate_g8_table(t).valid:
        raise ValueError("intersection hypothesis is defined on valid tables only")
    sets = row_sets(t)
    lp = t.l_prime
    for i in range(lp):
        for j in range(i + 1, lp):
            size = len(sets[i] & sets[j])
            if size == 0 or size == lp - 1:
                return True, (i, j, size)
    return False, None


def classify_structure(t: Girth8Table, i: int, j: int) -> CaseClassification:
    """Arrangement of A_i united with d_j for a pair meeting |A_i & A_j| = L'-1.

    Rows are 0-indexed.  With delta = row_header[j] - row_header[i], walks
    the chain d_i, d_i + delta, ... until d_j; leftover elements must fall
    into blocks closed under adding delta (cosets of <delta>), else the
    arrangement is UNRECOGNIZED.
    """
    if not validate_g8_table(t).valid:
        raise ValueError("classification is defined on valid tables only")
    lp = t.l_prime
    if not (0 <= i < lp and 0 <= j < lp and i != j):
        raise ValueError(f"bad row pair ({i}, {j})")
    sets = row_sets(t)
    if len(sets[i] & sets[j]) != lp - 1:
        raise ValueError("pair must intersect in exactly L'-1 elements")
    n = t.modulus
    delta = (t.row_headers[j] - t.row_headers[i]) % n
    d_i = t.entry(i, i)
    d_j = t.entry(j, j)
    union = set(sets[i]) | {d_j}

    chain = [d_i]
    cur = d_i
    for _ in range(lp + 1):
        if cur == d_j:
            break
        cur = (cur + delta) % n
        if cur not in union:
            return CaseClassification(kind=StructureKind.UNRECOGNIZED, delta=delta)
        chain.append(cur)
    else:
        return CaseClassification(kind=StructureKind.UNRECOGNIZED, delta=delta)

    rest = union - set(chain)
    if not rest:
        return CaseClassification(
            kind=StructureKind.CHAIN, delta=delta, chain=tuple(chain)
        )
    k = n // math.gcd(delta, n)  # block size = order of delta, so k*delta == 0
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for v in sorted(rest):
        if v in seen:
            continue
        coset = {(v + step * delta) % n for step in range(k)}
        if not coset <= rest:
            return CaseClassification(kind=StructureKind.UNRECOGNIZED, delta=delta)
        seen |= coset
        blocks.append(tuple(sorted(coset)))
    return CaseClassification(
        kind=StructureKind.CHAIN_AND_BLOCKS,
        delta=delta,
        chain=tuple(chain),
        blocks=tuple(blocks),
        block_size=k,
        block_count=len(blocks),
    )


def partition_case_bound(k: int, ell: int, l_prime: int) -> int:
    """Lower bound N >= L' + 2 + k^2 * ell for the chain-and-blocks shape.

    Preconditions: k >= 3, ell >= 1, l_prime >= 5, and the chain fits,
    L' - k*ell + 1 <= k.
    """
    if k < 3:
        raise ValueError(f"block size must be >= 3, got {k}")
    if ell < 1:
        raise ValueError(f"block count must be >= 1, got {ell}")
    if l_prime < 5:
        raise ValueError(f"blocks require L' >= 5, got {l_prime}")
    if l_prime - k * ell + 1 > k:
        raise ValueError(
            f"chain of {l_prime - k * ell + 1} elements exceeds block size {k}"
        )
    return l_prime + 2 + k * k * ell


def verify_partition_bound(k: int, ell: int, l_prime: int) -> tuple[int, str]:
    """partition_case_bound plus the two-range argument that it dominates 3L'-1.

    Splits on k relative to sqrt(2L'-3): for large k a single block already
    pushes N past 3L'-1; for small k the chain-fit constraint forces
    enough blocks.  Returns (bound, range_label) and raises RuntimeError if
    the bound ever fell short.
    """
    bound = partition_case_bound(k, ell, l_prime)
    threshold = math.isqrt(2 * l_prime - 3)
    label = "large-k" if k * k >= 2 * l_prime - 3 else "small-k"
    if bound < 3 * l_prime - 1:
        raise RuntimeError(
            f"bound {bound} < 3L'-1 = {3 * l_prime - 1} at (k={k}, ell={ell}, "
            f"L'={l_prime}, range {label}, sqrt threshold ~{threshold})"
        )
    return bound, label


@_record
class Girth8BoundRow:
    """Per-N sweep summary."""

    n: int
    valid_tables: int
    hypothesis_tables: int
    violations: tuple[tuple[int, ...], ...]  # (N, col headers..., row headers...)


@_record
class Girth8BoundReport:
    """Exhaustive sweep result over N for one table size.

    A violation is a valid table meeting the intersection hypothesis at
    N < 3L'-1; below_bound_valid counts valid tables (hypothesis or not)
    at N < 3L'-1, which probes the unproven unconstrained bound and is
    reported rather than asserted.
    """

    l_prime: int
    n_min: int
    n_max: int
    bound: int
    rows: tuple[Girth8BoundRow, ...]

    @property
    def total_violations(self) -> int:
        return sum(len(r.violations) for r in self.rows)

    @property
    def below_bound_valid(self) -> int:
        return sum(r.valid_tables for r in self.rows if r.n < self.bound)


def _sweep_one_n(
    l_prime: int, branch: tuple[int, int]
) -> tuple[int, int, int, list[tuple[int, ...]]]:
    """Enumerate the valid canonical tables at one N whose smallest column
    header is first_header, for branch = (N, first_header): ascending
    distinct nonzero column headers (column-permutation symmetry), all
    ordered row headers.

    Row headers are placed by backtracking over rows k = 0..L'-1, each
    tried from the free nonzero residues in ascending order, so tables
    come out in the order permutations(rest, L') gives.  Three bitmasks
    over Z/N, passed down so that nothing is undone, reject a prefix as
    soon as its headers break a condition: used holds the row headers
    (condition 1), diags the diagonals, which a new row header (3) or
    off-diagonal entry (4) may not hit, and diag_forbid the values a new
    diagonal may not take (negated column headers, placed row headers,
    off-diagonal entries and diagonals: 2 to 5).  The column headers are
    fixed before any row is placed, so each condition is decided when its
    last header is placed and no valid table is pruned.  Each survivor
    still goes through validate_g8_table (extreme_intersection_pair runs
    it and raises on an invalid table).

    Returns (N, valid tables, hypothesis tables, violations).
    """
    n, first_header = branch
    bound = 3 * l_prime - 1
    full = (1 << n) - 1
    valid = 0
    hyp = 0
    violations: list[tuple[int, ...]] = []
    rows_h = [0] * l_prime

    def rec(k: int, used: int, diags: int, diag_forbid: int) -> None:
        nonlocal valid, hyp
        if k == l_prime:
            t = Girth8Table(modulus=n, col_headers=cols, row_headers=tuple(rows_h))
            found, _ = extreme_intersection_pair(t)
            valid += 1
            if found:
                hyp += 1
                if n < bound:
                    violations.append((n,) + cols + t.row_headers)
            return
        c_k = cols[k]
        neg = neg_others[k]
        taken = used | diags
        for r in rest:
            if taken >> r & 1:
                continue
            d = (r - c_k) % n
            if diag_forbid >> d & 1:
                continue
            # row k's off-diagonal entries r - c (c != k): neg rotated by r
            off = ((neg << r) | (neg >> (n - r))) & full
            if diags & off:
                continue
            rows_h[k] = r
            rec(k + 1, used | 1 << r, diags | 1 << d,
                diag_forbid | off | 1 << r | 1 << d)

    for tail in combinations(range(first_header + 1, n), l_prime - 1):
        cols = (first_header,) + tail
        rest = [v for v in range(1, n) if v not in cols]
        neg_cols = [1 << (-c % n) for c in cols]
        all_neg = sum(neg_cols)
        neg_others = [all_neg ^ b for b in neg_cols]
        rec(0, 0, 0, all_neg)
    return n, valid, hyp, violations


def verify_girth8_bound(
    l_prime: int,
    n_max: int,
    n_min: Optional[int] = None,
    workers: int = 1,
) -> Girth8BoundReport:
    """Exhaustively sweep canonical tables for N in [n_min, n_max].

    Defaults n_min to L'+1 (below that no header set can even be chosen).
    Every valid table meeting the intersection hypothesis must sit at
    N >= 3L'-1; violations are collected, not raised.  The per-N rows also
    expose the unconstrained valid-table counts for the conjecture scan.
    The sweep runs as one branch per (N, smallest column header); workers
    fans the branches out over processes, and the merge in ascending order
    makes the report identical for every worker count.
    """
    if l_prime < 2:
        raise ValueError(f"need L' >= 2, got {l_prime}")
    if n_min is None:
        n_min = l_prime + 1
    if n_min < 1:
        raise ValueError(f"need N >= 1, got n_min {n_min}")
    if n_min > n_max:
        raise ValueError(f"empty N range [{n_min}, {n_max}]")
    ns = range(n_min, n_max + 1)
    totals = {n: (0, 0, []) for n in ns}
    branches = [(n, first) for n in ns for first in range(1, n - l_prime + 1)]
    for n, valid, hyp, violations in _map_branches(
        partial(_sweep_one_n, l_prime), branches, workers
    ):
        t_valid, t_hyp, t_violations = totals[n]
        totals[n] = (t_valid + valid, t_hyp + hyp, t_violations + violations)
    return Girth8BoundReport(
        l_prime=l_prime,
        n_min=n_min,
        n_max=n_max,
        bound=3 * l_prime - 1,
        rows=tuple(
            Girth8BoundRow(n, valid, hyp, tuple(violations))
            for n, (valid, hyp, violations) in totals.items()
        ),
    )
