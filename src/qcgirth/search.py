"""Minimal-lifting-factor search by canonical backtracking.

Search runs over canonical shift matrices: first row and column zero,
second-row entries strictly ascending (column permutation), and rows
3..J in nondecreasing lexicographic order (row-block permutation).
Every girth-6 or girth-8 matrix is equivalent to a canonical one, so
exhausting the canonical space at a given N certifies nonexistence.
Columns are assigned left to right; a new column is rejected as soon as
it closes a 4-cycle (or, for girth 8, a 6-cycle) with columns already
placed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .girth import girth_from_shifts, has_girth_at_least
from .lifting import ShiftMatrix, canonical_from_mapping
from .mappings import (
    compatible_pairs,
    enumerate_complete_mappings,
    product_mapping,
    valid_product_multipliers,
)


class SearchBudgetError(RuntimeError):
    """Node budget ran out; carries the partial, non-exhaustive result."""

    def __init__(self, partial: SearchResult):
        super().__init__(f"node budget exhausted after {partial.nodes} nodes")
        self.partial = partial


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a minimal-N search or a fixed-N existence check.

    min_n is None when no admissible matrix exists with N <= n_max;
    exhaustive marks that every N up to the reported one (or n_max) was
    fully explored, making "not found" a nonexistence certificate.
    """

    j: int
    l: int
    target_girth: int
    n_max: int
    min_n: Optional[int]
    witness: Optional[ShiftMatrix]
    nodes: int
    wall_time: float
    exhaustive: bool


def _exists_at_n(
    j: int,
    l: int,
    n: int,
    target_girth: int,
    n_max: int,
    budget: Optional[int],
    nodes_in: int,
    start: float,
) -> tuple[Optional[ShiftMatrix], int]:
    """Find one canonical J x L matrix over Z/N with girth >= target, or None.

    The one per-N step of every search: the infeasibility pre-checks, the
    complete-mapping route at N = L for J >= 4, else backtracking.  Returns
    (witness, nodes) with nodes counted on from nodes_in.  When nodes reach
    budget it raises SearchBudgetError carrying the partial result of a
    search up to n_max that began at perf_counter() time start.
    """
    if target_girth == 6 and n < l:
        return None, nodes_in  # a girth-6 row holds L distinct residues
    if target_girth == 8 and j >= 3 and n <= 2 * (l - 1):
        # rows 2 and 3 of a canonical girth-8 matrix need 2(L-1) distinct
        # nonzero residues; two-row matrices escape this bound
        return None, nodes_in
    if target_girth == 6 and n == l and j >= 4:
        return _mapping_route_at_l(j, l), nodes_in
    want8 = target_girth >= 8
    cols: list[tuple[int, ...]] = [(0,) * j]
    nodes = nodes_in

    def col_ok(c: int, new: tuple[int, ...]) -> bool:
        for b in range(c):
            old = cols[b]
            for j1 in range(j):
                for j2 in range(j1 + 1, j):
                    if (new[j1] - new[j2] - old[j1] + old[j2]) % n == 0:
                        return False
        if want8:
            for b1 in range(c):
                for b2 in range(c):
                    if b1 == b2:
                        continue
                    a, b = cols[b1], cols[b2]
                    for j1 in range(j):
                        for j2 in range(j):
                            if j2 == j1:
                                continue
                            for j3 in range(j):
                                if j3 == j1 or j3 == j2:
                                    continue
                                s = a[j1] - b[j1] + b[j2] - new[j2] + new[j3] - a[j3]
                                if s % n == 0:
                                    return False
        return True

    # eq[r] tracks whether rows 2+r and 3+r still have equal prefixes, for
    # the lexicographic tie-break between adjacent free rows
    def rec(c: int, eq: tuple[bool, ...]) -> Optional[tuple]:
        nonlocal nodes
        if c == l:
            return tuple(cols)
        lo1 = cols[c - 1][1] + 1 if c > 1 else 1
        # strictly ascending second row must leave room for later columns
        for v1 in range(lo1, n - (l - 1 - c)):
            partial: list[tuple[tuple[int, ...], tuple[bool, ...]]] = []

            # build rows 2..J-1 of this column depth-first
            def extend(prefix: tuple[int, ...], eq_now: tuple[bool, ...]) -> None:
                r = len(prefix)
                if r == j:
                    partial.append((prefix, eq_now))
                    return
                lo = 0
                if r >= 3 and eq_now[r - 3]:
                    lo = prefix[r - 1]  # keep row r-1 <= row r while tied
                for v in range(lo, n):
                    new_eq = eq_now
                    if r >= 3:
                        idx = r - 3
                        new_eq = eq_now[:idx] + (eq_now[idx] and v == prefix[r - 1],) \
                            + eq_now[idx + 1:]
                    extend(prefix + (v,), new_eq)

            extend((0, v1), eq)
            for new, eq_next in partial:
                if budget is not None and nodes >= budget:
                    raise SearchBudgetError(
                        SearchResult(
                            j=j,
                            l=l,
                            target_girth=target_girth,
                            n_max=n_max,
                            min_n=None,
                            witness=None,
                            nodes=nodes,
                            wall_time=time.perf_counter() - start,
                            exhaustive=False,
                        )
                    )
                nodes += 1
                if not col_ok(c, new):
                    continue
                cols.append(new)
                hit = rec(c + 1, eq_next)
                if hit is not None:
                    return hit
                cols.pop()
        return None

    start_eq = (True,) * max(0, j - 3)
    hit = rec(1, start_eq)
    if hit is None:
        return None, nodes
    entries = tuple(tuple(col[r] for col in hit) for r in range(j))
    return ShiftMatrix(entries=entries, lifting_factor=n), nodes


def _mapping_route_at_l(j: int, l: int) -> Optional[ShiftMatrix]:
    """Girth-6 existence at N = L for J >= 4 via pairwise complete mappings.

    Rows 3..J of a canonical girth-6 matrix at N = L are complete mappings
    that are pairwise complete mappings of each other; J = 4 needs one
    compatible pair.  Returns a witness matrix or None.
    """
    census = enumerate_complete_mappings(l)
    if j == 4:
        pairs = compatible_pairs(census)
        if not pairs:
            return None
        i, k = pairs[0]
        rows = (
            (0,) * l,
            tuple(range(l)),
            census.samples[i].images,
            census.samples[k].images,
        )
        return ShiftMatrix(entries=rows, lifting_factor=l)
    # J >= 5: every (J-2)-subset must be pairwise compatible
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
    rows = ((0,) * l, tuple(range(l))) + tuple(
        samples[idx].images for idx in clique
    )
    return ShiftMatrix(entries=rows, lifting_factor=l)


def exists_code(
    j: int,
    l: int,
    n: int,
    target_girth: int,
    budget: Optional[int] = None,
) -> tuple[bool, Optional[ShiftMatrix]]:
    """Exhaustive (under canonical reductions) existence check at fixed N."""
    if target_girth not in (6, 8):
        raise ValueError(f"target girth must be 6 or 8, got {target_girth}")
    if j < 2 or l < 2:
        raise ValueError(f"need J >= 2 and L >= 2, got ({j}, {l})")
    witness, _ = _exists_at_n(
        j, l, n, target_girth, n, budget, 0, time.perf_counter()
    )
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
    if target_girth not in (6, 8):
        raise ValueError(f"target girth must be 6 or 8, got {target_girth}")
    if target_girth == 6 and l < 3:
        raise ValueError(f"girth-6 search needs L >= 3, got {l}")
    if target_girth == 8 and l < 4:
        raise ValueError(f"girth-8 search needs L >= 4, got {l}")
    if not 3 <= j <= 5:
        raise ValueError(f"J must be in [3, 5], got {j}")
    start = time.perf_counter()
    nodes = 0
    min_n = witness = None
    for n in range(1, n_max + 1):  # the step's pre-checks pass over small N
        witness, nodes = _exists_at_n(
            j, l, n, target_girth, n_max, budget, nodes, start
        )
        if witness is not None:
            if not has_girth_at_least(witness, target_girth):
                raise RuntimeError(
                    f"search witness at N={n} lacks girth {target_girth}"
                )
            min_n = n
            break
    return SearchResult(
        j=j,
        l=l,
        target_girth=target_girth,
        n_max=n_max,
        min_n=min_n,
        witness=witness,
        nodes=nodes,
        wall_time=time.perf_counter() - start,
        exhaustive=True,
    )


def girth6_even_L(l: int) -> ShiftMatrix:
    """Girth-6 witness at N = L+1 for even L by dropping one column.

    The canonical matrix of the doubling mapping over Z/(L+1) has girth 6;
    removing its last column keeps girth 6 because girth 8 would need
    N > 2(L-1), which L+1 cannot reach for L >= 4.
    """
    if l < 4 or l % 2:
        raise ValueError(f"L must be even and >= 4, got {l}")
    n = l + 1
    full = canonical_from_mapping(product_mapping(2, n))
    trimmed = ShiftMatrix(
        entries=tuple(row[:l] for row in full.entries), lifting_factor=n
    )
    # dropping a column cannot shorten cycles, and girth 8 would need
    # N > 2(L-1) > L+1, so the girth is exactly 6
    report = girth_from_shifts(trimmed, 8)
    if report.girth != 6:
        raise RuntimeError(f"expected girth 6 at L={l}, got {report.girth}")
    return trimmed


def girth6_odd_L_explicit(l: int, h: Optional[int] = None) -> ShiftMatrix:
    """Canonical 3 x L girth-6 matrix at N = L for odd L via i -> h*i.

    h defaults to the smallest valid multiplier, which is 2 for every odd
    L >= 3.
    """
    if l < 3 or l % 2 == 0:
        raise ValueError(f"L must be odd and >= 3, got {l}")
    if h is None:
        multipliers = valid_product_multipliers(l)
        if not multipliers:
            raise ValueError(f"no valid multiplier exists for L={l}")
        h = multipliers[0]
    return canonical_from_mapping(product_mapping(h, l))
