"""Tanner-graph girth by two independent methods, plus 4-cycle counting.

girth_bfs works on the lifted binary matrix and knows nothing about the
quasi-cyclic structure.  It runs a breadth-first search from every
vertex, level by level (Itai & Rodeh, SIAM J. Comput. 1978).  The Tanner
graph is bipartite, so a neighbour of a level-d vertex lies on level
d - 1 or d + 1.  Expanding level d closes a cycle when it reaches some
vertex x of level d + 1 twice: the two root-x paths form a closed walk
of length 2d + 2, which holds a cycle of at most that length.  A root's
search stops after the first level that closes, or before a level that
could only close cycles longer than the shortest found so far (cap
until one is found).

When the girth is g = 2d + 2, two distinct shortest paths of length g/2
from a root s to x share no vertex but s and x, since otherwise they
would close a shorter cycle.  So they form a g-cycle through s with x as
its antipode, and each g-cycle through s is split this way by exactly
one antipode.  The roots whose search closes at g are therefore exactly
the vertices on a shortest cycle, and the g-cycles through s number
sum_x C(sigma(x), 2), where x runs over level g/2 and sigma(x) counts
the shortest s-x paths (Halford & Chugg, IEEE Trans. IT 2006).  Summed
over every root, this counts each g-cycle once per vertex on it, g times
in all.  The witness is the first cycle a canonical DFS meets from the
smallest such root.

girth_from_shifts never lifts: a length-2m cycle exists iff there are
row indices j_0..j_{m-1} and column indices l_0..l_{m-1}, cyclically
adjacent-distinct, whose alternating shift sum

    sum_t (P[j_t][l_t] - P[j_t][l_{t+1 mod m}])  ==  0  (mod N)

vanishes (Fossorier, IEEE Trans. IT 2004).  Each solution tuple is a
rooted traversal of a lifted cycle; a cycle of length 2m lifts N ways and
is traversed from 2m rooted orientations, so distinct cycles = tuples *
N / (2m).  The two methods share no code and serve as oracles for each
other.

The shift oracle solves the condition meet-in-the-middle.  Regrouped by
column, the sum is sum_t D_t(l_t) with D_t(l) = P[j_t][l] - P[j_{t-1}][l]
(indices mod m).  For a fixed row sequence it splits at h = ceil(m/2)
into two adjacent-distinct column walks, l_0..l_{h-1} and l_h..l_{m-1},
each with a residue sum; a solution is a pair of halves whose sums add
to 0 with l_{h-1} != l_h and l_{m-1} != l_0.  The count comes from four
first-half tables, by sum s, by (l_0, s), by (l_{h-1}, s) and by
(l_0, l_{h-1}, s): each second half adds the first halves of matching
sum, less those equal at l_h or at l_{m-1}, plus those equal at both
(inclusion-exclusion).  A length then costs O(L^ceil(m/2)) per row
sequence instead of O(L^m).

Row sequences are taken in lexicographic order.  Until one has a
solution only an existence join runs: first halves in lexicographic
order against second halves indexed by the sum that closes them, also
in lexicographic order.  Its first hit is therefore the lexicographically
first (rows, columns) solution, the tuple the witness is lifted from,
which is the first tuple a full enumeration meets.  Counting starts at
that row sequence, since none before it has a solution, so each length
takes one pass, and lengths without cycles build no count tables.
"""

from __future__ import annotations

from functools import cache
from typing import Optional

from .lifting import GirthReport, ParityCheckMatrix, ShiftMatrix


def _adjacency(h: ParityCheckMatrix) -> list[list[int]]:
    """Single vertex space: checks 0..m-1, then variables m..m+n-1."""
    m = h.n_rows
    adj: list[list[int]] = [[] for _ in range(m + h.n_cols)]
    for r, c in h.adjacency:
        adj[r].append(m + c)
        adj[m + c].append(r)
    for lst in adj:
        lst.sort()
    return adj


def _label(v: int, n_checks: int) -> str:
    return f"c{v}" if v < n_checks else f"v{v - n_checks}"


def girth_bfs(h: ParityCheckMatrix, cap: int = 12) -> GirthReport:
    """Exact girth if <= cap via BFS from every node, else infinite.

    Counts distinct shortest cycles as edge sets from shortest-path
    counts and returns one witness (see the module docstring).
    """
    if cap < 4 or cap % 2:
        raise ValueError(f"cap must be even and >= 4, got {cap}")
    adj = _adjacency(h)
    girth: Optional[int] = None
    first = -1  # smallest vertex on a cycle of length girth
    pairs = 0  # rooted shortest cycles: each cycle once per vertex on it
    for root in range(len(adj)):
        found = _root_cycles(adj, root, cap if girth is None else girth)
        if found is None:
            continue
        length, through = found
        if girth is None or length < girth:
            girth, first, pairs = length, root, 0
        pairs += through
    if girth is None:
        return GirthReport(girth=None, shortest_cycle_count=0, cap=cap, method="bfs")
    if pairs % girth:
        raise RuntimeError(f"{pairs} rooted cycles do not split into {girth}-cycles")
    return GirthReport(
        girth=girth,
        shortest_cycle_count=pairs // girth,
        cap=cap,
        method="bfs",
        witness=_orient_witness(_first_cycle(adj, girth, first), h.n_rows),
    )


def _root_cycles(
    adj: list[list[int]], root: int, bound: int
) -> Optional[tuple[int, int]]:
    """(2d + 2, pairs) for the first level d whose expansion from root
    reaches a vertex of level d + 1 twice, if 2d + 2 <= bound, else None.

    sigma(x) counts the shortest paths from root to x.  The closing level
    is expanded to the end, and pairs is the sum of C(sigma(x), 2) over
    the vertices x of level d + 1.
    """
    size = len(adj)
    dist = [-1] * size
    sigma = [0] * size
    dist[root], sigma[root] = 0, 1
    level = [root]
    d = 0
    while level and 2 * d + 2 <= bound:
        nxt = []
        closed = False
        for u in level:
            paths = sigma[u]
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d + 1
                    sigma[w] = paths
                    nxt.append(w)
                elif dist[w] > d:
                    sigma[w] += paths
                    closed = True
        if closed:
            return 2 * d + 2, sum(sigma[x] * (sigma[x] - 1) for x in nxt) // 2
        level = nxt
        d += 1
    return None


def _orient_witness(cycle: list[int], n_checks: int) -> tuple[str, ...]:
    """Rotate a cycle vertex list to start at a variable node and label it."""
    start = next(i for i, v in enumerate(cycle) if v >= n_checks)
    rotated = cycle[start:] + cycle[:start]
    return tuple(_label(v, n_checks) for v in rotated)


def _first_cycle(adj: list[list[int]], girth: int, s: int) -> list[int]:
    """The first length-girth cycle with minimum vertex s, by canonical DFS.

    The walk visits only vertices > s, and kills the reflection by
    requiring second vertex < last vertex.  BFS distances from s prune
    paths that cannot close within the budget.
    """
    dist = [-1] * len(adj)
    dist[s] = 0
    level = [s]
    for d in range(1, girth // 2 + 1):
        nxt = []
        for u in level:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        level = nxt
    root_adj = set(adj[s])
    path = [s]

    def dfs(u: int, depth: int) -> bool:
        if depth == girth - 1:
            return u in root_adj and path[1] < u
        for w in adj[u]:
            if w <= s or w in path:
                continue
            d = dist[w]
            if d == -1 or d > min(depth + 1, girth - depth - 1):
                continue
            path.append(w)
            if dfs(w, depth + 1):
                return True
            path.pop()
        return False

    if not dfs(s, 0):
        raise RuntimeError(f"no {girth}-cycle has minimum vertex {s}")
    return path


@cache
def _cyclic_sequences(symbols: int, length: int) -> tuple[tuple[int, ...], ...]:
    """All tuples over range(symbols) with adjacent entries distinct cyclically."""
    out: list[tuple[int, ...]] = []
    seq = [0] * length

    def rec(pos: int) -> None:
        if pos == length:
            if seq[0] != seq[-1]:
                out.append(tuple(seq))
            return
        for v in range(symbols):
            if pos > 0 and v == seq[pos - 1]:
                continue
            seq[pos] = v
            rec(pos + 1)

    rec(0)
    return tuple(out)


def _half_walks(
    p: ShiftMatrix, rows: tuple[int, ...]
) -> list[tuple[tuple[int, ...], int]]:
    """Every column walk of one half cycle along rows r_0, r_1, ..., r_k.

    The walk picks columns c_1..c_k with c_t != c_{t-1} and sums
    D_t(c_t) = P[r_t][c_t] - P[r_{t-1}][c_t].  Returns (columns, sum mod
    N) for each walk, in lexicographic order of the columns.
    """
    n, e = p.lifting_factor, p.entries
    steps = [
        [b_l - a_l for a_l, b_l in zip(e[a], e[b])] for a, b in zip(rows, rows[1:])
    ]
    walks = [((l,), d) for l, d in enumerate(steps[0])]
    for step in steps[1:]:
        walks = [
            (seq + (l,), s + d)
            for seq, s in walks
            for l, d in enumerate(step)
            if l != seq[-1]
        ]
    return [(seq, s % n) for seq, s in walks]


def _closing_index(
    walks: list[tuple[tuple[int, ...], int]], n: int
) -> dict[int, list[tuple[int, ...]]]:
    """Second halves by the first-half sum that closes them, in walk order."""
    index: dict[int, list[tuple[int, ...]]] = {}
    for seq, s in walks:
        index.setdefault(-s % n, []).append(seq)
    return index


def _first_join(
    heads: list[tuple[tuple[int, ...], int]],
    tails: dict[int, list[tuple[int, ...]]],
) -> Optional[tuple[int, ...]]:
    """The lexicographically first closing column sequence, or None."""
    for seq, s in heads:
        for rest in tails.get(s, ()):
            if rest[0] != seq[-1] and rest[-1] != seq[0]:
                return seq + rest
    return None


def _head_counts(
    heads: list[tuple[tuple[int, ...], int]], n: int, width: int
) -> tuple[dict[int, int], ...]:
    """First halves counted by sum s, by (l_0, s), by (l_{h-1}, s) and by
    (l_0, l_{h-1}, s), each key packed into one int."""
    by_s: dict[int, int] = {}
    by_first: dict[int, int] = {}
    by_last: dict[int, int] = {}
    by_both: dict[int, int] = {}
    for seq, s in heads:
        a, b = seq[0], seq[-1]
        by_s[s] = by_s.get(s, 0) + 1
        by_first[a * n + s] = by_first.get(a * n + s, 0) + 1
        by_last[b * n + s] = by_last.get(b * n + s, 0) + 1
        key = (a * width + b) * n + s
        by_both[key] = by_both.get(key, 0) + 1
    return by_s, by_first, by_last, by_both


def _join_count(
    counts: tuple[dict[int, int], ...],
    tails: dict[int, list[tuple[int, ...]]],
    n: int,
    width: int,
) -> int:
    """Closing (first half, second half) pairs with l_{h-1} != l_h and
    l_{m-1} != l_0: all pairs with matching sums, less those with
    l_{h-1} = l_h or l_{m-1} = l_0, plus those with both."""
    by_s, by_first, by_last, by_both = counts
    total = 0
    for s, rests in tails.items():
        if s not in by_s:
            continue
        for rest in rests:
            c, d = rest[0], rest[-1]
            total += (
                by_s[s]
                - by_last.get(c * n + s, 0)
                - by_first.get(d * n + s, 0)
                + by_both.get((d * width + c) * n + s, 0)
            )
    return total


def _cycle_tuples(
    p: ShiftMatrix, m: int, count_all: bool
) -> tuple[int, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """(number, first) of the solutions (jseq, lseq) of the length-2m cycle
    condition in one pass; first is None when there is none.

    With count_all false, returns at the first solution, with number 1.
    """
    n, width, h = p.lifting_factor, p.cols, (m + 1) // 2
    total = 0
    first = None
    for jseq in _cyclic_sequences(p.rows, m):
        ring = jseq[-1:] + jseq  # ring[t] = j_{t-1}
        heads = _half_walks(p, ring[: h + 1])
        tails = _closing_index(_half_walks(p, ring[h:]), n)
        if first is None:
            lseq = _first_join(heads, tails)
            if lseq is None:
                continue
            first = (jseq, lseq)
            if not count_all:
                return 1, first
        total += _join_count(_head_counts(heads, n, width), tails, n, width)
    return total, first


def _witness_from_tuple(
    p: ShiftMatrix, jseq: tuple[int, ...], lseq: tuple[int, ...]
) -> tuple[str, ...]:
    """Lift one solution tuple to an alternating vertex cycle at offset 0."""
    n = p.lifting_factor
    labels = []
    a = 0
    for t in range(len(jseq)):
        labels.append(f"v{lseq[t] * n + a}")
        r = (a - p.entries[jseq[t]][lseq[t]]) % n
        labels.append(f"c{jseq[t] * n + r}")
        a = (r + p.entries[jseq[t]][lseq[(t + 1) % len(lseq)]]) % n
    return tuple(labels)


def girth_from_shifts(p: ShiftMatrix, cap: int = 12) -> GirthReport:
    """Exact girth if <= cap computed on the shift matrix without lifting."""
    if cap < 4 or cap % 2:
        raise ValueError(f"cap must be even and >= 4, got {cap}")
    n = p.lifting_factor
    for m in range(2, cap // 2 + 1):
        total, first = _cycle_tuples(p, m, count_all=True)
        if first is None:
            continue
        girth = 2 * m
        if total * n % girth:
            raise RuntimeError(
                f"{total * n} rooted tuples do not split into {girth}-cycles"
            )
        jseq, lseq = first
        return GirthReport(
            girth=girth,
            shortest_cycle_count=total * n // girth,
            cap=cap,
            method="shifts",
            witness=_witness_from_tuple(p, jseq, lseq),
        )
    return GirthReport(girth=None, shortest_cycle_count=0, cap=cap, method="shifts")


def count_4cycles(p: ShiftMatrix) -> int:
    """Number of 4-cycles in the lifted graph, computed from shifts.

    Each row pair and column pair whose 2 x 2 shift sub-matrix has
    vanishing alternating sum contributes exactly N cycles.
    """
    n = p.lifting_factor
    violations = 0
    for j1 in range(p.rows):
        for j2 in range(j1 + 1, p.rows):
            row_a, row_b = p.entries[j1], p.entries[j2]
            for l1 in range(p.cols):
                for l2 in range(l1 + 1, p.cols):
                    if (row_a[l1] - row_a[l2] + row_b[l2] - row_b[l1]) % n == 0:
                        violations += 1
    return violations * n


def count_4cycles_graph(h: ParityCheckMatrix) -> int:
    """Brute-force 4-cycle count on the lifted graph via common neighbors.

    A 4-cycle is an unordered pair of checks plus an unordered pair of
    their common variables; independent of both shift-based methods.
    """
    by_row = h.row_neighbors()
    count = 0
    for r1 in range(h.n_rows):
        set1 = set(by_row[r1])
        for r2 in range(r1 + 1, h.n_rows):
            common = len(set1.intersection(by_row[r2]))
            count += common * (common - 1) // 2
    return count


def has_girth_at_least(p: ShiftMatrix, g: int) -> bool:
    """True iff no cycle of length < g exists; early-exits per length."""
    if g not in (6, 8, 10, 12):
        raise ValueError(f"g must be one of 6, 8, 10, 12, got {g}")
    for m in range(2, (g - 2) // 2 + 1):
        if _cycle_tuples(p, m, count_all=False)[1] is not None:
            return False
    return True
