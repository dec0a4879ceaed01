"""Tanner-graph girth by two independent methods.

girth_bfs works on the lifted binary matrix and knows nothing about the
quasi-cyclic structure.  It runs a breadth-first search from every check
vertex, level by level (Itai & Rodeh, SIAM J. Comput. 1978).  A cycle of
the bipartite Tanner graph alternates checks and variables, so every
cycle passes through checks, and since checks are numbered before
variables, the smallest vertex on a cycle is a check.  A neighbour of a
level-d vertex lies on level d - 1 or d + 1.  Expanding level d closes a
cycle when it reaches some vertex x of level d + 1 twice: the two root-x
paths form a closed walk of length 2d + 2, which holds a cycle of at
most that length.  A root's search stops after the first level that
closes, or before a level that could only close cycles longer than the
shortest found so far (cap until one is found).

When the girth is g = 2d + 2, two distinct shortest paths of length g/2
from a root s to x share no vertex but s and x, since otherwise they
would close a shorter cycle.  So they form a g-cycle through s with x as
its antipode, and each g-cycle through s is split this way by exactly
one antipode.  The roots whose search closes at g are therefore exactly
the vertices on a shortest cycle, and the g-cycles through s number
sum_x C(sigma(x), 2), where x runs over level g/2 and sigma(x) counts
the shortest s-x paths (Halford & Chugg, IEEE Trans. IT 2006).  No
earlier level closed, so each vertex on levels < g/2 has one shortest
path, and sigma(x) is the number of times the closing level reaches x.
Summed over the check roots, this counts each g-cycle once per check on
it, g/2 times in all.  The witness is the first cycle a canonical DFS
meets from the smallest root that closes at g, which is the smallest
vertex on any shortest cycle.

girth_from_shifts never lifts: a length-2m cycle exists iff there are
row indices j_0..j_{m-1} and column indices l_0..l_{m-1}, cyclically
adjacent-distinct, whose alternating shift sum

    sum_t (P[j_t][l_t] - P[j_t][l_{t+1 mod m}])  ==  0  (mod N)

vanishes (Fossorier, IEEE Trans. IT 2004).  Each solution tuple is a
rooted traversal of a lifted cycle; a cycle of length 2m lifts N ways and
is traversed from 2m rooted orientations, so distinct cycles = tuples *
N / (2m).  The two methods share no code and serve as oracles for each
other.  Either one's shortest_cycle_count at cap 4 is the number of
4-cycles, 0 when there is none.

The shift oracle solves the condition meet-in-the-middle.  Regrouped by
column, the sum is sum_t D_t(l_t) with D_t(l) = P[j_t][l] - P[j_{t-1}][l]
(indices mod m).  For a fixed row sequence it splits at h = ceil(m/2)
into two adjacent-distinct column walks, l_0..l_{h-1} and l_h..l_{m-1},
each with a residue sum; a solution is a pair of halves whose sums add
to 0 with l_{h-1} != l_h and l_{m-1} != l_0.  The second halves are
indexed by the first-half sum that closes them, and each first half is
joined with the second halves under its sum, keeping the pairs that meet
both conditions.  A row sequence then costs the O(L^ceil(m/2)) half
walks plus the matched pairs, which outnumber the solutions only by the
pairs that repeat a column where the halves meet.

Only one row sequence per class under rotation and reversal is solved
(Tasdighi, Banihashemi & Sadeghi, IEEE Trans. IT 2016 use the same
symmetry).  Rotation by k, j'_t = j_{t+k} and l'_t = l_{t+k}, permutes
the terms of the sum.  Reversal, j'_t = j_{m-1-t} and l'_t = l_{-t mod m},
maps the term of t to minus the term of s = m-1-t, since l'_{t+1} = l_s
and l'_t = l_{s+1}, so the sum only changes sign.  Both are invertible
and keep adjacent entries distinct, so each map g of the dihedral group
they generate takes the solutions with row sequence J one to one onto
those with row sequence g(J).  Hence every sequence in a class has as
many solutions as any other, and the number of solutions is the sum over
classes of class size times the solutions of one member.
The table _row_classes lists, per (J, m), the least sequence of each
class with the class size, in lexicographic order, and each solution of
a representative carries that size as its weight.  For J = 4 this
solves 24 instead of 240 row sequences at m = 5 and 92 instead of 732 at
m = 6.

Representatives, first halves and the second halves under each sum are
all taken in lexicographic order, so the join yields the solutions of
the representatives in lexicographic (rows, columns) order.  The first
of them is the first solution of all: if a sequence has a solution,
so does every sequence in its class, its least one included, so the
least row sequence with a solution is a representative.  That first
tuple is the one the witness is lifted from; the weighted count reads
the rest of the same stream, so each length takes one pass, and a
length without a solution yields nothing.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from typing import Iterator, Optional

from .lifting import ParityCheckMatrix, ShiftMatrix
from .mappings import _record


@_record
class GirthReport:
    """Girth result relative to a search cap.

    girth None means no cycle of length <= cap exists, so the count is 0
    and there is no witness.  witness, when
    present, lists girth many vertex labels alternating variable ("v<i>")
    and check ("c<i>") nodes along one shortest cycle.
    """

    girth: Optional[int]
    shortest_cycle_count: int
    cap: int
    method: str
    witness: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.girth is None:
            if self.witness is not None or self.shortest_cycle_count:
                raise ValueError("no girth means no witness and no shortest cycles")
        elif self.witness is not None:
            if len(self.witness) != self.girth:
                raise ValueError("witness length must equal girth")
            for idx, label in enumerate(self.witness):
                want = "v" if idx % 2 == 0 else "c"
                if not label.startswith(want):
                    raise ValueError("witness must alternate v/c starting at v")


def _label(v: int, n_checks: int) -> str:
    return f"c{v}" if v < n_checks else f"v{v - n_checks}"


def girth_bfs(h: ParityCheckMatrix, cap: int = 12) -> GirthReport:
    """Exact girth if <= cap via BFS from every check node, else infinite.

    Counts distinct shortest cycles as edge sets from shortest-path
    counts and returns one witness (see the module docstring).
    """
    if cap < 4 or cap % 2:
        raise ValueError(f"cap must be even and >= 4, got {cap}")
    m = h.n_rows  # checks are vertices 0..m-1, variables m..m+n-1
    adj = [[m + c for c in cs] for cs in h.row_neighbors()] + h.col_neighbors()
    girth: Optional[int] = None
    first, first_dist = -1, []  # smallest vertex on a girth cycle, its BFS levels
    pairs = 0  # rooted shortest cycles: each cycle once per check on it
    for root in range(h.n_rows):
        found = _root_cycles(adj, root, cap if girth is None else girth)
        if found is None:
            continue
        length, through, dist = found
        if girth is None or length < girth:
            girth, first, first_dist, pairs = length, root, dist, 0
        pairs += through
    if girth is None:
        return GirthReport(girth=None, shortest_cycle_count=0, cap=cap, method="bfs")
    if pairs % (girth // 2):
        raise RuntimeError(f"{pairs} rooted cycles do not split into {girth}-cycles")
    return GirthReport(
        girth=girth,
        shortest_cycle_count=pairs // (girth // 2),
        cap=cap,
        method="bfs",
        witness=_orient_witness(_first_cycle(adj, girth, first, first_dist), h.n_rows),
    )


def _root_cycles(
    adj: list[list[int]], root: int, bound: int
) -> Optional[tuple[int, int, list[int]]]:
    """(2d + 2, pairs, dist) for the first level d whose expansion from root
    reaches a vertex of level d + 1 twice, if 2d + 2 <= bound, else None.

    No earlier level closed, so each vertex up to level d has one shortest
    path from root, and a vertex x of level d + 1 has one per time the
    expansion reaches it.  hits[x] counts the repeat reaches of x, and the
    k-th adds k to pairs, so pairs sums C(reaches, 2) over level d + 1.
    The closing level is expanded to the end, so dist holds every BFS
    level from root up to d + 1 (-1 beyond).
    """
    size = len(adj)
    dist = [-1] * size
    hits = [0] * size
    dist[root] = 0
    level = [root]
    d = 0
    while level and 2 * d + 2 <= bound:
        nxt = []
        pairs = 0
        for u in level:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = d + 1
                    nxt.append(w)
                elif dist[w] > d:
                    hits[w] += 1
                    pairs += hits[w]
        if pairs:
            return 2 * d + 2, pairs, dist
        level = nxt
        d += 1
    return None


def _orient_witness(cycle: list[int], n_checks: int) -> tuple[str, ...]:
    """Rotate a cycle vertex list to start at a variable node and label it."""
    start = next(i for i, v in enumerate(cycle) if v >= n_checks)
    rotated = cycle[start:] + cycle[:start]
    return tuple(_label(v, n_checks) for v in rotated)


def _first_cycle(
    adj: list[list[int]], girth: int, s: int, dist: list[int]
) -> list[int]:
    """The first length-girth cycle with minimum vertex s, by canonical DFS.

    The walk visits only vertices > s, and kills the reflection by
    requiring second vertex < last vertex.  dist holds the BFS levels from
    s up to girth / 2, as _root_cycles leaves them, and prunes paths that
    cannot close within the budget.
    """
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
def _row_classes(symbols: int, length: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(least member, size) of each class of tuples over range(symbols),
    adjacent entries distinct cyclically, under rotation and reversal, in
    lexicographic order of the least members."""
    classes = []
    for seq in product(range(symbols), repeat=length):
        if any(a == b for a, b in zip(seq, seq[1:] + seq[:1])):
            continue
        orbit = {s[k:] + s[:k] for s in (seq, seq[::-1]) for k in range(length)}
        if seq == min(orbit):
            classes.append((seq, len(orbit)))
    return tuple(classes)


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


def _cycle_solutions(
    p: ShiftMatrix, m: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Every solution (jseq, lseq) of the length-2m cycle condition whose
    row sequence is the least of its class, in lexicographic order, with
    the class size as its weight."""
    n, h = p.lifting_factor, (m + 1) // 2
    for jseq, size in _row_classes(p.rows, m):
        ring = jseq[-1:] + jseq  # ring[t] = j_{t-1}
        tails = _closing_index(_half_walks(p, ring[h:]), n)
        for seq, s in _half_walks(p, ring[: h + 1]):
            for rest in tails.get(s, ()):
                if rest[0] != seq[-1] and rest[-1] != seq[0]:
                    yield jseq, seq + rest, size


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
    """Exact girth if <= cap computed on the shift matrix without lifting.

    Per length, solves the cycle condition for one row sequence per
    rotation/reversal class and sums the class sizes of the solutions
    (see the module docstring): the rooted tuples, which N / (2m) turns
    into distinct cycles.  The witness is lifted from the first tuple.
    """
    if cap < 4 or cap % 2:
        raise ValueError(f"cap must be even and >= 4, got {cap}")
    n = p.lifting_factor
    for m in range(2, cap // 2 + 1):
        solutions = _cycle_solutions(p, m)
        first = next(solutions, None)
        if first is None:
            continue
        jseq, lseq, total = first
        total += sum(weight for _, _, weight in solutions)
        girth = 2 * m
        if total * n % girth:
            raise RuntimeError(
                f"{total * n} rooted tuples do not split into {girth}-cycles"
            )
        return GirthReport(
            girth=girth,
            shortest_cycle_count=total * n // girth,
            cap=cap,
            method="shifts",
            witness=_witness_from_tuple(p, jseq, lseq),
        )
    return GirthReport(girth=None, shortest_cycle_count=0, cap=cap, method="shifts")


def has_girth_at_least(p: ShiftMatrix, g: int) -> bool:
    """True iff no cycle of length < g exists; early-exits per length."""
    if g not in (6, 8, 10, 12):
        raise ValueError(f"g must be one of 6, 8, 10, 12, got {g}")
    for m in range(2, (g - 2) // 2 + 1):
        if next(_cycle_solutions(p, m), None) is not None:
            return False
    return True
