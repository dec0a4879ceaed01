import random
from collections import deque
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgirth.girth import (
    _cycle_solutions,
    _row_classes,
    _witness_from_tuple,
    girth_bfs,
    girth_from_shifts,
    has_girth_at_least,
)
from qcgirth.lifting import ParityCheckMatrix, ShiftMatrix, canonical_from_mapping, lift
from qcgirth.mappings import almost_complete_mapping, product_mapping


def assert_witness_is_cycle(report, h):
    """The witness must be a closed cycle of distinct vertices in the graph."""
    labels = report.witness
    assert labels is not None and len(labels) == report.girth
    assert len(set(labels)) == len(labels)
    for idx in range(len(labels)):
        a, b = labels[idx], labels[(idx + 1) % len(labels)]
        v, c = (a, b) if a.startswith("v") else (b, a)
        assert (int(c[1:]), int(v[1:])) in h.adjacency, f"edge {a}-{b} absent"


def brute_4cycles(h):
    """In-test oracle: count (check pair, variable pair) quadruples directly."""
    rows = h.rows
    count = 0
    for r1 in range(h.n_rows):
        for r2 in range(r1 + 1, h.n_rows):
            for i, v1 in enumerate(rows[r1]):
                for v2 in rows[r1][i + 1:]:
                    if v1 in rows[r2] and v2 in rows[r2]:
                        count += 1
    return count


def brute_shift_tuples(p, m, count_all):
    """In-test oracle: every alternating (row, column) tuple of length 2m.

    With count_all false, returns the first solution or None; otherwise
    returns (total, first_solution).  Solutions come in lexicographic
    (jseq, lseq) order.
    """
    j_rows, l_cols, n = p.rows, p.cols, p.lifting_factor
    total = 0
    first = None
    for jseq in product(range(j_rows), repeat=m):
        if any(jseq[t] == jseq[t - 1] for t in range(m)):
            continue
        lseq = [0] * m

        def rec(pos, acc):
            nonlocal total, first
            if pos == m:
                if lseq[0] == lseq[-1]:
                    return False
                closing = acc + p.entries[jseq[m - 1]][lseq[m - 1]] \
                    - p.entries[jseq[m - 1]][lseq[0]]
                if closing % n == 0:
                    total += 1
                    if first is None:
                        first = (jseq, tuple(lseq))
                    if not count_all:
                        return True
                return False
            for l in range(l_cols):
                if pos > 0 and l == lseq[pos - 1]:
                    continue
                lseq[pos] = l
                step = 0
                if pos > 0:
                    step = p.entries[jseq[pos - 1]][lseq[pos - 1]] \
                        - p.entries[jseq[pos - 1]][l]
                if rec(pos + 1, acc + step):
                    return True
            return False

        if rec(0, 0) and not count_all:
            return first
    if count_all:
        return total, first
    return first


def brute_girth(p, cap):
    """(girth, shortest cycles, witness) from the tuple enumeration."""
    n = p.lifting_factor
    for m in range(2, cap // 2 + 1):
        if brute_shift_tuples(p, m, count_all=False) is None:
            continue
        total, (jseq, lseq) = brute_shift_tuples(p, m, count_all=True)
        return 2 * m, total * n // (2 * m), _witness_from_tuple(p, jseq, lseq)
    return None, 0, None


def brute_girth_bfs(h, cap):
    """In-test oracle: (girth, shortest cycles, witness) by a full-depth BFS
    from every vertex and a canonical DFS over every shortest cycle.

    Every root searches to depth cap/2 and records the shortest closed
    walk it sees; cycles are listed at their minimum vertex, walking only
    larger vertices with second vertex < last vertex.
    """
    m = h.n_rows
    adj = [[] for _ in range(m + h.n_cols)]
    for r, c in h.adjacency:
        adj[r].append(m + c)
        adj[m + c].append(r)
    for lst in adj:
        lst.sort()
    size = len(adj)
    girth = None
    through = [None] * size
    for root in range(size):
        dist = [-1] * size
        parent = [-1] * size
        dist[root] = 0
        queue = deque([root])
        best = None
        while queue:
            u = queue.popleft()
            if dist[u] * 2 >= cap:
                continue
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u] and dist[w] >= dist[u]:
                    cand = dist[u] + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
        through[root] = best
        if best is not None and best <= cap and (girth is None or best < girth):
            girth = best
    if girth is None:
        return None, 0, None

    count = 0
    first = []
    for s in range(size):
        if through[s] != girth:
            continue
        dist = [-1] * size
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if dist[u] >= girth // 2:
                continue
            for w in adj[u]:
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        root_adj = set(adj[s])
        path = [s]

        def dfs(u, depth):
            nonlocal count
            if depth == girth - 1:
                if u in root_adj and path[1] < u:
                    count += 1
                    if not first:
                        first.extend(path)
                return
            for w in adj[u]:
                if w <= s or w in path:
                    continue
                d = dist[w]
                if d == -1 or d > min(depth + 1, girth - depth - 1):
                    continue
                path.append(w)
                dfs(w, depth + 1)
                path.pop()

        dfs(s, 0)
    start = next(i for i, v in enumerate(first) if v >= m)
    rotated = first[start:] + first[:start]
    witness = tuple(f"c{v}" if v < m else f"v{v - m}" for v in rotated)
    return girth, count, witness


def random_shift_matrix(rng, j_range, l_range, n_range):
    j, l, n = rng.randint(*j_range), rng.randint(*l_range), rng.randint(*n_range)
    return ShiftMatrix(
        entries=tuple(tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)),
        lifting_factor=n,
    )


def zero_shift_matrix(j, l, n):
    return ShiftMatrix(entries=((0,) * l,) * j, lifting_factor=n)


def test_product_construction_girths():
    # shortest-cycle population of the canonical product matrices
    expected = {3: 18, 5: 100, 7: 294}
    for n, cycles in expected.items():
        p = canonical_from_mapping(product_mapping(2, n))
        a = girth_from_shifts(p, 12)
        b = girth_bfs(lift(p), 12)
        assert a.girth == b.girth == 6
        assert a.shortest_cycle_count == b.shortest_cycle_count == cycles


def test_witnesses_are_real_cycles():
    for p in (
        canonical_from_mapping(product_mapping(2, 5)),
        ShiftMatrix(entries=((0, 0, 0), (0, 1, 2)), lifting_factor=3),
        canonical_from_mapping(almost_complete_mapping(6)),
    ):
        h = lift(p)
        for report in (girth_from_shifts(p, 12), girth_bfs(h, 12)):
            assert report.girth is not None
            assert_witness_is_cycle(report, h)


def test_single_row_has_no_cycles():
    p = ShiftMatrix(entries=((0, 1, 2),), lifting_factor=4)
    assert girth_from_shifts(p, 12).girth is None
    assert girth_bfs(lift(p), 12).girth is None


def test_two_by_two_single_orbit():
    # the lifted graph of an all-ones 2x2 base with net shift 1 is one big
    # cycle of length 4N, invisible below that cap
    p = ShiftMatrix(entries=((0, 0), (0, 1)), lifting_factor=3)
    for report in (girth_from_shifts(p, 12), girth_bfs(lift(p), 12)):
        assert report.girth == 12
        assert report.shortest_cycle_count == 1

    far = ShiftMatrix(entries=((0, 0), (0, 1)), lifting_factor=5)
    assert girth_from_shifts(far, 12).girth is None
    assert girth_bfs(lift(far), 12).girth is None
    deep_a = girth_from_shifts(far, 20)
    deep_b = girth_bfs(lift(far), 20)
    assert deep_a.girth == deep_b.girth == 20
    assert deep_a.shortest_cycle_count == deep_b.shortest_cycle_count == 1


def test_cap_validation():
    p = ShiftMatrix(entries=((0, 0), (0, 1)), lifting_factor=3)
    for bad in (2, 7):
        with pytest.raises(ValueError, match="cap"):
            girth_from_shifts(p, bad)
        with pytest.raises(ValueError, match="cap"):
            girth_bfs(lift(p), bad)


def test_4cycle_counts_agree_three_ways():
    # a 4-cycle count is either oracle's count at cap 4; every (J, L, N)
    # with J 1-4, L 1-5, N 1-8 gets a few seeded matrices
    rng = random.Random(7)
    cases = [canonical_from_mapping(almost_complete_mapping(4))]
    for j, l, n in product(range(1, 5), range(1, 6), range(1, 9)):
        for _ in range(2):
            entries = tuple(
                tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
            )
            cases.append(ShiftMatrix(entries=entries, lifting_factor=n))
    for p in cases:
        h = lift(p)
        shifts, bfs = girth_from_shifts(p, 4), girth_bfs(h, 4)
        count = brute_4cycles(h)
        assert shifts.shortest_cycle_count == bfs.shortest_cycle_count == count
        assert shifts.girth == bfs.girth == (4 if count else None)


def test_4cycle_count_matches_girth_report():
    p = canonical_from_mapping(almost_complete_mapping(6))
    report = girth_from_shifts(p, 12)
    assert report.girth == 4
    assert report.shortest_cycle_count == brute_4cycles(lift(p)) == 6
    assert girth_bfs(lift(p), 12).shortest_cycle_count == 6


def test_has_girth_at_least():
    p = canonical_from_mapping(product_mapping(2, 5))
    assert has_girth_at_least(p, 6)
    assert not has_girth_at_least(p, 8)
    with pytest.raises(ValueError, match="g must be"):
        has_girth_at_least(p, 5)


def test_oracle_agreement_seeded():
    # desk-scale slice of the full 500-instance acceptance run
    rng = random.Random(99)
    for _ in range(80):
        j, l, n = rng.randint(2, 3), rng.randint(2, 6), rng.randint(2, 13)
        p = ShiftMatrix(
            entries=tuple(
                tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
            ),
            lifting_factor=n,
        )
        a = girth_from_shifts(p, 12)
        b = girth_bfs(lift(p), 12)
        assert (a.girth, a.shortest_cycle_count) == (b.girth, b.shortest_cycle_count)


@settings(deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=9),
    st.randoms(use_true_random=False),
)
def test_girth_invariant_under_normalize_and_column_permutation(j, l, n, rng):
    from qcgirth.lifting import normalize

    p = ShiftMatrix(
        entries=tuple(
            tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
        ),
        lifting_factor=n,
    )
    base = girth_from_shifts(p, 12)
    normalized = girth_from_shifts(normalize(p), 12)
    order = list(range(l))
    rng.shuffle(order)
    shuffled = ShiftMatrix(
        entries=tuple(tuple(row[c] for c in order) for row in p.entries),
        lifting_factor=n,
    )
    permuted = girth_from_shifts(shuffled, 12)
    assert base.girth == normalized.girth == permuted.girth
    assert (
        base.shortest_cycle_count
        == normalized.shortest_cycle_count
        == permuted.shortest_cycle_count
    )


def test_shift_oracle_matches_tuple_enumeration():
    # the half-walk join against the enumeration it replaced: girth, count
    # and witness at cap 12, and existence below each g of has_girth_at_least;
    # in an all-zero matrix every matched pair of halves is a solution
    rng = random.Random(2004)
    inputs = [random_shift_matrix(rng, (2, 4), (2, 8), (2, 60)) for _ in range(300)]
    inputs += [zero_shift_matrix(j, l, n) for j, l, n in ((2, 2, 1), (3, 5, 7), (4, 8, 3))]
    for p in inputs:
        report = girth_from_shifts(p, 12)
        assert (report.girth, report.shortest_cycle_count, report.witness) == \
            brute_girth(p, 12)
        for g in (6, 8, 10, 12):
            brute = all(
                brute_shift_tuples(p, m, count_all=False) is None
                for m in range(2, g // 2)
            )
            assert has_girth_at_least(p, g) == brute
    # m = 7 and 8 split into halves of 4 + 3 and 4 + 4 columns; past the
    # girth the tuples include longer closed walks, which both count
    inputs = [random_shift_matrix(rng, (2, 3), (2, 3), (2, 9)) for _ in range(40)]
    inputs += [zero_shift_matrix(j, l, n) for j, l, n in ((2, 2, 1), (2, 3, 4), (3, 3, 5))]
    # the stream holds the solutions of one row sequence per class, each
    # weighted by its class size: the weights sum to every tuple's count
    for p in inputs:
        for m in (2, 3, 4, 5, 6, 7, 8):
            solutions = list(_cycle_solutions(p, m))
            keys = [(jseq, lseq) for jseq, lseq, _ in solutions]
            assert all(a < b for a, b in zip(keys, keys[1:]))  # strictly lexicographic
            total, first = brute_shift_tuples(p, m, count_all=True)
            assert sum(weight for _, _, weight in solutions) == total
            assert keys[:1] == ([] if first is None else [first])
    # 2 x 2 matrices reach girth 16 through a net shift of order 4
    for n in (4, 8, 12):
        for entries in (((0, 0), (0, n // 4)), ((0, 1), (2, 3 * n // 4 + 3))):
            p = ShiftMatrix(entries=entries, lifting_factor=n)
            report = girth_from_shifts(p, 16)
            assert (report.girth, report.shortest_cycle_count, report.witness) == \
                brute_girth(p, 16)


def test_row_classes_match_brute_force_orbits():
    # every orbit of cyclically adjacent-distinct row sequences under the
    # m rotations and m reflections t -> k - t has one representative, its
    # least member, listed with the orbit size in lexicographic order
    for j, m in product(range(1, 6), range(2, 9)):
        seqs = [s for s in product(range(j), repeat=m)
                if all(s[t] != s[t - 1] for t in range(m))]
        assert len(seqs) == (j - 1) ** m + (-1) ** m * (j - 1)
        orbits = {
            frozenset(
                tuple(s[(k + sign * t) % m] for t in range(m))
                for k in range(m) for sign in (1, -1)
            )
            for s in seqs
        }
        table = _row_classes(j, m)
        reps = [rep for rep, _ in table]
        assert reps == sorted(reps)
        for orbit in orbits:
            assert [rep for rep in reps if rep in orbit] == [min(orbit)]
        assert sorted(table) == sorted((min(o), len(o)) for o in orbits)
        assert sum(size for _, size in table) == len(seqs)
    # J = 2: the one class alternates, with period 2, and odd m has none
    assert _row_classes(2, 4) == (((0, 1, 0, 1), 2),)
    assert _row_classes(2, 5) == ()
    assert _row_classes(1, 2) == ()
    # (0, 1, 0, 2) is its own reversal up to rotation: 4 members, not 2m = 8
    assert dict(_row_classes(3, 4))[(0, 1, 0, 2)] == 4


def test_shift_oracle_invariant_under_row_permutation():
    # relabelling rows changes which sequence represents each class, so
    # equal girth and count under every row order check the class weights
    # end to end; both must equal the lifted-graph oracle's.  With 3 or
    # more rows and 2 or more columns the girth is at most 12 (Fossorier)
    rng = random.Random(2016)
    seen = set()
    for l in (2, 3) * 20:
        p = random_shift_matrix(rng, (3, 4), (l, l), (5, 80))
        for cap in (12, 14, 16):
            bfs = girth_bfs(lift(p), cap)
            for order in permutations(range(p.rows)):
                permuted = ShiftMatrix(
                    entries=tuple(p.entries[r] for r in order),
                    lifting_factor=p.lifting_factor,
                )
                report = girth_from_shifts(permuted, cap)
                assert (report.girth, report.shortest_cycle_count) == \
                    (bfs.girth, bfs.shortest_cycle_count), (p, order, cap)
            seen.add(bfs.girth)
    assert seen == {4, 6, 8, 10, 12}, seen


def from_ones(n_rows, n_cols, ones):
    """The n_rows x n_cols ParityCheckMatrix with ones at the (row, column)
    pairs of ones."""
    rows = [set() for _ in range(n_rows)]
    for r, c in ones:
        rows[r].add(c)
    return ParityCheckMatrix(n_cols, tuple(tuple(sorted(cs)) for cs in rows))


def random_tanner_graph(rng):
    """(kind, ParityCheckMatrix) of a small random bipartite graph with no
    quasi-cyclic structure: a tree, one 2k-cycle with trees hanging off
    it, a random graph, or two of these side by side (disconnected)."""

    def tree_edges(size, attach, kinds):
        # grows nodes one at a time, each hung off an earlier node (or a
        # node of attach) and on the other side from it
        edges = []
        nodes = list(attach)
        for _ in range(size):
            kind, idx = rng.choice(nodes) if nodes else ("c", -1)
            side = "v" if kind == "c" else "c"
            new = (side, kinds[side])
            kinds[side] += 1
            if idx >= 0:
                edges.append((idx, new[1]) if kind == "c" else (new[1], idx))
            nodes.append(new)
        return edges

    def one(kind):
        kinds = {"c": 0, "v": 0}
        if kind == "tree":
            edges = tree_edges(rng.randint(1, 25), (), kinds)
        elif kind == "ring":
            k = rng.randint(2, 8)
            kinds.update(c=k, v=k)
            edges = [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)]
            ring = [("c", i) for i in range(k)] + [("v", i) for i in range(k)]
            edges += tree_edges(rng.randint(0, 8), ring, kinds)
        else:
            kinds.update(c=rng.randint(1, 12), v=rng.randint(1, 16))
            density = rng.uniform(0.05, 0.5)
            edges = [(r, c) for r in range(kinds["c"]) for c in range(kinds["v"])
                     if rng.random() < density]
        return kinds["c"], kinds["v"], edges

    kind = rng.choice(("tree", "ring", "random", "split"))
    if kind != "split":
        m, n, edges = one(kind)
    else:
        m, n, edges = one(rng.choice(("tree", "ring", "random")))
        m2, n2, edges2 = one(rng.choice(("tree", "ring", "random")))
        edges += [(m + r, n + c) for r, c in edges2]
        m, n = m + m2, n + n2
    return kind, from_ones(m, n, edges)


def test_bfs_oracle_matches_full_depth_search():
    # the level-stopped search with path counts against the full-depth
    # BFS and DFS cycle listing it replaced: girth, count and witness
    rng = random.Random(1978)
    for _ in range(120):
        p = random_shift_matrix(rng, (2, 4), (2, 6), (2, 20))
        h, cap = lift(p), rng.choice((4, 6, 8, 10, 12, 14))
        report = girth_bfs(h, cap)
        assert (report.girth, report.shortest_cycle_count, report.witness) == \
            brute_girth_bfs(h, cap)
    seen = {"tree": 0, "split": 0, "at cap": 0, "above cap": 0}
    for _ in range(400):
        kind, h = random_tanner_graph(rng)
        seen[kind] = seen.get(kind, 0) + 1
        for cap in (4, 6, 8, 10, 12, 14):
            report = girth_bfs(h, cap)
            brute = brute_girth_bfs(h, cap)
            assert (report.girth, report.shortest_cycle_count, report.witness) == \
                brute, (kind, sorted(h.adjacency), cap)
            if brute[0] == cap:
                seen["at cap"] += 1
            elif brute[0] is None and brute_girth_bfs(h, 16)[0] is not None:
                seen["above cap"] += 1
    assert min(seen.values()) >= 20, seen


def transpose(h):
    """The same Tanner graph with checks and variables swapped."""
    return from_ones(h.n_cols, h.n_rows, [(c, r) for r, c in h.adjacency])


def test_bfs_oracle_invariant_under_transposition():
    # H and its transpose are one graph, so girth and count agree although
    # the roots, all on the check side, lie on opposite sides of it; the
    # random graphs include ones with more checks than variables
    rng = random.Random(2006)
    graphs = [lift(random_shift_matrix(rng, (2, 4), (2, 6), (2, 20)))
              for _ in range(60)]
    graphs += [random_tanner_graph(rng)[1] for _ in range(300)]
    wider = 0  # graphs with more checks than variables and a cycle
    for h in graphs:
        for cap in (4, 8, 12, 14):
            a, b = girth_bfs(h, cap), girth_bfs(transpose(h), cap)
            assert (a.girth, a.shortest_cycle_count) == \
                (b.girth, b.shortest_cycle_count), (sorted(h.adjacency), cap)
        wider += h.n_rows > h.n_cols and a.girth is not None
    assert wider >= 30, wider


# two of the girth-10 4 x 8 matrices of the benchmark's large-N jobs,
# without its seeded transform; witnesses recorded from the tuple enumeration
LARGE_N_CASES = (
    (10007, ((0, 0, 0, 0, 0, 0, 0, 0),
             (0, 9273, 3175, 2183, 4229, 4783, 5583, 1040),
             (0, 9761, 400, 8735, 5035, 7748, 8999, 4296),
             (0, 7293, 9121, 2794, 3315, 1879, 3103, 4467)),
     230161, ("v20014", "c0", "v50035", "c15231", "v49481", "c9453", "v79502",
              "c18420", "v64031", "c30907")),
    (20011, ((0, 0, 0, 0, 0, 0, 0, 0),
             (0, 1236, 2491, 13191, 18382, 2855, 7223, 19772),
             (0, 17244, 12869, 14009, 5267, 13060, 3964, 18786),
             (0, 19285, 3635, 17145, 1646, 17534, 8758, 5871)),
     320176, ("v20011", "c0", "v40022", "c37531", "v95935", "c15891", "v155968",
              "c57138", "v82416", "c60759")),
)


@pytest.mark.parametrize("n, entries, cycles, witness", LARGE_N_CASES)
def test_large_n_shift_oracle(n, entries, cycles, witness):
    report = girth_from_shifts(ShiftMatrix(entries=entries, lifting_factor=n), 12)
    assert report.girth == 10
    assert report.shortest_cycle_count == cycles
    assert report.witness == witness
