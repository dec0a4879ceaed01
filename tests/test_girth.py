import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgirth.girth import (
    _cycle_tuples,
    _witness_from_tuple,
    count_4cycles,
    count_4cycles_graph,
    girth_bfs,
    girth_from_shifts,
    has_girth_at_least,
)
from qcgirth.lifting import ShiftMatrix, canonical_from_mapping, lift
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
    rows = h.row_neighbors()
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


def random_shift_matrix(rng, j_range, l_range, n_range):
    j, l, n = rng.randint(*j_range), rng.randint(*l_range), rng.randint(*n_range)
    return ShiftMatrix(
        entries=tuple(tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)),
        lifting_factor=n,
    )


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
    rng = random.Random(7)
    cases = [canonical_from_mapping(almost_complete_mapping(4))]
    for _ in range(20):
        n = rng.randint(2, 7)
        j, l = rng.randint(2, 3), rng.randint(2, 4)
        entries = tuple(
            tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
        )
        cases.append(ShiftMatrix(entries=entries, lifting_factor=n))
    for p in cases:
        h = lift(p)
        assert count_4cycles(p) == count_4cycles_graph(h) == brute_4cycles(h)


def test_4cycle_count_matches_girth_report():
    p = canonical_from_mapping(almost_complete_mapping(6))
    report = girth_from_shifts(p, 12)
    assert report.girth == 4
    assert report.shortest_cycle_count == count_4cycles(p) == 6


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
    # and witness at cap 12, and existence below each g of has_girth_at_least
    rng = random.Random(2004)
    for _ in range(300):
        p = random_shift_matrix(rng, (2, 4), (2, 8), (2, 60))
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
    for _ in range(40):
        p = random_shift_matrix(rng, (2, 3), (2, 3), (2, 9))
        for m in (2, 3, 4, 5, 6, 7, 8):
            assert _cycle_tuples(p, m, count_all=True) == \
                brute_shift_tuples(p, m, count_all=True)
            first = brute_shift_tuples(p, m, count_all=False)
            assert _cycle_tuples(p, m, count_all=False) == \
                ((0, None) if first is None else (1, first))
    # 2 x 2 matrices reach girth 16 through a net shift of order 4
    for n in (4, 8, 12):
        for entries in (((0, 0), (0, n // 4)), ((0, 1), (2, 3 * n // 4 + 3))):
            p = ShiftMatrix(entries=entries, lifting_factor=n)
            report = girth_from_shifts(p, 16)
            assert (report.girth, report.shortest_cycle_count, report.witness) == \
                brute_girth(p, 16)


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
