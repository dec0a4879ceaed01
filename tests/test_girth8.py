import random
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgirth.girth import has_girth_at_least
from qcgirth.girth8 import (
    CaseClassification,
    Girth8Table,
    StructureKind,
    build_g8_table,
    check_girth8_conditions,
    classify_structure,
    extreme_intersection_pair,
    partition_case_bound,
    row_sets,
    validate_g8_table,
    verify_girth8_bound,
    verify_partition_bound,
)
from qcgirth.lifting import ShiftMatrix

# smallest sizes with any valid tables: (l_prime, n) -> (valid, hypothesis)
FIRST_VALID = {(3, 9): (36, 24), (3, 10): (228, 216), (4, 13): (30, 30)}

# a girth-8 witness found by search at L=4, N=9
WITNESS_9 = ShiftMatrix(
    entries=((0, 0, 0, 0), (0, 1, 3, 4), (0, 2, 6, 8)), lifting_factor=9
)


@lru_cache(maxsize=None)
def all_valid_tables(l_prime, n):
    """Every valid table at (L', N) in sweep order, validated one by one
    with no pruning: the oracle for the sweep's backtracking."""
    out = []
    for cols in combinations(range(1, n), l_prime):
        rest = [v for v in range(1, n) if v not in cols]
        for rows in permutations(rest, l_prime):
            t = Girth8Table(modulus=n, col_headers=cols, row_headers=rows)
            if validate_g8_table(t).valid:
                out.append(t)
    return tuple(out)


def test_build_g8_table():
    p = ShiftMatrix(
        entries=((0, 0, 0, 0), (0, 1, 2, 3), (0, 5, 7, 2)), lifting_factor=9
    )
    t = build_g8_table(p)
    assert t.col_headers == (1, 2, 3)
    assert t.row_headers == (5, 7, 2)
    assert t.diagonal == (4, 5, 8)
    assert t.entry(0, 1) == 3
    assert t.l_prime == 3


def test_build_g8_table_rejects_bad_input():
    with pytest.raises(ValueError, match="normalize"):
        build_g8_table(
            ShiftMatrix(entries=((0, 1, 0, 0), (0, 1, 2, 3), (0, 5, 7, 2)),
                        lifting_factor=9)
        )
    with pytest.raises(ValueError, match="3-row"):
        build_g8_table(ShiftMatrix(entries=((0, 0, 0, 0), (0, 1, 2, 3)),
                                   lifting_factor=9))
    with pytest.raises(ValueError, match="L >= 4"):
        build_g8_table(
            ShiftMatrix(entries=((0, 0, 0), (0, 1, 2), (0, 5, 7)), lifting_factor=9)
        )


def test_table_rejects_modulus_below_1():
    # modulus 0 used to raise ZeroDivisionError, and -5 gave negative headers
    for n in (0, -5):
        with pytest.raises(ValueError, match=f"modulus must be >= 1, got {n}"):
            Girth8Table(modulus=n, col_headers=(1, 2), row_headers=(3, 4))


def test_table_rejects_headers_of_different_lengths():
    with pytest.raises(ValueError, match="^header lengths differ$"):
        Girth8Table(7, (1, 2), (3,))


def test_all_zero_table_is_invalid():
    p = ShiftMatrix(entries=((0,) * 4, (0,) * 4, (0,) * 4), lifting_factor=9)
    verdict = validate_g8_table(build_g8_table(p))
    assert not verdict.valid
    assert verdict.failed_condition == 1


@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda lp: st.integers(min_value=3, max_value=30).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, n - 1), min_size=lp, max_size=lp),
                st.lists(st.integers(0, n - 1), min_size=lp, max_size=lp),
                st.just(n),
            )
        )
    )
)
def test_entry_algebra(args):
    cols, rows, n = args
    t = Girth8Table(modulus=n, col_headers=tuple(cols), row_headers=tuple(rows))
    lp = t.l_prime
    for r in range(lp):
        for c in range(lp):
            # every entry is its diagonal plus a column-header difference
            want = (t.diagonal[r] + t.col_headers[r] - t.col_headers[c]) % n
            assert t.entry(r, c) == want


def test_validate_flags_each_condition():
    dup = Girth8Table(modulus=9, col_headers=(1, 1, 2), row_headers=(3, 4, 5))
    assert validate_g8_table(dup) == validate_g8_table(dup)
    v = validate_g8_table(dup)
    assert (v.valid, v.failed_condition) == (False, 1)
    assert v.witness == (0, 1, 1)

    zero = Girth8Table(modulus=9, col_headers=(0, 1, 2), row_headers=(3, 4, 5))
    assert validate_g8_table(zero).failed_condition == 1

    neg = Girth8Table(modulus=20, col_headers=(1, 2, 3), row_headers=(19, 4, 5))
    v = validate_g8_table(neg)
    assert (v.failed_condition, v.witness) == (2, (0, 1, 18))

    rowhit = Girth8Table(modulus=20, col_headers=(1, 2, 3), row_headers=(5, 4, 9))
    v = validate_g8_table(rowhit)
    assert (v.failed_condition, v.witness) == (3, (0, 1, 4))

    offdiag = Girth8Table(modulus=30, col_headers=(1, 2, 3), row_headers=(4, 7, 6))
    v = validate_g8_table(offdiag)
    assert (v.failed_condition, v.witness) == (4, (1, 2, 0, 5))

    repeat = Girth8Table(modulus=10, col_headers=(1, 2), row_headers=(3, 4))
    v = validate_g8_table(repeat)
    assert (v.failed_condition, v.witness) == (5, (0, 1, 2))


def test_small_modulus_tables_are_all_invalid():
    # 2L' distinct nonzero headers cannot fit when N <= 2L'
    rng = random.Random(3)
    for _ in range(50):
        t = Girth8Table(
            modulus=6,
            col_headers=tuple(rng.randrange(6) for _ in range(3)),
            row_headers=tuple(rng.randrange(6) for _ in range(3)),
        )
        verdict = validate_g8_table(t)
        assert not verdict.valid
        assert verdict.failed_condition == 1


def test_witness_matrix_is_valid_and_girth8():
    assert validate_g8_table(build_g8_table(WITNESS_9)).valid
    assert check_girth8_conditions(WITNESS_9).valid
    assert has_girth_at_least(WITNESS_9, 8)


def test_two_validity_routes_agree_exhaustively():
    # every header assignment at L=4, N in {5, 6, 7}
    for n in (5, 6, 7):
        for x in range(n**6):
            vals = []
            rem = x
            for _ in range(6):
                vals.append(rem % n)
                rem //= n
            p = ShiftMatrix(
                entries=((0, 0, 0, 0), (0,) + tuple(vals[:3]), (0,) + tuple(vals[3:])),
                lifting_factor=n,
            )
            a = validate_g8_table(build_g8_table(p))
            b = check_girth8_conditions(p)
            assert (a.valid, a.failed_condition) == (b.valid, b.failed_condition), (
                n, vals)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(min_value=5, max_value=6).flatmap(
        lambda l: st.integers(min_value=8, max_value=17).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.integers(0, n - 1), min_size=2 * (l - 1),
                         max_size=2 * (l - 1)),
                st.just(l),
            )
        )
    )
)
def test_two_validity_routes_agree_on_random_instances(args):
    n, vals, l = args
    lp = l - 1
    p = ShiftMatrix(
        entries=((0,) * l, (0,) + tuple(vals[:lp]), (0,) + tuple(vals[lp:])),
        lifting_factor=n,
    )
    a = validate_g8_table(build_g8_table(p))
    b = check_girth8_conditions(p)
    assert (a.valid, a.failed_condition) == (b.valid, b.failed_condition)


def test_validity_matches_girth_oracle_exhaustively_at_n7():
    n = 7
    for x in range(n**6):
        vals = []
        rem = x
        for _ in range(6):
            vals.append(rem % n)
            rem //= n
        p = ShiftMatrix(
            entries=((0, 0, 0, 0), (0,) + tuple(vals[:3]), (0,) + tuple(vals[3:])),
            lifting_factor=n,
        )
        assert validate_g8_table(build_g8_table(p)).valid == has_girth_at_least(p, 8)


def test_valid_tables_all_have_girth_8():
    for (lp, n), (valid_count, _) in FIRST_VALID.items():
        tables = all_valid_tables(lp, n)
        assert len(tables) == valid_count
        for t in tables:
            p = ShiftMatrix(
                entries=(
                    (0,) * (lp + 1),
                    (0,) + t.col_headers,
                    (0,) + t.row_headers,
                ),
                lifting_factor=n,
            )
            assert has_girth_at_least(p, 8)


def test_row_sets():
    t = build_g8_table(WITNESS_9)
    sets = row_sets(t)
    assert all(len(s) == 3 for s in sets)
    zero = Girth8Table(modulus=5, col_headers=(0, 0), row_headers=(0, 0))
    assert row_sets(zero) == [frozenset({0}), frozenset({0})]


def test_valid_row_sets_have_full_size():
    for t in all_valid_tables(3, 9):
        sets = row_sets(t)
        assert all(len(s) == 3 for s in sets)
        for i in range(3):
            for j in range(i + 1, 3):
                assert len(sets[i] & sets[j]) <= 2


def test_extreme_intersection_pair():
    # first valid table in sweep order at N=9 has two disjoint rows
    t = Girth8Table(modulus=9, col_headers=(1, 3, 4), row_headers=(2, 6, 8))
    assert row_sets(t) == [
        frozenset({1, 8, 7}),
        frozenset({5, 3, 2}),
        frozenset({7, 5, 4}),
    ]
    assert extreme_intersection_pair(t) == (True, (0, 1, 0))

    invalid = Girth8Table(modulus=9, col_headers=(1, 1, 2), row_headers=(3, 4, 5))
    with pytest.raises(ValueError, match="valid"):
        extreme_intersection_pair(invalid)


def test_hypothesis_profile_at_smallest_sizes():
    # how many valid tables carry a 0 or L'-1 intersection pair
    for (lp, n), (valid_count, hyp_count) in FIRST_VALID.items():
        tables = all_valid_tables(lp, n)
        hits = 0
        for t in tables:
            found, pair = extreme_intersection_pair(t)
            if found:
                hits += 1
                i, j, size = pair
                assert size in (0, lp - 1)
                sets = row_sets(t)
                assert len(sets[i] & sets[j]) == size
            else:
                # every pairwise intersection sits strictly between the extremes
                sets = row_sets(t)
                for i in range(lp):
                    for j in range(i + 1, lp):
                        assert 0 < len(sets[i] & sets[j]) < lp - 1
        assert (len(tables), hits) == (valid_count, hyp_count)


def test_classify_chain_fixture():
    t = Girth8Table(modulus=10, col_headers=(1, 3, 7), row_headers=(5, 9, 8))
    assert validate_g8_table(t).valid
    c = classify_structure(t, 0, 1)
    assert c.kind is StructureKind.CHAIN
    assert c.delta == 4
    assert c.chain == (4, 8, 2, 6)
    assert len(c.chain) == t.l_prime + 1
    assert c.blocks is None


def test_classify_chain_and_blocks_fixture():
    t = Girth8Table(
        modulus=21, col_headers=(2, 16, 1, 15, 8), row_headers=(3, 10, 18, 5, 20)
    )
    assert validate_g8_table(t).valid
    c = classify_structure(t, 0, 1)
    assert c.kind is StructureKind.CHAIN_AND_BLOCKS
    assert c.delta == 7
    assert c.chain == (1, 8, 15)
    assert c.blocks == ((2, 9, 16),)
    assert (c.block_size, c.block_count) == (3, 1)
    # blocks are closed under adding delta, so k * delta vanishes
    assert (c.block_size * c.delta) % t.modulus == 0
    # chain plus blocks partition all L'+1 elements
    assert len(c.chain) == t.l_prime + 1 - c.block_size * c.block_count


def test_classify_validates_inputs():
    t = Girth8Table(modulus=10, col_headers=(1, 3, 7), row_headers=(5, 9, 8))
    with pytest.raises(ValueError, match="pair"):
        classify_structure(t, 0, 0)
    with pytest.raises(ValueError, match="L'-1"):
        classify_structure(t, 0, 2)
    invalid = Girth8Table(modulus=9, col_headers=(1, 1, 2), row_headers=(3, 4, 5))
    with pytest.raises(ValueError, match="valid"):
        classify_structure(invalid, 0, 1)


def test_no_blocks_below_l_prime_5():
    # closed blocks need k >= 3 and L' >= 5; small sizes must never show them
    for lp, n in ((3, 10), (4, 13)):
        chains = 0
        for t in all_valid_tables(lp, n):
            sets = row_sets(t)
            for i in range(lp):
                for j in range(i + 1, lp):
                    if len(sets[i] & sets[j]) == lp - 1:
                        c = classify_structure(t, i, j)
                        assert c.kind is StructureKind.CHAIN
                        chains += 1
        assert chains == (16 if lp == 3 else 0)


def test_partition_case_bound():
    assert partition_case_bound(3, 1, 5) == 16
    assert partition_case_bound(4, 1, 5) == 23
    with pytest.raises(ValueError, match="block size"):
        partition_case_bound(2, 1, 5)
    with pytest.raises(ValueError, match="block count"):
        partition_case_bound(3, 0, 5)
    with pytest.raises(ValueError, match="L'"):
        partition_case_bound(3, 1, 4)
    with pytest.raises(ValueError, match="chain"):
        partition_case_bound(3, 1, 12)


def test_verify_partition_bound_ranges():
    bound, label = verify_partition_bound(3, 1, 5)
    assert (bound, label) == (16, "large-k")
    bound, label = verify_partition_bound(3, 2, 7)
    assert (bound, label) == (27, "small-k")


def test_verify_partition_bound_raises_when_bound_falls_short(monkeypatch):
    # a library invariant must survive python -O, so it is no assert
    from qcgirth import girth8

    monkeypatch.setattr(girth8, "partition_case_bound", lambda k, ell, lp: 3 * lp - 2)
    with pytest.raises(RuntimeError, match=r"bound 13 < 3L'-1 = 14 at \(k=3, ell=1"):
        verify_partition_bound(3, 1, 5)


def test_partition_bound_dominates_everywhere():
    checked = 0
    for lp in range(5, 13):
        for k in range(3, lp + 2):
            for ell in range(1, lp + 1):
                if lp - k * ell + 1 > k:
                    continue
                bound, _ = verify_partition_bound(k, ell, lp)
                assert bound >= 3 * lp - 1
                checked += 1
    assert checked > 100


def test_verify_girth8_bound_report():
    report = verify_girth8_bound(3, 9)
    assert report.bound == 8
    assert report.n_min == 4 and report.n_max == 9
    assert [(r.n, r.valid_tables, r.hypothesis_tables) for r in report.rows] == [
        (4, 0, 0), (5, 0, 0), (6, 0, 0), (7, 0, 0), (8, 0, 0), (9, 36, 24)
    ]
    assert report.total_violations == 0
    assert report.below_bound_valid == 0


def test_sweep_matches_brute_force():
    # the pruned sweep against every table validated from scratch
    sizes = [(2, n) for n in range(3, 13)] + [(3, n) for n in range(4, 12)]
    sizes.append((4, 13))
    for lp, n in sizes:
        row = verify_girth8_bound(lp, n, n_min=n).rows[0]
        tables = all_valid_tables(lp, n)
        hits = tuple(
            (n,) + t.col_headers + t.row_headers
            for t in tables
            if extreme_intersection_pair(t)[0]
        )
        assert (row.valid_tables, row.hypothesis_tables, row.violations) == (
            len(tables), len(hits), hits if n < 3 * lp - 1 else ()
        ), (lp, n)


def test_lprime_5_frontier():
    # the first N with a valid L'=5 table is the published J=3, L=6
    # girth-8 minimum, 18
    report = verify_girth8_bound(5, 18)
    assert [r.valid_tables for r in report.rows[:-1]] == [0] * 12
    assert [r.n for r in report.rows] == list(range(6, 19))
    last = report.rows[-1]
    assert (last.n, last.valid_tables, last.hypothesis_tables) == (18, 4104, 3600)
    assert last.violations == ()
    assert report.total_violations == 0


def test_verify_girth8_bound_worker_fanout_is_deterministic():
    assert verify_girth8_bound(3, 9, n_min=8, workers=2) == verify_girth8_bound(
        3, 9, n_min=8, workers=1
    )


def test_verify_girth8_bound_validates_range():
    with pytest.raises(ValueError, match="L'"):
        verify_girth8_bound(1, 9)
    with pytest.raises(ValueError, match="empty"):
        verify_girth8_bound(3, 4, n_min=5)
    for n_min in (0, -2):
        with pytest.raises(ValueError, match="N >= 1"):
            verify_girth8_bound(3, 5, n_min=n_min)


def test_verdict_and_classification_types():
    with pytest.raises(ValueError, match="no failed condition"):
        from qcgirth.girth8 import ValidityVerdict

        ValidityVerdict(valid=True, failed_condition=3)
    c = CaseClassification(kind=StructureKind.UNRECOGNIZED, delta=5)
    assert c.chain is None and c.blocks is None
