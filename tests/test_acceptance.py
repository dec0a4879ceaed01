"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Every check runs in-process to completion: none passes or skips on a
wall-clock budget, so a slow kernel shows as a slow run, not a pass.
"""

import itertools
import random

from conftest import record_acceptance

from qcgirth.girth import girth_bfs, girth_from_shifts
from qcgirth.girth8 import verify_girth8_bound, verify_partition_bound
from qcgirth.lifting import (
    ShiftMatrix,
    canonical_from_mapping,
    export_alist,
    export_shift_matrix,
    import_alist,
    import_shift_matrix,
    lift,
    normalize,
)
from qcgirth.mappings import (
    Permutation,
    almost_complete_mapping,
    compatible_pairs,
    enumerate_complete_mappings,
    is_complete_mapping,
    product_mapping,
    valid_product_multipliers,
)
from qcgirth.search import girth6_even_L, min_lifting_factor


def test_criterion_01_complete_mapping_census():
    odd = {1: 1, 3: 1, 5: 3, 7: 19, 9: 225, 11: 3441}
    for n, expected in odd.items():
        assert enumerate_complete_mappings(n, limit=0).count == expected, n
    for n in (2, 4, 6, 8, 10, 12):
        assert enumerate_complete_mappings(n, limit=0).count == 0, n
    record_acceptance(
        1,
        "complete-mapping census: odd N<=13 counts 1,1,3,19,225,3441,79259 "
        "and even N<=12 all zero",
        enumerate_complete_mappings(13, limit=0).count == 79259,
    )


def test_criterion_02_minimal_lifting_factors():
    expected = {4: 5, 5: 5, 6: 7, 7: 7, 8: 9}
    got = {}
    # a returned result is exhaustive: a search out of budget raises
    for l in expected:
        got[l] = min_lifting_factor(3, l, 6, 12).min_n
    record_acceptance(
        2,
        f"minimal girth-6 lifting factors at J=3 for L=4..8 are "
        f"{tuple(got[l] for l in range(4, 9))} with exhaustive nonexistence "
        "certificates below each minimum",
        got == expected,
    )


def test_criterion_03_no_compatible_pair_at_9():
    census = enumerate_complete_mappings(9)
    pairs = compatible_pairs(census)
    record_acceptance(
        3,
        f"none of the {census.count} complete mappings of Z/9 form a mutually "
        "compatible pair, so no 4-row girth-6 matrix exists at N=9",
        census.count == 225 and pairs == [],
    )


def test_criterion_04_product_construction_girth_exactly_6():
    checked = 0
    ok = True
    for l in range(3, 16, 2):
        for h in [h for h in valid_product_multipliers(l) if h <= 10]:
            p = canonical_from_mapping(product_mapping(h, l))
            girth = girth_bfs(lift(p), cap=12).girth
            ok = ok and girth == 6
            checked += 1
    record_acceptance(
        4,
        f"product construction yields girth exactly 6 for every odd L in 3..15 "
        f"and every valid multiplier h <= 10 ({checked} cases, lifted-graph oracle)",
        ok and checked == 32,
    )


def test_criterion_05_mapping_iff_no_4cycles():
    ok = True
    checked = 0
    for n in (3, 5, 7):
        for rest in itertools.permutations(range(1, n)):
            perm = Permutation((0,) + rest)
            lifted = lift(canonical_from_mapping(perm))
            four_free = girth_bfs(lifted, 4).girth is None
            ok = ok and (four_free == is_complete_mapping(perm))
            checked += 1
    record_acceptance(
        5,
        "a permutation fixing 0 lifts to a 4-cycle-free 3-row code iff it is "
        f"a complete mapping, for all {checked} permutations at N in 3,5,7",
        ok and checked == 2 + 24 + 720,
    )


def test_criterion_06_almost_complete_mapping_4cycle_count():
    ok = True
    for n in (4, 6, 8):
        p = canonical_from_mapping(almost_complete_mapping(n))
        shift_count = girth_from_shifts(p, 4).shortest_cycle_count
        graph_count = girth_bfs(lift(p), 4).shortest_cycle_count
        ok = ok and shift_count == graph_count == n
    record_acceptance(
        6,
        "almost-complete mappings at even N in 4,6,8 lift to exactly N distinct "
        "4-cycles, agreed by the shift oracle and the lifted-graph oracle",
        ok,
    )


def test_criterion_07_oracle_agreement_500():
    rng = random.Random(20250825)
    disagreements = 0
    for _ in range(500):
        j = rng.randint(2, 3)
        l = rng.randint(2, 6)
        n = rng.randint(2, 13)
        p = ShiftMatrix(
            entries=tuple(
                tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
            ),
            lifting_factor=n,
        )
        a = girth_from_shifts(p, 12)
        b = girth_bfs(lift(p), 12)
        if (a.girth, a.shortest_cycle_count) != (b.girth, b.shortest_cycle_count):
            disagreements += 1
    record_acceptance(
        7,
        "structural and lifted-graph girth oracles agree (girth and shortest-"
        f"cycle count) on 500 seeded instances, {disagreements} disagreements",
        disagreements == 0,
    )


def test_criterion_08_no_valid_table_below_necessary_bound():
    ok = True
    for l in (4, 5):
        lp = l - 1
        report = verify_girth8_bound(lp, 2 * (l - 1))
        ok = ok and all(r.valid_tables == 0 for r in report.rows)
    record_acceptance(
        8,
        "exhaustive sweeps find no valid difference table with N <= 2(L-1) "
        "for L in 4,5",
        ok,
    )


def test_criterion_09_intersection_bound_sweep():
    report3 = verify_girth8_bound(3, 10)
    ok = report3.total_violations == 0
    notes = [
        f"L'=3 scanned to N=10: {report3.below_bound_valid} valid tables below "
        f"bound {report3.bound}"
    ]

    report4 = verify_girth8_bound(4, 13)
    ok = ok and report4.total_violations == 0
    notes.append(
        f"L'=4 scanned to N=13: {report4.below_bound_valid} valid tables "
        f"below bound {report4.bound}"
    )
    record_acceptance(
        9,
        "every valid table with an extreme row-pair intersection has "
        "N >= 3L'-1, zero violations; conjecture scan reported: "
        + "; ".join(notes),
        ok,
    )


def test_criterion_10_partition_bound_sweep():
    checked = 0
    ok = True
    for lp in range(5, 13):
        for k in range(3, lp + 2):
            for ell in range(1, lp + 1):
                if lp - k * ell + 1 > k:
                    continue
                bound, _ = verify_partition_bound(k, ell, lp)
                ok = ok and bound >= 3 * lp - 1
                checked += 1
    record_acceptance(
        10,
        f"chain-and-blocks lower bound dominates 3L'-1 for all {checked} "
        "admissible (block size, block count, L') triples with L' <= 12",
        ok,
    )


def test_criterion_11_roundtrips_and_girth_invariance():
    artifacts = [
        min_lifting_factor(3, l, 6, 12).witness for l in range(4, 9)
    ]
    artifacts.append(min_lifting_factor(3, 4, 8, 12).witness)
    artifacts.extend(
        canonical_from_mapping(product_mapping(2, l)) for l in (3, 5, 7, 9)
    )
    artifacts.extend(girth6_even_L(l) for l in (4, 6, 8))
    artifacts.extend(
        canonical_from_mapping(almost_complete_mapping(n)) for n in (4, 6, 8)
    )
    ok = True
    for p in artifacts:
        ok = ok and import_shift_matrix(export_shift_matrix(p)) == p
        h = lift(p)
        ok = ok and import_alist(export_alist(h)) == h

    rng = random.Random(11)
    invariant = 0
    for _ in range(100):
        j, l, n = rng.randint(2, 3), rng.randint(2, 5), rng.randint(2, 9)
        p = ShiftMatrix(
            entries=tuple(
                tuple(rng.randrange(n) for _ in range(l)) for _ in range(j)
            ),
            lifting_factor=n,
        )
        base = girth_from_shifts(p, 12)
        renamed = girth_from_shifts(normalize(p), 12)
        order = list(range(l))
        rng.shuffle(order)
        permuted = girth_from_shifts(
            ShiftMatrix(
                entries=tuple(tuple(row[c] for c in order) for row in p.entries),
                lifting_factor=n,
            ),
            12,
        )
        if (
            base.girth == renamed.girth == permuted.girth
            and base.shortest_cycle_count
            == renamed.shortest_cycle_count
            == permuted.shortest_cycle_count
        ):
            invariant += 1
    ok = ok and invariant == 100
    record_acceptance(
        11,
        f"alist and shift-matrix round-trips are lossless on {len(artifacts)} "
        "artifacts; girth and cycle count invariant under normalize and column "
        f"permutation on {invariant}/100 seeded instances",
        ok,
    )
