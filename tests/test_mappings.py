import dataclasses
import gc
import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcgirth import mappings
from qcgirth.girth import GirthReport
from qcgirth.girth8 import (
    CaseClassification,
    Girth8BoundReport,
    Girth8BoundRow,
    Girth8Table,
    StructureKind,
    ValidityVerdict,
)
from qcgirth.lifting import ParityCheckMatrix, ShiftMatrix
from qcgirth.mappings import (
    DEFAULT_WITNESS_CAP,
    BudgetError,
    CompleteMapping,
    MappingCensus,
    Permutation,
    _enumerate_branch,
    _map_branches,
    almost_complete_mapping,
    compatible_pairs,
    difference_sequence,
    enumerate_complete_mappings,
    is_complete_mapping,
    is_complete_mapping_of,
    product_mapping,
    valid_product_multipliers,
)
from qcgirth.search import SearchResult

# exact counts, reproduced independently for N=5 below
ODD_COUNTS = {1: 1, 3: 1, 5: 3, 7: 19, 9: 225, 11: 3441, 13: 79259}
# census nodes: fewer nodes is better pruning, not a faster kernel
ODD_NODES = {9: 2220, 11: 50330, 13: 1617610}


def brute_force_mappings(n):
    """All complete mappings of Z/N by scanning every permutation fixing 0."""
    out = []
    for rest in itertools.permutations(range(1, n)):
        images = (0,) + rest
        if len({(images[i] - i) % n for i in range(n)}) == n:
            out.append(images)
    return out


def scan_branch(n, witness_cap, max_nodes, prefix):
    """In-test reference: the census kernel that scans every unused image.

    Each position takes every unused image, ascending, and tests its
    difference against the used differences one bit at a time; only an
    image that passes counts as a node.  Same nodes, budget stop and
    witness order as mappings._enumerate_branch, which draws only the
    images that pass.
    """
    full = (1 << n) - 1
    count = 0
    nodes = 1
    witnesses = []
    images = list(prefix) + [0] * (n - len(prefix))
    budget_hit = False

    def rec(pos, used_images, used_diffs):
        nonlocal count, nodes, budget_hit
        if pos == n:
            count += 1
            if len(witnesses) < witness_cap:
                witnesses.append(tuple(images))
            return True
        avail = full & ~used_images
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            dbit = 1 << ((v - pos) % n)
            if used_diffs & dbit:
                continue
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                budget_hit = True
                return False
            images[pos] = v
            if not rec(pos + 1, used_images | bit, used_diffs | dbit):
                return False
        return True

    if max_nodes is not None and nodes > max_nodes:
        return 0, [], nodes, True
    used_images = sum(1 << v for v in prefix)
    used_diffs = sum(1 << ((v - i) % n) for i, v in enumerate(prefix))
    rec(len(prefix), used_images, used_diffs)
    return count, witnesses, nodes, budget_hit


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


# every record: its fields in order, how many trailing fields default to
# None, and the field values of one valid instance (already normalized)
RECORDS = [
    (Permutation, "images", 0, ((0, 2, 1),)),
    (CompleteMapping, "images", 0, ((0, 2, 4, 1, 3),)),
    (MappingCensus, "modulus count samples nodes", 0, (3, 1, ((0, 2, 1),), 2)),
    (ShiftMatrix, "entries lifting_factor", 0, (((0, 0), (0, 1)), 3)),
    (ParityCheckMatrix, "n_rows n_cols adjacency", 0, (2, 2, frozenset({(0, 0), (1, 1)}))),
    (
        GirthReport,
        "girth shortest_cycle_count cap method witness",
        1,
        (4, 2, 8, "bfs", ("v0", "c0", "v1", "c1")),
    ),
    (Girth8Table, "modulus col_headers row_headers", 0, (7, (0, 1), (2, 4))),
    (ValidityVerdict, "valid failed_condition witness", 2, (False, 2, (0, 1))),
    (
        CaseClassification,
        "kind delta chain blocks block_size block_count",
        4,
        (StructureKind.CHAIN_AND_BLOCKS, 2, (0, 2), ((1, 3),), 2, 1),
    ),
    (Girth8BoundRow, "n valid_tables hypothesis_tables violations", 0, (9, 2, 1, ((9, 0, 1, 2, 4),))),
    (
        Girth8BoundReport,
        "l_prime n_min n_max bound rows",
        0,
        (2, 4, 5, 5, (Girth8BoundRow(4, 0, 0, ()),)),
    ),
    (SearchResult, "min_n witness nodes", 0, (5, ShiftMatrix(((0, 0), (0, 1)), 5), 10)),
]


@pytest.mark.parametrize(
    "cls, names, n_defaults, values", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaves_as_a_frozen_dataclass(cls, names, n_defaults, values):
    # each record against a twin built by dataclasses with the same fields
    names = names.split()
    required = len(names) - n_defaults
    twin = dataclasses.make_dataclass(
        "Twin",
        [(a, object) for a in names[:required]] + [(a, object, None) for a in names[required:]],
        frozen=True,
    )
    rec, ref = cls(*values), twin(*values)
    assert vars(rec) == vars(ref) == dict(zip(names, values))
    assert list(vars(rec)) == names
    assert repr(rec).removeprefix(cls.__qualname__) == repr(ref).removeprefix("Twin")
    assert hash(rec) == hash(ref)
    assert cls.__match_args__ == twin.__match_args__ == tuple(names)

    # construction: by position, by keyword, mixed, and with the defaults
    kwargs = dict(zip(names, values))
    assert cls(**kwargs) == rec and twin(**kwargs) == ref
    head = dict(list(kwargs.items())[1:])
    assert cls(values[0], **head) == rec and twin(values[0], **head) == ref
    short = values[:required]
    assert (cls(*short) == rec) == (twin(*short) == ref)
    assert vars(cls(*short)) == vars(twin(*short))

    # equality only within one class; the same on both sides
    assert rec == cls(*values) and not rec != cls(*values)
    assert rec != ref and ref != rec
    assert rec.__eq__(ref) is NotImplemented and ref.__eq__(rec) is NotImplemented
    assert rec != tuple(values)

    # a missing, unknown or repeated argument, or one too many
    for args, extra in [
        (values[: required - 1], {}),
        (values, {"unknown": 1}),
        (values, {names[0]: values[0]}),
        ((*values, None), {}),
    ]:
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*args, **extra)

    # assignment and deletion, of a field or of any other name
    for obj in (rec, ref):
        for name in (names[0], names[-1], "other"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert rec == cls(*values)

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(rec, protocol))
        assert type(back) is cls and back == rec and hash(back) == hash(rec)


def test_record_post_init_still_validates_and_normalizes():
    for make in [
        lambda: Permutation(()),
        lambda: Permutation((0, 0, 1)),
        lambda: Permutation(images=(1, 2, 3)),
        lambda: CompleteMapping((0, 1, 2)),
        lambda: ShiftMatrix(((0,),), 0),
        lambda: ShiftMatrix(((0, 1), (0,)), lifting_factor=3),
        lambda: ParityCheckMatrix(1, 1, frozenset({(1, 0)})),
        lambda: GirthReport(None, 1, 8, "bfs"),
        lambda: GirthReport(4, 2, 8, "bfs", witness=("v0", "c0")),
        lambda: Girth8Table(7, (0,), (1,)),
        lambda: Girth8Table(0, (0, 1), (1, 2)),
        lambda: ValidityVerdict(True, failed_condition=1),
    ]:
        with pytest.raises(ValueError):
            make()
    assert Permutation([0, 2, 1]).images == (0, 2, 1)
    assert ShiftMatrix(entries=[[5, -1]], lifting_factor=3).entries == ((2, 2),)
    assert Girth8Table(7, (8, 1), (9, 3)).col_headers == (1, 1)
    assert type(CompleteMapping((0, 2, 1)).images) is tuple


def test_difference_sequence():
    p = Permutation((0, 2, 4, 1, 3))
    assert difference_sequence(p) == (0, 1, 2, 3, 4)


def test_is_complete_mapping():
    assert is_complete_mapping(Permutation((0,)))
    assert is_complete_mapping(Permutation((0, 2, 1)))
    assert not is_complete_mapping(Permutation((0, 1, 2)))  # constant differences
    assert not is_complete_mapping(Permutation((1, 0)))  # does not fix 0


def test_complete_mapping_type_rejects_non_mappings():
    with pytest.raises(ValueError):
        CompleteMapping((0, 1, 2))
    m = CompleteMapping((0, 2, 4, 1, 3))
    assert m.modulus == 5


def test_census_counts_odd():
    for n, expected in ODD_COUNTS.items():
        census = enumerate_complete_mappings(n, limit=0)
        assert census.count == expected, f"N={n}"
        if n in ODD_NODES:
            assert census.nodes == ODD_NODES[n], f"N={n}"


def test_census_kernel_matches_scan_reference():
    # every branch, witness cap and budget stop, tuple for tuple
    for n in range(1, 12):
        prefixes = [(0,)] if n == 1 else [(0, v) for v in range(2, n)]
        for prefix in prefixes:
            for cap in (0, 2, DEFAULT_WITNESS_CAP):  # limit 0, 2 and None
                for budget in (None, 0, 1, 5, 100, 1000):
                    got = _enumerate_branch(n, cap, budget, prefix)
                    want = scan_branch(n, cap, budget, prefix)
                    assert got == want, (n, prefix, cap, budget)


def mirror(images):
    """q(i) = i - p(i) mod N, the map that sends branch p(1) = v to 1 - v."""
    n = len(images)
    return tuple((i - v) % n for i, v in enumerate(images))


def test_census_branch_mirror():
    # branch (0, v) and branch (0, 1 - v) have equal count and nodes, and
    # id - p maps the witnesses of each onto those of the other
    for n in range(3, 14):
        parts = {
            v: _enumerate_branch(n, DEFAULT_WITNESS_CAP, None, (0, v))
            for v in range(2, n)
        }
        for v, (count, witnesses, nodes, hit) in parts.items():
            m_count, m_witnesses, m_nodes, m_hit = parts[(1 - v) % n]
            assert (count, nodes, hit) == (m_count, m_nodes, m_hit), (n, v)
            assert sorted(map(mirror, witnesses)) == m_witnesses, (n, v)


def unreduced_census(n, cap, budget):
    """In-test reference: the serial census that searches every branch.

    Returns (census, budget_hit); each branch gets what is left of the
    budget, so the census stops at the node where the budget runs out.
    """
    prefixes = [(0,)] if n == 1 else [(0, v) for v in range(2, n)]
    count = nodes = 0
    witnesses = []
    hit = False
    for prefix in prefixes:
        left = None if budget is None else budget - nodes
        b_count, b_witnesses, b_nodes, hit = _enumerate_branch(n, cap, left, prefix)
        count += b_count
        nodes += b_nodes
        witnesses += b_witnesses
        if hit:
            break
    return MappingCensus(n, count, tuple(witnesses[:cap]), nodes), hit


def test_census_matches_unreduced_census_grid():
    # the mirrored census against the one that searches every branch: for
    # each witness cap, budgets at the edges and middle of every branch,
    # mirrored ones included, and one and two workers
    compared = 0
    for n in range(1, 12):
        full, _ = unreduced_census(n, 0, None)
        ends = [0]
        for v in range(2, n):
            ends.append(ends[-1] + _enumerate_branch(n, 0, None, (0, v))[2])
        budgets = {None, 0, 1, full.nodes}
        for lo, hi in zip(ends, ends[1:]):
            budgets |= {hi - 1, hi, hi + 1, (lo + hi) // 2}
        for cap in (0, 1, 7, DEFAULT_WITNESS_CAP):
            limit = None if cap == DEFAULT_WITNESS_CAP else cap
            for budget in budgets:
                want, hit = unreduced_census(n, cap, budget)
                for workers in (1, 2):
                    if not hit:
                        got = enumerate_complete_mappings(n, limit, budget, workers)
                        assert got == want, (n, cap, budget, workers)
                    else:
                        with pytest.raises(BudgetError) as info:
                            enumerate_complete_mappings(n, limit, budget, workers)
                        assert info.value.partial == want, (n, cap, budget, workers)
                    compared += 1
    assert compared > 1000


def test_census_counts_even_are_zero():
    for n in (2, 4, 6, 8):
        assert enumerate_complete_mappings(n).count == 0


def test_census_samples_are_complete_mapping_tuples():
    # the reference predicate is written out here, not is_complete_mapping:
    # the samples are the kernel's own image tuples, checked by nothing else
    for n in range(1, 14, 2):
        census = enumerate_complete_mappings(n)
        points = list(range(n))
        for im in census.samples:
            assert type(im) is tuple and all(type(v) is int for v in im), im
            assert im[0] == 0 and sorted(im) == points, im
            assert sorted((v - i) % n for i, v in enumerate(im)) == points, im
        pairs = zip(census.samples, census.samples[1:])
        assert all(a < b for a, b in pairs), f"N={n}"  # strictly ascending
        assert len(census.samples) == census.count == ODD_COUNTS[n], f"N={n}"
        assert not census.truncated


def test_census_matches_brute_force_at_5_and_7():
    for n in (5, 7):
        brute = brute_force_mappings(n)
        census = enumerate_complete_mappings(n)
        assert census.count == len(brute)
        assert list(census.samples) == brute  # lex order both ways


def test_census_witness_limit():
    census = enumerate_complete_mappings(7, limit=5)
    assert census.count == 19
    assert len(census.samples) == 5
    assert census.truncated
    full = enumerate_complete_mappings(7)
    assert not full.truncated
    assert census.samples == full.samples[:5]
    one = enumerate_complete_mappings(1, limit=0)
    assert (one.count, one.samples, one.truncated) == (1, (), True)
    with pytest.raises(ValueError, match="limit"):
        enumerate_complete_mappings(5, limit=-1)


def test_census_budget_error_carries_partial():
    # the exact stop: N = 9 runs out in its first branch, and 42000 nodes
    # run out at N = 11 inside branch p(1) = 9, the mirror of p(1) = 3
    for n, budget, nodes, count in ((9, 50, 51, 5), (11, 42000, 42001, 2835)):
        with pytest.raises(BudgetError) as info:
            enumerate_complete_mappings(n, max_nodes=budget)
        partial = info.value.partial
        assert (partial.modulus, partial.nodes, partial.count) == (n, nodes, count)
        assert len(partial.samples) == count
        assert str(info.value) == (
            f"node budget exhausted after {nodes} nodes "
            f"(partial count {count} for modulus {n})"
        )
    # a zero budget stops N = 1 at its one node, with the partial N = 3 gives
    for n in (1, 3):
        with pytest.raises(BudgetError) as info:
            enumerate_complete_mappings(n, max_nodes=0)
        assert info.value.partial == MappingCensus(n, 0, (), 1)


def test_census_worker_fanout_is_deterministic():
    single = enumerate_complete_mappings(7, workers=1)
    fanned = enumerate_complete_mappings(7, workers=2)
    assert single == fanned
    # the node budget is one total over all branches; 20000 nodes run out
    # in the fourth branch
    partials = []
    for workers in (1, 2, 3):
        with pytest.raises(BudgetError) as info:
            enumerate_complete_mappings(11, max_nodes=20000, workers=workers)
        partials.append(info.value.partial)
    assert partials[0].nodes == 20001 and partials[0].count == 1389
    assert partials[1] == partials[0] and partials[2] == partials[0]


def test_census_leaves_no_reference_cycle():
    # a cycle through the census kernel would keep its witness list alive
    # until the cycle collector next runs
    gc.collect()
    gc.disable()
    try:
        assert enumerate_complete_mappings(9).count == 225
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_map_branches_starts_no_idle_processes(monkeypatch):
    # the fan-out has at most one worker per searched branch, and none when
    # one branch is searched: N = 3 searches p(1) = 2, N = 7 p(1) = 2, 3, 4
    started = []
    start_worker = mappings._start_worker

    def recording_start(fn, branches):
        started.append(len(branches))
        return start_worker(fn, branches)

    serial = {n: enumerate_complete_mappings(n) for n in (3, 7)}
    monkeypatch.setattr(mappings, "_start_worker", recording_start)
    assert enumerate_complete_mappings(3, workers=4) == serial[3]
    assert started == []
    assert enumerate_complete_mappings(7, workers=4) == serial[7]
    assert started == [3, 3, 3]


def _slow_branch(branch):
    marker_dir, k = branch
    if k:
        time.sleep(1.0)
        Path(marker_dir, f"branch-{k}").touch()
    return k


def test_map_branches_close_stops_branches_in_flight(tmp_path):
    # a budgeted census stops reading after the branch where the budget
    # runs out; the branches already handed to workers must not run on
    results = _map_branches(_slow_branch, [(str(tmp_path), k) for k in range(4)], 2)
    assert next(results) == 0
    results.close()
    time.sleep(1.5)
    assert list(tmp_path.iterdir()) == []


def _failing_branch(k):
    if k == 2:
        raise ValueError(f"branch {k} failed")
    return k


def test_map_branches_raises_a_worker_exception_at_its_turn():
    results = _map_branches(_failing_branch, range(4), 2)
    assert [next(results), next(results)] == [0, 1]
    with pytest.raises(ValueError, match="branch 2 failed"):
        next(results)


def _run_in_own_group(script, seconds):
    """Run a Python script in a fresh process group, which is killed and
    fails the test if the script has not exited within seconds."""
    src = str(Path(mappings.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"no exit within {seconds} s")
    assert proc.returncode == 0, err


DEATH_SCRIPT = """
import os
from qcgirth.mappings import _map_branches

def die(k):
    if k == 1:
        os._exit(7)
    return k

try:
    list(_map_branches(die, range(4), 2))
except RuntimeError as exc:
    assert "exit code 7" in str(exc), exc
else:
    raise SystemExit("a dead worker raised nothing")
"""


def test_map_branches_raises_when_a_worker_dies():
    _run_in_own_group(DEATH_SCRIPT, 60)


TEARDOWN_SCRIPT = """
from qcgirth.mappings import BudgetError, _map_branches, enumerate_complete_mappings

def big(k):
    return bytes(16 << 20)

for _ in range(2000):
    try:
        enumerate_complete_mappings(9, workers=2, max_nodes=300)
    except BudgetError:
        pass
    else:
        raise SystemExit("the budget was not hit")
for _ in range(10):
    results = _map_branches(big, list(range(4)), 2)
    assert len(next(results)) == 16 << 20
    results.close()
"""


def test_map_branches_teardown_never_stalls():
    # each budgeted census closes its fan-out while a worker may still be
    # sending a result, and so does each early close of 16 MB results; a
    # teardown that waits on a lock a killed worker held stalls here
    _run_in_own_group(TEARDOWN_SCRIPT, 120)


def test_census_rejects_bad_modulus():
    with pytest.raises(ValueError):
        enumerate_complete_mappings(0)


def test_census_deep_count_within_budget():
    # a slow census fails here rather than passing or skipping
    started = time.perf_counter()
    census = enumerate_complete_mappings(15, limit=0)
    elapsed = time.perf_counter() - started
    assert census.count == 2424195
    assert census.nodes == 68644968
    assert elapsed < 300, f"N=15 census took {elapsed:.0f}s, budget 300s"
    # one mapping per 14!/count ~ 36000 permutations fixing 0
    assert abs(census.count / math.factorial(14) - 2.8e-5) < 1e-6


def test_count_path_matches_unreduced_census():
    # limit = 0 propagates state multiplicities; the reference backtracks
    # through every branch
    for n in range(1, 14):
        want, _ = unreduced_census(n, 0, None)
        assert enumerate_complete_mappings(n, limit=0) == want, n
    assert enumerate_complete_mappings(14, limit=0) == MappingCensus(14, 0, (), 9819544)


def _no_backtracking(*args, **kwargs):
    raise AssertionError("the count path backtracked or started a worker")


def test_count_path_neither_backtracks_nor_starts_processes(monkeypatch):
    # a work gate: a wall-clock bound cannot tell the two paths apart
    monkeypatch.setattr("qcgirth.mappings._enumerate_branch", _no_backtracking)
    monkeypatch.setattr(mappings, "_start_worker", _no_backtracking)
    census = enumerate_complete_mappings(15, limit=0, workers=2)
    assert (census.count, census.nodes) == (2424195, 68644968)


def test_count_path_budget_stops_early_with_exact_partial():
    # the count passes 10^5 nodes within its first layers, then the branch
    # loop backtracks to the node where the budget ran out
    started = time.perf_counter()
    with pytest.raises(BudgetError) as info:
        enumerate_complete_mappings(17, limit=0, max_nodes=10**5)
    elapsed = time.perf_counter() - started
    want, hit = unreduced_census(17, 0, 10**5)
    assert hit and info.value.partial == want
    assert elapsed < 1, f"budgeted N=17 count took {elapsed:.2f}s"


def test_product_mapping_examples():
    assert product_mapping(2, 5).images == (0, 2, 4, 1, 3)
    assert product_mapping(6, 7).images == (0, 6, 5, 4, 3, 2, 1)  # reversal


def test_product_mapping_errors_name_the_failed_premise():
    with pytest.raises(ValueError, match="odd"):
        product_mapping(2, 4)
    with pytest.raises(ValueError, match=r"gcd\(h, N\) = gcd\(3, 9\)"):
        product_mapping(3, 9)
    with pytest.raises(ValueError, match=r"gcd\(h-1, N\) = gcd\(3, 9\)"):
        product_mapping(4, 9)
    with pytest.raises(ValueError, match="h must be"):
        product_mapping(1, 5)
    with pytest.raises(ValueError, match="h must be"):
        product_mapping(5, 5)


def test_valid_product_multipliers():
    assert valid_product_multipliers(5) == [2, 3, 4]
    assert valid_product_multipliers(9) == [2, 5, 8]
    assert [h for h in valid_product_multipliers(15) if h <= 10] == [2, 8]
    assert valid_product_multipliers(3) == [2]


def test_product_mapping_complete_for_every_valid_multiplier():
    for n in range(3, 64, 2):
        multipliers = valid_product_multipliers(n)
        # the reversal multiplier N-1 qualifies at every odd N
        assert n - 1 in multipliers
        for h in multipliers:
            assert is_complete_mapping(product_mapping(h, n))


@given(st.sampled_from([3, 5, 7, 9, 11, 13, 15]), st.data())
def test_product_mapping_difference_is_linear(n, data):
    h = data.draw(st.sampled_from(valid_product_multipliers(n)))
    m = product_mapping(h, n)
    diffs = tuple(int(d) for d in difference_sequence(m))
    assert diffs == tuple(((h - 1) * i) % n for i in range(n))


def test_almost_complete_mapping_frozen_values():
    assert almost_complete_mapping(4).images == (0, 1, 3, 2)
    assert almost_complete_mapping(6).images == (0, 1, 3, 5, 2, 4)
    assert almost_complete_mapping(8).images == (0, 1, 3, 5, 7, 2, 4, 6)


def test_almost_complete_mapping_is_lex_first():
    for n in (4, 6):
        want = None
        for rest in itertools.permutations(range(1, n)):
            images = (0,) + rest
            if len({(images[i] - i) % n for i in range(n)}) == n - 1:
                want = images
                break
        assert almost_complete_mapping(n).images == want


def test_almost_complete_mapping_difference_profile():
    for n in (4, 6, 8, 10, 12):
        p = almost_complete_mapping(n)
        diffs = [(p.images[i] - i) % n for i in range(n)]
        assert len(set(diffs)) == n - 1


def test_almost_complete_mapping_rejects_odd():
    with pytest.raises(ValueError):
        almost_complete_mapping(5)
    with pytest.raises(ValueError):
        almost_complete_mapping(0)


def test_is_complete_mapping_of():
    assert is_complete_mapping_of((0, 1, 2, 3, 4), (0, 2, 4, 1, 3))
    assert not is_complete_mapping_of((0, 1, 2), (0, 1, 2))


def test_is_complete_mapping_of_validates_rows():
    with pytest.raises(ValueError, match="length"):
        is_complete_mapping_of((0, 1), (0, 1, 2))
    with pytest.raises(ValueError, match="permutations"):
        is_complete_mapping_of((0, 0, 1), (0, 1, 2))


@given(st.integers(min_value=2, max_value=9), st.data())
def test_is_complete_mapping_of_is_symmetric(n, data):
    perm = data.draw(st.permutations(list(range(n))))
    other = data.draw(st.permutations(list(range(n))))
    assert is_complete_mapping_of(perm, other) == is_complete_mapping_of(other, perm)


def test_compatible_pairs_at_5():
    census = enumerate_complete_mappings(5)
    assert compatible_pairs(census) == [(0, 1), (0, 2), (1, 2)]


def test_compatible_pairs_budget_grid():
    # a budget of m checks scans the first m pairs in lexicographic order;
    # a budget below the number of pairs raises with the mates among them
    for n in (5, 7, 9):
        census = enumerate_complete_mappings(n)
        rows = census.samples
        order = list(itertools.combinations(range(len(rows)), 2))
        # the reference is the difference test itself, written out here;
        # compatible_pairs instead looks b o a^-1 up among the witnesses
        full = [
            (i, j)
            for i, j in order
            if sorted((b - a) % n for a, b in zip(rows[i], rows[j])) == list(range(n))
        ]
        assert compatible_pairs(census) == full
        if n < 9:
            budgets = range(len(order) + 2)
        else:
            # every budget at N = 9 would take 25 202 scans of up to 25 200
            # checks; its census has no mates, so the budgets differ only in
            # whether they raise: take the edges of the first and last rows
            k = len(rows)
            budgets = {0, 1, 2, k - 2, k - 1, k, 2 * k - 4, 2 * k - 3, 2 * k - 2,
                       len(order) // 2, len(order) - 3, len(order) - 2,
                       len(order) - 1, len(order), len(order) + 1}
        for budget in budgets:
            if budget >= len(order):
                assert compatible_pairs(census, max_checks=budget) == full
                continue
            partial = [p for p in full if order.index(p) < budget]
            with pytest.raises(BudgetError) as info:
                compatible_pairs(census, max_checks=budget)
            assert info.value.partial == partial
            assert str(info.value) == (
                f"check budget exhausted after {budget} pair checks "
                f"({len(partial)} compatible pairs so far)"
            )


def test_compatible_pairs_requires_full_witnesses():
    census = enumerate_complete_mappings(5, limit=1)
    with pytest.raises(ValueError, match="witnesses"):
        compatible_pairs(census)

