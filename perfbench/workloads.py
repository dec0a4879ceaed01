"""Workload job lists, their generated inputs and their correctness checks.

A job is one `qcgirth` command line.  Each workload is a list of jobs run
one after another (a closed loop with one client).  Every job carries a
check of its exit code and stdout; the workload also runs cross-checks
between jobs.  A check returns None when the job is correct and a short
reason otherwise.

Only `oracle-crosscheck` draws inputs from the seed.  Its generated files
are written by `prepare`, which is part of the timed set-up.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
from math import gcd
from dataclasses import dataclass
from typing import Callable, Optional

# stdout of every job in the same pass, by job key: (exit code, stdout)
Outputs = dict[str, tuple[int, str]]
Check = Callable[[str, Outputs], Optional[str]]


@dataclass(frozen=True)
class Job:
    key: str
    argv: tuple[str, ...]
    check: Check  # run only when the job exits 0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest(expected: str) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        got = _sha(out)
        return None if got == expected else f"stdout digest {got[:12]} != {expected[:12]}"

    return check


def _all(*checks: Check) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        for c in checks:
            problem = c(out, outs)
            if problem:
                return problem
        return None

    return check


def _has_lines(*lines: str) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        have = set(out.splitlines())
        missing = [ln for ln in lines if ln not in have]
        return f"missing line {missing[0]!r}" if missing else None

    return check


def _same_as(key: str) -> Check:
    """Byte-identical to the stdout of an earlier job of the same pass."""

    def check(out: str, outs: Outputs) -> Optional[str]:
        return None if outs[key][1] == out else f"stdout differs from job {key}"

    return check


# sha256 of stdout, recorded from the serial runs at the commit that
# introduced the benchmark; a byte change in any report fails the job
DIGESTS = {
    "min-lift-g8": "68c9d76e95fac3e7786f8eb3cb81a105966e150cc0b75c1ad21dcc7fef606420",
    "girth8-bound-l4": "aabcec145ff4c615cb7b5be8ac17aa16bc86816eb023374169e36992cdbb3d51",
    "girth8-conjecture-l3": "4d2724bad743ea717eddbfcbecfe1d763f30ca8d6265d6bacb0e960b6d1fbe26",
    "census-count-13": "ccff8e3edd0581d2e2da2c407bcd9c89291babc5d766f416b244b21442e0c8a0",
    "census-enum-13": "e5235ca17f563c606b5c5b914232c9a17a332c3d1f24bcedde68be0d9ef69248",
    "census-enum-11": "8a9698da5e5f8ab233f71ea196c4601e5b5586e804fb3c5f5ea7da4fe59357b5",
    "pairwise-9": "829bf3739eaef5b669f6ea2252c656e29fee8ac1688e31297b988592a57feff4",
    "min-lift-j4-l9": "3665fab530920fb98aa7f0b5a017aa6ad1d4b1ec3b0d1609050b1a2f4aa8c5b8",
}


def _bound_rows(l_prime: int, n_max: int, valid_at: dict[int, int]) -> Check:
    """Per-N valid and hypothesis table counts of a girth8-bound report."""
    want = [
        f"N {n} valid {valid_at.get(n, 0)} hypothesis {valid_at.get(n, 0)} violations 0"
        for n in range(l_prime + 1, n_max + 1)
    ]
    return _has_lines(*want, "violations-total 0", "below-bound-valid 0")


def _first_valid_equals_min_lift(out: str, outs: Outputs) -> Optional[str]:
    """The first N with a valid L'=4 table must equal the J=3, L=5 girth-8
    minimum found by the search, two routes that share no code."""
    first = next(
        (int(m[1]) for m in re.finditer(r"^N (\d+) valid ([1-9]\d*) ", out, re.M)),
        None,
    )
    m = re.search(r"^L 5 min-n (\S+) ", outs["min-lift-g8"][1], re.M)
    searched = m[1] if m else "missing"
    return None if str(first) == searched else f"sweep first N {first} != search {searched}"


def _girth8_frontier(workdir: str, seed: int) -> list[Job]:
    return [
        Job(
            "min-lift-g8",
            ("verify", "min-lift", "--j", "3", "--girth", "8",
             "--l-min", "4", "--l-max", "6", "--n-max", "14"),
            _all(
                _has_lines(
                    "L 4 min-n 9 expected - -",
                    "L 5 min-n 13 expected - -",
                    "L 6 min-n none expected - -",
                ),
                _digest(DIGESTS["min-lift-g8"]),
            ),
        ),
        Job(
            "girth8-bound-l4",
            ("verify", "girth8-bound", "--lprime", "4", "--n-max", "13",
             "--workers", "2"),
            # the digest is that of the serial sweep: --workers must not
            # change a byte
            _all(
                _bound_rows(4, 13, {13: 30}),
                _digest(DIGESTS["girth8-bound-l4"]),
                _first_valid_equals_min_lift,
            ),
        ),
        Job(
            "girth8-conjecture-l3",
            ("verify", "girth8-conjecture", "--lprime", "3"),
            _all(
                _has_lines("below-bound-valid 0"),
                _digest(DIGESTS["girth8-conjecture-l3"]),
            ),
        ),
    ]


def _census_report(n: int, count: int) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        lines = out.splitlines()
        head = ["census 1", f"modulus {n}", f"count {count}", f"witnesses {count}"]
        if lines[:4] != head:
            return f"census header {lines[:4]!r}"
        if len(lines) != 4 + count:
            return f"{len(lines) - 4} witness lines, want {count}"
        return None

    return check


def _census(workdir: str, seed: int) -> list[Job]:
    return [
        Job(
            "census-count-13",
            ("mappings", "count", "--n", "13"),
            _all(
                _has_lines("complete mappings of Z/13: 79259"),
                _digest(DIGESTS["census-count-13"]),
            ),
        ),
        Job(
            "census-count-13-w2",
            ("mappings", "count", "--n", "13", "--workers", "2"),
            _same_as("census-count-13"),
        ),
        Job(
            "census-enum-13",
            ("mappings", "enumerate", "--n", "13", "--format", "structured"),
            _all(_census_report(13, 79259), _digest(DIGESTS["census-enum-13"])),
        ),
        Job(
            "census-enum-11",
            ("mappings", "enumerate", "--n", "11", "--format", "structured"),
            _all(_census_report(11, 3441), _digest(DIGESTS["census-enum-11"])),
        ),
    ]


def _pair_report(n: int, mappings: int, pairs: int) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        lines = out.splitlines()
        head = ["pairwise-report 1", f"modulus {n}", f"mappings {mappings}",
                f"compatible-pairs {pairs}"]
        if lines[:4] != head:
            return f"pairwise header {lines[:4]!r}"
        if len(lines) != 4 + pairs:
            return f"{len(lines) - 4} pair lines, want {pairs}"
        return None

    return check


def _mates(workdir: str, seed: int) -> list[Job]:
    # `verify pairwise --n 11` (2016 pairs) would fit here too, but one pass
    # of it takes about 50 s, too long to repeat in every benchmark run
    return [
        Job(
            "pairwise-9",
            ("verify", "pairwise", "--n", "9", "--expect-empty"),
            _all(_pair_report(9, 225, 0), _digest(DIGESTS["pairwise-9"])),
        ),
        Job(
            "min-lift-j4-l9",
            ("verify", "min-lift", "--j", "4", "--l-min", "9", "--l-max", "9",
             "--n-max", "12"),
            _all(
                _has_lines("L 9 min-n 10 expected 10 ok"),
                _digest(DIGESTS["min-lift-j4-l9"]),
            ),
        ),
    ]


# --- oracle-crosscheck: seeded shift matrices ------------------------------

# Girth-10 4 x 8 matrices at N > 10^4, found by random search and measured
# with `girth --method shifts --cap 12`: (N, rows, girth, shortest cycles).
# Each run applies a seeded u*P + a_j + b_l (u a unit): every cycle sum is
# scaled by u and the offsets cancel, so the same tuples close cycles in
# the same order.  The girth, the count and the work stay exact, and only
# the entries (and the witness) depend on the seed.
LARGE_BASES = (
    (10007, ((0, 0, 0, 0, 0, 0, 0, 0),
             (0, 9273, 3175, 2183, 4229, 4783, 5583, 1040),
             (0, 9761, 400, 8735, 5035, 7748, 8999, 4296),
             (0, 7293, 9121, 2794, 3315, 1879, 3103, 4467)), 10, 230161),
    (20011, ((0, 0, 0, 0, 0, 0, 0, 0),
             (0, 1236, 2491, 13191, 18382, 2855, 7223, 19772),
             (0, 17244, 12869, 14009, 5267, 13060, 3964, 18786),
             (0, 19285, 3635, 17145, 1646, 17534, 8758, 5871)), 10, 320176),
)

# odd L of the two product constructions; the seed picks the multiplier
ALIST_L = (25, 27)
SMALL_INSTANCES = 300
MEDIUM_INSTANCES = 30


def _shift_text(rows: list[list[int]], n: int) -> str:
    lines = ["shift-matrix 1", f"J {len(rows)}", f"L {len(rows[0])}", f"N {n}"]
    lines.extend("row " + " ".join(str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _random_rows(rng: random.Random, j: int, l: int, n: int) -> list[list[int]]:
    return [[rng.randrange(n) for _ in range(l)] for _ in range(j)]


def _reports(out: str) -> list[tuple[str, str, str]]:
    """(method, girth, count) of each girth report in stdout."""
    return re.findall(r"^method (\S+)\ncap \d+\ngirth (\S+)\ncount (\d+)$", out, re.M)


def _both_agree(out: str, outs: Outputs) -> Optional[str]:
    reps = _reports(out)
    if len(reps) != 2 or "agreement true" not in out.splitlines():
        return "missing girth reports or agreement line"
    if reps[0][1:] != reps[1][1:]:
        return f"shifts {reps[0][1:]} != bfs {reps[1][1:]}"
    return None


def _girth_is(girth: int, count: int) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        reps = _reports(out)
        want = [("shifts", str(girth), str(count))]
        return None if reps == want else f"report {reps} != {want}"

    return check


def _product_rows(l: int, h: int) -> list[list[int]]:
    """Canonical 3 x L matrix of i -> h*i over Z/L (rows 0, i, h*i)."""
    return [[0] * l, list(range(l)), [h * i % l for i in range(l)]]


def _alist_of(rows: list[list[int]], n: int) -> str:
    """Alist text of the lifted matrix, built independently of qcgirth."""
    j, l = len(rows), len(rows[0])
    by_col = [[] for _ in range(l * n)]
    by_row = [[] for _ in range(j * n)]
    for a in range(j):
        for b in range(l):
            for r in range(n):
                row, col = a * n + r, b * n + (r + rows[a][b]) % n
                by_col[col].append(row + 1)
                by_row[row].append(col + 1)
    lines = [f"{l * n} {j * n}", f"{j} {l}",
             " ".join([str(j)] * (l * n)), " ".join([str(l)] * (j * n))]
    lines.extend(" ".join(map(str, sorted(c))) for c in by_col)
    lines.extend(" ".join(map(str, sorted(r))) for r in by_row)
    return "\n".join(lines) + "\n"


def _file_is(path: str, expected: str) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        with open(path) as fh:
            got = fh.read()
        return None if got == expected else f"{os.path.basename(path)} is not the lifted matrix"

    return check


def _bfs_matches_shifts(shifts_key: str) -> Check:
    def check(out: str, outs: Outputs) -> Optional[str]:
        bfs = [r[1:] for r in _reports(out) if r[0] == "bfs"]
        shifts = [r[1:] for r in _reports(outs[shifts_key][1]) if r[0] == "shifts"]
        if len(bfs) != 1 or bfs != shifts:
            return f"alist bfs {bfs} != shifts {shifts}"
        return None if bfs[0][0] == "6" else f"product girth {bfs[0][0]} != 6"

    return check


def _oracle_crosscheck(workdir: str, seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs: list[Job] = []

    def write(name: str, text: str) -> str:
        path = os.path.join(workdir, name)
        data = text.encode()
        # rewrite in place: ext4 flushes a file truncated to zero right after
        # it was written, which made set-up several times slower and noisier
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            with os.fdopen(fd, "wb", closefd=False) as fh:
                fh.write(data)
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        return path

    # drawn like the 500-instance oracle-agreement acceptance criterion
    sizes = [("small", SMALL_INSTANCES, (2, 3), (2, 6), (2, 13)),
             ("medium", MEDIUM_INSTANCES, (3, 4), (4, 8), (20, 60))]
    for tag, count, j_range, l_range, n_range in sizes:
        for i in range(count):
            j, l, n = (rng.randint(*j_range), rng.randint(*l_range),
                       rng.randint(*n_range))
            path = write(f"{tag}{i}.txt", _shift_text(_random_rows(rng, j, l, n), n))
            jobs.append(Job(f"{tag}{i}", ("girth", "--input", path, "--method", "both"),
                            _both_agree))

    for i, (n, base, girth, cycles) in enumerate(LARGE_BASES):
        u = rng.randrange(1, n)
        row_off = [rng.randrange(n) for _ in base]
        col_off = [rng.randrange(n) for _ in base[0]]
        rows = [[(u * v + row_off[a] + col_off[b]) % n for b, v in enumerate(row)]
                for a, row in enumerate(base)]
        path = write(f"large{i}.txt", _shift_text(rows, n))
        jobs.append(Job(f"large{i}",
                        ("girth", "--input", path, "--method", "shifts", "--cap", "12"),
                        _girth_is(girth, cycles)))

    for l in ALIST_L:
        h = rng.choice([h for h in range(2, l) if gcd(h, l) == 1 and gcd(h - 1, l) == 1])
        rows = _product_rows(l, h)
        alist = os.path.join(workdir, f"product{l}.alist")
        shifts = write(f"product{l}.txt", _shift_text(rows, l))
        jobs.append(Job(f"product{l}",
                        ("construct", "product", "--l", str(l), "--h", str(h),
                         "--alist", "--output", alist),
                        _file_is(alist, _alist_of(rows, l))))
        jobs.append(Job(f"product{l}-shifts",
                        ("girth", "--input", shifts, "--method", "shifts"),
                        lambda out, outs: None if _reports(out) else "no girth report"))
        jobs.append(Job(f"product{l}-bfs",
                        ("girth", "--input", alist, "--method", "bfs"),
                        _bfs_matches_shifts(f"product{l}-shifts")))
    return jobs


# why each workload exists is recorded in BENCHMARK.json
WORKLOADS: dict[str, Callable[[str, int], list[Job]]] = {
    "girth8-frontier": _girth8_frontier,
    "oracle-crosscheck": _oracle_crosscheck,
    "census": _census,
    "mates": _mates,
}


def prepare(workload: str, workdir: str, seed: int) -> list[Job]:
    """Write the workload's inputs under workdir and return its jobs."""
    return WORKLOADS[workload](workdir, seed)
