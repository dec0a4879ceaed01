"""Command-line interface.

Each command returns its exit code and report text, and main alone writes
the report, to stdout or to --output.  Structured reports are built by
_report: line-oriented key/value text under a `<kind> 1` version header,
byte-identical across runs and worker counts; timing and other
diagnostics go to stderr only.  Exit codes: 0 success, 1 a verified
property was violated, 2 usage error (rejected input, or a file that
cannot be read or written), 3 budget exhausted.

The argument parser is built once per process, on the first call, and
every call parses into a fresh namespace, so repeated in-process calls
of main share no state.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from functools import cache
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .girth import GirthReport, girth_bfs, girth_from_shifts
from .girth8 import Girth8BoundReport, _sweep_n_min, verify_girth8_bound
from .lifting import (
    export_alist,
    export_shift_matrix,
    import_alist,
    import_shift_matrix,
    lift,
)
from .mappings import (
    BudgetError,
    MappingCensus,
    Permutation,
    compatible_pairs,
    difference_sequence,
    enumerate_complete_mappings,
    is_complete_mapping,
)
from .search import (
    girth6_even_L,
    girth6_odd_L_explicit,
    min_lifting_factor,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# what a command returns: its exit code and its report, None for no report
Result = tuple[int, Optional[str]]

# minima reproduced exhaustively by the acceptance suite; used by
# `verify min-lift` to flag regressions
REFERENCE_MIN_LIFT = {
    (3, 4, 6): 5,
    (3, 5, 6): 5,
    (3, 6, 6): 7,
    (3, 7, 6): 7,
    (3, 8, 6): 9,
    (4, 9, 6): 10,
    (3, 7, 8): 21,
    (3, 8, 8): 25,
    (4, 4, 8): 15,
    (4, 5, 8): 20,
    (4, 6, 8): 21,
    (5, 4, 8): 20,
}


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _write_output(path: str, text: str) -> None:
    """Write text to path in place, then cut a regular file to its length.

    The file is not truncated to zero first: rewriting a file that way
    makes some filesystems (ext4) flush it on close, which costs tens of
    milliseconds per call.  Only a regular file is cut, so /dev/stdout and
    FIFOs still take the report.  New files get the mode open() gives them.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _report(kind: str, lines: Iterable[str]) -> str:
    """A structured report: the `kind 1` version header, then one line each."""
    return "\n".join(chain((f"{kind} 1",), lines)) + "\n"


def _witness_lines(census: MappingCensus) -> Iterator[str]:
    """One line of space-separated images per census witness."""
    names = [str(v) for v in range(census.modulus)]
    return (" ".join(map(names.__getitem__, im)) for im in census.samples)


def _census_report(census: MappingCensus) -> str:
    head = [
        f"modulus {census.modulus}",
        f"count {census.count}",
        f"witnesses {len(census.samples)}",
    ]
    return _report("census", chain(head, _witness_lines(census)))


def _girth_report(report: GirthReport) -> str:
    return _report("girth-report", [
        f"method {report.method}",
        f"cap {report.cap}",
        f"girth {'infinite' if report.girth is None else report.girth}",
        f"count {report.shortest_cycle_count}",
        "witness " + (" ".join(report.witness) if report.witness else "-"),
    ])


def _girth8_bound_report(report: Girth8BoundReport) -> str:
    lines = [
        f"lprime {report.l_prime}",
        f"n-min {report.n_min}",
        f"n-max {report.n_max}",
        f"bound {report.bound}",
        "complete true",
    ]
    for row in report.rows:
        lines.append(
            f"N {row.n} valid {row.valid_tables} hypothesis "
            f"{row.hypothesis_tables} violations {len(row.violations)}"
        )
        for v in row.violations:
            lines.append("violation " + " ".join(str(x) for x in v))
    lines.append(f"violations-total {report.total_violations}")
    lines.append(f"below-bound-valid {report.below_bound_valid}")
    return _report("girth8-bound-report", lines)


def _cmd_mappings(args: argparse.Namespace) -> Result:
    if args.action == "check":
        images = tuple(int(tok) for tok in args.images.split(","))
        perm = Permutation(images)
        if perm.modulus % 2 == 0:
            _note("note: even modulus, no complete mapping exists at this order")
        complete = "true" if is_complete_mapping(perm) else "false"
        diffs = " ".join(str(d) for d in difference_sequence(perm))
        if args.format == "structured":
            return EXIT_OK, _report("mapping-check", [
                f"images {' '.join(str(v) for v in images)}",
                f"complete {complete}",
                f"differences {diffs}",
            ])
        return EXIT_OK, (
            f"images: {args.images}\n"
            f"complete: {complete}\n"
            f"differences mod {perm.modulus}: {diffs}\n"
        )

    limit = 0 if args.action == "count" else args.limit
    started = time.perf_counter()
    try:
        census = enumerate_complete_mappings(
            args.n, limit=limit, max_nodes=args.budget, workers=args.workers
        )
    except BudgetError as exc:
        _note(f"error: {exc}")
        census = exc.partial
        if args.format == "structured":
            return EXIT_BUDGET, _census_report(census)
        return EXIT_BUDGET, f"partial count (budget hit): {census.count}\n"
    _note(f"census took {time.perf_counter() - started:.3f}s ({census.nodes} nodes)")
    if args.format == "structured":
        return EXIT_OK, _census_report(census)
    # count keeps no witnesses, so it prints the count line alone
    lines = [f"complete mappings of Z/{args.n}: {census.count}"]
    lines.extend(_witness_lines(census))
    return EXIT_OK, "\n".join(lines) + "\n"


def _cmd_construct(args: argparse.Namespace) -> Result:
    if args.kind == "product":
        matrix = girth6_odd_L_explicit(args.l, args.h)
    else:  # even-l
        matrix = girth6_even_L(args.l)
    parity = lift(matrix)
    report = girth_bfs(parity, cap=12)
    if report.girth != 6:
        shown = "infinite" if report.girth is None else report.girth
        _note(f"error: the lifted-graph oracle finds girth {shown}, not 6")
        return EXIT_VIOLATION, None
    _note(f"girth {report.girth} verified by the lifted-graph oracle")
    return EXIT_OK, export_alist(parity) if args.alist else export_shift_matrix(matrix)


def _cmd_girth(args: argparse.Namespace) -> Result:
    with open(args.input) as fh:  # main reports an OSError as a usage error
        text = fh.read()
    is_shift = text.startswith("shift-matrix")
    try:
        matrix = import_shift_matrix(text) if is_shift else None
        parity = None if is_shift else import_alist(text)
    except ValueError as exc:  # AlistParseError included
        _note(f"error: {args.input}: {exc}")
        return EXIT_USAGE, None
    if args.method in ("shifts", "both") and not is_shift:
        _note("error: the shifts method needs a shift-matrix file, not alist")
        return EXIT_USAGE, None

    reports: list[GirthReport] = []
    if args.method in ("shifts", "both"):
        reports.append(girth_from_shifts(matrix, cap=args.cap))
    if args.method in ("bfs", "both"):
        reports.append(girth_bfs(lift(matrix) if is_shift else parity, cap=args.cap))
    out = "".join(_girth_report(r) for r in reports)
    if args.method == "both":
        agree = (
            reports[0].girth == reports[1].girth
            and reports[0].shortest_cycle_count == reports[1].shortest_cycle_count
        )
        out += f"agreement {'true' if agree else 'false'}\n"
        if not agree:
            _note("error: the two girth methods disagree")
            return EXIT_VIOLATION, out
    return EXIT_OK, out


def _cmd_verify_min_lift(args: argparse.Namespace) -> Result:
    if args.l_min > args.l_max:
        raise ValueError(f"empty L range [{args.l_min}, {args.l_max}]")
    lines = [f"J {args.j}", f"target-girth {args.girth}", f"n-max {args.n_max}"]
    code = EXIT_OK
    try:
        for l in range(args.l_min, args.l_max + 1):
            result = min_lifting_factor(
                args.j, l, args.girth, args.n_max, budget=args.budget
            )
            expected = REFERENCE_MIN_LIFT.get((args.j, l, args.girth))
            if expected is None:
                status, shown = "-", "-"
            elif result.min_n == expected:
                status, shown = "ok", str(expected)
            elif result.min_n is None and args.n_max < expected:
                # the search stopped below the reference; nothing contradicts it
                status, shown = "unreached", str(expected)
            else:
                status, shown = "mismatch", str(expected)
                code = EXIT_VIOLATION
            shown_min = "none" if result.min_n is None else str(result.min_n)
            lines.append(f"L {l} min-n {shown_min} expected {shown} {status}")
    except BudgetError as exc:
        _note(f"error: {exc}")
        lines.append("budget-exhausted true")
        code = EXIT_BUDGET
    if code == EXIT_VIOLATION:
        _note("error: computed minimum differs from the reference table")
    return code, _report("min-lift-report", lines)


def _cmd_verify_pairwise(args: argparse.Namespace) -> Result:
    # checked before the census, which would otherwise run for nothing
    if args.budget is not None and args.budget < 0:
        raise ValueError(f"check budget must be >= 0, got {args.budget}")
    census = enumerate_complete_mappings(args.n)
    code = EXIT_OK
    try:
        pairs = compatible_pairs(census, max_checks=args.budget)
    except BudgetError as exc:
        _note(f"error: {exc}")
        pairs, code = exc.partial, EXIT_BUDGET
    lines = [
        f"modulus {args.n}",
        f"mappings {census.count}",
        f"compatible-pairs {len(pairs)}",
    ]
    lines.extend(f"pair {i} {j}" for i, j in pairs)
    if code == EXIT_BUDGET:
        lines.append("budget-exhausted true")
    elif args.expect_empty and pairs:
        _note(f"error: expected no compatible pairs, found {len(pairs)}")
        code = EXIT_VIOLATION
    return code, _report("pairwise-report", lines)


def _cmd_verify_bound(args: argparse.Namespace) -> Result:
    started = time.perf_counter()
    report = verify_girth8_bound(
        args.lprime, args.n_max, n_min=args.n_min, workers=args.workers
    )
    _note(f"sweep took {time.perf_counter() - started:.3f}s")
    text = _girth8_bound_report(report)
    if report.total_violations:
        _note(f"error: {report.total_violations} bound violations found")
        return EXIT_VIOLATION, text
    return EXIT_OK, text


def _cmd_verify_conjecture(args: argparse.Namespace) -> Result:
    bound = 3 * args.lprime - 1
    n_max = args.n_max if args.n_max is not None else bound - 1
    n_min = _sweep_n_min(args.lprime, args.n_min, n_max, args.workers)
    # only the rows below the bound are reported, so only they are swept
    rows = ()
    if n_min < bound:
        rows = verify_girth8_bound(
            args.lprime, min(n_max, bound - 1), n_min=n_min, workers=args.workers
        ).rows
    lines = [
        f"lprime {args.lprime}",
        f"bound {bound}",
        f"n-min {n_min}",
        f"n-max {n_max}",
    ]
    lines += [f"N {row.n} valid {row.valid_tables}" for row in rows]
    below_bound_valid = sum(row.valid_tables for row in rows)
    lines.append(f"below-bound-valid {below_bound_valid}")
    # the unconstrained bound is unproven: counterexamples are reported,
    # never treated as failures
    if below_bound_valid:
        _note(
            f"note: {below_bound_valid} valid tables below the bound; "
            "this is evidence against the unconstrained conjecture, not an error"
        )
    return EXIT_OK, _report("girth8-conjecture-report", lines)


def _add_common(parser: argparse.ArgumentParser, workers: bool = False) -> None:
    parser.add_argument("--output", help="write the report here instead of stdout")
    if workers:
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            help="parallel workers; the output does not depend on this",
        )


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcgirth",
        description="girth analysis of quasi-cyclic liftings of complete protographs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("mappings", help="complete-mapping census and checks")
    p_map.add_argument("action", choices=("count", "enumerate", "check"))
    p_map.add_argument("--n", type=int, help="modulus")
    p_map.add_argument("--images", help="comma-separated image list for check")
    p_map.add_argument("--limit", type=int, default=None, help="witness cap")
    p_map.add_argument("--budget", type=int, default=None, help="node budget")
    p_map.add_argument(
        "--format", choices=("human", "structured"), default="human"
    )
    _add_common(p_map, workers=True)
    p_map.set_defaults(func=_cmd_mappings)

    p_con = sub.add_parser("construct", help="explicit girth-6 constructions")
    p_con.add_argument("kind", choices=("product", "even-l"))
    p_con.add_argument("--l", type=int, required=True, help="protograph columns")
    p_con.add_argument("--h", type=int, default=2, help="product multiplier")
    p_con.add_argument(
        "--alist", action="store_true", help="emit the lifted matrix as alist"
    )
    _add_common(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_gir = sub.add_parser("girth", help="girth of a stored matrix")
    p_gir.add_argument("--input", required=True, help="shift-matrix or alist file")
    p_gir.add_argument(
        "--method", choices=("shifts", "bfs", "both"), default="both"
    )
    p_gir.add_argument("--cap", type=int, default=12)
    _add_common(p_gir)
    p_gir.set_defaults(func=_cmd_girth)

    p_ver = sub.add_parser("verify", help="exhaustive verification sweeps")
    ver_sub = p_ver.add_subparsers(dest="target", required=True)

    p_ml = ver_sub.add_parser("min-lift", help="minimal lifting factors by search")
    p_ml.add_argument("--j", type=int, default=3)
    p_ml.add_argument("--girth", type=int, choices=(6, 8), default=6)
    p_ml.add_argument("--l-min", type=int, default=4)
    p_ml.add_argument("--l-max", type=int, default=8)
    p_ml.add_argument("--n-max", type=int, default=24)
    p_ml.add_argument("--budget", type=int, default=None)
    _add_common(p_ml)
    p_ml.set_defaults(func=_cmd_verify_min_lift)

    p_pw = ver_sub.add_parser("pairwise", help="mutually compatible mapping pairs")
    p_pw.add_argument("--n", type=int, required=True)
    p_pw.add_argument("--expect-empty", action="store_true")
    p_pw.add_argument(
        "--budget", type=int, default=None, help="pair-check budget"
    )
    _add_common(p_pw)
    p_pw.set_defaults(func=_cmd_verify_pairwise)

    p_gb = ver_sub.add_parser(
        "girth8-bound", help="lifting-factor bound sweep for valid tables"
    )
    p_gb.add_argument("--lprime", type=int, required=True)
    p_gb.add_argument("--n-max", type=int, required=True)
    p_gb.add_argument("--n-min", type=int, default=None)
    _add_common(p_gb, workers=True)
    p_gb.set_defaults(func=_cmd_verify_bound)

    p_gc = ver_sub.add_parser(
        "girth8-conjecture",
        help="report valid tables below the bound regardless of the hypothesis",
    )
    p_gc.add_argument("--lprime", type=int, required=True)
    p_gc.add_argument("--n-max", type=int, default=None)
    p_gc.add_argument("--n-min", type=int, default=None)
    _add_common(p_gc, workers=True)
    p_gc.set_defaults(func=_cmd_verify_conjecture)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mappings":
        if args.action in ("count", "enumerate") and args.n is None:
            parser.error("mappings count/enumerate requires --n")
        if args.action == "check" and args.images is None:
            parser.error("mappings check requires --images")
    try:
        code, text = args.func(args)
        if text:
            if args.output is None:
                sys.stdout.write(text)
            else:
                _write_output(args.output, text)
    except (ValueError, OSError) as exc:  # rejected input, unusable file
        _note(f"error: {exc}")
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
