import hashlib
import os
import threading

import pytest

from qcgirth import cli
from qcgirth.cli import (
    EXIT_BUDGET,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)
from qcgirth.girth import GirthReport
from qcgirth.girth8 import verify_girth8_bound
from qcgirth.lifting import (
    ShiftMatrix,
    export_alist,
    export_shift_matrix,
    lift,
)
from qcgirth.mappings import enumerate_complete_mappings
from qcgirth.search import girth6_odd_L_explicit


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mappings_count_structured(capsys):
    code, out, err = run(capsys, ["mappings", "count", "--n", "5",
                                  "--format", "structured"])
    assert code == EXIT_OK
    assert out == "census 1\nmodulus 5\ncount 3\nwitnesses 0\n"
    assert "census took" in err  # timing goes to stderr only


def test_mappings_enumerate_structured(capsys):
    code, out, _ = run(capsys, ["mappings", "enumerate", "--n", "5",
                                "--format", "structured"])
    assert code == EXIT_OK
    assert out == (
        "census 1\nmodulus 5\ncount 3\nwitnesses 3\n"
        "0 2 4 1 3\n0 3 1 4 2\n0 4 3 2 1\n"
    )
    # the witness cap holds at N = 1 too
    code, out, _ = run(capsys, ["mappings", "enumerate", "--n", "1",
                                "--limit", "0", "--format", "structured"])
    assert code == EXIT_OK
    assert out == "census 1\nmodulus 1\ncount 1\nwitnesses 0\n"


def test_mappings_enumerate_human(capsys):
    code, out, _ = run(capsys, ["mappings", "enumerate", "--n", "5"])
    assert code == EXIT_OK
    assert out.startswith("complete mappings of Z/5: 3\n")


def test_mappings_check(capsys):
    code, out, _ = run(capsys, ["mappings", "check", "--images", "0,2,4,1,3",
                                "--format", "structured"])
    assert code == EXIT_OK
    assert out == (
        "mapping-check 1\nimages 0 2 4 1 3\ncomplete true\n"
        "differences 0 1 2 3 4\n"
    )


def test_mappings_check_even_modulus_notes_to_stderr(capsys):
    code, out, err = run(capsys, ["mappings", "check", "--images", "0,1,3,2"])
    assert code == EXIT_OK
    assert "even modulus" in err
    assert "complete: false" in out


def test_mappings_check_rejects_non_permutation(capsys):
    code, _, err = run(capsys, ["mappings", "check", "--images", "0,0,1"])
    assert code == EXIT_USAGE
    assert "error" in err


def test_mappings_requires_n():
    with pytest.raises(SystemExit) as info:
        main(["mappings", "count"])
    assert info.value.code == EXIT_USAGE


def test_mappings_budget_exit(capsys):
    code, out, err = run(capsys, ["mappings", "count", "--n", "9",
                                  "--budget", "50"])
    assert code == EXIT_BUDGET
    assert "budget" in err
    assert "partial count" in out


def test_mappings_worker_fanout_same_bytes(capsys):
    _, single, _ = run(capsys, ["mappings", "enumerate", "--n", "7",
                                "--format", "structured"])
    _, fanned, _ = run(capsys, ["mappings", "enumerate", "--n", "7",
                                "--format", "structured", "--workers", "2"])
    assert single == fanned
    budget = ["mappings", "count", "--n", "11", "--budget", "2000"]
    for workers in ("1", "2", "3"):
        code, out, err = run(capsys, budget + ["--workers", workers])
        assert code == EXIT_BUDGET
        assert out == "partial count (budget hit): 152\n"
        assert "after 2001 nodes" in err


def test_construct_product(capsys):
    code, out, err = run(capsys, ["construct", "product", "--l", "5"])
    assert code == EXIT_OK
    assert out == (
        "shift-matrix 1\nJ 3\nL 5\nN 5\n"
        "row 0 0 0 0 0\nrow 0 1 2 3 4\nrow 0 2 4 1 3\n"
    )
    assert "girth 6" in err


def test_construct_product_rejects_even_l(capsys):
    code, _, err = run(capsys, ["construct", "product", "--l", "4"])
    assert code == EXIT_USAGE
    assert "odd" in err


def test_construct_rejects_bad_multiplier(capsys):
    code, _, err = run(capsys, ["construct", "product", "--l", "9", "--h", "3"])
    assert code == EXIT_USAGE
    assert "gcd" in err


def test_construct_fails_when_the_oracle_disagrees(tmp_path, capsys, monkeypatch):
    def girth_four(parity, cap):
        return GirthReport(girth=4, shortest_cycle_count=5, cap=cap, method="bfs")

    monkeypatch.setattr("qcgirth.cli.girth_bfs", girth_four)
    code, out, err = run(capsys, ["construct", "product", "--l", "5"])
    assert (code, out) == (EXIT_VIOLATION, "")
    assert "error" in err and "girth 4" in err and "verified" not in err
    target = tmp_path / "p.alist"
    code, out, _ = run(capsys, ["construct", "product", "--l", "5", "--alist",
                                "--output", str(target)])
    assert (code, out) == (EXIT_VIOLATION, "")
    assert not target.exists()


def test_construct_even_l(capsys):
    code, out, _ = run(capsys, ["construct", "even-l", "--l", "6"])
    assert code == EXIT_OK
    assert out.startswith("shift-matrix 1\nJ 3\nL 6\nN 7\n")


def test_construct_alist_output(capsys):
    code, out, _ = run(capsys, ["construct", "product", "--l", "5", "--alist"])
    assert code == EXIT_OK
    assert out == export_alist(lift(girth6_odd_L_explicit(5, 2)))


def test_girth_both_methods(tmp_path, capsys):
    path = tmp_path / "p.shifts"
    path.write_text(export_shift_matrix(girth6_odd_L_explicit(5, 2)))
    code, out, _ = run(capsys, ["girth", "--input", str(path)])
    assert code == EXIT_OK
    assert out.count("girth-report 1") == 2
    assert "method shifts" in out and "method bfs" in out
    assert out.count("girth 6") == 2
    assert out.count("count 100") == 2
    assert out.endswith("agreement true\n")


def test_girth_on_alist_file(tmp_path, capsys):
    path = tmp_path / "p.alist"
    path.write_text(export_alist(lift(girth6_odd_L_explicit(5, 2))))
    code, out, _ = run(capsys, ["girth", "--input", str(path), "--method", "bfs"])
    assert code == EXIT_OK
    assert "method bfs" in out and "girth 6" in out


@pytest.mark.parametrize("text", [
    "2 2\n1 1\n1 1\n1 0\n1\n2\n1\n\n",  # row section misses (1, 1)
    "1 1\n1 2\n1\n2\n1\n1 1\n",  # row 0 lists column 0 twice
])
def test_girth_rejects_alist_whose_sections_disagree(tmp_path, capsys, text):
    path = tmp_path / "p.alist"
    path.write_text(text)
    code, out, err = run(capsys, ["girth", "--input", str(path), "--method", "bfs"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "error:" in err


@pytest.mark.parametrize("tail", ["1 2\n", "junk\n"])
def test_girth_rejects_alist_with_trailing_text(tmp_path, capsys, tail):
    good = export_alist(lift(ShiftMatrix(entries=((1,),), lifting_factor=2)))
    path = tmp_path / "p.alist"
    path.write_text(good + tail)
    code, out, err = run(capsys, ["girth", "--input", str(path), "--method", "bfs"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "after the row section" in err


def test_girth_shifts_method_requires_shift_file(tmp_path, capsys):
    path = tmp_path / "p.alist"
    path.write_text(export_alist(lift(girth6_odd_L_explicit(5, 2))))
    code, _, err = run(capsys, ["girth", "--input", str(path),
                                "--method", "shifts"])
    assert code == EXIT_USAGE
    assert "shift-matrix" in err


def test_girth_shifts_method_does_not_lift(tmp_path, capsys, monkeypatch):
    def no_lift(matrix):
        raise AssertionError("the shifts method needs no lifted matrix")

    monkeypatch.setattr("qcgirth.cli.lift", no_lift)
    path = tmp_path / "p.shifts"
    path.write_text(export_shift_matrix(girth6_odd_L_explicit(5, 2)))
    code, out, _ = run(capsys, ["girth", "--input", str(path),
                                "--method", "shifts"])
    assert code == EXIT_OK
    assert "method shifts" in out and "girth 6" in out


def test_girth_shifts_report_bytes(tmp_path, capsys):
    path = tmp_path / "p.shifts"
    path.write_text(export_shift_matrix(ShiftMatrix(((0, 0), (0, 0)), 2)))
    code, out, _ = run(capsys, ["girth", "--input", str(path),
                                "--method", "shifts"])
    assert code == EXIT_OK
    assert out == (
        "girth-report 1\nmethod shifts\ncap 12\ngirth 4\ncount 2\n"
        "witness v0 c0 v2 c2\n"
    )
    # one row closes no cycle
    path.write_text(export_shift_matrix(ShiftMatrix(((0, 1, 2),), 3)))
    code, out, _ = run(capsys, ["girth", "--input", str(path),
                                "--method", "shifts", "--cap", "8"])
    assert code == EXIT_OK
    assert out == (
        "girth-report 1\nmethod shifts\ncap 8\ngirth infinite\ncount 0\n"
        "witness -\n"
    )


def test_girth_missing_file(capsys):
    code, _, err = run(capsys, ["girth", "--input", "/nonexistent/x"])
    assert code == EXIT_USAGE
    assert "error" in err


def test_girth_rejects_odd_cap(tmp_path, capsys):
    path = tmp_path / "p.shifts"
    path.write_text(export_shift_matrix(girth6_odd_L_explicit(5, 2)))
    code, _, err = run(capsys, ["girth", "--input", str(path), "--cap", "7"])
    assert code == EXIT_USAGE
    assert "cap" in err


def test_verify_min_lift(capsys):
    code, out, _ = run(capsys, ["verify", "min-lift", "--l-min", "4",
                                "--l-max", "5", "--n-max", "6"])
    assert code == EXIT_OK
    assert out == (
        "min-lift-report 1\nJ 3\ntarget-girth 6\nn-max 6\n"
        "L 4 min-n 5 expected 5 ok\nL 5 min-n 5 expected 5 ok\n"
    )


def test_format_belongs_to_mappings_only():
    # every other command writes its one format, so --format is a usage error
    with pytest.raises(SystemExit) as info:
        main(["verify", "min-lift", "--l-min", "4", "--l-max", "5",
              "--n-max", "6", "--format", "structured"])
    assert info.value.code == EXIT_USAGE


def test_verify_min_lift_flags_mismatch(capsys, monkeypatch):
    # a reference the search contradicts is a violation: a minimum above
    # or below it, or none in a range that reaches it
    for girth, wrong, shown in ((6, 4, "5"), (6, 6, "5"), (8, 5, "none")):
        monkeypatch.setitem(cli.REFERENCE_MIN_LIFT, (3, 4, girth), wrong)
        code, out, err = run(capsys, ["verify", "min-lift", "--girth", str(girth),
                                      "--l-min", "4", "--l-max", "4",
                                      "--n-max", "6"])
        assert code == EXIT_VIOLATION
        assert f"L 4 min-n {shown} expected {wrong} mismatch" in out
        assert "differs" in err
    # n-max below the reference minimum only leaves it unreached
    monkeypatch.undo()
    code, out, err = run(capsys, ["verify", "min-lift", "--l-min", "4",
                                  "--l-max", "4", "--n-max", "4"])
    assert code == EXIT_OK
    assert out.endswith("L 4 min-n none expected 5 unreached\n")
    assert "differs" not in err


def test_verify_min_lift_girth8_reference(capsys):
    # J = 3 girth 8 at L = 7: the search reproduces the tabulated 21
    code, out, _ = run(capsys, ["verify", "min-lift", "--girth", "8",
                                "--l-min", "7", "--l-max", "7",
                                "--n-max", "21"])
    assert code == EXIT_OK
    assert out.endswith("L 7 min-n 21 expected 21 ok\n")


def test_verify_min_lift_l4_girth8_references(capsys):
    # girth 8 at L = 4: the search reproduces 15 for J = 4 and 20 for J = 5
    for j, want in (("4", 15), ("5", 20)):
        code, out, _ = run(capsys, ["verify", "min-lift", "--j", j,
                                    "--girth", "8", "--l-min", "4",
                                    "--l-max", "4", "--n-max", "20"])
        assert code == EXIT_OK
        assert out.endswith(f"L 4 min-n {want} expected {want} ok\n"), j


def test_verify_min_lift_budget(capsys):
    code, out, _ = run(capsys, ["verify", "min-lift", "--l-min", "6",
                                "--l-max", "6", "--n-max", "7", "--budget", "5"])
    assert code == EXIT_BUDGET
    assert "budget-exhausted true" in out


def test_verify_pairwise(capsys):
    code, out, _ = run(capsys, ["verify", "pairwise", "--n", "5"])
    assert code == EXIT_OK
    assert out == (
        "pairwise-report 1\nmodulus 5\nmappings 3\ncompatible-pairs 3\n"
        "pair 0 1\npair 0 2\npair 1 2\n"
    )


def test_verify_pairwise_at_11(capsys):
    # the first modulus past 5 with mates: the report bytes are pinned by
    # digest, and every reported pair is checked by the written-out predicate
    code, out, _ = run(capsys, ["verify", "pairwise", "--n", "11"])
    assert code == EXIT_OK
    assert "compatible-pairs 2016\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6dbb66fa1987927e23a440df4efa95485aa1c5f04a62ab279edef938a06bdfad"
    )
    rows = enumerate_complete_mappings(11).samples
    pairs = [tuple(map(int, line.split()[1:])) for line in out.splitlines()
             if line.startswith("pair ")]
    assert len(pairs) == 2016
    for i, j in pairs:
        assert i < j
        assert sorted((b - a) % 11 for a, b in zip(rows[i], rows[j])) == list(range(11))


def test_verify_pairwise_expect_empty_violation(capsys):
    code, _, err = run(capsys, ["verify", "pairwise", "--n", "5",
                                "--expect-empty"])
    assert code == EXIT_VIOLATION
    assert "expected no compatible pairs" in err


def test_verify_pairwise_budget(capsys):
    # 225 mappings of Z/9 make 25200 pair checks; the budget stops the scan
    # early with the (empty) pairs so far and the trailing line
    code, out, err = run(capsys, ["verify", "pairwise", "--n", "9",
                                  "--expect-empty", "--budget", "1000"])
    assert code == EXIT_BUDGET
    assert out == (
        "pairwise-report 1\nmodulus 9\nmappings 225\ncompatible-pairs 0\n"
        "budget-exhausted true\n"
    )
    assert "after 1000 pair checks" in err
    # at N = 5 the third check finds the third pair
    code, out, _ = run(capsys, ["verify", "pairwise", "--n", "5", "--budget", "2"])
    assert code == EXIT_BUDGET
    assert out == (
        "pairwise-report 1\nmodulus 5\nmappings 3\ncompatible-pairs 2\n"
        "pair 0 1\npair 0 2\nbudget-exhausted true\n"
    )
    # a budget that covers every check leaves the report unchanged
    code, full, _ = run(capsys, ["verify", "pairwise", "--n", "5", "--budget", "3"])
    assert code == EXIT_OK
    assert full == run(capsys, ["verify", "pairwise", "--n", "5"])[1]


def test_verify_pairwise_rejects_a_negative_budget_before_the_census(
    capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(cli, "enumerate_complete_mappings",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, ["verify", "pairwise", "--n", "13",
                                  "--budget", "-1"])
    assert (code, out, err) == (
        EXIT_USAGE, "", "error: check budget must be >= 0, got -1\n"
    )
    assert calls == []


def test_verify_pairwise_takes_no_workers():
    # its census is a small share of the command, so it runs in-process
    with pytest.raises(SystemExit) as info:
        main(["verify", "pairwise", "--n", "5", "--workers", "2"])
    assert info.value.code == EXIT_USAGE


def test_verify_pairwise_names_the_kept_witnesses(capsys, monkeypatch):
    # a census past the witness cap cannot feed the pair scan; the error
    # says how many witnesses were kept, since the command has no limit
    monkeypatch.setattr("qcgirth.mappings.DEFAULT_WITNESS_CAP", 5)
    code, out, err = run(capsys, ["verify", "pairwise", "--n", "7"])
    assert (code, out) == (EXIT_USAGE, "")
    assert "kept 5 of 19 witnesses" in err


def test_verify_girth8_bound(capsys):
    code, out, err = run(capsys, ["verify", "girth8-bound", "--lprime", "3",
                                  "--n-max", "9"])
    assert code == EXIT_OK
    assert "N 9 valid 36 hypothesis 24 violations 0" in out
    assert "violations-total 0" in out
    assert "sweep took" in err


def test_verify_girth8_bound_report_bytes(capsys):
    code, out, _ = run(capsys, ["verify", "girth8-bound", "--lprime", "3",
                                "--n-max", "9", "--n-min", "8"])
    assert code == EXIT_OK
    assert out == (
        "girth8-bound-report 1\n"
        "lprime 3\n"
        "n-min 8\n"
        "n-max 9\n"
        "bound 8\n"
        "complete true\n"
        "N 8 valid 0 hypothesis 0 violations 0\n"
        "N 9 valid 36 hypothesis 24 violations 0\n"
        "violations-total 0\n"
        "below-bound-valid 0\n"
    )


def test_verify_girth8_bound_worker_fanout_same_bytes(capsys):
    argv = ["verify", "girth8-bound", "--lprime", "3", "--n-max", "9"]
    _, single, _ = run(capsys, argv)
    _, fanned, _ = run(capsys, argv + ["--workers", "2"])
    assert single == fanned


def test_verify_girth8_conjecture(capsys):
    code, out, _ = run(capsys, ["verify", "girth8-conjecture", "--lprime", "3"])
    assert code == EXIT_OK
    assert out == (
        "girth8-conjecture-report 1\nlprime 3\nbound 8\nn-min 4\nn-max 7\n"
        "N 4 valid 0\nN 5 valid 0\nN 6 valid 0\nN 7 valid 0\n"
        "below-bound-valid 0\n"
    )


def test_verify_girth8_conjecture_sweeps_only_below_the_bound(capsys, monkeypatch):
    # rows at N >= 3L'-1 are never reported, so no sweep may reach them;
    # every report and exit code stays as it was when the whole range
    # up to --n-max was swept
    swept = []

    def spy(l_prime, n_max, n_min=None, workers=1):
        swept.append((l_prime, n_min, n_max))
        return verify_girth8_bound(l_prime, n_max, n_min=n_min, workers=workers)

    monkeypatch.setattr("qcgirth.cli.verify_girth8_bound", spy)
    head = "girth8-conjecture-report 1\nlprime 3\nbound 8\n"
    for flags, want in [
        (["--n-min", "9", "--n-max", "10"],
         (EXIT_OK, head + "n-min 9\nn-max 10\nbelow-bound-valid 0\n", "")),
        (["--n-min", "8"], (EXIT_USAGE, "", "error: empty N range [8, 7]\n")),
        (["--n-min", "11", "--n-max", "10"],
         (EXIT_USAGE, "", "error: empty N range [11, 10]\n")),
        (["--n-min", "6", "--n-max", "12"],
         (EXIT_OK, head + "n-min 6\nn-max 12\nN 6 valid 0\nN 7 valid 0\n"
          "below-bound-valid 0\n", "")),
    ]:
        assert run(capsys, ["verify", "girth8-conjecture", "--lprime", "3", *flags]) == want
    assert swept == [(3, 6, 7)]
    code, out, _ = run(capsys, ["verify", "girth8-conjecture", "--lprime", "4",
                                "--n-max", "16"])
    assert code == EXIT_OK
    assert out == (
        "girth8-conjecture-report 1\nlprime 4\nbound 11\nn-min 5\nn-max 16\n"
        + "".join(f"N {n} valid 0\n" for n in range(5, 11))
        + "below-bound-valid 0\n"
    )
    assert swept[1:] == [(4, 5, 10)]


@pytest.mark.parametrize("argv, message", [
    (["verify", "pairwise", "--n", "0"], "modulus must be >= 1"),
    (["verify", "girth8-bound", "--lprime", "0", "--n-max", "3"], "L' >= 2"),
    (["verify", "girth8-conjecture", "--lprime", "1"], "L' >= 2"),
    (["verify", "min-lift", "--j", "1", "--l-min", "2", "--l-max", "2"], "L >= 3"),
    (["verify", "girth8-bound", "--lprime", "3", "--n-max", "5", "--n-min", "-2"],
     "N >= 1"),
    (["verify", "girth8-conjecture", "--lprime", "3", "--n-min", "-1"], "N >= 1"),
    (["mappings", "enumerate", "--n", "5", "--limit", "-1"], "limit must be >= 0"),
    (["mappings", "count", "--n", "0"], "modulus must be >= 1"),
    (["verify", "pairwise", "--n", "5", "--budget", "-1"],
     "check budget must be >= 0"),
    (["mappings", "count", "--n", "7", "--budget", "-5"],
     "node budget must be >= 0"),
    (["verify", "min-lift", "--l-min", "4", "--l-max", "4", "--budget", "-1"],
     "node budget must be >= 0"),
    (["verify", "min-lift", "--l-min", "5", "--l-max", "4"], "empty L range"),
    (["verify", "min-lift", "--l-min", "4", "--l-max", "4", "--n-max", "-3"],
     "n_max >= 1"),
    (["mappings", "enumerate", "--n", "5", "--workers", "-3"],
     "workers must be >= 1"),
    (["mappings", "enumerate", "--n", "5", "--workers", "0"],
     "workers must be >= 1"),
    (["verify", "girth8-bound", "--lprime", "3", "--n-max", "9", "--workers", "0"],
     "workers must be >= 1, got 0"),
    # no N of this range lies below the bound 8, so none is swept
    (["verify", "girth8-conjecture", "--lprime", "3", "--n-min", "8",
      "--n-max", "10", "--workers", "0"], "workers must be >= 1, got 0"),
    (["verify", "girth8-conjecture", "--lprime", "3", "--n-min", "8",
      "--n-max", "10", "--workers", "-5"], "workers must be >= 1, got -5"),
], ids=["pairwise", "girth8-bound", "girth8-conjecture", "min-lift",
        "girth8-bound-n-min", "girth8-conjecture-n-min", "mappings-limit",
        "mappings-n", "pairwise-budget", "mappings-budget", "min-lift-budget",
        "min-lift-l-range", "min-lift-n-max", "mappings-workers-negative",
        "mappings-workers-zero", "girth8-bound-workers-zero",
        "girth8-conjecture-above-bound-workers-zero",
        "girth8-conjecture-above-bound-workers-negative"])
def test_verify_rejects_bad_input_as_usage_error(capsys, argv, message):
    # exit 1 would claim a verified property was violated
    code, out, err = run(capsys, argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and message in err


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "census.txt"
    code, out, _ = run(capsys, ["mappings", "count", "--n", "5",
                                "--format", "structured",
                                "--output", str(target)])
    assert code == EXIT_OK
    assert out == ""
    assert target.read_text() == "census 1\nmodulus 5\ncount 3\nwitnesses 0\n"


def test_output_flag_bad_path_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "census.txt"
    code, out, err = run(capsys, ["mappings", "count", "--n", "5",
                                  "--output", str(target)])
    assert (code, out) == (EXIT_USAGE, "")
    # the census runs and reports its time; only the write fails
    assert err.splitlines()[-1].startswith("error: ")
    assert str(target) in err and not target.exists()


def test_output_flag_rewrites_a_longer_file(tmp_path, capsys):
    # the report is written in place and the file cut to its length, so
    # nothing of the longer file it replaces is left
    target = tmp_path / "census.txt"
    target.write_text("x" * 1000 + "\n")
    code, out, _ = run(capsys, ["mappings", "count", "--n", "5",
                                "--format", "structured",
                                "--output", str(target)])
    assert (code, out) == (EXIT_OK, "")
    assert target.read_text() == "census 1\nmodulus 5\ncount 3\nwitnesses 0\n"


def test_output_flag_unwritable_path_is_usage_error(tmp_path, capsys):
    # a directory cannot be opened for writing, not even by root
    code, out, err = run(capsys, ["mappings", "count", "--n", "5",
                                  "--output", str(tmp_path)])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.splitlines()[-1].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_output_flag_writes_to_a_fifo(tmp_path, capsys):
    # a FIFO is not a regular file, so it takes the report and is not cut
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    code, out, _ = run(capsys, ["mappings", "count", "--n", "5",
                                "--format", "structured",
                                "--output", str(fifo)])
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert (code, out) == (EXIT_OK, "")
    assert received == ["census 1\nmodulus 5\ncount 3\nwitnesses 0\n"]


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["verify", "girth8-bound", "--lprime", "3", "--n-max", "8"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_cached_parser_keeps_no_state(tmp_path, capsys):
    # the parser is built once per process; each call parses into a fresh
    # namespace, so options of one call do not reach the next
    assert cli.build_parser() is cli.build_parser()
    run(capsys, ["mappings", "count", "--n", "5"])
    with pytest.raises(SystemExit) as info:
        main(["mappings", "count"])
    assert info.value.code == EXIT_USAGE
    assert "requires --n" in capsys.readouterr().err
    path = tmp_path / "p.shifts"
    path.write_text(export_shift_matrix(girth6_odd_L_explicit(5, 2)))
    code, out, _ = run(capsys, ["girth", "--input", str(path),
                                "--method", "shifts", "--cap", "8"])
    assert (code, out.count("cap 8")) == (EXIT_OK, 1)
    code, out, _ = run(capsys, ["girth", "--input", str(path)])
    assert code == EXIT_OK
    assert out.count("cap 12") == 2 and "cap 8" not in out
    assert "method shifts" in out and "method bfs" in out
    assert out.endswith("agreement true\n")
