"""Checks on the package source itself."""

import ast
import hashlib
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qcgirth"


def _raises_assertion_error(node):
    """True iff node is `raise AssertionError` or `raise AssertionError(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_raises_instead_of_asserting():
    # `python -O` strips assert statements, and with them any correctness
    # check written as one; a library invariant raises RuntimeError, not the
    # AssertionError that test code and tooling read as a failed test
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no sources under {SRC}"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
    ]
    assert found == []


def test_trace_hooks_resolve(monkeypatch):
    # the traced benchmark run wraps each WRAPPED name on its calling
    # modules; a name a refactor moves or deletes would break that run
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    missing = [
        f"{caller}.{name}"
        for name, callers, *_ in spans.WRAPPED
        for caller in callers
        if not callable(
            getattr(importlib.import_module(f"qcgirth.{caller}"), name, None)
        )
    ]
    assert spans.WRAPPED and missing == []


def test_trace_counters_evaluate(monkeypatch, tmp_path, capsys):
    # the traced run reads fields of the wrapped calls' arguments and
    # results (a lifted matrix's adjacency, a census's nodes); one command
    # of each kind must give every counted span its counts
    from qcgirth import cli, search
    from qcgirth.lifting import export_shift_matrix
    from qcgirth.search import girth6_odd_L_explicit

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    shifts = tmp_path / "p.txt"
    shifts.write_text(export_shift_matrix(girth6_odd_L_explicit(5, 2)))
    alist = tmp_path / "p.alist"
    commands = [
        ["construct", "product", "--l", "5", "--alist", "--output", str(alist)],
        ["girth", "--input", str(shifts), "--method", "both"],
        ["girth", "--input", str(alist), "--method", "bfs"],
        ["mappings", "count", "--n", "7"],
        ["mappings", "enumerate", "--n", "5"],
        ["verify", "pairwise", "--n", "7"],
        ["verify", "min-lift", "--l-min", "4", "--l-max", "4"],
        ["verify", "girth8-bound", "--lprime", "2", "--n-max", "6"],
    ]
    recorder = spans.Recorder()
    recorder.install({"cli": cli, "search": search})
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        recorder.remove()
    capsys.readouterr()
    counted = {family for _, _, _, family, counter in spans.WRAPPED if counter}
    empty = [s.family for s in recorder.spans if s.family in counted and not s.counts]
    assert empty == []
    assert counted <= {s.family for s in recorder.spans}
    assert spans.layer_metrics(recorder.spans)["lifting.lift.ones"][0] > 0


def test_benchmark_jobs_parse(monkeypatch, tmp_path):
    # every benchmark job is a CLI command line; a CLI change that drops
    # or renames an option it uses would otherwise only show in that run
    from qcgirth.cli import build_parser

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    parser = build_parser()
    argvs = []
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        argvs += [job.argv for job in workloads.prepare(name, str(workdir), 1)]
    assert argvs
    for argv in argvs:
        parser.parse_args(argv)


SEARCH_DIGEST_KEYS = ("min-lift-g8", "min-lift-j4-l9")
CENSUS_DIGEST_KEYS = ("census-count-13", "census-enum-11", "census-enum-13")


def _job_stdouts(monkeypatch, tmp_path, capsys, keys):
    """Run the benchmark jobs named by keys through cli.main; their stdouts."""
    from qcgirth.cli import main

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    jobs = {
        job.key: job
        for name in workloads.WORKLOADS
        for job in workloads.prepare(name, str(tmp_path), 1)
    }
    outs = {}
    for key in keys:
        capsys.readouterr()
        assert main(list(jobs[key].argv)) == 0, key
        outs[key] = capsys.readouterr().out
    return workloads.DIGESTS, outs


def _assert_digests(digests, outs, keys):
    for key in keys:
        assert hashlib.sha256(outs[key].encode()).hexdigest() == digests[key], key


def test_search_jobs_match_benchmark_digests(monkeypatch, tmp_path, capsys):
    # the benchmark checks the stdout of its two search jobs against a
    # digest; a report byte the search changes must fail here too
    digests, outs = _job_stdouts(monkeypatch, tmp_path, capsys, SEARCH_DIGEST_KEYS)
    _assert_digests(digests, outs, SEARCH_DIGEST_KEYS)


def test_census_jobs_match_benchmark_digests(monkeypatch, tmp_path, capsys):
    # the census jobs' stdout against the benchmark's digests, and the
    # two-worker count byte for byte against the serial one
    keys = (*CENSUS_DIGEST_KEYS, "census-count-13-w2")
    digests, outs = _job_stdouts(monkeypatch, tmp_path, capsys, keys)
    _assert_digests(digests, outs, CENSUS_DIGEST_KEYS)
    assert outs["census-count-13-w2"] == outs["census-count-13"]


def test_benchmark_jobs_match_digests(monkeypatch, tmp_path, capsys):
    # every other digested job, so that each digest the benchmark checks
    # is checked here by one of these three tests
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    digests = importlib.import_module("workloads").DIGESTS
    covered = {*SEARCH_DIGEST_KEYS, *CENSUS_DIGEST_KEYS}
    assert covered <= set(digests)
    keys = [key for key in digests if key not in covered]
    assert keys
    digests, outs = _job_stdouts(monkeypatch, tmp_path, capsys, keys)
    _assert_digests(digests, outs, keys)


def test_readme_commands_parse():
    # every command line the README shows must still parse, so a deleted
    # choice or a renamed option cannot leave the README stale
    from qcgirth.cli import build_parser

    parser = build_parser()
    blocks = (ROOT / "README.md").read_text().split("```")[1::2]
    argvs = [
        line.split("#")[0].split()[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("qcgirth ")
    ]
    assert len(argvs) >= 10
    for argv in argvs:
        parser.parse_args(argv)


def _reached_functions(path, root):
    """Module-level functions of path that root reaches by name, root included."""
    tree = ast.parse(path.read_text())
    defs = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo += [
            node.id
            for node in ast.walk(defs[name])
            if isinstance(node, ast.Name) and node.id in defs
        ]
    return reached


def test_oracles_share_no_code():
    # the two girth oracles and the two girth-8 validity routes check each
    # other only while neither calls into the other's helpers
    for module, first, second in (
        ("girth.py", "girth_bfs", "girth_from_shifts"),
        ("girth8.py", "validate_g8_table", "check_girth8_conditions"),
    ):
        a = _reached_functions(SRC / module, first)
        b = _reached_functions(SRC / module, second)
        assert first in a and second in b and a.isdisjoint(b), (module, a & b)


def test_search_imports_nothing_from_girth8():
    # the girth-8 table sweep and the search are two routes to the J = 3
    # girth-8 minima; their agreement in test_search checks something
    # only while the search shares no code with the sweep
    names = set()
    for node in ast.walk(ast.parse((SRC / "search.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.update(alias.name.split("."))
    assert "girth" in names and "girth8" not in names


def test_search_calls_no_census():
    # the clique-route test in test_search cross-checks the kernel at N = L
    # only while the search shares no code with the census and the mate
    # scan; the census names stay importable there for the trace hooks only
    banned = {"enumerate_complete_mappings", "compatible_pairs"}
    called = {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(ast.parse((SRC / "search.py").read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, (ast.Name, ast.Attribute))
    }
    assert not called & banned


def test_mate_scan_makes_no_python_call_per_pair():
    # a work gate: the 225 witnesses of Z/9 make 25 200 pair checks, and a
    # scan that calls Python code once per pair makes at least that many
    # calls, however fast the host
    from qcgirth.mappings import compatible_pairs, enumerate_complete_mappings

    census = enumerate_complete_mappings(9)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        pairs = compatible_pairs(census)
    finally:
        sys.setprofile(None)
    assert pairs == []
    assert 0 < calls < math.comb(225, 2)


def test_public_names_match_package_imports():
    # a class or function moved between modules must stay importable from
    # the package under the name __all__ promises
    import qcgirth

    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    assert qcgirth.__all__ == sorted(qcgirth.__all__)
    assert qcgirth.__all__ == imported
    assert [n for n in qcgirth.__all__ if not hasattr(qcgirth, n)] == []


START_UP_SCRIPT = """
import sys
before = set(sys.modules)
import qcgirth.cli
code = qcgirth.cli.main(["mappings", "count", "--n", "7"])
loaded = set(sys.modules) - before
print(sorted(loaded & {"dataclasses", "inspect", "multiprocessing"}))
sys.exit(code)
"""


def test_cli_start_up_loads_no_process_or_dataclass_machinery():
    # a command that starts no worker must not pay for importing
    # multiprocessing, nor for dataclasses and the inspect module it pulls in
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", START_UP_SCRIPT],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert "complete mappings of Z/7: 19" in proc.stdout
