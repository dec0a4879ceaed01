"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder replaces public functions at the names through which `cli`
and `search` call them (for example `cli.min_lifting_factor` and
`search.compatible_pairs`), so each call into another module opens one
span.  Calls inside a module, such as `validate_g8_table` in the girth-8
sweep, are never wrapped, which keeps the overhead small.  Spans stay in
memory until `write` is called at the end of the run.

The layers are the package modules: `mappings` (with `zmod` folded in),
`lifting`, `girth`, `girth8`, `search` and `cli`, whose self time is
argument parsing plus every serializer `cli` calls.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from math import comb, perm
from typing import Any, Callable, Optional, TextIO

Counter = Callable[[tuple, Any], dict[str, float]]


def _tables(report: Any) -> dict[str, float]:
    """Tables the sweep enumerates: ascending column headers times ordered
    row headers from the remaining nonzero residues, per N."""
    lp = report.l_prime
    return {
        "tables": sum(comb(r.n - 1, lp) * perm(r.n - 1 - lp, lp) for r in report.rows),
        "valid": sum(r.valid_tables for r in report.rows),
    }


# (function, modules whose name for it is wrapped, layer, family,
#  counters from (args, result))
WRAPPED: tuple[tuple[str, tuple[str, ...], str, str, Optional[Counter]], ...] = (
    ("enumerate_complete_mappings", ("cli", "search"), "mappings", "mappings.enumerate",
     lambda a, r: {"nodes": r.nodes, "found": r.count}),
    ("compatible_pairs", ("cli", "search"), "mappings", "mappings.pairs",
     lambda a, r: {"checks": comb(len(a[0].samples), 2), "found": len(r)}),
    ("lift", ("cli",), "lifting", "lifting.lift",
     lambda a, r: {"ones": len(r.adjacency)}),
    ("export_alist", ("cli",), "lifting", "lifting.alist_export",
     lambda a, r: {"bytes": len(r)}),
    ("import_alist", ("cli",), "lifting", "lifting.alist_import",
     lambda a, r: {"bytes": len(a[0])}),
    ("import_shift_matrix", ("cli",), "lifting", "lifting.shift_import",
     lambda a, r: {"bytes": len(a[0])}),
    ("girth_from_shifts", ("cli", "search"), "girth", "girth.shifts",
     lambda a, r: {"cycles": r.shortest_cycle_count}),
    ("girth_bfs", ("cli",), "girth", "girth.bfs",
     lambda a, r: {"edges": len(a[0].adjacency)}),
    ("has_girth_at_least", ("search",), "girth", "girth.has_girth", None),
    ("verify_girth8_bound", ("cli",), "girth8", "girth8.sweep", lambda a, r: _tables(r)),
    ("min_lifting_factor", ("cli",), "search", "search", lambda a, r: {"nodes": r.nodes}),
    ("girth6_odd_L_explicit", ("cli",), "search", "search.construct", None),
    ("girth6_even_L", ("cli",), "search", "search.construct", None),
)
LAYERS = ("mappings", "lifting", "girth", "girth8", "search", "cli")


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


@dataclass
class Span:
    family: str
    layer: str
    job: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    child_cpu: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Recorder:
    """Records one span per wrapped call; `install` patches, `remove` restores."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self.job = ""
        self.clock = clock
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, family: str, layer: str, fn: Callable, counter: Optional[Counter],
             *args: Any, **kwargs: Any) -> Any:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        cpu0 = _children_cpu()
        span = Span(family, layer, self.job, parent, self.clock())
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        span.child_cpu = _children_cpu() - cpu0
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def install(self, modules: dict[str, Any]) -> None:
        for attr, callers, layer, family, counter in WRAPPED:
            for mod in (modules[name] for name in callers):
                fn = getattr(mod, attr)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrapper(family, layer, fn, counter))

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _wrapper(self, family: str, layer: str, fn: Callable,
                 counter: Optional[Counter]) -> Callable:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            return self.call(family, layer, fn, counter, *args, **kwargs)

        return wrapped

    def write(self, fh: TextIO, pass_index: int) -> None:
        """One JSON line per span; ids and parents are per pass."""
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({
                "pass": pass_index, "id": i, "name": s.family, "layer": s.layer,
                "job": s.job, "parent": s.parent, "start": s.start, "end": s.end,
                "child_cpu_s": s.child_cpu, "counts": s.counts,
            }) + "\n")


def _self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: the program is single-threaded)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], scale: float = 1.0) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Times are multiplied, and rates divided, by the pass's machine-speed
    scale, as the end-to-end times are.
    """
    by_family: dict[str, list[Span]] = {}
    for s in spans:
        by_family.setdefault(s.family, []).append(s)

    def busy(family: str) -> float:
        return sum(s.end - s.start for s in by_family.get(family, []))

    def calls(family: str) -> float:
        return len(by_family.get(family, []))

    def total(family: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in by_family.get(family, []))

    m: dict[str, tuple[float, str]] = {}
    enum_nodes = total("mappings.enumerate", "nodes")
    m["mappings.enumerate.calls"] = (calls("mappings.enumerate"), "count")
    m["mappings.enumerate.busy_s"] = (busy("mappings.enumerate"), "s")
    m["mappings.enumerate.nodes"] = (enum_nodes, "count")
    m["mappings.enumerate.nodes_per_s"] = (
        _rate(enum_nodes, busy("mappings.enumerate")), "1/s")
    m["mappings.enumerate.yield"] = (
        _rate(total("mappings.enumerate", "found"), enum_nodes), "ratio")

    checks = total("mappings.pairs", "checks")
    m["mappings.pairs.busy_s"] = (busy("mappings.pairs"), "s")
    m["mappings.pairs.checks"] = (checks, "count")
    m["mappings.pairs.found"] = (total("mappings.pairs", "found"), "count")
    m["mappings.pairs.checks_per_s"] = (_rate(checks, busy("mappings.pairs")), "1/s")

    search_nodes = total("search", "nodes")
    m["search.calls"] = (calls("search"), "count")
    m["search.busy_s"] = (busy("search"), "s")
    m["search.nodes"] = (search_nodes, "count")
    m["search.nodes_per_s"] = (_rate(search_nodes, busy("search")), "1/s")

    tables = total("girth8.sweep", "tables")
    m["girth8.sweep.busy_s"] = (busy("girth8.sweep"), "s")
    m["girth8.sweep.tables"] = (tables, "count")
    m["girth8.sweep.valid"] = (total("girth8.sweep", "valid"), "count")
    m["girth8.sweep.tables_per_s"] = (_rate(tables, busy("girth8.sweep")), "1/s")
    m["girth8.sweep.child_cpu_s"] = (
        sum(s.child_cpu for s in by_family.get("girth8.sweep", [])), "s")

    m["girth.shifts.calls"] = (calls("girth.shifts"), "count")
    m["girth.shifts.busy_s"] = (busy("girth.shifts"), "s")
    m["girth.shifts.cycles"] = (total("girth.shifts", "cycles"), "count")
    edges = total("girth.bfs", "edges")
    m["girth.bfs.calls"] = (calls("girth.bfs"), "count")
    m["girth.bfs.busy_s"] = (busy("girth.bfs"), "s")
    m["girth.bfs.edges"] = (edges, "count")
    m["girth.bfs.edges_per_s"] = (_rate(edges, busy("girth.bfs")), "1/s")
    m["girth.has_girth.calls"] = (calls("girth.has_girth"), "count")
    m["girth.has_girth.busy_s"] = (busy("girth.has_girth"), "s")

    for part, unit_key in (("lift", "ones"), ("alist_export", "bytes"),
                           ("alist_import", "bytes"), ("shift_import", "bytes")):
        family = f"lifting.{part}"
        m[f"{family}.calls"] = (calls(family), "count")
        m[f"{family}.busy_s"] = (busy(family), "s")
        m[f"{family}.{unit_key}"] = (total(family, unit_key), "count")

    m["cli.calls"] = (calls("cli"), "count")
    m["cli.stdout_bytes"] = (total("cli", "stdout_bytes"), "count")
    own = _self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(t for s, t in zip(spans, own) if s.layer == layer), "s")
    factor = {"s": scale, "1/s": 1 / scale}
    return {k: (v * factor.get(unit, 1.0), unit) for k, (v, unit) in m.items()}


def median_metrics(passes: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Median of each metric over traced passes (counts are equal in all)."""
    return {
        name: (statistics.median(p[name][0] for p in passes), unit)
        for name, (_, unit) in passes[0].items()
    }
