"""Benchmark of the qcgirth command line, run from the root of a checkout.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each run measures set-up in fresh interpreters (import `qcgirth.cli`
from `src/` and write the workload's inputs; the median of several), then
starts one fresh worker interpreter that runs the workload's jobs in
passes until --seconds is spent (at least one pass).  It prints
`workload metric value unit` lines and, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics of traced passes with
--trace 1.  Times are in reference seconds, scaled by the machine speed
measured during the run (see README.md).  Spans of traced passes are
written under `.perfbench/`.  A job that fails its check makes the run
exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

OUT_DIR = ".perfbench"
SETUP_PROBES = 10  # fresh interpreters timed for setup_s, besides the worker
RUN_LIMIT_S = 170  # a run that takes longer is stopped and fails


def _worker(args: list[str], deadline: float) -> dict:
    """Run perfbench/worker.py and return its JSON result line.

    The worker gets its own process group, so a worker that overruns is
    stopped together with any pool processes it started.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"worker exceeded the {RUN_LIMIT_S} s run limit") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run of one workload: the contract's result object."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl")
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
              "--trace", str(int(traced))]

    def probe() -> float:
        sub = os.path.join(workdir, "setup")
        return _worker(common + ["--workdir", sub, "--setup-only"], deadline)["setup_s"]

    setups: list[float] = []
    try:
        probe()  # may compile bytecode, which users pay only once
        # probes before and after the passes, since machine speed drifts
        if not traced:
            setups += [probe() for _ in range(SETUP_PROBES // 2)]
        res = _worker(common + ["--workdir", os.path.join(workdir, "run")]
                      + (["--spans", span_file] if traced else []), deadline)
        if not traced:
            setups += [probe() for _ in range(SETUP_PROBES // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])

    if traced:
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": (res["wall_s"], "s"),
            "setup_s": (statistics.median(setups), "s"),
            "cpu_s": (res["cpu_s"], "s"),
            "peak_rss_mb": (res["peak_rss_kb"] / 1024, "MB"),
        }
    failed = res["failed"]
    return {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "failures": res["failures"],
        "pass_walls": res["pass_walls"],
        "raw_wall_s": res["raw_wall_s"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isfile(os.path.join("src", "qcgirth", "cli.py")):
        print("error: run from the root of a qcgirth checkout (src/qcgirth missing)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, ValueError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        prefix = f"{name}." if args.workload == "all" else ""
        for key, reason in sorted(res["failures"].items()):
            print(f"FAIL {name} {key}: {reason}")
        walls = " ".join(f"{w:.3f}" for w in res["pass_walls"])
        print(f"{name} pass walls {walls} attempted {res['attempted']} "
              f"failed {res['failed']} fail_ratio {res['failed'] / res['attempted']:.4f}")
        print(f"{name} unscaled wall_s {res['raw_wall_s']:.6g} s")
        for metric, mv in res["metrics"].items():
            print(f"{name} {metric} {mv['value']:.6g} {mv['unit']}")
            summary["metrics"][prefix + metric] = mv
        summary["correct"] = summary["correct"] and res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
