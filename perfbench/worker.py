"""One run of one workload in a fresh interpreter.

Imports `qcgirth.cli` once, writes the workload's inputs, then runs the
job list in passes: each job is `qcgirth.cli.main(argv)` in-process with
stdout captured, and the next job starts when the previous one returns.
A traced run alternates an untraced and a traced pass.  The result goes
to stdout as one JSON line for `run.py`; with --setup-only the process
stops after the set-up and reports only its duration.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

# the package is imported from the checkout's source tree, not installed
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import qcgirth.cli as cli  # noqa: E402
import qcgirth.search as search  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


# Machine speed on a shared host drifts by a quarter within minutes, and the
# drift moves CPU time as much as wall time.  So every SAMPLE_PERIOD_S the
# worker times a fixed pure-Python loop, and each pass's times are scaled
# by REF_LOOP_S / (mean loop time during the pass): seconds at the speed
# at which the loop takes REF_LOOP_S, about its time on an idle core of
# the machine the benchmark was defined on.
SAMPLE_PERIOD_S = 0.1
LOOP_ITERATIONS = 20_000
REF_LOOP_S = 0.0015
SETUP_LOOPS = 10  # timed right after the set-up, which is too short to sample


def speed_loop() -> float:
    """Seconds for a fixed pure-Python loop, the machine speed probe."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs speed_loop on SIGALRM every SAMPLE_PERIOD_S inside `with`.

    No sample is taken while a worker pool runs (the pool's manager
    thread is alive), because the loop would compete with the pool.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        if threading.active_count() > 1:
            return
        t0 = time.perf_counter()
        self.loops.append(speed_loop())
        self.spent += time.perf_counter() - t0

    def clock(self) -> float:
        """time.perf_counter() without the time spent in speed loops."""
        return time.perf_counter() - self.spent

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_job(job: workloads.Job) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(job.argv))
    return code, out.getvalue()


def _one_pass(jobs, recorder=None):
    """Run every job once; returns (wall_s, cpu_s, speed loop times,
    outputs, errors).  The loop's own time is taken out of wall_s, cpu_s
    and every span."""
    outs: workloads.Outputs = {}
    errors: dict[str, str] = {}
    with SpeedSampler() as speed:
        if recorder is not None:
            recorder.clock = speed.clock
        cpu0 = _cpu()
        t0 = speed.clock()
        _run_jobs(jobs, recorder, outs, errors)
        wall = speed.clock() - t0
        cpu = _cpu() - cpu0 - speed.spent
    return wall, cpu, speed.loops, outs, errors


def _run_jobs(jobs, recorder, outs, errors) -> None:
    for job in jobs:
        try:
            if recorder is None:
                outs[job.key] = _run_job(job)
            else:
                recorder.job = job.key
                outs[job.key] = recorder.call(
                    "cli", "cli", _run_job,
                    lambda a, r: {"stdout_bytes": len(r[1])}, job)
        except Exception as exc:  # a crashing job is a failed job, not a crash
            errors[job.key] = f"raised {type(exc).__name__}: {exc}"


def _check(jobs, outs, errors) -> dict[str, str]:
    """Exit code and stdout checks, run after the pass's clock stops."""
    for job in jobs:
        if job.key in errors:
            continue
        code, out = outs[job.key]
        if code != 0:
            errors[job.key] = f"exit code {code}"
            continue
        try:
            problem = job.check(out, outs)
        except (KeyError, IndexError, OSError) as exc:
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            errors[job.key] = problem
    return errors


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="write the traced spans here")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    jobs = workloads.prepare(args.workload, args.workdir, args.seed)
    setup_end = time.perf_counter()
    setup_loops = [speed_loop() for _ in range(SETUP_LOOPS)]
    setup_s = (setup_end - _STARTED) * REF_LOOP_S / statistics.mean(setup_loops)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    walls, cpus, raw_walls, traced_walls, layer_passes = [], [], [], [], []
    recorders: list[spans.Recorder] = []
    failures: dict[str, str] = {}  # last reason per failing job
    attempted = failed = 0
    last_loops = setup_loops

    def measured_pass(recorder=None) -> tuple[float, float, float, float]:
        """(scaled wall_s, scaled cpu_s, wall_s, scale) of one checked pass;
        a pass without speed samples takes the last one's."""
        nonlocal attempted, failed, last_loops
        wall, cpu, loops, outs, errors = _one_pass(jobs, recorder)
        errors = _check(jobs, outs, errors)
        attempted += len(jobs)
        failed += len(errors)
        failures.update(errors)
        last_loops = loops or last_loops
        scale = REF_LOOP_S / statistics.mean(last_loops)
        return wall * scale, cpu * scale, wall, scale

    started = time.perf_counter()
    # at least one pass (one untraced and one traced pass when tracing);
    # another only while it is expected to end within --seconds
    while True:
        wall, cpu, raw_wall, _ = measured_pass()
        walls.append(wall)
        cpus.append(cpu)
        raw_walls.append(raw_wall)
        if len(walls) == 1:
            # later passes run in a heap that earlier ones fragmented; a
            # command line run by a user starts fresh, like the first pass
            peak_rss_kb = max(resource.getrusage(who).ru_maxrss
                              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        if args.trace:
            recorder = spans.Recorder()
            recorder.install({"cli": cli, "search": search})
            try:
                wall, _, _, scale = measured_pass(recorder)
            finally:
                recorder.remove()
            traced_walls.append(wall)
            recorders.append(recorder)
            layer_passes.append(spans.layer_metrics(recorder.spans, scale))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(walls) > args.seconds:
            break

    result = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "raw_wall_s": statistics.median(raw_walls),
        "pass_walls": walls,
        "peak_rss_kb": peak_rss_kb,
    }
    if args.trace:
        counts = [{k: v for k, (v, unit) in p.items() if unit == "count"}
                  for p in layer_passes]
        if any(c != counts[0] for c in counts):
            failed += 1
            failures["trace"] = "work counters differ between traced passes"
        layers = spans.median_metrics(layer_passes)
        layers["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w") as fh:
                for i, rec in enumerate(recorders):
                    rec.write(fh, i)
    result.update(attempted=attempted, failed=failed, failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
