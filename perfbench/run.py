"""chronopath benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in ``workloads.py``; their reasons for being there are
recorded in ``BENCHMARK.json``.  Set-up generates the seeded inputs and
writes them under ``perfbench/work/``; it is repeated (see ``setup``) and
its median is ``setup_s``.

``--trace 0`` measures end to end.  Every job is a fresh
``python -m chronopath.cli`` process, run one at a time from this process:
a closed loop with one client and no threads, with ``CHRONOS_THREADS``
removed from the child environment.  The loop makes at least one full pass
over the job list and then keeps cycling through it until ``--seconds``
have passed.  A job's time is the median of its runs and includes
interpreter start and parsing.  Metrics: ``wall_s`` (the job list's wall
time, summed from the per-job medians), ``setup_s`` and ``peak_rss_mb`` (the
largest child ``ru_maxrss``, from ``os.wait4``).

``--trace 1`` measures layers.  It times ``--version`` processes for the
interpreter start-up cost, makes one untraced subprocess pass, then replays
the same jobs in this process through ``chronopath.cli.main(argv)``, each
once untraced and once with the outside wrappers of ``tracing.py``.  All three
passes must print byte-identical stdout.  The spans are written to
``perfbench/work/<workload>/spans.json`` when the run ends.

A job fails when it exits non-zero, runs over ``JOB_BUDGET_S`` (it is then
killed), prints an answer its check rejects, or prints other bytes than
its first run.  Checks run outside the timed region.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are the same figures for people, with the
machine stamp, per-job times and every failure with its reason.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"

JOB_BUDGET_S = 30.0  # a job over this is killed and counted as failed
RUN_LIMIT_S = 160.0  # no job runs past this point of a run
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5
SETUP_MAX_REPEATS = 200
STARTUP_SAMPLES = 9
KINDS = ("betweenness", "count_optimal", "count", "params", "sample", "approx", "estimate")


class JobTimeout(BaseException):
    """Ends an in-process job at its budget.  Not an Exception, so the CLI cannot catch it."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("CHRONOS_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], out_path: Path, budget: float, env: dict[str, str]):
    """Run ``python -m chronopath.cli *args`` with stdout and stderr in files.

    Returns (seconds, exit code or None if killed at the budget, max RSS in MB).
    """
    killed = False
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "chronopath.cli", *args],
                                stdout=out, stderr=err, env=env, cwd=ROOT)

        def on_alarm(signum, frame):
            nonlocal killed
            killed = True
            os.kill(proc.pid, signal.SIGKILL)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, None if killed else proc.returncode, usage.ru_maxrss / 1024


def run_inprocess(cli, args: list[str], budget: float):
    """Run ``cli.main(args)`` here, capturing stdout; returns (seconds, code, stdout, stderr)."""

    def on_alarm(signum, frame):
        raise JobTimeout

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        code = None
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


class Run:
    """Outputs and failures of one benchmark run."""

    def __init__(self, jobs, deadline: float):
        self.jobs = jobs
        self.deadline = deadline
        self.env = child_env()
        self.times: list[list[float]] = [[] for _ in jobs]
        self.first: list[str | None] = [None] * len(jobs)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.ok_runs = [0] * len(jobs)
        self.peak_rss_mb = 0.0

    def budget(self) -> float:
        # A zero timer would disarm the alarm, so the floor is positive.
        return max(0.01, min(JOB_BUDGET_S, self.deadline - time.perf_counter()))

    def record(self, j: int, seconds: float, code, stdout: str, stderr: str, where: str):
        """Count one run of job j and note why it failed, if it did."""
        self.attempted += 1
        label = f"{self.jobs[j].label} [{where}]"
        if code is None:
            reason = f"killed after {seconds:.1f} s (budget)"
        elif code != 0:
            reason = f"exit {code}: {stderr.strip()[-200:]}"
        elif self.first[j] is not None and stdout != self.first[j]:
            reason = "stdout differs from the job's first run"
        else:
            self.first[j] = stdout
            self.ok_runs[j] += 1
            return
        self.failed += 1
        self.failures.append(f"{label}: {reason}")

    def subprocess_job(self, j: int, where: str) -> None:
        out_path = WORK / "out" / f"job{j}.out"
        seconds, code, rss = run_child(self.jobs[j].args, out_path, self.budget(), self.env)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        self.times[j].append(seconds)
        self.record(j, seconds, code, out_path.read_bytes().decode("utf-8"),
                    out_path.with_suffix(".err").read_text(encoding="utf-8"), where)

    def out_of_time(self, j: int) -> bool:
        """True, with the jobs from j on counted as failed, once the run limit is reached."""
        if self.deadline - time.perf_counter() > 0:
            return False
        skipped = self.jobs[j:]
        self.failures.extend(f"{job.label}: not run, run time limit reached" for job in skipped)
        self.attempted += len(skipped)
        self.failed += len(skipped)
        return True

    def check_answers(self) -> None:
        """Untimed: each job's first stdout against its check.

        Every run of a job that printed those bytes fails with it.
        """
        for j, (job, out) in enumerate(zip(self.jobs, self.first)):
            if out is None:
                continue
            try:
                reason = job.check(out)
            except Exception as exc:  # a malformed answer is a failed check
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
            if reason is not None:
                self.failed += self.ok_runs[j]
                self.failures.append(f"{job.label}: {reason}")

    def medians(self) -> list[float | None]:
        return [statistics.median(t) if t else None for t in self.times]

    def kind_seconds(self) -> dict[str, float]:
        sums: dict[str, float] = {}
        for job, m in zip(self.jobs, self.medians()):
            if m is not None:
                sums[job.kind] = sums.get(job.kind, 0.0) + m
        return sums


def setup(workload: str, seed: int):
    """Build the inputs repeatedly; returns (jobs, median seconds).

    At least SETUP_REPEATS times and until SETUP_MIN_S has passed, so that a
    set-up of a millisecond still gets a steady median.
    """
    import workloads

    durations: list[float] = []
    while len(durations) < SETUP_REPEATS or (
            sum(durations) < SETUP_MIN_S and len(durations) < SETUP_MAX_REPEATS):
        shutil.rmtree(WORK / "inputs", ignore_errors=True)
        start = time.perf_counter()
        jobs = workloads.build(workload, seed, WORK / "inputs")
        durations.append(time.perf_counter() - start)
    shutil.rmtree(WORK / "out", ignore_errors=True)
    (WORK / "out").mkdir()
    return jobs, statistics.median(durations)


def measure_end_to_end(run: Run, seconds: float) -> None:
    """Closed loop over the job list: one full pass, then more until `seconds` pass."""
    stop = time.perf_counter() + seconds
    n = 0
    while n < len(run.jobs) or time.perf_counter() < stop:
        j = n % len(run.jobs)
        first_pass = n < len(run.jobs)
        if (run.out_of_time(j) if first_pass else time.perf_counter() >= run.deadline):
            return
        run.subprocess_job(j, f"pass {n // len(run.jobs) + 1}")
        n += 1


def measure_layers(run: Run, workload: str):
    """Start-up samples, one subprocess pass, then untraced and traced in-process replays."""
    import chronopath.cli as cli
    import tracing

    startup = []
    for _ in range(STARTUP_SAMPLES):
        out_path = WORK / "out" / "version.out"
        secs, code, _ = run_child(["--version"], out_path, run.budget(), run.env)
        run.attempted += 1
        if code != 0 or not out_path.read_text(encoding="utf-8").startswith("chronopath "):
            run.failed += 1
            run.failures.append(f"--version: exit {code}")
        startup.append(secs)

    for j in range(len(run.jobs)):
        if run.out_of_time(j):
            return None
        run.subprocess_job(j, "subprocess")

    # Each job runs untraced and then traced back to back, so that both runs
    # see the same machine state and their difference is the tracing cost.
    totals = {"in-process": 0.0, "traced": 0.0}
    rec = tracing.Recorder()
    for j, job in enumerate(run.jobs):
        if run.out_of_time(j):
            return None
        for where in totals:
            if where == "traced":
                rec.job = j
                with tracing.traced(rec):
                    secs, code, out, err = run_inprocess(cli, job.args, run.budget())
            else:
                secs, code, out, err = run_inprocess(cli, job.args, run.budget())
            run.record(j, secs, code, out, err, where)
            totals[where] += secs

    metrics = {"cli.startup_s": (statistics.median(startup), "s")}
    metrics.update(tracing.layer_metrics(rec))
    metrics["dispatch.routing_share"] = (tracing.routing_share(rec, range(len(run.jobs))), "ratio")
    metrics["trace.overhead_s"] = (totals["traced"] - totals["in-process"], "s")
    kinds = run.kind_seconds()
    for kind in KINDS:
        metrics[f"subcommand.{kind}_s"] = (kinds.get(kind, 0.0), "s")

    foremost = [j for j, job in enumerate(run.jobs) if "foremost" in job.args
                and job.kind in ("betweenness", "count_optimal")]
    notes = {"in_process_s": (totals["in-process"], "s"), "traced_s": (totals["traced"], "s")}
    if foremost:
        notes["foremost_routing_share"] = (tracing.routing_share(rec, foremost), "ratio")
    spans_path = WORK / workload / "spans.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["id", "parent", "name", "start", "end", "job"],
                   "jobs": [job.label for job in run.jobs], "spans": rec.spans}, handle)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, notes


def stamp() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg())}


def report(args, run: Run, metrics: dict, notes: dict, stamps: list[dict]) -> None:
    """The human-readable lines, then the JSON result as the last line of stdout."""
    first, last = stamps
    print(f"stamp: nproc {first['nproc']}, python {first['python']}, "
          f"loadavg start {first['loadavg']}, end {last['loadavg']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run.jobs)} jobs")
    for job, times in zip(run.jobs, run.times):
        if times:
            print(f"  job {statistics.median(times):9.4f} s  x{len(times)}  {job.label}")
    notes = {**notes, "failed_ratio": (run.failed / max(run.attempted, 1), "failed/attempted")}
    for heading, table in (("metrics", metrics), ("also", notes)):
        print(f"{heading}:")
        for name, (value, unit) in table.items():
            shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
            print(f"  {name:34s} {shown} {unit}")
    print(f"failed {run.failed} of {run.attempted} runs")
    for reason in run.failures:
        print(f"  FAILED {reason}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chronopath" / "__init__.py").is_file():
        print(f"error: no chronopath sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    begin = time.perf_counter()
    stamps = [stamp()]
    jobs, setup_s = setup(args.workload, args.seed)
    run = Run(jobs, begin + RUN_LIMIT_S)
    notes: dict = {}
    if args.trace:
        measured = measure_layers(run, args.workload)
        metrics, notes = measured if measured is not None else ({}, {})
    else:
        measure_end_to_end(run, args.seconds)
        medians = [m for m in run.medians() if m is not None]
        metrics = {
            "wall_s": (sum(medians), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (run.peak_rss_mb, "MB"),
        }
        notes = {f"{kind}_s": (secs, "s") for kind, secs in run.kind_seconds().items()}
    run.check_answers()
    stamps.append(stamp())
    report(args, run, metrics, notes, stamps)
    return 0


if __name__ == "__main__":
    sys.exit(main())
