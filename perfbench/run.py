"""Benchmark of the `lee-anticodes` command line, one workload per run.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 24 --trace 0

Run from the repository root. The jobs of the workload go back to back
through `lee_anticodes.cli.main`, the function behind the `lee-anticodes`
script, in this process and with `src` on the import path: a closed loop
with one caller and no threads. The job list is the workload's fixed job
mix once (see corpus.py). A run sends it in `max(3, round(seconds / 8))`
passes, each on a fresh import of the package, so that caches fill across
the jobs of a pass as in one session of a library user, and every pass
does the same work; the number of jobs does not depend on how fast they
go. Every job's output is checked after
the timed phase (see checks.py), and every pass must print the same bytes
as the first.

Times are CPU time of this process (`time.process_time`). The jobs are
single-threaded and compute-bound, so on an idle machine this equals their
wall time; on a shared host it leaves out the time the process waited for
a core, which depends on other tenants and not on the program. A job's
time is its median over the passes, so a burst of interference in one
pass does not move it.

With `--trace 0` the run reports the end-to-end metrics: `jobs_per_s`,
`job_p50_ms`, `peak_rss_mb` and `setup_s`. With `--trace 1` it runs the
jobs untraced on a fresh import, then again on another fresh import with
spans around the calls into each module (see spans.py), writes the spans
to `perfbench/out/spans-<workload>.tsv` and reports the per-layer metrics.
A third, untraced pass gives the tracing overhead: traced CPU time over
untraced CPU time, both measured on passes that are not the first. Both
later passes must print the same bytes as the first.
The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import process_time

import checks
import corpus
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "lee_anticodes"
PASS_SECONDS = 8
MIN_PASSES = 3
SETUP_REPEATS = 15
# Exit codes of the CLI: 1 and 2 refuse the input (counted as failed jobs);
# 3 reports a violated internal check, a wrong answer.
REFUSED = (1, 2)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=MIN_PASSES * PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fresh_import():
    """Import the package anew, dropping every module of an earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return importlib.import_module(f"{PACKAGE}.cli")


def setup(workload: str, seed: int, workdir: Path):
    """Import the package and write the inputs; returns the job list and time."""
    gc.collect()
    t0 = process_time()
    fresh_import()
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = corpus.build_jobs(workload, seed, workdir)
    return jobs, process_time() - t0


def run_jobs(cli, jobs, tracer=None, expect=None):
    """Send the jobs back to back; returns the results and the CPU time of
    each job.

    Without `expect` the results are (rc, stdout, stderr) per job. With the
    results of an earlier pass as `expect` they are the jobs whose exit code
    or stdout differ from it, and no output is kept, so that later passes
    do not add the benchmark's own copies to the peak resident set.
    """
    results, times = [], []
    gc.collect()
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.current_job = idx
        out, err = io.StringIO(), io.StringIO()
        t0 = process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(job.argv)
        times.append(process_time() - t0)
        if expect is None:
            results.append((rc, out.getvalue(), err.getvalue()))
        elif (rc, out.getvalue()) != expect[idx][:2]:
            results.append(job)
            print(f"outputs differ between passes: {' '.join(job.argv)}", file=sys.stderr)
    return results, times


def check_outputs(jobs, results) -> tuple[bool, int]:
    """Check every job that was not refused; returns (correct, failed)."""
    checker = checks.Checker(
        importlib.import_module(f"{PACKAGE}.oracle"), importlib.import_module(f"{PACKAGE}.ring")
    )
    correct, failed = True, 0
    for job, (rc, out, err) in zip(jobs, results):
        if rc in REFUSED:
            failed += 1
            continue
        try:
            if rc != 0:
                raise checks.CheckFailed(f"exit code {rc}: {err.strip()}")
            checker.check(job, out)
        except (checks.CheckFailed, ValueError, KeyError, IndexError, TypeError) as exc:
            correct = False
            print(f"check failed: {' '.join(job.argv)}: {exc!r}", file=sys.stderr)
    return correct, failed


def main(argv=None) -> int:
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS))
    workdir = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            jobs, elapsed = setup(args.workload, args.seed, workdir)
            setup_times.append(elapsed)
        results, times = run_jobs(fresh_import(), jobs)
        if args.trace:
            cli = fresh_import()
            tracer = spans.Tracer()
            tracer.install()
            try:
                differ, traced_times = run_jobs(cli, jobs, tracer, expect=results)
            finally:
                tracer.uninstall()
            # The overhead compares the traced pass with an untraced pass that
            # also is not the first in the process.
            differ_untraced, untraced_times = run_jobs(fresh_import(), jobs, expect=results)
            differ += differ_untraced
            tracer.write(BENCH_DIR / "out" / f"spans-{args.workload}.tsv")
            metrics = tracer.metrics(sum(traced_times) / sum(untraced_times))
            passes = 3  # the reference, traced and untraced passes
        else:
            differ, pass_times = [], [times]
            for _ in range(passes - 1):
                differ_later, later_times = run_jobs(fresh_import(), jobs, expect=results)
                differ += differ_later
                pass_times.append(later_times)
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            job_times = [statistics.median(column) for column in zip(*pass_times)]
            metrics = {
                "jobs_per_s": {"value": len(jobs) / sum(job_times), "unit": "1/s"},
                "job_p50_ms": {"value": statistics.median(job_times) * 1000, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
        correct, failed = check_outputs(jobs, results)
        correct = correct and not differ
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(
        {"correct": correct, "attempted": len(jobs) * passes, "failed": failed * passes,
         "metrics": metrics}
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
