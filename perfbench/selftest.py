"""Self-test of the output checkers.

    python3 perfbench/selftest.py

Runs one job of every (workload, action) pair through the CLI, requires the
checker to accept the real output, then feeds it a copy with one planted
fault and requires the checker to reject it. Exits 0 when every checker
passed both halves.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402


def _edit_json(fn):
    def corrupt(out: str) -> str:
        data = json.loads(out)
        fn(data)
        return json.dumps(data)

    return corrupt


def _bump_b0(data):
    data["entries"][0]["B"] += 1


def _bump_first_ghw(data):
    data["ghw"][0] += 1


def _shift_free_weight(data):
    a = data["r_weights_free"][0]
    a[0], a[-1] = a[0] + 1, a[-1] - 1


def _bump_lee_max(data):
    data["max_weight"]["lee"] += 1


def _flip_verdict(data):
    row = next(iter(data["verdicts"].values()))
    row["optimal"] = not row["optimal"]


def _bump_distance(data):
    row = next(iter(data["metrics"].values()))
    row["min_distance"] += 1


def _bump_dual_entry(data):
    data["generator_rows"][0][0] += 1


def _drop_element(data):
    data["elements"].pop()
    data["count"] -= 1


def _drop_cover(data):
    next(e for e in data["entries"] if e["covers"])["covers"].pop()


def _flip_mu(data):
    next(e for e in data["entries"] if e["mu"] and e["a"] != e["b"])["mu"] *= -1


def _bump_chains(data):
    data["count"] += 1


def _fail_check(data):
    data["results"][-1]["passed"] = False


def _drop_edge(out: str) -> str:
    lines = out.splitlines(keepends=True)
    idx = next(i for i, line in enumerate(lines) if " -> " in line)
    return "".join(lines[:idx] + lines[idx + 1:])


CORRUPTIONS = {
    ("invariants", "moments"): _edit_json(_bump_b0),
    ("invariants", "ghw"): _edit_json(_bump_first_ghw),
    ("invariants", "rweights"): _edit_json(_shift_free_weight),
    ("code", "analyze"): _edit_json(_bump_lee_max),
    ("code", "optimal"): _edit_json(_flip_verdict),
    ("code", "distance"): _edit_json(_bump_distance),
    ("code", "dual"): _edit_json(_bump_dual_entry),
    ("lattice", "enum"): _edit_json(_drop_element),
    ("lattice", "covers"): _edit_json(_drop_cover),
    ("lattice", "hasse"): _drop_edge,
    ("lattice", "mobius"): _edit_json(_flip_mu),
    ("lattice", "chains"): _edit_json(_bump_chains),
    ("verify", "counting"): _edit_json(_fail_check),
    ("verify", "anticodes"): _edit_json(_fail_check),
    ("verify", "invariants"): _edit_json(_fail_check),
    ("verify", "lattice"): _edit_json(_fail_check),
}


def main() -> int:
    failures = 0
    (BENCH_DIR / "work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "work") as tmp:
        picked = {}
        for workload in corpus.WORKLOADS:
            jobs, _ = run.setup(workload, 0, Path(tmp))
            for job in jobs:
                picked.setdefault((job.kind, job.action), job)
        missing = set(CORRUPTIONS) - set(picked)
        if missing:
            print(f"no job for {sorted(missing)}", file=sys.stderr)
            return 1
        ordered = [picked[key] for key in CORRUPTIONS]
        results, _ = run.run_jobs(run.fresh_import(), ordered)
        checker = checks.Checker(
            sys.modules[f"{run.PACKAGE}.oracle"], sys.modules[f"{run.PACKAGE}.ring"]
        )
        for job, (rc, out, err) in zip(ordered, results):
            key = (job.kind, job.action)
            name = "/".join(key)
            try:
                if rc != 0:
                    raise checks.CheckFailed(f"exit code {rc}: {err.strip()}")
                checker.check(job, out)
            except checks.CheckFailed as exc:
                print(f"FAIL {name}: real output rejected: {exc}")
                failures += 1
                continue
            try:
                checker.check(job, CORRUPTIONS[key](out))
            except (checks.CheckFailed, KeyError, ValueError):
                print(f"ok   {name}: real output accepted, corrupted output rejected")
            else:
                print(f"FAIL {name}: corrupted output accepted")
                failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
