"""The four workloads: fixed job mixes whose inputs are drawn from a seed.

A job is one call of `lee_anticodes.cli.main` with a fixed argument list.
The job list of a run is the whole job mix of a workload once, each job on
its own input. The `codes` workload draws a fresh code for every job from
the seed; `invariants` takes a fixed base code per job and draws only its
presentation from the seed. Both write one matrix file per job, and the
program sees only those files. The mixes fix each code's ring, length and
subtype, so the amount of work is about the same for every seed. The
`lattice` and `verify` workloads take sizes, not files, in a fixed order:
the lattice code keeps no cache, but the invariant caches that `verify`
fills make a job's time depend on the jobs before it. The seed picks the
Moebius rows the lattice check sums over and is passed to `verify --seed`,
which the suites reserve for sampled checks.

Codes are drawn in systematic form, one generator p^v * e_i (plus random
multiples of p^v in the non-pivot columns) per valuation v in `vals`, then
given another presentation by `disguise`. The span therefore has subtype
k_i = #{v in vals : v = i} and exactly prod p^(s - v) elements whatever the
seed; the checks rely on both facts, which hold by construction and not by
anything the program reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# Each mix puts a dense cluster of jobs of about the same cost around the
# middle of its sorted job times, so that the median job time is a median
# of many similar jobs rather than the time of one.

# (action, (p, s, n, vals), copies): each copy is a job on its own code.
# |C| runs from 27 to 2187; a `moments` table takes 0.03-3 s. The cluster
# is the 14 jobs of about 0.25 s on (Z/9)^4, (Z/9)^5 and (Z/27)^3.
INVARIANT_MIX = (
    ("moments", (3, 2, 4, (0, 0)), 2),
    ("moments", (3, 2, 4, (0, 1)), 2),
    ("moments", (3, 3, 3, (0, 1)), 1),
    ("moments", (5, 2, 3, (0, 0)), 1),
    ("moments", (5, 2, 4, (0, 1)), 2),
    ("moments", (5, 2, 4, (0, 0)), 1),
    ("rweights", (3, 3, 3, (0, 1)), 1),
    ("rweights", (5, 2, 4, (0, 0)), 1),
    ("ghw", (3, 2, 6, (0, 0, 1)), 1),
    ("ghw", (3, 2, 4, (0, 0, 0)), 1),
    ("ghw", (3, 3, 3, (0, 0)), 1),
    ("ghw", (5, 2, 4, (0, 0)), 1),
    ("moments", (3, 2, 4, (0, 0, 1)), 4),
    ("moments", (3, 2, 5, (0, 0)), 4),
    ("moments", (3, 3, 3, (0, 0)), 4),
    ("moments", (5, 2, 4, (0, 0)), 1),
    ("rweights", (3, 2, 5, (0, 0, 1)), 1),
    ("moments", (3, 2, 5, (0, 1, 1)), 2),
    ("moments", (3, 2, 5, (0, 0, 1)), 2),
    ("moments", (3, 2, 6, (0, 0)), 1),
    ("moments", (3, 2, 6, (0, 0, 1)), 1),
    ("moments", (3, 2, 6, (0, 0, 0)), 1),
    ("moments", (3, 3, 3, (0, 1, 2)), 1),
    ("moments", (3, 3, 3, (0, 0, 2)), 1),
    ("rweights", (3, 2, 6, (0, 1, 1)), 1),
)

# (action, extra argv, (p, s, n, vals), copies). The enumerated codes have
# 307 to 51529 words. Over Z/p^2 with p in the hundreds `optimal` spends its
# time in the per-ideal maximum Lee weight rather than in enumeration, at a
# cost set by p alone: the 15 such jobs with p near 400 are the cluster.
CODE_MIX = (
    ("analyze", (), (3, 2, 6, (0, 0, 0)), 1),
    ("analyze", (), (3, 2, 7, (0, 0, 0, 1)), 2),
    ("analyze", (), (3, 2, 8, (0, 0, 0, 0, 1)), 2),
    ("analyze", (), (5, 2, 5, (0, 0, 1)), 1),
    ("analyze", (), (5, 2, 6, (0, 0, 0)), 2),
    ("analyze", (), (3, 3, 4, (0, 0, 1)), 1),
    ("analyze", (), (3, 3, 5, (0, 0, 1)), 1),
    ("analyze", (), (199, 2, 2, (0,)), 1),
    ("optimal", (), (3, 2, 7, (0, 0, 0, 0)), 2),
    ("optimal", (), (5, 2, 5, (0, 0, 1)), 1),
    ("optimal", (), (3, 3, 6, (0, 0, 0)), 2),
    ("optimal", (), (401, 2, 2, (1,)), 1),
    ("optimal", (), (397, 2, 3, (1,)), 1),
    ("optimal", (), (389, 2, 2, (1,)), 1),
    ("optimal", ("--metric", "lee"), (401, 2, 2, (1,)), 6),
    ("optimal", ("--metric", "lee"), (401, 2, 3, (1,)), 6),
    ("optimal", ("--metric", "lee"), (307, 2, 2, (1,)), 1),
    ("optimal", ("--metric", "lee"), (211, 2, 3, (1, 1)), 1),
    ("optimal", ("--metric", "lee"), (3, 3, 5, (0, 0, 1)), 1),
    ("distance", (), (3, 2, 8, (0, 0, 0, 0, 1)), 2),
    ("distance", (), (3, 2, 7, (0, 0, 0, 1)), 2),
    ("distance", (), (211, 2, 3, (1, 1)), 1),
    ("distance", (), (5, 2, 6, (0, 0, 0)), 1),
    ("distance", (), (5, 2, 5, (0, 0, 1)), 1),
    ("distance", ("--metric", "lee"), (3, 3, 5, (0, 1, 1)), 1),
    ("distance", ("--metric", "hamming"), (227, 2, 2, (0,)), 1),
    ("dual", (), (3, 2, 8, (0, 0, 0, 0, 1)), 1),
    ("dual", (), (401, 2, 4, (0, 1, 1)), 1),
)

# (action, parts, sum, copies): at most 325 compositions each. The lattice
# code keeps no cache, so a repeated size is the same work again. The
# cluster is 15 jobs of about 0.1 s.
LATTICE_MIX = tuple(
    [(action, parts, total, 1) for action in ("enum", "covers", "hasse")
     for parts, total in ((3, 24), (4, 10), (5, 7), (6, 5), (7, 4))]
    + [("chains", parts, total, 1) for parts, total in ((4, 4), (5, 3), (7, 2), (8, 2))]
    + [("chains", 3, 9, 3), ("chains", 4, 5, 3), ("chains", 6, 3, 3),
       ("mobius", 7, 3, 3), ("mobius", 4, 7, 3)]
    + [("mobius", parts, total, 1) for parts, total in (
        (3, 15), (3, 18), (3, 20), (3, 24), (4, 8), (4, 9), (4, 10),
        (5, 5), (5, 6), (5, 7), (6, 4), (6, 5), (7, 4))]
    + [("chains", parts, total, 1) for parts, total in (
        (3, 10), (3, 11), (4, 6), (5, 4))]
)

# (scope, parameters, copies). The census cap of `verify` admits 729
# elements, so the module suites stop at |R^n| = 27^2. The oracle keeps no
# cache, so the repeated `counting`, `anticodes` and `lattice` jobs, the
# cluster of about 0.15 s, are the same work again.
VERIFY_MIX = tuple(
    [(scope, {"p": p, "s": s, "n": n}, 1)
     for scope in ("counting", "anticodes", "invariants")
     for p, s, n in ((3, 2, 2), (5, 2, 2), (3, 3, 2), (2, 3, 2), (2, 2, 2),
                     (3, 1, 3), (5, 1, 3), (2, 1, 4), (11, 1, 2), (13, 1, 2))]
    + [("lattice", {"parts": parts, "sum": total}, 1)
       for parts, total in ((3, 4), (4, 3), (3, 5), (4, 2), (5, 2), (2, 8))]
    + [("anticodes", {"p": 5, "s": 2, "n": 2}, 5),
       ("anticodes", {"p": 3, "s": 3, "n": 2}, 2),
       ("counting", {"p": 5, "s": 1, "n": 3}, 4),
       ("lattice", {"parts": 4, "sum": 2}, 2)]
)

WORKLOADS = ("invariants", "codes", "lattice", "verify")


@dataclass
class Job:
    """One CLI call and what its checker needs to know about the input."""

    kind: str
    action: str
    argv: list[str]
    spec: dict


def draw_code(rng: random.Random, p: int, s: int, n: int, vals) -> list[list[int]]:
    """Systematic generator rows: p^v at column i, random multiples of p^v after."""
    k = len(vals)
    rows = []
    for i, v in enumerate(vals):
        row = [0] * n
        row[i] = p**v
        for j in range(k, n):
            row[j] = rng.randrange(p ** (s - v)) * p**v
        rows.append(row)
    return rows


def disguise(rng: random.Random, p: int, s: int, rows) -> list[list[int]]:
    """Another presentation of a monomially equivalent code.

    Random invertible row operations (adding multiples of other rows,
    scaling by units, shuffling) keep the span. Scaling columns by units
    and permuting them maps the code onto an equivalent one: anticodes go
    to anticodes, so sizes, subtypes, weights and invariant tables stay.
    """
    m = p**s

    def unit():
        u = rng.randrange(1, m)
        while u % p == 0:
            u = rng.randrange(1, m)
        return u

    rows = [list(r) for r in rows]
    k, n = len(rows), len(rows[0])
    for i in range(k):
        for j in range(k):
            if i != j:
                c = rng.randrange(m)
                rows[i] = [(x + c * y) % m for x, y in zip(rows[i], rows[j])]
        u = unit()
        rows[i] = [(u * x) % m for x in rows[i]]
    rng.shuffle(rows)
    scale = [unit() for _ in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[(row[t] * scale[t]) % m for t in perm] for row in rows]


def _write_matrix(path: Path, p: int, s: int, n: int, rows) -> None:
    text = f"{p} {s} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)
    path.write_text(text, encoding="utf-8")


def _code_spec(p, s, n, vals, rows) -> dict:
    return {"p": p, "s": s, "n": n, "vals": tuple(vals), "rows": rows}


def build_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of one run; writes the input files of file-based workloads.

    The expanded mix is put in one fixed shuffled order, the same for every
    seed, so that the jobs of a cluster are spread over the run instead of
    all meeting the same few seconds of the machine's state.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "invariants":
        mix = [(a, shape) for a, shape, copies in INVARIANT_MIX for _ in range(copies)]
    elif workload == "codes":
        mix = [(a, x, shape) for a, x, shape, copies in CODE_MIX for _ in range(copies)]
    elif workload == "lattice":
        mix = [(a, parts, total) for a, parts, total, copies in LATTICE_MIX for _ in range(copies)]
    else:
        mix = [(scope, params) for scope, params, copies in VERIFY_MIX for _ in range(copies)]
    random.Random(f"{workload}-order").shuffle(mix)
    jobs: list[Job] = []
    rng = random.Random(f"{workload}:{seed}")
    for idx, entry in enumerate(mix):
        if workload == "invariants":
            action, (p, s, n, vals) = entry
            base = draw_code(random.Random(f"invariants-corpus:{idx}"), p, s, n, vals)
            rows = disguise(rng, p, s, base)
            path = workdir / f"inv{idx:02d}.txt"
            _write_matrix(path, p, s, n, rows)
            spec = _code_spec(p, s, n, vals, rows)
            jobs.append(Job("invariants", action, ["invariants", str(path), action], spec))
        elif workload == "codes":
            action, extra, (p, s, n, vals) = entry
            rows = disguise(rng, p, s, draw_code(rng, p, s, n, vals))
            path = workdir / f"code{idx:02d}.txt"
            _write_matrix(path, p, s, n, rows)
            spec = _code_spec(p, s, n, vals, rows)
            spec["metric"] = extra[1] if extra else None
            jobs.append(Job("code", action, ["code", str(path), action, *extra], spec))
        elif workload == "lattice":
            action, parts, total = entry
            argv = ["lattice", "--parts", str(parts), "--sum", str(total), action]
            spec = {"parts": parts, "sum": total, "sample_seed": rng.randrange(2**32)}
            jobs.append(Job("lattice", action, argv, spec))
        else:
            scope, params = entry
            argv = ["verify", scope, "--seed", str(seed)]
            for key, value in params.items():
                argv += [f"--{key}", str(value)]
            jobs.append(Job("verify", scope, argv, dict(params)))
    return jobs
