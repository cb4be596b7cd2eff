"""Output checks that do not reuse the code path under test.

Each checker takes a job and the text the CLI printed for it and raises
CheckFailed when the output is wrong. They compare against facts the input
was built with (corpus.draw_code fixes subtype and size), against formulas
evaluated here (multinomials, hook lengths, the Lee bound, integer lattice
indices), against the element-set oracle in `lee_anticodes.oracle`, or
against properties every correct answer has. None of them compares against
a stored copy of earlier output, and none calls the production routines
(Howell forms, the submodule census in `matrices`, `invariants`, the weight
methods of `Code`).

The oracle is passed in as a module, so that the checks use the same
import of the package as the run; it shares only ring arithmetic and the
Howell digest with the production path and checks the digest against raw
element sets itself.
"""

from __future__ import annotations

import json
import math
import random
import re
from itertools import accumulate

from corpus import Job

# Element sets of the largest checked codes stay far below this.
ORACLE_CAP = 10**6
# Lower ends per mobius job whose intervals all get the defining sum.
MOBIUS_ROWS = 4


class CheckFailed(AssertionError):
    """The output of a job is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- weights and sizes computed here ------------------------------------


def lee(m: int, x: int) -> int:
    x %= m
    return min(x, m - x)


def hom_scaled(p: int, s: int, x: int) -> int:
    """Homogeneous weight times (p - 1): 0, p on the socle, p - 1 elsewhere."""
    m = p**s
    x %= m
    if x == 0:
        return 0
    return p if x % p ** (s - 1) == 0 else p - 1


def weight_tables(p: int, s: int) -> dict:
    """Per metric, the weight of every residue 0..p^s - 1."""
    m = p**s
    return {
        "lee": [lee(m, x) for x in range(m)],
        "hamming": [1 if x else 0 for x in range(m)],
        "hom": [hom_scaled(p, s, x) for x in range(m)],
    }


def code_size(spec: dict) -> int:
    return math.prod(spec["p"] ** (spec["s"] - v) for v in spec["vals"])


def code_subtype(spec: dict) -> list[int]:
    return [sum(1 for v in spec["vals"] if v == i) for i in range(spec["s"])]


def lattice_index(rows, m: int, n: int) -> int:
    """[Z^n : L] for L spanned by the rows and m*Z^n, by integer row reduction.

    The span of the rows in (Z/m)^n then has m^n / index elements.
    """
    vecs = [[x % m for x in r] for r in rows]
    index = 1
    for col in range(n):
        # The remaining lattice is span(vecs) + m*Z^(columns >= col).
        live = [v for v in vecs if v[col]] + [[m if j == col else 0 for j in range(n)]]
        rest = [v for v in vecs if not v[col]]
        while len(live) > 1:
            live.sort(key=lambda v: abs(v[col]))
            pivot = live[0]
            nxt = [pivot]
            for v in live[1:]:
                q = v[col] // pivot[col]
                w = [a - q * b for a, b in zip(v, pivot)]
                (nxt if w[col] else rest).append(w)
            live = nxt
        index *= abs(live[0][col])
        # Reducing modulo m keeps the entries small and the lattice the same.
        vecs = [w for w in ([x % m for x in v] for v in rest) if any(w)]
    return index


def hook_length_count(rows: int, cols: int) -> int:
    """Standard Young tableaux of a rows x cols rectangle."""
    hooks = math.prod((rows - i) + (cols - j) - 1 for i in range(rows) for j in range(cols))
    return math.factorial(rows * cols) // hooks


# -- per-workload checkers ----------------------------------------------


class Checker:
    """Checks job outputs against the element-set oracle and own formulas."""

    def __init__(self, oracle, ring):
        self.oracle = oracle
        self.ring = ring

    def span(self, spec: dict) -> frozenset:
        params = self.ring.ChainRingParams(spec["p"], spec["s"])
        return self.oracle.span_elements(params, spec["n"], spec["rows"])

    def census(self, spec: dict) -> list[tuple[int, int]]:
        """(rank, Hamming support size) of every submodule, from element sets."""
        params = self.ring.ChainRingParams(spec["p"], spec["s"])
        rows = tuple(tuple(r) for r in spec["rows"])
        mat = self.oracle.ModMatrix(params, spec["n"], rows)
        entries = self.oracle.enumerate_submodules(mat, ORACLE_CAP).entries
        return [
            (e.rank, sum(1 for j in range(spec["n"]) if any(x[j] for x in e.elements)))
            for e in entries
        ]

    def check(self, job: Job, out: str) -> None:
        getattr(self, f"_check_{job.kind}")(job, out)

    # invariants ---------------------------------------------------------

    def _check_invariants(self, job: Job, out: str) -> None:
        spec = job.spec
        data = json.loads(out)
        n, s = spec["n"], spec["s"]
        rank = len(spec["vals"])
        _require(data["rank"] == rank, f"rank {data['rank']} != {rank}")
        census = self.census(spec)
        by_rank = [sum(1 for r, _ in census if r == j) for j in range(rank + 1)]
        ghw = [
            min(w for r, w in census if r == j) for j in range(1, rank + 1)
        ]
        _require(data["ghw"] == ghw, f"ghw {data['ghw']} != census {ghw}")
        if job.action == "rweights":
            self._check_rweights(data, n, s, rank)
        if job.action != "moments":
            return
        comps = _compositions(s + 1, n)
        cells = {(tuple(e["a"]), e["j"]): (e["B"], e["W"]) for e in data["entries"]}
        _require(
            len(data["entries"]) == len(cells) == len(comps) * (rank + 1)
            and all((a, j) in cells for a in comps for j in range(rank + 1)),
            "table does not have one entry per (a, j)",
        )
        bottom = (0,) * s + (n,)
        top = (n,) + (0,) * s
        for a in comps:
            family = math.factorial(n) // math.prod(math.factorial(x) for x in a)
            b0, w0 = cells[(a, 0)]
            _require(b0 == family, f"B({a},0) = {b0}, multinomial {family}")
            _require(w0 == (1 if a == bottom else 0), f"W({a},0) = {w0}")
            for j in range(rank + 1):
                b, w = cells[(a, j)]
                _require(0 <= w <= b, f"not 0 <= W <= B at ({a},{j}): {w}, {b}")
        for j in range(rank + 1):
            total_w = sum(cells[(a, j)][1] for a in comps)
            _require(
                total_w == by_rank[j] == cells[(top, j)][0],
                f"rank {j}: sum W {total_w}, B(top) {cells[(top, j)][0]}, "
                f"census {by_rank[j]}",
            )

    @staticmethod
    def _check_rweights(data: dict, n: int, s: int, rank: int) -> None:
        free = [tuple(a) for a in data["r_weights_free"]]
        _require(len(free) == rank, "one free r-weight per rank")
        for m, a in zip(data["ghw"], free):
            _require(a == (m,) + (0,) * (s - 1) + (n - m,), f"free shape {a} for ghw {m}")
        chain = [list(accumulate(a)) for a in data["r_weights"]]
        _require(len(chain) == rank, "one r-weight per rank")
        _require(chain == sorted(chain), "r-weights decrease in the linear extension")

    # codes --------------------------------------------------------------

    def _check_code(self, job: Job, out: str) -> None:
        spec = job.spec
        p, s, n = spec["p"], spec["s"], spec["n"]
        data = json.loads(out)
        _require((data["p"], data["s"], data["n"]) == (p, s, n), "ring or length differs")
        if job.action == "dual":
            self._check_dual(spec, data)
            return
        elems = self.span(spec)
        _require(len(elems) == code_size(spec), f"oracle span has {len(elems)} elements")
        metrics = [spec["metric"]] if spec["metric"] else ["lee", "hamming", "hom"]
        tables = weight_tables(p, s)
        maxw, mind = {}, {}
        for mt in metrics:
            table = tables[mt]
            weights = [sum(table[x] for x in vec) for vec in elems if any(vec)]
            maxw[mt] = max(weights, default=0)
            mind[mt] = min(weights, default=None)
        if job.action == "analyze":
            _require(data["size"] == len(elems), f"size {data['size']} != {len(elems)}")
            _require(data["subtype"] == code_subtype(spec), f"subtype {data['subtype']}")
            _require(data["max_weight"] == maxw, f"max weights {data['max_weight']} != {maxw}")
            _require(data["min_distance"] == mind, f"min distances {data['min_distance']} != {mind}")
        elif job.action == "distance":
            for mt in metrics:
                row = data["metrics"][mt]
                _require(row["max_weight"] == maxw[mt], f"{mt} max weight {row['max_weight']}")
                _require(row["min_distance"] == mind[mt], f"{mt} min distance {row['min_distance']}")
            _require(set(data["metrics"]) == set(metrics), "metrics differ")
        else:
            self._check_optimal(spec, data["verdicts"], metrics, maxw)

    @staticmethod
    def _check_optimal(spec: dict, verdicts: dict, metrics, maxw: dict) -> None:
        p, s = spec["p"], spec["s"]
        k = code_subtype(spec)
        rank = len(spec["vals"])
        bounds = {
            "lee": sum(ki * (p**s - p**i) // 2 for i, ki in enumerate(k)),
            "hamming": rank,
            "hom": rank * p,
        }
        _require(set(verdicts) == set(metrics), "metrics differ")
        for mt in metrics:
            row = verdicts[mt]
            _require(row["max_weight"] == maxw[mt], f"{mt} max weight {row['max_weight']}")
            _require(row["bound"] == bounds[mt], f"{mt} bound {row['bound']} != {bounds[mt]}")
            _require(
                row["optimal"] == (maxw[mt] == bounds[mt]),
                f"{mt} verdict {row['optimal']} with max {maxw[mt]}, bound {bounds[mt]}",
            )

    @staticmethod
    def _check_dual(spec: dict, data: dict) -> None:
        p, s, n = spec["p"], spec["s"], spec["n"]
        m = p**s
        dual_rows = data["generator_rows"]
        for d in dual_rows:
            _require(len(d) == n, "dual row length")
            for c in spec["rows"]:
                _require(sum(x * y for x, y in zip(d, c)) % m == 0, f"dual row {d} not orthogonal")
        dual_size = m**n // lattice_index(dual_rows, m, n)
        _require(
            code_size(spec) * dual_size == m**n,
            f"|C| |C-perp| = {code_size(spec)} * {dual_size} != {m}^{n}",
        )

    # lattice -------------------------------------------------------------

    def _check_lattice(self, job: Job, out: str) -> None:
        parts, total = job.spec["parts"], job.spec["sum"]
        comps = _compositions(parts, total)
        edges = sum(1 for a in comps for j in range(parts - 1) if a[j + 1])
        action = job.action
        if action == "hasse":
            nodes = {_parse_tuple(x) for x in re.findall(r'^  "\(([0-9,]*)\)";$', out, re.M)}
            pairs = re.findall(r'^  "\(([0-9,]*)\)" -> "\(([0-9,]*)\)";$', out, re.M)
            _require(nodes == set(comps), "the nodes are not the compositions")
            _require(len(pairs) == len(set(pairs)) == edges, f"{len(pairs)} edges, expected {edges}")
            for a, b in pairs:
                _require_unit_move(_parse_tuple(a), _parse_tuple(b))
            return
        data = json.loads(out)
        if action == "enum":
            elems = [tuple(a) for a in data["elements"]]
            count = math.comb(total + parts - 1, parts - 1)
            _require(data["count"] == len(elems) == len(set(elems)) == count, "count differs")
            _require(
                all(len(a) == parts and min(a) >= 0 and sum(a) == total for a in elems),
                "an element is not a weak composition",
            )
        elif action == "covers":
            seen = [tuple(e["a"]) for e in data["entries"]]
            _require(sorted(seen) == sorted(comps), "covers are not listed for every element")
            found = 0
            for e in data["entries"]:
                ups = [tuple(b) for b in e["covers"]]
                _require(len(ups) == len(set(ups)), "repeated cover")
                for b in ups:
                    _require_unit_move(tuple(e["a"]), b)
                found += len(ups)
            _require(found == edges, f"{found} cover pairs, expected {edges}")
        elif action == "mobius":
            self._check_mobius(job, data, comps)
        else:
            want = hook_length_count(parts - 1, total)
            _require(data["count"] == want, f"{data['count']} chains, hook lengths give {want}")
            _require(data["length"] == (parts - 1) * total, "chain length")

    @staticmethod
    def _check_mobius(job: Job, data: dict, comps) -> None:
        prefix = {a: list(accumulate(a)) for a in comps}

        def leq(a, b):
            return all(x <= y for x, y in zip(prefix[a], prefix[b]))

        mu = {(tuple(e["a"]), tuple(e["b"])): e["mu"] for e in data["entries"]}
        comparable = [(a, b) for a in comps for b in comps if leq(a, b)]
        _require(
            len(mu) == len(data["entries"]) == len(comparable)
            and all(pair in mu for pair in comparable),
            "entries are not exactly the comparable pairs",
        )
        _require(all(mu[(a, a)] == 1 for a in comps), "mu(a, a) != 1")
        # Rows of the defining sum: every interval [a, b] for the bottom
        # element and a seeded sample of other lower ends a.
        bottom = min(comps, key=lambda a: prefix[a])
        rng = random.Random(job.spec["sample_seed"])
        others = [a for a in comps if a != bottom]
        for a in [bottom] + rng.sample(others, min(MOBIUS_ROWS - 1, len(others))):
            up = [c for c in comps if leq(a, c)]
            for b in up:
                if b != a:
                    total = sum(mu[(a, c)] for c in up if leq(c, b))
                    _require(total == 0, f"sum of mu over [{a}, {b}] is {total}")

    # verify --------------------------------------------------------------

    def _check_verify(self, job: Job, out: str) -> None:
        data = json.loads(out)
        _require(data["scope"] == job.action, "scope differs")
        _require(data["ok"] is True, "ok is not true")
        results = data["results"]
        _require(bool(results), "no checks were run")
        failed = [r["name"] for r in results if r["passed"] is not True]
        _require(not failed, f"checks failed: {failed}")


def _compositions(parts: int, total: int) -> list[tuple[int, ...]]:
    if parts == 1:
        return [(total,)]
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _compositions(parts - 1, total - first)
    ]


def _parse_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _require_unit_move(a, b) -> None:
    """b covers a: one unit moved from some part j+1 to part j."""
    diff = [y - x for x, y in zip(a, b)]
    ok = (
        len(a) == len(b)
        and sorted(diff) == [-1] + [0] * (len(a) - 2) + [1]
        and diff.index(1) + 1 == diff.index(-1)
    )
    _require(ok, f"{a} -> {b} does not move exactly one unit up")
