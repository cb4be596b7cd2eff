"""Spans around the calls into each module of `lee_anticodes`.

The tracer wraps the public functions named in the *_TARGETS tables from
the benchmark's side; nothing inside `src/` is changed. Each wrapper is
installed wherever the function is bound: the defining module, every
module of the package that imported it by name, and, for methods, the
class. A span records the name, start, end, parent span and job id. Spans
are kept in memory in compact arrays and written out when the run ends; a
function called once per element gets a counting wrapper instead of a
span. A span's self time is its duration minus the durations of its child
spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

PACKAGE = "lee_anticodes"

# (module, attribute, metric name). An attribute "Class.method" is patched
# on the class. Several attributes may share one metric name.
SPAN_TARGETS = (
    ("matrices", "howell_form", "matrices.howell_form"),
    ("matrices", "kernel", "matrices.kernel"),
    ("matrices", "module_intersect", "matrices.module_intersect"),
    ("matrices", "systematic_form", "matrices.systematic_form"),
    ("matrices", "submodule_census", "matrices.submodule_census"),
    ("matrices", "enumerate_elements", "matrices.enumerate_elements"),
    ("codes", "Code.max_weight", "codes.max_weight"),
    ("codes", "Code.min_distance", "codes.min_distance"),
    ("codes", "analysis_record", "codes.analysis_record"),
    ("ring", "ChainRingParams.ideal_max_lee", "ring.ideal_max_lee"),
    ("anticodes", "lee_bound", "anticodes.lee_bound"),
    ("anticodes", "is_optimal", "anticodes.is_optimal"),
    ("anticodes", "family", "anticodes.family"),
    ("dominance", "compositions", "dominance.compositions"),
    ("dominance", "mobius", "dominance.mobius"),
    ("dominance", "hasse_dot", "dominance.hasse_dot"),
    ("invariants", "build_invariant_table", "invariants.build_invariant_table"),
    ("invariants", "binomial_moment_single", "invariants.binomial_moment_single"),
    ("invariants", "weight_distribution_single", "invariants.weight_distribution_single"),
    ("invariants", "chain_bracket", "invariants.chain_bracket"),
    ("invariants", "r_weight", "invariants.r_weight"),
    ("invariants", "r_weight_free", "invariants.r_weight"),
    ("invariants", "r_weight_minimal_set", "invariants.r_weight"),
    ("oracle", "enumerate_submodules", "oracle.enumerate_submodules"),
    ("oracle", "span_elements", "oracle.span_elements"),
    ("oracle", "PosetOracle.__init__", "oracle.poset"),
    ("oracle", "PosetOracle.join", "oracle.poset"),
    ("oracle", "PosetOracle.meet", "oracle.poset"),
    ("oracle", "PosetOracle.covers", "oracle.poset"),
    ("oracle", "PosetOracle.mobius", "oracle.poset"),
    ("oracle", "PosetOracle.bottom", "oracle.poset"),
    ("oracle", "PosetOracle.top", "oracle.poset"),
    ("verification", "verify_lattice", "verification.verify_lattice"),
    ("verification", "verify_counting", "verification.verify_counting"),
    ("verification", "verify_anticodes", "verification.verify_anticodes"),
    ("verification", "verify_invariants", "verification.verify_invariants"),
    ("cli", "main", "cli.main"),
)
# Generators: one span per resumption, one count per item yielded.
GENERATOR_TARGETS = (
    ("dominance", "maximal_chains", "dominance.maximal_chains", "chains"),
    ("oracle", "PosetOracle.maximal_chains", "oracle.poset", None),
)
# Called once per element: counted, not timed.
COUNT_TARGETS = (
    ("ring", "vector_weight", "ring.vector_weight"),
    ("dominance", "dominance_leq", "dominance.dominance_leq"),
)
# Result sizes recorded as counts: metric -> function of the result.
RESULT_COUNTS = {
    "matrices.submodule_census": ("modules", len),
    "oracle.enumerate_submodules": ("modules", len),
    "anticodes.family": ("members", len),
}
# lru_caches read through cache_info(): metric prefix -> attribute.
CACHES = (
    ("invariants.intersection_cache", "_intersection_cached"),
    ("invariants.subcode_cache", "_subcode_stats"),
)

# Every per-layer metric the traced run reports, with its unit and the
# direction in which an optimisation moves it.
PER_LAYER = (
    [(f"{name}.calls", "count", "lower") for name in (
        "matrices.submodule_census", "invariants.binomial_moment_single",
        "invariants.weight_distribution_single", "invariants.build_invariant_table",
        "invariants.chain_bracket", "invariants.r_weight", "matrices.howell_form",
        "matrices.kernel", "matrices.module_intersect", "matrices.systematic_form",
        "matrices.enumerate_elements", "codes.max_weight", "codes.min_distance",
        "codes.analysis_record", "ring.vector_weight", "ring.ideal_max_lee",
        "anticodes.lee_bound", "anticodes.is_optimal", "anticodes.family",
        "dominance.compositions", "dominance.dominance_leq", "dominance.mobius",
        "dominance.hasse_dot", "oracle.enumerate_submodules", "oracle.span_elements",
        "cli.main",
    )]
    + [(f"{name}.self_s", "s", "lower") for name in (
        "matrices.submodule_census", "invariants.binomial_moment_single",
        "invariants.weight_distribution_single", "invariants.build_invariant_table",
        "invariants.chain_bracket", "invariants.r_weight", "matrices.howell_form",
        "matrices.kernel", "matrices.module_intersect", "matrices.systematic_form",
        "codes.max_weight", "codes.min_distance", "codes.analysis_record",
        "ring.ideal_max_lee", "anticodes.lee_bound", "anticodes.is_optimal",
        "dominance.compositions", "dominance.mobius", "dominance.hasse_dot",
        "dominance.maximal_chains", "oracle.enumerate_submodules", "oracle.span_elements",
        "oracle.poset", "verification.verify_lattice", "verification.verify_counting",
        "verification.verify_anticodes", "verification.verify_invariants", "cli.main",
    )]
    + [
        ("matrices.submodule_census.modules", "count", "lower"),
        ("oracle.enumerate_submodules.modules", "count", "lower"),
        ("matrices.enumerate_elements.elements", "count", "lower"),
        ("anticodes.family.members", "count", "lower"),
        ("dominance.maximal_chains.chains", "count", "lower"),
    ]
    + [
        (f"{prefix}.{field}", "count", better)
        for prefix, _ in CACHES
        for field, better in (("hits", "higher"), ("misses", "lower"), ("size", "lower"))
    ]
    + [
        ("trace.spans", "count", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def package_modules() -> dict:
    prefix = PACKAGE + "."
    return {
        name[len(prefix):]: mod
        for name, mod in sys.modules.items()
        if name.startswith(prefix) and mod is not None
    }


class Tracer:
    """Holds the spans and counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.current_job = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list = []

    # recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str):
        nid = self._name_id(name)
        sized = RESULT_COUNTS.get(name)
        counted = name == "matrices.enumerate_elements"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if sized is not None:
                tracer.counts[f"{name}.{sized[0]}"] += sized[1](result)
            if counted:
                result = tracer._count_items(result, f"{name}.elements")
            return result

        return wrapper

    def _count_items(self, items, key: str):
        for item in items:
            self.counts[key] += 1
            yield item

    def _generator_wrapper(self, fn, name: str, item_count):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    if item_count:
                        tracer.counts[f"{name}.{item_count}"] += 1
                    yield item

            return resumed()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installing -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever it is bound in the imported package."""
        modules = package_modules()
        for mod_name, attr, name in SPAN_TARGETS:
            self._patch(modules, mod_name, attr, lambda fn, n=name: self._span_wrapper(fn, n))
        for mod_name, attr, name, item_count in GENERATOR_TARGETS:
            self._patch(
                modules, mod_name, attr,
                lambda fn, n=name, c=item_count: self._generator_wrapper(fn, n, c),
            )
        for mod_name, attr, name in COUNT_TARGETS:
            self._patch(modules, mod_name, attr, lambda fn, n=name: self._count_wrapper(fn, n))

    def _patch(self, modules: dict, mod_name: str, attr: str, make) -> None:
        owner = modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        bound = False
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
                    bound = True
        if not bound:
            raise RuntimeError(f"{mod_name}.{attr} is not bound anywhere")

    def uninstall(self) -> None:
        """Restore the originals and read the caches the traced pass filled."""
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        invariants = package_modules()["invariants"]
        for prefix, attr in CACHES:
            info = getattr(invariants, attr).cache_info()
            self.counts[f"{prefix}.hits"] = info.hits
            self.counts[f"{prefix}.misses"] = info.misses
            self.counts[f"{prefix}.size"] = info.currsize

    # results ----------------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Per name: number of spans and summed self time."""
        child = [0.0] * len(self.name)
        for idx in range(len(self.name)):
            par = self.parent[idx]
            if par >= 0:
                child[par] += self.end[idx] - self.start[idx]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for idx in range(len(self.name)):
            name = self.names[self.name[idx]]
            calls[name] += 1
            self_s[name] += self.end[idx] - self.start[idx] - child[idx]
        return calls, self_s

    def metrics(self, overhead_ratio: float) -> dict:
        """Every PER_LAYER metric, after uninstall() has read the caches."""
        calls, self_s = self.self_times()
        values = {}
        for metric, unit, _ in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if metric == "trace.spans":
                value = len(self.name)
            elif metric == "trace.overhead_ratio":
                value = overhead_ratio
            elif field == "self_s":
                value = self_s.get(base, 0.0)
            elif field == "calls" and base in self._ids:
                value = calls.get(base, 0)
            else:
                value = self.counts.get(metric, 0)
            values[metric] = {"value": value, "unit": unit}
        return values

    def write(self, path: Path) -> None:
        """Write the spans as tab-separated rows: name, start, end, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tname\tstart_s\tend_s\tparent\tjob\n")
            for idx in range(len(self.name)):
                handle.write(
                    f"{idx}\t{self.names[self.name[idx]]}\t{self.start[idx] - t0:.9f}\t"
                    f"{self.end[idx] - t0:.9f}\t{self.parent[idx]}\t{self.job[idx]}\n"
                )
