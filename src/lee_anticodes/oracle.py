"""Brute-force reference implementations backing the property tests.

Everything here is intentionally naive and element-based so it can serve as
an independent check of the closed forms and canonical algorithms: modules
are manipulated as explicit element sets, subtypes are read off the sizes
of the multiplication-by-p filtration, posets are handled by definition.
The only machinery shared with the main modules is ring arithmetic, the
Howell canonicalization used for digests, and the span size that a census
checks against its cap before it builds any element. A census takes each
module's digest from the few extension elements that built it, not from all
its elements, and checks that the digest spans exactly the module's element
set every time a census is built. `matrices.submodule_census` is this
census's list of digests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, product

from .anticodes import Anticode, exponent_vectors
from .codes import Code
from .errors import InternalCheckError, guard_cap
from .matrices import ModMatrix, howell_form, span_size
from .ring import ChainRingParams

DEFAULT_CENSUS_CAP = 3**6
DEFAULT_POSET_CAP = 10**4
DEFAULT_ANTICODE_CAP = 10**5


def span_elements(params: ChainRingParams, n: int, gens) -> frozenset:
    """All elements of the module generated by gens, by closure under addition."""
    m = params.modulus
    zero = (0,) * n
    elems = {zero}
    frontier = [zero]
    gens = [tuple(int(x) % m for x in g) for g in gens]
    while frontier:
        e = frontier.pop()
        for g in gens:
            x = tuple((a + b) % m for a, b in zip(e, g))
            if x not in elems:
                elems.add(x)
                frontier.append(x)
    return frozenset(elems)


def subtype_from_elements(params: ChainRingParams, elems) -> tuple[int, ...]:
    """Subtype recovered from the sizes of p^j * M alone.

    With M of subtype (k_0, ..., k_{s-1}), log_p |p^j M| drops by
    sum_{i <= s-1-j} k_i from step j to j+1; differencing twice isolates
    each k_i.
    """
    p, s, m = params.p, params.s, params.modulus
    logsizes = []
    for j in range(s + 1):
        pj = p**j
        size = len({tuple((pj * x) % m for x in e) for e in elems})
        log = 0
        while p**log < size:
            log += 1
        if p**log != size:
            raise InternalCheckError(f"|p^{j} M| = {size} is not a power of {p}")
        logsizes.append(log)
    drops = [logsizes[j] - logsizes[j + 1] for j in range(s)] + [0]
    counts = tuple(drops[s - 1 - i] - drops[s - i] for i in range(s))
    if any(k < 0 for k in counts):
        raise InternalCheckError(f"negative subtype from sizes {logsizes}")
    return counts


@dataclass(frozen=True)
class CensusEntry:
    mat: ModMatrix
    elements: frozenset
    subtype: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(self.subtype)


@dataclass(frozen=True)
class ModuleCensus:
    parent: ModMatrix
    entries: tuple[CensusEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def enumerate_submodules(mat: ModMatrix, cap: int = DEFAULT_CENSUS_CAP) -> ModuleCensus:
    """Every submodule of span(mat), built from element sets alone.

    Grows modules one index-p cyclic extension at a time: every submodule
    has a composition series whose steps adjoin some x with p*x already
    present, so the breadth-first closure reaches all of them. Distinct
    extension elements yielding one child differ by a child element, so
    pruning each new child's elements from the candidate list visits every
    (module, child) edge exactly once. Deduplication is by raw element set.
    Each module keeps the extension elements that built it, at most one per
    composition step; its Howell digest is taken from those few rows and
    verified against the element set.
    """
    params, n = mat.params, mat.n
    p, m = params.p, params.modulus
    guard_cap(span_size(mat), cap, "submodule census")
    parent = span_elements(params, n, mat.rows)
    universe = sorted(parent)
    times_p = [tuple((p * t) % m for t in x) for x in universe]
    zero = frozenset({(0,) * n})
    # element set -> the extension elements that built it, which span it
    found = {zero: ()}
    todo = [zero]
    while todo:
        base = todo.pop()
        queue = [
            x for x, px in zip(universe, times_p) if px in base and x not in base
        ]
        while queue:
            x = queue[0]
            child = set(base)
            shift = x
            for _ in range(p - 1):
                child.update(tuple((a + b) % m for a, b in zip(e, shift)) for e in base)
                shift = tuple((a + b) % m for a, b in zip(shift, x))
            child = frozenset(child)
            if child not in found:
                found[child] = found[base] + (x,)
                todo.append(child)
            queue = [y for y in queue if y not in child]
    entries = []
    for elems, gens in found.items():
        digest = howell_form(ModMatrix(params, n, gens))
        if span_elements(params, n, digest.rows) != elems:
            raise InternalCheckError(
                f"howell form of a census module spans a different set: {digest.rows}"
            )
        entries.append(CensusEntry(digest, elems, subtype_from_elements(params, elems)))
    entries.sort(key=lambda e: (len(e.elements), e.mat.rows))
    return ModuleCensus(howell_form(mat), tuple(entries))


def _brute_compositions(parts: int, total: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _brute_compositions(parts - 1, total - first):
            yield (first,) + rest


class PosetOracle:
    """The dominance order handled entirely by definition.

    Order is decided by comparing prefix sums, each element's computed once;
    joins and meets scan all bounds; covers test interval emptiness, once
    per element; the Moebius function uses the recursive sum over half-open
    intervals; maximal chains walk covers.
    """

    def __init__(self, parts: int, total: int, cap: int = DEFAULT_POSET_CAP):
        if parts < 1 or total < 0:
            raise ValueError("need parts >= 1 and total >= 0")
        guard_cap(math.comb(total + parts - 1, parts - 1), cap, "poset oracle")
        self.parts = parts
        self.total = total
        self._sums = {a: tuple(accumulate(a)) for a in _brute_compositions(parts, total)}
        self.elements = tuple(sorted(self._sums, key=self._sums.__getitem__))
        self._covers_memo: dict = {}
        self._mobius_memo: dict = {}

    def _prefix_sums(self, a) -> tuple:
        a = tuple(a)
        sums = self._sums.get(a)
        return tuple(accumulate(a)) if sums is None else sums

    def leq(self, a, b) -> bool:
        return all(map(operator.le, self._prefix_sums(a), self._prefix_sums(b)))

    def join(self, a, b):
        ubs = [c for c in self.elements if self.leq(a, c) and self.leq(b, c)]
        least = [c for c in ubs if all(self.leq(c, d) for d in ubs)]
        if len(least) != 1:
            raise InternalCheckError(f"join of {a}, {b} is not unique: {least}")
        return least[0]

    def meet(self, a, b):
        lbs = [c for c in self.elements if self.leq(c, a) and self.leq(c, b)]
        greatest = [c for c in lbs if all(self.leq(d, c) for d in lbs)]
        if len(greatest) != 1:
            raise InternalCheckError(f"meet of {a}, {b} is not unique: {greatest}")
        return greatest[0]

    def covers(self, a) -> tuple:
        a = tuple(a)
        if a not in self._covers_memo:
            above = [b for b in self.elements if b != a and self.leq(a, b)]
            # b covers a when no other element above a lies below b
            self._covers_memo[a] = tuple(
                b for b in above if not any(c != b and self.leq(c, b) for c in above)
            )
        return self._covers_memo[a]

    def mobius(self, a, b) -> int:
        a, b = tuple(a), tuple(b)
        if not self.leq(a, b):
            return 0
        key = (a, b)
        if key not in self._mobius_memo:
            if a == b:
                value = 1
            else:
                value = -sum(
                    self.mobius(a, c)
                    for c in self.elements
                    if c != b and self.leq(a, c) and self.leq(c, b)
                )
            self._mobius_memo[key] = value
        return self._mobius_memo[key]

    def bottom(self):
        low = [a for a in self.elements if all(self.leq(a, b) for b in self.elements)]
        if len(low) != 1:
            raise InternalCheckError(f"bottom is not unique: {low}")
        return low[0]

    def top(self):
        high = [a for a in self.elements if all(self.leq(b, a) for b in self.elements)]
        if len(high) != 1:
            raise InternalCheckError(f"top is not unique: {high}")
        return high[0]

    def maximal_chains(self):
        goal = self.top()
        stack = [(self.bottom(),)]
        while stack:
            chain = stack.pop()
            if chain[-1] == goal:
                yield chain
                continue
            for nxt in reversed(self.covers(chain[-1])):
                stack.append(chain + (nxt,))


def enumerate_anticodes(
    n: int, params: ChainRingParams, cap: int = DEFAULT_ANTICODE_CAP
) -> list[Anticode]:
    """Every anticode of length n: all exponent vectors in {0..s}^n, lex order."""
    guard_cap((params.s + 1) ** n, cap, "anticode enumeration")
    return [Anticode(params, exps) for exps in product(range(params.s + 1), repeat=n)]


def enumerate_codes(n: int, params: ChainRingParams, cap: int = DEFAULT_CENSUS_CAP):
    """Every code of length n exactly once, via the full-module census."""
    census = enumerate_submodules(ModMatrix.full(params, n), cap)
    return (Code(entry.mat) for entry in census.entries)


def pair_count_direct(a, b) -> int:
    """Pairs of exponent vectors (outer from a, inner from b) with inner inside outer."""
    inner = list(exponent_vectors(b))
    return sum(
        1
        for eo in exponent_vectors(a)
        for ei in inner
        if all(x <= y for x, y in zip(eo, ei))
    )
