"""Brute-force reference implementations backing the property tests.

Everything here is intentionally naive and element-based so it can serve as
an independent check of the closed forms and canonical algorithms: modules
are explicit element sets, subtypes are read off the sizes of the
multiplication-by-p filtration, posets are handled by definition. A census
packs each vector of (Z/m)^n into one int (see _packing), so that adding a
vector to a whole set is a few integer operations per element; its entries
hold tuples. A census builds every module as a union of cosets, with no
Howell form. It shares with the main modules only the ring parameters, the
span size that it checks against its cap before it builds any element, and
the Howell form of each module's few extension elements, its digest, which
is checked to span exactly the module's element set every time.
`matrices.submodule_census` is this census's list of digests.
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


def _packing(m: int, n: int):
    """pack, unpack and translate on (Z/m)^n, with each vector one int.

    x is sum_t x_t 2^(w t) with w = m.bit_length() + 1: a field holds a sum
    below 2m without a carry. translate adds x to every element of a set and
    takes m off each field whose sum z has bit w - 1 of z + 2^(w-1) - m set.
    """
    w = m.bit_length() + 1
    top, mask = w - 1, (1 << w) - 1
    low = sum(((1 << top) - m) << (w * t) for t in range(n))
    high = sum(1 << (top + w * t) for t in range(n))

    def pack(vec) -> int:
        return sum((int(x) % m) << (w * t) for t, x in enumerate(vec))

    def unpack(x: int) -> tuple[int, ...]:
        return tuple((x >> (w * t)) & mask for t in range(n))

    def translate(elems, x: int) -> set:
        return {(z := e + x) - (((z + low) & high) >> top) * m for e in elems}

    return pack, unpack, translate


def _span(module, gens, translate, bound: int) -> set:
    """The packed span of a module and gens: for each g in turn, the cosets
    module + k g for k = 0, ..., bound, up to the first k with k g in it."""
    for g in gens:
        out, coset = set(module), module
        for _ in range(bound):
            coset = translate(coset, g)
            if 0 in coset:
                break
            out |= coset
        module = out
    return module


def span_elements(params: ChainRingParams, n: int, gens) -> frozenset:
    """All elements of the module generated by gens, by closure under addition."""
    m = params.modulus
    pack, unpack, translate = _packing(m, n)
    return frozenset(map(unpack, _span({0}, map(pack, gens), translate, m - 1)))


def _filtration_subtype(params: ChainRingParams, module, times_p) -> tuple[int, ...]:
    """Subtype of a packed module from the sizes of p^j * M alone, with
    times_p the map x -> p x. With M of subtype (k_0, ..., k_{s-1}),
    log_p |p^j M| drops by sum_{i <= s-1-j} k_i from step j to j+1;
    differencing twice isolates each k_i."""
    p, s = params.p, params.s
    logsizes = []
    for j in range(s + 1):
        size = len(module)
        log = round(math.log(size, p))
        if p**log != size:
            raise InternalCheckError(f"|p^{j} M| = {size} is not a power of {p}")
        logsizes.append(log)
        module = set(map(times_p, module))
    drops = [logsizes[j] - logsizes[j + 1] for j in range(s)] + [0]
    counts = tuple(drops[s - 1 - i] - drops[s - i] for i in range(s))
    if any(k < 0 for k in counts):
        raise InternalCheckError(f"negative subtype from sizes {logsizes}")
    return counts


def subtype_from_elements(params: ChainRingParams, elems) -> tuple[int, ...]:
    """Subtype of the module with element set elems, from its size filtration."""
    pack, unpack, _ = _packing(params.modulus, len(next(iter(elems))))
    times_p = lambda x: pack([params.p * t for t in unpack(x)])
    return _filtration_subtype(params, set(map(pack, elems)), times_p)


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
    present, so the breadth-first closure reaches all of them; the
    candidates x are the preimages of the module under x -> p*x, a map
    built once over the parent. Two children of one base meet exactly in
    the base, so the children split its candidates: skipping the candidates
    a child already covers visits every (module, child) edge exactly once.
    Deduplication is by raw element set.
    Each module keeps the extension elements that built it, at most one per
    composition step; its Howell digest is taken from those few rows and
    verified against the element set.
    """
    params, n = mat.params, mat.n
    p, m = params.p, params.modulus
    guard_cap(span_size(mat), cap, "submodule census")
    pack, unpack, translate = _packing(m, n)
    # the parent's packed elements: their tuples, x -> p x and its preimages
    decode = {x: unpack(x) for x in _span({0}, map(pack, mat.rows), translate, m - 1)}
    times_p = {x: pack([p * t for t in vec]) for x, vec in decode.items()}
    preimages = {x: [] for x in decode}
    for x, px in times_p.items():
        if px not in preimages:
            raise InternalCheckError(f"p * {decode[x]} leaves the census parent")
        preimages[px].append(x)
    # element set -> the extension elements that built it, which span it
    found = {frozenset({0}): ()}
    todo = list(found)
    while todo:
        base = todo.pop()
        try:
            queue = [x for y in base for x in preimages[y] if x not in base]
        except KeyError as exc:
            raise InternalCheckError("a census module leaves its parent") from exc
        covered = set()
        for x in queue:
            if x in covered:
                continue
            child = frozenset(_span(base, (x,), translate, p - 1))
            if x not in child:  # the children would not split the candidates
                raise InternalCheckError(f"census child lacks its generator {decode[x]}")
            if child not in found:
                found[child] = found[base] + (x,)
                todo.append(child)
            covered |= child
    entries = []
    while found:
        elems, gens = found.popitem()
        digest = howell_form(ModMatrix(params, n, tuple(decode[x] for x in gens)))
        if _span({0}, map(pack, digest.rows), translate, m - 1) != elems:
            raise InternalCheckError(
                f"howell form of a census module spans a different set: {digest.rows}"
            )
        subtype = _filtration_subtype(params, elems, times_p.__getitem__)
        # popitem frees each packed set; the entries share the parent's tuples
        elems = frozenset(map(decode.__getitem__, elems))
        entries.append(CensusEntry(digest, elems, subtype))
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

    Order is decided by comparing prefix sums, each element's computed once.
    Every other query reads each element's up-set and down-set, int bitsets
    over `elements` filled lazily by `leq` (O(|L|^2) bits, 12.5 MB at the
    default cap): a join is the upper bound whose up-set holds every upper
    bound, b covers a when it is the one element of its down-set strictly
    above a, the bottom's up-set is all of L, and the Moebius function is the
    recursive sum over the half-open interval up(a) & down(b) minus b.
    Maximal chains walk covers.
    """

    def __init__(self, parts: int, total: int, cap: int = DEFAULT_POSET_CAP):
        if parts < 1 or total < 0:
            raise ValueError("need parts >= 1 and total >= 0")
        guard_cap(math.comb(total + parts - 1, parts - 1), cap, "poset oracle")
        self.parts = parts
        self.total = total
        self._sums = {a: tuple(accumulate(a)) for a in _brute_compositions(parts, total)}
        self.elements = tuple(sorted(self._sums, key=self._sums.__getitem__))
        self._bit = {a: 1 << i for i, a in enumerate(self.elements)}
        self._reach_memo: dict = {}
        self._mobius_memo: dict = {}

    def _prefix_sums(self, a) -> tuple:
        a = tuple(a)
        sums = self._sums.get(a)
        return tuple(accumulate(a)) if sums is None else sums

    def leq(self, a, b) -> bool:
        return all(map(operator.le, self._prefix_sums(a), self._prefix_sums(b)))

    def _reach(self, a, up: bool) -> int:
        """The up-set (or the down-set) of a, an int over the indices of
        `elements`, filled by `leq` on first use."""
        key = (tuple(a), up)
        if key not in self._reach_memo:
            self._reach_memo[key] = sum(
                bit
                for c, bit in self._bit.items()
                if (self.leq(a, c) if up else self.leq(c, a))
            )
        return self._reach_memo[key]

    def _elems(self, bits: int) -> list:
        """The elements at the set bits of bits, in the order of `elements`."""
        return [c for c, bit in zip(self.elements, bin(bits)[:1:-1]) if bit == "1"]

    def _bound(self, up: bool, *pair):
        """The join (or the meet) of pair: the upper (lower) bound whose own
        up-set (down-set) holds every such bound. Of no elements, it is the
        bottom (the top), whose up-set (down-set) is all of L."""
        bounds = (1 << len(self.elements)) - 1
        for a in pair:
            bounds &= self._reach(a, up)
        found = [c for c in self._elems(bounds) if self._reach(c, up) & bounds == bounds]
        if len(found) != 1:
            what = ("join" if up else "meet") if pair else ("bottom" if up else "top")
            raise InternalCheckError(f"{what} of {pair} is not unique: {found}")
        return found[0]

    def join(self, a, b):
        return self._bound(True, a, b)

    def meet(self, a, b):
        return self._bound(False, a, b)

    def bottom(self):
        return self._bound(True)

    def top(self):
        return self._bound(False)

    def covers(self, a) -> tuple:
        above = self._reach(a, True) & ~self._bit.get(tuple(a), 0)
        # b covers a when no other element above a lies below b
        return tuple(
            b
            for b in self._elems(above)
            if self._reach(b, False) & above == self._bit[b]
        )

    def mobius(self, a, b) -> int:
        a, b = tuple(a), tuple(b)
        if not self.leq(a, b):
            return 0
        if (a, b) not in self._mobius_memo:
            inside = self._reach(a, True) & self._reach(b, False) & ~self._bit.get(b, 0)
            self._mobius_memo[a, b] = (a == b) - sum(
                self.mobius(a, c) for c in self._elems(inside)
            )
        return self._mobius_memo[a, b]

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
