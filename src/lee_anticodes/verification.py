"""Oracle-vs-closed-form verification suites, shared by the CLI and tests.

Each suite returns a list of CheckResult records, one per property. A check
fails by returning a counterexample description, never by raising: internal
cross-check errors from the library are caught and reported as failures so
the CLI can dump them and exit with the triage code for theorem violations.

Each census suite builds the element-set census of R^n,
oracle.enumerate_submodules, and its own Codes from the entries; verify_all
builds the census once and hands it to its three census suites. Every
containment fact is read off the census down-sets (ModuleCensus.down), by
popcount under one mask per key or by one bit: verify_counting's brackets,
verify_invariants' B and W (_down_set_tables), meet ranks (the highest bit
of down(C) & down(A)) and GHW minima, and verify_anticodes' anticode
containment. Each anticode is found in the census by its digest
(_census_positions). No Howell-form census or module intersection enters
these references; check_kernels and check_rank_identity read every dual off
one kernel map per census (_duals). Each production answer is computed once
and every check reads it: check_rank_identity reads rank(C cap A) off the
grid of C's table (InvariantTable.meet_subtypes), not one restriction per
pair; check_tables compares every cell of every table with the census but
checks the two inversion identities once per distinct table; check_subtypes
reads each Code's own subtype. Membership reduces the whole universe
against each census code at once (Code.contains_columns) and compares the
accepted set with the element set. verify_anticodes weighs each element of
R^n once per metric and reads each code's maximum weight off its element
set, so no codeword is enumerated through Code, and holds each hull to its
entry's floors (_element_floors). verify_lattice counts maximal chains as
cover paths of the poset oracle, top down, and enumerates no chain.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import compress

from . import anticodes as ac
from . import dominance as comp
from . import invariants as inv
from . import matrices, oracle
from .codes import Code
from .errors import InternalCheckError
from .matrices import ModMatrix
from .ring import METRICS, ChainRingParams, column_weights


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _run(name: str, fn) -> CheckResult:
    """Run one check; fn returns None on success or a counterexample string."""
    try:
        detail = fn()
    except InternalCheckError as exc:
        return CheckResult(name, False, str(exc))
    if detail is None:
        return CheckResult(name, True)
    return CheckResult(name, False, detail)


def verify_lattice(
    parts: int, total: int, cap: int = oracle.DEFAULT_POSET_CAP
) -> list[CheckResult]:
    po = oracle.PosetOracle(parts, total, cap)
    elems = comp.compositions(parts, total)
    lower = defaultdict(set)  # a -> the elements the oracle finds a covers
    for b in elems:
        for a in po.covers(b):
            lower[a].add(b)

    def check_enumeration():
        expected = math.comb(total + parts - 1, parts - 1)
        if len(elems) != expected or set(elems) != set(po.elements):
            return f"enumeration mismatch: {len(elems)} vs {expected}"
        return None

    def check_order():
        for a in elems:
            for b in elems:
                if comp.dominance_leq(a, b) != po.leq(a, b):
                    return f"order disagrees at {a}, {b}"
        return None

    def check_join_meet():
        for a in elems:
            for b in elems:
                if comp.join(a, b) != po.join(a, b):
                    return f"join disagrees at {a}, {b}"
                if comp.meet(a, b) != po.meet(a, b):
                    return f"meet disagrees at {a}, {b}"
        return None

    def check_covers():
        for a in elems:
            if set(comp.covers(a)) != set(po.covers(a)):
                return f"covers disagree at {a}"
            if set(comp.covered_by(a)) != lower[a]:
                return f"lower covers disagree at {a}"
        return None

    def check_mobius():
        for a in elems:
            for b in elems:
                if comp.mobius(a, b) != po.mobius(a, b):
                    return (
                        f"mobius disagrees at {a}, {b}: "
                        f"closed {comp.mobius(a, b)}, recursive {po.mobius(a, b)}"
                    )
        return None

    def check_mobius_support():
        for a in elems:
            support = {b for b in elems if comp.mobius(a, b) != 0}
            if support != set(comp.boolean_sublattice(a)):
                return f"mobius support differs from the boolean sublattice at {a}"
        return None

    def check_chains():
        # Top down, each element's cover paths to the top: how many, the
        # shortest and the longest. The maximal chains are those from the
        # bottom, so none is enumerated.
        goal = po.top()
        paths = {goal: (1, 0, 0)}
        for a in reversed(po.elements):
            if a != goal:
                counts, shorts, longs = zip(*(paths[b] for b in po.covers(a)))
                paths[a] = (sum(counts), 1 + min(shorts), 1 + max(longs))
        count, shortest, longest = paths[po.bottom()]
        want = comp.maximal_chain_length(parts, total)
        if not shortest == longest == want:
            return f"chain lengths {shortest} to {longest}, expected {want}"
        formula = comp.maximal_chain_count(parts, total)
        if count != formula:
            return f"chain count {count} != hook-length formula {formula}"
        return None

    def check_reversal():
        for a in elems:
            for b in elems:
                fwd = comp.dominance_leq(a, b)
                rev = comp.dominance_leq(
                    comp.reverse_composition(b), comp.reverse_composition(a)
                )
                if fwd != rev:
                    return f"reversal fails at {a}, {b}"
        return None

    def check_distributivity():
        # Each join and meet once, as an index into elems.
        index = {a: i for i, a in enumerate(elems)}
        join = [[index.get(comp.join(a, b)) for b in elems] for a in elems]
        meet = [[index.get(comp.meet(a, b)) for b in elems] for a in elems]
        if any(None in row for row in join + meet):
            return "a join or meet leaves the lattice"
        for a, meet_a in enumerate(meet):
            for b, join_b in enumerate(join):
                lhs = [meet_a[i] for i in join_b]
                rhs = [join[meet_a[b]][i] for i in meet_a]
                if lhs != rhs:
                    c = next(c for c, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
                    return f"distributivity fails at {elems[a]}, {elems[b]}, {elems[c]}"
        return None

    def check_linear_extension():
        for a in elems:
            for b in elems:
                if comp.dominance_leq(a, b) and comp.linear_key(a) > comp.linear_key(b):
                    return f"linear extension violates order at {a}, {b}"
        return None

    def check_irreducibles():
        for a in elems:
            if comp.is_join_irreducible(a) != (len(lower[a]) == 1):
                return f"join irreducibility disagrees at {a}"
            if comp.is_meet_irreducible(a) != (len(po.covers(a)) == 1):
                return f"meet irreducibility disagrees at {a}"
        return None

    return [
        _run("lattice enumeration matches the oracle", check_enumeration),
        _run("dominance order matches the oracle", check_order),
        _run("join and meet match brute bounds", check_join_meet),
        _run("covers match interval emptiness", check_covers),
        _run("Moebius closed form equals the recursion", check_mobius),
        _run("Moebius support equals the boolean sublattice", check_mobius_support),
        _run("maximal chains have the uniform length", check_chains),
        _run("reversal is an order anti-isomorphism", check_reversal),
        _run("the lattice is distributive", check_distributivity),
        _run("the linear extension refines dominance", check_linear_extension),
        _run("irreducibles have unique covers", check_irreducibles),
    ]


def _census_codes(params: ChainRingParams, n: int, cap: int, census=None):
    """The census of R^n, built here unless the caller passes one, and a
    Code per entry, built anew by every suite."""
    if census is None:
        census = oracle.enumerate_submodules(ModMatrix.full(params, n), cap)
    return census, [Code(entry.mat) for entry in census.entries]


def _masks(keys) -> dict:
    """key -> the int bitset of the census entries with that key."""
    masks = defaultdict(int)
    for i, key in enumerate(keys):
        masks[key] |= 1 << i
    return masks


def _element_floors(params: ChainRingParams, census) -> list[tuple[int, ...]]:
    """For each census entry D, its floor: the minimum valuation of each
    coordinate over its elements. D lies inside the anticode with exponents
    e iff floor >= e componentwise, so its hull, the least anticode that
    contains it, has exponents floor; D is nonzero at t iff floor_t < s."""
    valuation = [params.valuation(x) for x in range(params.modulus)]
    coords = range(census.parent.n)
    return [
        tuple(min(valuation[v[t]] for v in entry.elements) for t in coords)
        for entry in census.entries
    ]


def _census_positions(census, anticodes) -> list[int]:
    """Each anticode's census index: the entry whose digest is its module."""
    index = {entry.mat: i for i, entry in enumerate(census.entries)}
    positions = [index.get(A.module()) for A in anticodes]
    if None in positions:
        missing = anticodes[positions.index(None)].exponents
        raise InternalCheckError(f"anticode {missing} is not a census module")
    return positions


def _duals(census) -> list[int]:
    """The kernel map: each entry's kernel as a census index, an involution."""
    index = {entry.mat: i for i, entry in enumerate(census.entries)}
    duals = [index.get(matrices.kernel(entry.mat)) for entry in census.entries]
    for i, (entry, k) in enumerate(zip(census.entries, duals)):
        if k is None:
            raise InternalCheckError(f"kernel of {entry.mat.rows} is not a census module")
        if duals[k] != i:
            raise InternalCheckError(f"double kernel differs for {entry.mat.rows}")
    return duals


def _down_set_tables(census, floors, anticodes):
    """For each census code C with down-set d, its B and W tables by
    popcount: B[(a, j)] adds, over the anticodes of shape a, the rank-j
    entries of d & down(A); W[(a, j)] counts the rank-j entries of d whose
    hull, the anticode with their floor as exponents, has shape a."""
    s = census.parent.params.s
    ranks = [entry.rank for entry in census.entries]
    hulls = (matrices.valuation_counts(floor, s + 1) for floor in floors)
    by_rank, by_hull = _masks(ranks), _masks(zip(hulls, ranks)).items()
    inside = defaultdict(list)  # (a, j) -> down(A) & by_rank[j], A of shape a
    for A, i in zip(anticodes, _census_positions(census, anticodes)):
        for j, mask in by_rank.items():
            inside[A.extended_subtype, j].append(census.down[i] & mask)
    for d in census.down:
        b = {key: sum((d & m).bit_count() for m in masks) for key, masks in inside.items()}
        yield Counter(b), Counter({key: (d & m).bit_count() for key, m in by_hull})


def verify_counting(
    p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP, census=None
):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap, census)
    comps = comp.compositions(s + 1, n)
    # Each bracket once per distinct (ext, b) in the suite.
    bracket = cache(inv.chain_bracket)

    def check_census_total():
        full_ext = (n,) + (0,) * s
        expected = sum(bracket(full_ext, b, p) for b in comps)
        if len(census) != expected:
            return f"census size {len(census)} != bracket total {expected}"
        return None

    def check_span_sizes():
        for entry in census.entries:
            if matrices.span_size(entry.mat) != len(entry.elements):
                return f"span size disagrees for {entry.mat.rows}"
        return None

    def check_subtypes():
        # Code ran matrices.subtype on the same Howell form.
        for entry, code in zip(census.entries, codes):
            if code.subtype != entry.subtype:
                return (
                    f"subtype disagrees for {entry.mat.rows}: "
                    f"systematic {code.subtype}, filtration {entry.subtype}"
                )
        return None

    def check_howell_uniqueness():
        for entry in census.entries:
            doubled = ModMatrix(
                params, n, tuple(reversed(entry.mat.rows)) + entry.mat.rows
            )
            if matrices.howell_form(doubled) != entry.mat:
                return f"howell form not canonical for {entry.mat.rows}"
        return None

    def check_brackets():
        exts = [entry.subtype + (n - entry.rank,) for entry in census.entries]
        masks = _masks(exts)
        for ext, down in zip(exts, census.down):
            for b in comps:
                count = (down & masks.get(b, 0)).bit_count()
                if bracket(ext, b, p) != count:
                    return (
                        f"bracket({ext}, {b}) = {bracket(ext, b, p)} "
                        f"but census finds {count}"
                    )
        return None

    def check_kernels():
        entries = census.entries
        for entry, ker in zip(entries, [entries[k] for k in _duals(census)]):
            if len(entry.elements) * len(ker.elements) != p ** (s * n):
                return f"kernel size pairing fails for {entry.mat.rows}"
            expect = (n - entry.rank,) + entry.subtype[:0:-1]
            if ker.subtype != expect:
                return f"kernel subtype {ker.subtype} != {expect}"
        return None

    def check_membership():
        # One contains_columns call per code, over the whole universe; the
        # least vector of the symmetric difference names a counterexample.
        universe = sorted(census.entries[-1].elements)
        columns = [list(column) for column in zip(*universe)]
        for entry, code in zip(census.entries, codes):
            accepted = set(compress(universe, code.contains_columns(columns)))
            if accepted != entry.elements:
                x = min(accepted ^ entry.elements)
                return f"membership disagrees for {x} in {entry.mat.rows}"
        return None

    def check_enumeration():
        # The element set has no repeats, so equal lengths and sets mean
        # each element once.
        for entry in census.entries:
            elements = list(matrices.enumerate_elements(entry.mat))
            if len(elements) != len(entry.elements) or set(elements) != entry.elements:
                return f"enumeration disagrees for {entry.mat.rows}"
        return None

    return [
        _run("census size equals the bracket total", check_census_total),
        _run("span sizes match element counts", check_span_sizes),
        _run("systematic subtypes match the size filtration", check_subtypes),
        _run("howell form is canonical under row shuffling", check_howell_uniqueness),
        _run("brackets count submodules on every parent", check_brackets),
        _run("kernels pair sizes and reverse subtypes", check_kernels),
        _run("membership agrees with element sets", check_membership),
        _run("enumeration yields each element once", check_enumeration),
    ]


def verify_anticodes(
    p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP, census=None
):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap, census)
    all_anticodes = oracle.enumerate_anticodes(n, params)
    comps = comp.compositions(s + 1, n)
    # Each element of R^n, the last and largest census entry, weighed once
    # per metric; each code's maximum weight is read off its element set.
    universe = list(census.entries[-1].elements)
    columns = list(zip(*universe))
    weight = {m: dict(zip(universe, column_weights(params, columns, m))) for m in METRICS}
    maxima = [
        {m: max(map(weight[m].__getitem__, entry.elements)) for m in METRICS}
        for entry in census.entries
    ]
    hulls = [ac.hull(c) for c in codes]

    def run_bound_check(metric, bound):
        def check():
            for c, weights in zip(codes, maxima):
                if weights[metric] < ac.weight_bound(c, metric):
                    return f"{bound} bound fails for {c.gen.rows}"
            return None

        return _run(f"{bound} bound holds on the census", check)

    def check_lee_characterization():
        for c, weights, hull in zip(codes, maxima, hulls):
            weight_route = weights["lee"] == ac.weight_bound(c, "lee")
            structure_route = c.size == hull.size
            if weight_route != structure_route:
                return (
                    f"characterization split for {c.gen.rows}: "
                    f"weight {weight_route}, structure {structure_route}"
                )
            if ac.is_optimal(c, "lee") != structure_route:
                return f"is_optimal verdict inconsistent for {c.gen.rows}"
        return None

    def check_families_optimal():
        for a in comps:
            for A in ac.family(a, params):
                if not ac.is_optimal(A.as_code(), "lee"):
                    return f"family member {A.exponents} not optimal"
        return None

    def check_containment():
        # B lies inside A iff bit i(B) of A's census down-set is set.
        positions = _census_positions(census, all_anticodes)
        for A, i in zip(all_anticodes, positions):
            for B, j in zip(all_anticodes, positions):
                if ac.contains(A, B) != bool(census.down[i] >> j & 1):
                    return f"containment disagrees at {A.exponents}, {B.exponents}"
        return None

    def check_hull_minimality():
        for c, hull, floor in zip(codes, hulls, _element_floors(params, census)):
            exponents = hull.exponents
            if exponents != floor:
                return f"hull {exponents} != element-set floor {floor} for {c.gen.rows}"
        return None

    def check_anticode_duality():
        for A in all_anticodes:
            if ac.dual_anticode(A).module() != matrices.kernel(A.module()):
                return f"dual anticode differs from kernel at {A.exponents}"
        return None

    def check_subtype_consistency():
        for A in all_anticodes:
            code = A.as_code()
            if code.extended_subtype != A.extended_subtype:
                return f"extended subtype mismatch at {A.exponents}"
            if code.support_subtype != A.extended_subtype:
                return f"support subtype mismatch at {A.exponents}"
        return None

    results = [
        run_bound_check("hamming", "hamming"),
        run_bound_check("hom", "homogeneous"),
    ]
    if p != 2:
        results.extend(
            [
                run_bound_check("lee", "lee"),
                _run("lee optimality routes agree everywhere", check_lee_characterization),
                _run("every family member is lee-optimal", check_families_optimal),
            ]
        )
    results.extend(
        [
            _run("containment agrees with module inclusion", check_containment),
            _run("hull is the minimal covering anticode", check_hull_minimality),
            _run("anticode duality matches kernels", check_anticode_duality),
            _run("anticode subtypes are consistent", check_subtype_consistency),
        ]
    )
    return results


def verify_invariants(
    p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP, census=None
):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap, census)
    all_anticodes = oracle.enumerate_anticodes(n, params)
    comps = comp.compositions(s + 1, n)
    # Each code's table, R-weight fields included, is built once per suite.
    table = cache(inv.build_invariant_table)
    ranks = [entry.rank for entry in census.entries]
    floors = _element_floors(params, census)

    def check_tables():
        # Every cell of every table against the census reference: B(A, j)
        # counts the rank-j subcodes of C inside A, W(A, j) those whose hull
        # is A. B >= W and both identities depend only on the table's
        # values, so they are checked once per distinct table, with each
        # coefficient computed once.
        containing, inverting = {}, {}
        for a in comps:
            below = [b for b in comps if comp.dominance_leq(b, a)]
            containing[a] = [(b, inv.count_containing(b, a)) for b in below]
            inverting[a] = [(b, inv.inversion_coefficient(b, a)) for b in below]
        cells = [[(a, j) for a in comps for j in range(r + 1)] for r in range(n + 1)]
        references = _down_set_tables(census, floors, all_anticodes)
        checked = set()  # the cell values of the tables whose identities hold
        for c, (want_b, want_w) in zip(codes, references):
            t = table(c)
            moments, weights = t.binomial_moments, t.weight_distributions
            keys = cells[c.rank]
            got = [(moments[key], weights[key]) for key in keys]
            want = [(want_b[key], want_w[key]) for key in keys]
            if got != want:
                i = next(i for i, pair in enumerate(got) if pair != want[i])
                a, j = keys[i]
                return (
                    f"(B, W) = {got[i]} but the census gives {want[i]} "
                    f"at a={a}, j={j} for {c.gen.rows}"
                )
            # Its length fixes the rank and so the cells: equal values mean
            # equal tables.
            values = tuple(got)
            if values in checked:
                continue
            for (a, j), (b_aj, w_aj) in zip(keys, got):
                identities = (
                    sum(x * weights[b, j] for b, x in containing[a]),
                    sum(x * moments[b, j] for b, x in inverting[a]),
                )
                if b_aj < w_aj or identities != (b_aj, w_aj):
                    return (
                        f"B < W or an inversion identity fails "
                        f"at a={a}, j={j} for {c.gen.rows}"
                    )
            checked.add(values)
        return None

    def check_rank_identity():
        # (C cap A)perp = Cperp + Aperp, the kernel-map image of the top bit of
        # down(C) & down(A); K - a_s + freerk(Cperp cap Aperp) is false (criterion 13).
        # rank(C cap A) = n - ext_s is read off the grid of C's table, whose
        # cells are in the lexicographic order of all_anticodes.
        entries, down, duals = census.entries, census.down, _duals(census)
        for entry, d, k in zip(entries, down, duals):
            if matrices.free_rank(entry.mat) != entry.subtype[0]:
                return f"free rank of {entry.mat.rows} disagrees with its filtration"
            while d:
                j, d = (d & -d).bit_length() - 1, d & (d - 1)
                if not down[duals[j]] >> k & 1:
                    return f"order not reversed: {entries[j].mat.rows} in {entry.mat.rows}"
        downs = [down[i] for i in _census_positions(census, all_anticodes)]
        for c, d in zip(codes, down):
            grid = table(c).meet_subtypes
            for A, a, ext in zip(all_anticodes, downs, grid):
                lhs = n - ext[-1]
                meet = (d & a).bit_length() - 1
                rhs = n - entries[duals[meet]].subtype[0] if d & a else None
                if lhs != rhs:
                    return (
                        f"rank duality fails for {c.gen.rows}, {A.exponents}: "
                        f"{lhs} != {rhs}"
                    )
                if lhs != ranks[meet]:
                    return (
                        f"rank of the meet for {c.gen.rows}, {A.exponents}: "
                        f"{lhs}, but the census gives {ranks[meet]}"
                    )
        return None

    def check_pair_counts():
        for a in comps:
            for b in comps:
                got = inv.pair_count(a, b, n)
                containing = ac.family_size(b) * inv.count_containing(b, a)
                direct = oracle.pair_count_direct(a, b)
                if not got == containing == direct:
                    return (
                        f"pair_count({a}, {b}) = {got}, containing route "
                        f"{containing}, double enumeration {direct}"
                    )
        return None

    def check_chain_monotone():
        for c in codes:
            chain = list(table(c).r_weights)
            for d1, d2 in zip(chain, chain[1:]):
                if comp.linear_key(d1) > comp.linear_key(d2):
                    return f"r-weight chain decreases for {c.gen.rows}: {chain}"
        return None

    def check_ghw():
        # d_r is the least support, the coordinates with floor below s, of
        # a rank-r entry of C's down-set.
        supports = _masks(zip(ranks, (sum(x < s for x in f) for f in floors))).items()
        for c, d in zip(codes, census.down):
            values = list(table(c).ghw)
            brute = [
                min((w for (j, w), m in supports if j == r and d & m), default=None)
                for r in range(1, c.rank + 1)
            ]
            if values != brute:
                return f"ghw {values} != brute {brute} for {c.gen.rows}"
            if any(x >= y for x, y in zip(values, values[1:])):
                return f"ghw not strictly increasing for {c.gen.rows}: {values}"
        return None

    def check_free_weights_determined():
        # equality is transitive: one free weight per (r, d_r) decides all pairs
        free_of = {}
        for c in codes:
            t = table(c)
            for key, free in zip(enumerate(t.r_weights), t.r_weights_free):
                if free_of.setdefault(key, free) != free:
                    return f"equal d_{key[0] + 1} but different free weights"
        return None

    return [
        _run("invariant tables satisfy both identities", check_tables),
        _run("intersection rank matches dual-sum free rank", check_rank_identity),
        _run("pair counts match double enumeration", check_pair_counts),
        _run("r-weight chains are monotone", check_chain_monotone),
        _run("ghw matches brute support minima", check_ghw),
        _run("equal r-weights force equal free r-weights", check_free_weights_determined),
    ]


def verify_all(
    p: int, s: int, n: int, parts: int, total: int, cap: int | None = None
) -> list[CheckResult]:
    """Every suite in turn; a cap given here replaces each suite's default.
    The three census suites share one census of R^n."""
    caps = {} if cap is None else {"cap": cap}
    results = verify_lattice(parts, total, **caps)
    full = ModMatrix.full(ChainRingParams(p, s), n)
    census = oracle.enumerate_submodules(full, **caps)
    for suite in (verify_counting, verify_anticodes, verify_invariants):
        results += suite(p, s, n, census=census)
    return results
