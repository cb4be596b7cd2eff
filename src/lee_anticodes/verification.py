"""Oracle-vs-closed-form verification suites, shared by the CLI and tests.

Each suite returns a list of CheckResult records, one per property. A check
fails by returning a counterexample description, never by raising: internal
cross-check errors from the library are caught and reported as failures so
the CLI can dump them and exit with the triage code for theorem violations.

verify_invariants reads every subcode count off the one element-set census
of R^n that oracle.enumerate_submodules builds for the suite (see
_subcode_floors); no Howell-form census or module intersection enters that
reference. Containment between census entries is tested once per pair
(_census_inside). verify_anticodes reads each census code's maximum weight in
every metric off one pass over its element set, so no codeword is enumerated
through Code, and takes each anticode's element set from the census entry
whose digest is the anticode's module. verify_lattice counts maximal chains
as cover paths of the poset oracle, top down, and enumerates no chain.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache

from . import anticodes as ac
from . import dominance as comp
from . import invariants as inv
from . import matrices, oracle
from .codes import Code
from .errors import InternalCheckError
from .matrices import ModMatrix
from .ring import METRICS, ChainRingParams, vector_weight


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
        # join and meet are pure, so each pair is computed once
        join, meet = cache(comp.join), cache(comp.meet)
        for a in elems:
            for b in elems:
                for c in elems:
                    lhs = meet(a, join(b, c))
                    rhs = join(meet(a, b), meet(a, c))
                    if lhs != rhs:
                        return f"distributivity fails at {a}, {b}, {c}"
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


def _census_codes(params: ChainRingParams, n: int, cap: int):
    census = oracle.enumerate_submodules(ModMatrix.full(params, n), cap)
    return census, [Code(entry.mat) for entry in census.entries]


def _census_inside(census) -> list[list[int]]:
    """For each census entry C, the indices of the entries inside C, by
    element sets."""
    entries = census.entries
    return [
        [j for j, d in enumerate(entries) if d.elements <= c.elements] for c in entries
    ]


def _subcode_floors(params: ChainRingParams, census) -> list[Counter]:
    """For each census entry C, how many entries D inside C have each
    (rank, floor), by element sets alone.

    The floor of D is the minimum valuation of each coordinate over its
    elements. D lies inside the anticode with exponents e iff floor >= e
    componentwise, its hull is the anticode with exponents floor, and it is
    nonzero at coordinate t iff floor_t < s.
    """
    valuation = [params.valuation(x) for x in range(params.modulus)]
    coords = range(census.parent.n)
    floors = [
        tuple(min(valuation[v[t]] for v in entry.elements) for t in coords)
        for entry in census.entries
    ]
    return [
        Counter((census.entries[j].rank, floors[j]) for j in inside)
        for inside in _census_inside(census)
    ]


def verify_counting(p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap)
    comps = comp.compositions(s + 1, n)

    def check_census_total():
        full_ext = (n,) + (0,) * s
        expected = sum(inv.chain_bracket(full_ext, b, p) for b in comps)
        if len(census) != expected:
            return f"census size {len(census)} != bracket total {expected}"
        return None

    def check_span_sizes():
        for entry in census.entries:
            if matrices.span_size(entry.mat) != len(entry.elements):
                return f"span size disagrees for {entry.mat.rows}"
        return None

    def check_subtypes():
        for entry in census.entries:
            if matrices.subtype(entry.mat) != entry.subtype:
                return (
                    f"subtype disagrees for {entry.mat.rows}: "
                    f"systematic {matrices.subtype(entry.mat)}, "
                    f"filtration {entry.subtype}"
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
        for ext, inside in zip(exts, _census_inside(census)):
            counts = Counter(exts[j] for j in inside)
            for b in comps:
                if inv.chain_bracket(ext, b, p) != counts[b]:
                    return (
                        f"bracket({ext}, {b}) = {inv.chain_bracket(ext, b, p)} "
                        f"but census finds {counts[b]}"
                    )
        return None

    def check_kernels():
        for entry in census.entries:
            ker = matrices.kernel(entry.mat)
            if matrices.span_size(entry.mat) * matrices.span_size(ker) != p ** (s * n):
                return f"kernel size pairing fails for {entry.mat.rows}"
            if matrices.kernel(ker) != entry.mat:
                return f"double kernel differs for {entry.mat.rows}"
            k = entry.subtype
            expect = (n - entry.rank,) + tuple(k[s - i] for i in range(1, s))
            if matrices.subtype(ker) != expect:
                return f"kernel subtype {matrices.subtype(ker)} != {expect}"
        return None

    def check_membership():
        universe = sorted(census.entries[-1].elements)
        for entry, code in zip(census.entries, codes):
            for x in universe:
                if code.contains_vector(x) != (x in entry.elements):
                    return f"membership disagrees for {x} in {entry.mat.rows}"
        return None

    def check_enumeration():
        for entry in census.entries:
            if sorted(matrices.enumerate_elements(entry.mat)) != sorted(entry.elements):
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


def _vector_in_anticode(params: ChainRingParams, vec, anticode: ac.Anticode) -> bool:
    return all(params.valuation(x) >= e for x, e in zip(vec, anticode.exponents))


def verify_anticodes(p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap)
    all_anticodes = oracle.enumerate_anticodes(n, params)
    comps = comp.compositions(s + 1, n)
    # Each code's maximum weight in every metric, from one pass over its
    # census element set.
    maxima = []
    for entry in census.entries:
        weights = [[vector_weight(params, x, m) for m in METRICS] for x in entry.elements]
        maxima.append(dict(zip(METRICS, map(max, zip(*weights)))))

    def run_bound_check(metric, bound):
        def check():
            for c, weights in zip(codes, maxima):
                if weights[metric] < ac.weight_bound(c, metric):
                    return f"{bound} bound fails for {c.gen.rows}"
            return None

        return _run(f"{bound} bound holds on the census", check)

    def check_lee_characterization():
        for c, weights in zip(codes, maxima):
            weight_route = weights["lee"] == ac.weight_bound(c, "lee")
            structure_route = c.size == ac.hull(c).size
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
        # Each anticode's element set is the census entry with its digest.
        by_digest = {entry.mat: entry.elements for entry in census.entries}
        spans = {}
        for A in all_anticodes:
            spans[A.exponents] = by_digest.get(A.module())
            if spans[A.exponents] is None:
                return f"anticode {A.exponents} is not a census module"
        for A in all_anticodes:
            for B in all_anticodes:
                if ac.contains(A, B) != (spans[B.exponents] <= spans[A.exponents]):
                    return f"containment disagrees at {A.exponents}, {B.exponents}"
        return None

    def check_hull_minimality():
        for c in codes:
            hl = ac.hull(c)
            for B in all_anticodes:
                includes = all(
                    _vector_in_anticode(params, row, B) for row in c.gen.rows
                )
                if includes != ac.contains(B, hl):
                    return f"hull wrong for {c.gen.rows} against {B.exponents}"
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


def verify_invariants(p: int, s: int, n: int, cap: int = oracle.DEFAULT_CENSUS_CAP):
    params = ChainRingParams(p, s)
    census, codes = _census_codes(params, n, cap)
    subcodes = _subcode_floors(params, census)
    all_anticodes = oracle.enumerate_anticodes(n, params)
    comps = comp.compositions(s + 1, n)
    # Each code's table, R-weight fields included, is built once per suite.
    table = cache(inv.build_invariant_table)

    def check_tables():
        # Every cell against the element-set census: B(A, j) counts the
        # rank-j subcodes of C inside A, W(A, j) those whose hull is A.
        # Then B >= W and both identities, one row over j per (table, a).
        for c, subs in zip(codes, subcodes):
            t = table(c)
            for a in comps:
                want_b = [0] * (c.rank + 1)
                want_w = [0] * (c.rank + 1)
                for A in ac.family(a, params):
                    e = A.exponents
                    for (r, floor), count in subs.items():
                        if all(x >= y for x, y in zip(floor, e)):
                            want_b[r] += count
                            if floor == e:
                                want_w[r] += count
                moments = inv.moments_from_distribution(t, a)
                weights = inv.distribution_from_moments(t, a)
                for j in range(c.rank + 1):
                    key, where = (a, j), f"at a={a}, j={j} for {c.gen.rows}"
                    want = (want_b[j], want_w[j])
                    got = (t.binomial_moments[key], t.weight_distributions[key])
                    if got != want:
                        return f"(B, W) = {got} but the census gives {want} {where}"
                    if got[0] < got[1] or (moments[j], weights[j]) != got:
                        return f"B < W or an inversion identity fails {where}"
        return None

    def check_rank_identity():
        # rk(C cap A) = n - freerk(Cperp + Aperp). This is the sound form of
        # the duality, via rk(M) = n - freerk(Mperp) and (C cap A)perp =
        # Cperp + Aperp. The often-quoted variant K - a_s + freerk(Cperp cap
        # Aperp) is false in general (free rank is not modular); acceptance
        # criterion 13 keeps its refutation on record.
        dual_anticodes = [ac.dual_anticode(A).module() for A in all_anticodes]
        for c in codes:
            dual = matrices.kernel(c.gen)
            for A, dual_a in zip(all_anticodes, dual_anticodes):
                lhs = matrices.rank(matrices.restrict(c.gen, A.exponents))
                rhs = n - matrices.free_rank(matrices.module_sum(dual, dual_a))
                if lhs != rhs:
                    return (
                        f"rank duality fails for {c.gen.rows}, {A.exponents}: "
                        f"{lhs} != {rhs}"
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
        for c, subs in zip(codes, subcodes):
            values = list(table(c).ghw)
            brute = [
                min(sum(x < s for x in floor) for rank, floor in subs if rank == r)
                for r in range(1, c.rank + 1)
            ]
            if values != brute:
                return f"ghw {values} != brute {brute} for {c.gen.rows}"
            if any(x >= y for x, y in zip(values, values[1:])):
                return f"ghw not strictly increasing for {c.gen.rows}: {values}"
        return None

    def check_free_weights_determined():
        data = [(table(c).r_weights, table(c).r_weights_free) for c in codes]
        for chain_a, free_a in data:
            for chain_b, free_b in data:
                for r in range(min(len(chain_a), len(chain_b))):
                    if chain_a[r] == chain_b[r] and free_a[r] != free_b[r]:
                        return f"equal d_{r + 1} but different free weights"
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
    """Every suite in turn; a cap given here replaces each suite's default."""
    caps = {} if cap is None else {"cap": cap}
    return [
        *verify_lattice(parts, total, **caps),
        *verify_counting(p, s, n, **caps),
        *verify_anticodes(p, s, n, **caps),
        *verify_invariants(p, s, n, **caps),
    ]
