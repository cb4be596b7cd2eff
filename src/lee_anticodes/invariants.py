"""Counting invariants: Gaussian coefficients, subcode brackets, binomial
moments, weight distributions, their inversion identities, and R-weights.

All counts are exact integers. Anticode shapes are weak compositions
a = (a_0, ..., a_s) of n ordered by dominance; the fixed linear extension is
lexicographic order on prefix sums (compositions.linear_key).

The aggregate binomial moment B_a^(j) of a code counts pairs (A, D) with A
in family(a) and D a rank-j subcode of C cap A; the weight distribution
W_a^(j) restricts to pairs where A is the hull of D, the smallest anticode
containing it. Grouping the B count by the hull of D gives the linear
system

    B_a^(j) = sum over b dominated by a of W_b^(j) * count_containing(b, a)

whose unitriangular inversion has the signed binomial coefficients
implemented by `inversion_coefficient`. Both identities are re-derived here
rather than quoted, and every table construction checks them against the
directly computed counts.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

from . import anticodes as ac
from . import matrices
from .codes import Code, hamming_support
from .dominance import (
    LINEAR_EXTENSION_NAME,
    check_pair,
    compositions,
    dominance_leq,
    linear_key,
    prefix_sums,
)
from .errors import InternalCheckError, guard_cap
from .ring import ChainRingParams

DEFAULT_CENSUS_CAP = 3**7
DEFAULT_PAIR_CHECK_CAP = 10**4


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, by the q-Pascal recurrence."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return gaussian_binomial(n - 1, k - 1, q) + q**k * gaussian_binomial(n - 1, k, q)


def chain_bracket(a, b, q: int) -> int:
    """Number of submodules of extended subtype b inside one of extended subtype a.

    Both a and b are weak compositions of n into s+1 parts over a chain ring
    with residue field size q; the count is 0 unless b is dominated by a.
    With hats denoting prefix sums and b_hat[-1] = 0, the count is

        q^(sum_{i<s} (a_hat_i - b_hat_i) * b_hat_{i-1})
        * prod_{i<s} gaussian(a_hat_i - b_hat_{i-1}, b_i, q).
    """
    a, b = check_pair(a, b)
    if not dominance_leq(b, a):
        return 0
    s = len(a) - 1
    ah, bh = prefix_sums(a), prefix_sums(b)
    exponent = 0
    product = 1
    for i in range(s):
        prev = bh[i - 1] if i else 0
        exponent += (ah[i] - bh[i]) * prev
        product *= gaussian_binomial(ah[i] - prev, b[i], q)
    return q**exponent * product


def count_containing(b, a) -> int:
    """Number of anticodes in family(a) containing a fixed member of family(b).

    Placing the a_t coordinates of exponent t greedily for t ascending gives
    prod_t C(a_hat_t - b_hat_{t-1}, a_t); zero unless b is dominated by a.
    """
    a, b = check_pair(a, b)
    if not dominance_leq(b, a):
        return 0
    ah, bh = prefix_sums(a), prefix_sums(b)
    out = 1
    for t, at in enumerate(a):
        prev = bh[t - 1] if t else 0
        out *= math.comb(ah[t] - prev, at)
    return out


def count_inside(a, b) -> int:
    """Number of anticodes in family(b) contained in a fixed member of family(a)."""
    a, b = check_pair(a, b)
    if not dominance_leq(b, a):
        return 0
    ah, bh = prefix_sums(a), prefix_sums(b)
    out = 1
    for t, bt in enumerate(b):
        prev = bh[t - 1] if t else 0
        out *= math.comb(ah[t] - prev, bt)
    return out


def inversion_coefficient(b, a) -> int:
    """Coefficient inverting the B-from-W system, unitriangular in dominance.

    Summing the product-of-chains Moebius function of the anticode lattice
    over family(a) forces m_t = a_hat_{t-1} - b_hat_{t-1} coordinates to drop
    from exponent t to t-1, giving (-1)^(sum m_t) * prod_t C(b_t, m_t), zero
    whenever some m_t is negative or exceeds b_t.
    """
    a, b = check_pair(a, b)
    ah, bh = prefix_sums(a), prefix_sums(b)
    sign_exp = 0
    out = 1
    for t in range(1, len(a)):
        m = ah[t - 1] - bh[t - 1]
        if m < 0 or m > b[t]:
            return 0
        sign_exp += m
        out *= math.comb(b[t], m)
    return -out if sign_exp % 2 else out


def pair_count(a, b, n: int, check_cap: int = DEFAULT_PAIR_CHECK_CAP) -> int:
    """Number of pairs (A, A') with A in family(a), A' in family(b), A' inside A.

    Computed as family_size(a) * count_inside(a, b), cross-checked against
    family_size(b) * count_containing(b, a) always and against direct double
    enumeration whenever the pair grid fits under check_cap.
    """
    a, b = check_pair(a, b)
    if sum(a) != n:
        raise ValueError(f"compositions must sum to n = {n}")
    by_inside = ac.family_size(a) * count_inside(a, b)
    by_containing = ac.family_size(b) * count_containing(b, a)
    if by_inside != by_containing:
        raise InternalCheckError(
            f"pair_count routes disagree for a={a}, b={b}: "
            f"{by_inside} vs {by_containing}"
        )
    if ac.family_size(a) * ac.family_size(b) <= check_cap:
        direct = _pair_count_direct(a, b)
        if direct != by_inside:
            raise InternalCheckError(
                f"pair_count formula {by_inside} != enumeration {direct} "
                f"for a={a}, b={b}"
            )
    return by_inside


def _pair_count_direct(a, b) -> int:
    """Pairs of exponent vectors (outer from a, inner from b) with inner inside outer."""
    outer = list(ac.exponent_vectors(a))
    inner = list(ac.exponent_vectors(b))
    return sum(
        1
        for eo in outer
        for ei in inner
        if all(x <= y for x, y in zip(eo, ei))
    )


@lru_cache(maxsize=None)
def _intersection_cached(code: Code, anticode: ac.Anticode) -> Code:
    return Code(matrices.module_intersect(code.gen, anticode.module()))


@lru_cache(maxsize=None)
def _subcode_stats(code: Code, cap: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(rank, hull exponents) for every submodule of the given code."""
    out = []
    for mat in matrices.submodule_census(code.gen, cap):
        sub = Code(mat)
        out.append((sub.rank, ac.hull(sub).exponents))
    return tuple(out)


def binomial_moment_single(
    code: Code, anticode: ac.Anticode, j: int, cap: int = DEFAULT_CENSUS_CAP
) -> int:
    """Number of rank-j subcodes of C cap A, computed two ways.

    The census route counts directly; the bracket route sums
    chain_bracket(extended_subtype(C cap A), b) over compositions b with
    b_s = n - j. Disagreement would falsify the counting theorem and raises
    InternalCheckError.
    """
    meet = _intersection_cached(code, anticode)
    by_census = sum(1 for r, _ in _subcode_stats(meet, cap) if r == j)
    ext = meet.extended_subtype
    n, s = code.n, code.params.s
    by_bracket = sum(
        chain_bracket(ext, b, code.params.p)
        for b in compositions(s + 1, n)
        if b[s] == n - j
    )
    if by_census != by_bracket:
        raise InternalCheckError(
            f"binomial moment routes disagree: census {by_census}, "
            f"bracket {by_bracket} for intersection subtype {ext}, j={j}"
        )
    return by_census


def weight_distribution_single(
    code: Code, anticode: ac.Anticode, j: int, cap: int = DEFAULT_CENSUS_CAP
) -> int:
    """Number of rank-j subcodes of C cap A whose hull is exactly A."""
    meet = _intersection_cached(code, anticode)
    return sum(
        1
        for r, hull_exps in _subcode_stats(meet, cap)
        if r == j and hull_exps == anticode.exponents
    )


def binomial_moment(code: Code, a, j: int, cap: int = DEFAULT_CENSUS_CAP) -> int:
    """Aggregate B_a^(j): sum of binomial_moment_single over family(a)."""
    return sum(
        binomial_moment_single(code, A, j, cap) for A in ac.family(a, code.params)
    )


def weight_distribution(code: Code, a, j: int, cap: int = DEFAULT_CENSUS_CAP) -> int:
    """Aggregate W_a^(j): sum of weight_distribution_single over family(a)."""
    return sum(
        weight_distribution_single(code, A, j, cap) for A in ac.family(a, code.params)
    )


@dataclass(frozen=True, eq=False)
class InvariantTable:
    """Complete B/W tables and R-weight chains for one code.

    Entries are keyed by (a, j) for every a in the composition lattice of
    the code's length and every rank 0 <= j <= rank(C). The digest
    identifies the code by its canonical generator matrix.
    """

    params: ChainRingParams
    n: int
    rank: int
    digest: str
    linear_extension: str
    binomial_moments: dict
    weight_distributions: dict
    r_weights: tuple[tuple[int, ...], ...]
    r_weights_free: tuple[tuple[int, ...], ...]
    ghw: tuple[int, ...]
    minimal_valid: tuple[tuple[tuple[int, ...], ...], ...]


def moments_from_distribution(table: InvariantTable, a, j: int) -> int:
    """B_a^(j) reconstructed from the W table: sum of W_b * count_containing(b, a)."""
    a = tuple(a)
    total = 0
    for b in compositions(len(a), sum(a)):
        if dominance_leq(b, a):
            key = (b, j)
            if key not in table.weight_distributions:
                raise ValueError(f"table missing W entry for {key}")
            total += table.weight_distributions[key] * count_containing(b, a)
    return total


def distribution_from_moments(table: InvariantTable, a, j: int) -> int:
    """W_a^(j) reconstructed from the B table via the signed inversion."""
    a = tuple(a)
    total = 0
    for b in compositions(len(a), sum(a)):
        if dominance_leq(b, a):
            key = (b, j)
            if key not in table.binomial_moments:
                raise ValueError(f"table missing B entry for {key}")
            total += table.binomial_moments[key] * inversion_coefficient(b, a)
    return total


def rank_intersection_identity(code: Code, anticode: ac.Anticode) -> tuple[int, int]:
    """Both sides of the quoted relation rank(C cap A) = K - a_s + freerank(C-perp cap A-perp).

    The relation is false in general, because free rank is not modular: for
    C = <(1,3)> over (Z/9)^2 and A with exponents (0,2) the left side is 1
    and the right side 0. The sound form, which verify_invariants checks, is
    rank(C cap A) = n - freerank(C-perp + A-perp), from (C cap A)-perp =
    C-perp + A-perp. Returns (lhs, rhs) so callers can see where they differ.
    """
    lhs = _intersection_cached(code, anticode).rank
    a_s = anticode.n - anticode.rank
    dual_meet = Code(
        matrices.module_intersect(code.dual().gen, ac.dual_anticode(anticode).module())
    )
    rhs = code.rank - a_s + dual_meet.free_rank
    return lhs, rhs


def _family_max_rank(code: Code, a) -> int:
    return max(
        _intersection_cached(code, A).rank for A in ac.family(a, code.params)
    )


def r_weight(code: Code, r: int) -> tuple[int, ...]:
    """The r-th R-weight: first a in the linear extension whose family meets C in rank >= r."""
    if not 1 <= r <= code.rank:
        raise ValueError(f"r must lie in 1..{code.rank}, got {r}")
    s, n = code.params.s, code.n
    for a in compositions(s + 1, n):
        if _family_max_rank(code, a) >= r:
            return a
    raise InternalCheckError(f"no composition admits rank {r}; code rank {code.rank}")


def r_weight_free(code: Code, r: int) -> tuple[int, ...]:
    """Like r_weight but restricted to free anticode shapes (m, 0, ..., 0, n-m)."""
    if not 1 <= r <= code.rank:
        raise ValueError(f"r must lie in 1..{code.rank}, got {r}")
    s, n = code.params.s, code.n
    for m in range(n + 1):
        a = (m,) + (0,) * (s - 1) + (n - m,)
        if _family_max_rank(code, a) >= r:
            return a
    raise InternalCheckError(f"no free shape admits rank {r}; code rank {code.rank}")


def ghw(code: Code, r: int) -> int:
    """The r-th generalized Hamming weight: the m of the free R-weight shape."""
    return r_weight_free(code, r)[0]


def r_weight_minimal_set(code: Code, r: int) -> tuple[tuple[int, ...], ...]:
    """All dominance-minimal compositions whose family meets C in rank >= r."""
    if not 1 <= r <= code.rank:
        raise ValueError(f"r must lie in 1..{code.rank}, got {r}")
    s, n = code.params.s, code.n
    valid = [a for a in compositions(s + 1, n) if _family_max_rank(code, a) >= r]
    minimal = [
        a
        for a in valid
        if not any(b != a and dominance_leq(b, a) for b in valid)
    ]
    return tuple(sorted(minimal, key=linear_key))


def ghw_brute(code: Code, r: int, cap: int = DEFAULT_CENSUS_CAP) -> int:
    """Direct minimum of |hamming_support(D)| over rank-r subcodes D of C."""
    if not 1 <= r <= code.rank:
        raise ValueError(f"r must lie in 1..{code.rank}, got {r}")
    supports = [
        len(hamming_support(Code(mat)))
        for mat in matrices.submodule_census(code.gen, cap)
        if Code(mat).rank == r
    ]
    return min(supports)


def build_invariant_table(code: Code, cap: int = DEFAULT_CENSUS_CAP) -> InvariantTable:
    """Compute the full B/W tables and R-weight chains, verifying the identities.

    Both inversion identities are evaluated against the directly computed
    tables for every (a, j) cell; so is B >= W. A violation raises
    InternalCheckError since each identity is a theorem. Every intersection
    C cap A has at most |C| elements and C cap R^n = C is always censused, so
    a code larger than the cap is refused before any census starts.
    """
    guard_cap(code.size, cap, "submodule census base module")
    params, n = code.params, code.n
    comps = compositions(params.s + 1, n)
    jmax = code.rank
    moments: dict = {}
    weights: dict = {}
    for a in comps:
        fam = ac.family(a, params)
        for j in range(jmax + 1):
            moments[(a, j)] = sum(
                binomial_moment_single(code, A, j, cap) for A in fam
            )
            weights[(a, j)] = sum(
                weight_distribution_single(code, A, j, cap) for A in fam
            )
    r_list = [r_weight(code, r) for r in range(1, jmax + 1)]
    r_free_list = [r_weight_free(code, r) for r in range(1, jmax + 1)]
    ghw_list = [a[0] for a in r_free_list]
    minimal = [r_weight_minimal_set(code, r) for r in range(1, jmax + 1)]
    table = InvariantTable(
        params=params,
        n=n,
        rank=jmax,
        digest=hashlib.sha256(matrices.format_matrix(code.gen).encode()).hexdigest(),
        linear_extension=LINEAR_EXTENSION_NAME,
        binomial_moments=moments,
        weight_distributions=weights,
        r_weights=tuple(r_list),
        r_weights_free=tuple(r_free_list),
        ghw=tuple(ghw_list),
        minimal_valid=tuple(minimal),
    )
    for (a, j), value in moments.items():
        if value < weights[(a, j)]:
            raise InternalCheckError(f"B < W at a={a}, j={j}")
        if moments_from_distribution(table, a, j) != value:
            raise InternalCheckError(f"moment identity fails at a={a}, j={j}")
        if distribution_from_moments(table, a, j) != weights[(a, j)]:
            raise InternalCheckError(f"inversion identity fails at a={a}, j={j}")
    return table


def table_json_dict(table: InvariantTable) -> dict:
    """JSON-ready mirror of the table with deterministic entry order."""
    entries = []
    for a in compositions(table.params.s + 1, table.n):
        for j in range(table.rank + 1):
            entries.append(
                {
                    "a": list(a),
                    "j": j,
                    "B": table.binomial_moments[(a, j)],
                    "W": table.weight_distributions[(a, j)],
                }
            )
    return {
        "p": table.params.p,
        "s": table.params.s,
        "n": table.n,
        "rank": table.rank,
        "digest": table.digest,
        "linear_extension": table.linear_extension,
        "entries": entries,
        "r_weights": [list(a) for a in table.r_weights],
        "r_weights_free": [list(a) for a in table.r_weights_free],
        "ghw": list(table.ghw),
        "minimal_valid": [[list(a) for a in tier] for tier in table.minimal_valid],
    }
