"""Counting invariants: Gaussian coefficients, subcode brackets, binomial
moments, weight distributions, their inversion identities, and R-weights.

All counts are exact integers. Anticode shapes are weak compositions
a = (a_0, ..., a_s) of n ordered by dominance; the fixed linear extension is
lexicographic order on prefix sums (dominance.linear_key).

The binomial moment B(A, j) of a code C counts the rank-j subcodes of
C cap A, taken by matrices.restrict, by chain_bracket sums; the weight
distribution W(A, j) counts those whose hull is exactly A, by Moebius
inversion over the anticodes, a product of chains (Rota 1964). The
aggregates B_a^(j) and W_a^(j) sum over family(a); grouping the B count by
the hull gives

    B_a^(j) = sum over b dominated by a of W_b^(j) * count_containing(b, a)

whose unitriangular inversion has the signed binomial coefficients of
`inversion_coefficient`.

The family rank of a, the largest rank(C cap A) over A in family(a), only
grows along dominance. Every R-weight quantity is read off that one map,
walked once per code for r = 1..rank(C) together: the minimal sets
(shapes whose rank exceeds that of every shape they cover), the R-weights
d_r (the first of each minimal set), and, on the chain of free shapes
alone, the free R-weights and generalized Hamming weights (Wei 1991, in
the anticode form of Ravagnani 2016). Each quantity is computed one way here;
`verification.verify_invariants` checks it against the element-set census
of submodules, the double enumeration of pairs and both identities.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import anticodes as ac
from . import matrices
from .codes import Code
from .dominance import (
    LINEAR_EXTENSION_NAME,
    check_pair,
    compositions,
    covered_by,
    dominance_leq,
    prefix_sums,
)
from .errors import InternalCheckError, guard_cap
from .ring import ChainRingParams

DEFAULT_CENSUS_CAP = 3**7


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


def pair_count(a, b, n: int) -> int:
    """Number of pairs (A, A') with A in family(a), A' in family(b), A' inside A."""
    a, b = check_pair(a, b)
    if sum(a) != n:
        raise ValueError(f"compositions must sum to n = {n}")
    return ac.family_size(a) * count_inside(a, b)


@lru_cache(maxsize=None)
def _intersection_cached(code: Code, anticode: ac.Anticode) -> Code:
    return Code(matrices.restrict(code.gen, anticode.exponents))


# Nothing in the package calls _subcode_stats or matrices.submodule_census;
# perfbench/spans.py wraps the census and reads this cache, so both stay
# until the benchmark drops them.
@lru_cache(maxsize=None)
def _subcode_stats(code: Code, cap: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(rank, hull exponents) for every submodule of the given code, by census."""
    out = []
    for mat in matrices.submodule_census(code.gen, cap):
        sub = Code(mat)
        out.append((sub.rank, ac.hull(sub).exponents))
    return tuple(out)


def _bracket_moments(ext, q: int, jmax: int) -> list[int]:
    """Rank-j submodule counts, j <= jmax, of a module of extended subtype ext:
    the sums of chain_bracket(ext, b) over the b with b_s = n - j."""
    n, s = sum(ext), len(ext) - 1
    row = [0] * (jmax + 1)
    for b in compositions(s + 1, n):
        if n - b[s] <= jmax:
            row[n - b[s]] += chain_bracket(ext, b, q)
    return row


def _mobius_terms(exponents: tuple[int, ...], s: int):
    """(mu(A + 1_T, A), exponents of A + 1_T) for the sets T of coordinates
    with e_t < s: the anticodes where the Moebius function is nonzero."""
    steps = [(0, 1) if e < s else (0,) for e in exponents]
    for delta in itertools.product(*steps):
        sign = -1 if sum(delta) % 2 else 1
        yield sign, tuple(e + d for e, d in zip(exponents, delta))


def binomial_moment_single(code: Code, anticode: ac.Anticode, j: int) -> int:
    """Number of rank-j subcodes of C cap A, by the chain_bracket sum."""
    ext = _intersection_cached(code, anticode).extended_subtype
    return _bracket_moments(ext, code.params.p, j)[j]


def weight_distribution_single(code: Code, anticode: ac.Anticode, j: int) -> int:
    """Number of rank-j subcodes of C cap A whose hull is exactly A:
    sum over T of (-1)^|T| * binomial_moment_single(A + 1_T)."""
    params = anticode.params
    return sum(
        sign * binomial_moment_single(code, ac.Anticode(params, exps), j)
        for sign, exps in _mobius_terms(anticode.exponents, params.s)
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


def _dominated_sum(entries: dict, rank: int, a, coefficient, label: str) -> list[int]:
    """Row over j = 0..rank of sum over b dominated by a of entries[(b, j)] *
    coefficient(b, a), enumerating the b and their coefficients once."""
    a = tuple(a)
    row = [0] * (rank + 1)
    for b in compositions(len(a), sum(a)):
        if dominance_leq(b, a):
            coeff = coefficient(b, a)
            for j in range(rank + 1):
                if (b, j) not in entries:
                    raise ValueError(f"table missing {label} entry for {(b, j)}")
                row[j] += entries[(b, j)] * coeff
    return row


def moments_from_distribution(table: InvariantTable, a) -> list[int]:
    """B_a^(j) for j = 0..rank, reconstructed from the W table:
    sum of W_b * count_containing(b, a)."""
    return _dominated_sum(
        table.weight_distributions, table.rank, a, count_containing, "W"
    )


def distribution_from_moments(table: InvariantTable, a) -> list[int]:
    """W_a^(j) for j = 0..rank, reconstructed from the B table via the signed
    inversion."""
    return _dominated_sum(
        table.binomial_moments, table.rank, a, inversion_coefficient, "B"
    )


def _family_rank(code: Code, a) -> int:
    """max over A in family(a) of rank(C cap A); it only grows along dominance."""
    return max(_intersection_cached(code, A).rank for A in ac.family(a, code.params))


def r_weight_minimal_set(code: Code) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For r = 1..rank(C), the dominance-minimal shapes whose family meets C
    in rank >= r, in the linear extension.

    One walk maps every shape to its family rank. The shapes reaching r form
    an up-set, so a is minimal in it iff r exceeds the rank of every shape a
    covers: a is minimal exactly for the r above that floor up to its rank.
    """
    ranks = {a: _family_rank(code, a) for a in compositions(code.params.s + 1, code.n)}
    tiers: list[list] = [[] for _ in range(code.rank)]
    for a, k in ranks.items():
        floor = max((ranks[b] for b in covered_by(a)), default=0)
        for r in range(floor + 1, min(k, code.rank) + 1):
            tiers[r - 1].append(a)
    for r, tier in enumerate(tiers, start=1):
        if not tier:
            raise InternalCheckError(
                f"no composition admits rank {r}; code rank {code.rank}"
            )
    return tuple(tuple(tier) for tier in tiers)


def r_weight(code: Code) -> tuple[tuple[int, ...], ...]:
    """The R-weights d_1, ..., d_rank(C): d_r is the first a in the linear
    extension whose family meets C in rank >= r, the first minimal shape."""
    return tuple(tier[0] for tier in r_weight_minimal_set(code))


def r_weight_free(code: Code) -> tuple[tuple[int, ...], ...]:
    """Like r_weight, over the free shapes (m, 0, ..., 0, n-m) only: a chain,
    walked in m until its family rank reaches rank(C)."""
    s, n = code.params.s, code.n
    out: list = []
    for m in range(n + 1):
        a = (m,) + (0,) * (s - 1) + (n - m,)
        out.extend([a] * (min(_family_rank(code, a), code.rank) - len(out)))
        if len(out) == code.rank:
            return tuple(out)
    raise InternalCheckError(
        f"no free shape admits rank {len(out) + 1}; code rank {code.rank}"
    )


def ghw(code: Code) -> tuple[int, ...]:
    """The generalized Hamming weights: the m of each free R-weight shape."""
    return tuple(a[0] for a in r_weight_free(code))


def build_invariant_table(code: Code, cap: int = DEFAULT_CENSUS_CAP) -> InvariantTable:
    """Compute the full B/W tables and R-weight chains.

    Each anticode gets one B row, the bracket sums over the extended subtype
    of C cap A, computed once per distinct subtype; each family sums the B
    rows of its members and their Moebius inversions as vectors over j. The
    work is one intersection per anticode; a code with more than cap words,
    or a length with more than cap anticodes, is refused before it starts.
    """
    guard_cap(code.size, cap, "submodule census base module")
    params, n = code.params, code.n
    guard_cap((params.s + 1) ** n, cap, "anticode count")
    jmax = code.rank
    families = {a: ac.family(a, params) for a in compositions(params.s + 1, n)}
    rows_by_ext: dict = {}
    b_rows = {}
    for fam in families.values():
        for A in fam:
            ext = _intersection_cached(code, A).extended_subtype
            if ext not in rows_by_ext:
                rows_by_ext[ext] = _bracket_moments(ext, params.p, jmax)
            b_rows[A.exponents] = rows_by_ext[ext]
    moments: dict = {}
    weights: dict = {}
    for a, fam in families.items():
        b_sum = [0] * (jmax + 1)
        w_sum = [0] * (jmax + 1)
        for A in fam:
            for j, x in enumerate(b_rows[A.exponents]):
                b_sum[j] += x
            for sign, exps in _mobius_terms(A.exponents, params.s):
                for j, x in enumerate(b_rows[exps]):
                    w_sum[j] += sign * x
        for j in range(jmax + 1):
            moments[(a, j)] = b_sum[j]
            weights[(a, j)] = w_sum[j]
    minimal = r_weight_minimal_set(code)
    r_free = r_weight_free(code)
    return InvariantTable(
        params=params,
        n=n,
        rank=jmax,
        digest=hashlib.sha256(matrices.format_matrix(code.gen).encode()).hexdigest(),
        linear_extension=LINEAR_EXTENSION_NAME,
        binomial_moments=moments,
        weight_distributions=weights,
        r_weights=tuple(tier[0] for tier in minimal),
        r_weights_free=r_free,
        ghw=tuple(a[0] for a in r_free),
        minimal_valid=minimal,
    )


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
