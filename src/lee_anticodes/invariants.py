"""Counting invariants: Gaussian coefficients, subcode brackets, binomial
moments, weight distributions, their inversion identities, and R-weights.

All counts are exact integers. Anticode shapes are weak compositions
a = (a_0, ..., a_s) of n ordered by dominance; the fixed linear extension is
lexicographic order on prefix sums (dominance.linear_key).

The binomial moment B(A, j) of a code C counts the rank-j subcodes of
C cap A by chain_bracket sums over its extended subtype. The table reads
that subtype off sizes alone: C is enumerated once into a histogram of
valuation vectors, whose suffix sums along each coordinate give
|C cap A_e| for all (s+1)^n anticodes A_e together, and
(C cap A_e)[p^i] = C cap A_max(e, s-i) gives the subtype. The weight
distribution W(A, j) counts those subcodes whose hull is exactly A: it is
the Moebius inversion of B over the anticodes, a product of chains (Rota
1964), taken as one difference pass per coordinate. The aggregates
B_a^(j) and W_a^(j) sum over family(a); grouping the B count by the hull
gives

    B_a^(j) = sum over b dominated by a of W_b^(j) * count_containing(b, a)

whose unitriangular inversion has the signed binomial coefficients of
`inversion_coefficient`.

rank(C cap A) is the dimension of the socle C[p] cap A[p], and A[p] is
p^(s-1)R on the n - a_s coordinates with e_t < s and 0 elsewhere. So the
family rank of a, the largest rank(C cap A) over A in family(a), is the
largest r with ghw_r <= n - a_s, and every R-weight quantity comes from
the generalized Hamming weights (Wei 1991, in the anticode form of
Ravagnani 2016): the minimal set for r is the one shape
(0, ..., 0, ghw_r, n - ghw_r), which is also d_r. The weights themselves
come from one walk over the free shapes (m, 0, ..., 0, n-m), a chain, that
reads the rank of matrices.restrict at each exponent vector of each shape;
it builds no Code or Anticode, keeps no cache and never enumerates C.
Each quantity is computed one way here; `verification.verify_invariants`
checks it against the element-set census of submodules, the double
enumeration of pairs and both identities.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

from . import anticodes as ac
from . import matrices
from .codes import Code
from .dominance import (
    LINEAR_EXTENSION_NAME,
    check_composition,
    check_pair,
    compositions,
    prefix_sums,
)
from .errors import InternalCheckError, guard_cap
from .ring import ChainRingParams

DEFAULT_CENSUS_CAP = 3**7


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n: with k = min(k, n - k),
    prod_{i<k} (q^(n-i) - 1) over prod_{i<k} (q^(i+1) - 1), divided once,
    exactly."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    numerator = math.prod(q ** (n - i) - 1 for i in range(k))
    return numerator // math.prod(q ** (i + 1) - 1 for i in range(k))


def _below(bh, ah) -> bool:
    """b <= a in dominance, read off prefix sums of already validated compositions."""
    return all(map(operator.le, bh, ah))


def chain_bracket(a, b, q: int) -> int:
    """Number of submodules of extended subtype b inside one of extended subtype a.

    Both a and b are weak compositions of n into s+1 parts over a chain ring
    with residue field size q; the count is 0 unless b is dominated by a.
    With hats denoting prefix sums and b_hat[-1] = 0, the count is

        q^(sum_{i<s} (a_hat_i - b_hat_i) * b_hat_{i-1})
        * prod_{i<s} gaussian(a_hat_i - b_hat_{i-1}, b_i, q).
    """
    a, b = check_pair(a, b)
    ah, bh = prefix_sums(a), prefix_sums(b)
    if not _below(bh, ah):
        return 0
    s = len(a) - 1
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
    return _placements(a, b, a)


def count_inside(a, b) -> int:
    """Number of anticodes in family(b) contained in a fixed member of family(a).

    The same greedy placement, of the b_t coordinates of exponent t:
    prod_t C(a_hat_t - b_hat_{t-1}, b_t).
    """
    a, b = check_pair(a, b)
    return _placements(a, b, b)


def _placements(a, b, placed) -> int:
    """prod_t C(a_hat_t - b_hat_{t-1}, placed_t), zero unless b <= a."""
    ah, bh = prefix_sums(a), prefix_sums(b)
    if not _below(bh, ah):
        return 0
    return math.prod(
        math.comb(ah[t] - (bh[t - 1] if t else 0), x) for t, x in enumerate(placed)
    )


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


# Nothing in the package calls _subcode_stats, and only
# binomial_moment_single, reached by tests and perfbench/spans.py, calls
# _intersection_cached. matrices.submodule_census is the digest list of the
# oracle's element-set census, kept only because spans.py wraps it; spans.py
# also reads both caches' cache_info(), so all stay until the benchmark
# drops them.
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


# The anticode grid: one cell per exponent vector e in {0..s}^n, at the flat
# index sum_t e_t (s+1)^(n-1-t), the lexicographic order of e.


def _grid(n: int, s: int, step, start) -> list:
    """step folded over the coordinates of each cell, from start, in grid order."""
    cells = [start]
    for _ in range(n):
        cells = [step(x, d) for x in cells for d in range(s + 1)]
    return cells


def _chain_steps(n: int, s: int) -> list[tuple[int, int]]:
    """(lo, hi) for each coordinate t, each run of cells sharing e_0..e_(t-1)
    and each d < s, ascending: the cells [lo, hi) have e_t = d, and the
    hi - lo cells from hi on are the same cells with e_t = d + 1."""
    out = []
    for t in range(n):
        width = (s + 1) ** (n - 1 - t)
        for base in range(0, (s + 1) ** n, width * (s + 1)):
            out.extend((base + d * width, base + (d + 1) * width) for d in range(s))
    return out


def _suffix_sums(grid: list[int], n: int, s: int) -> list[int]:
    """grid[e] becomes the sum of grid[e'] over e' >= e, one coordinate at a
    time: with d descending, each cell adds its successor e + 1_t."""
    for lo, hi in reversed(_chain_steps(n, s)):
        grid[lo:hi] = [x + y for x, y in zip(grid[lo:hi], grid[hi : 2 * hi - lo])]
    return grid


def _differences(grid: list[int], n: int, s: int) -> list[int]:
    """The inverse of _suffix_sums, Moebius inversion over the anticodes:
    grid[e] becomes sum over T of (-1)^|T| grid[e + 1_T], the sets T of
    coordinates with e_t < s. With d ascending, each cell subtracts its
    successor before that is changed."""
    for lo, hi in _chain_steps(n, s):
        grid[lo:hi] = [x - y for x, y in zip(grid[lo:hi], grid[hi : 2 * hi - lo])]
    return grid


def _subtype_from_sizes(levels: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Extended subtype of a module M of R^n with g_i = log_p |M[p^i]| =
    levels[i], i = 0..s: k_0 + ... + k_m = g_(s-m) - g_(s-m-1), and
    k_s = n - rank."""
    s = len(levels) - 1
    totals = [levels[s - m] - levels[s - m - 1] for m in range(s)]
    ext = (totals[0], *(y - x for x, y in zip(totals, totals[1:])), n - totals[-1])
    if min(ext) < 0:
        raise InternalCheckError(f"levels {levels} give no subtype: {ext}")
    return ext


def _meet_subtypes(code: Code, cap: int = DEFAULT_CENSUS_CAP) -> list[tuple[int, ...]]:
    """The extended subtype of C cap A_e for every cell e, from one pass over C.

    Each codeword goes into the cell of its valuation vector (v_p(0) = s);
    suffix sums then give |C cap A_e|, and (C cap A_e)[p^i] is
    C cap A_max(e, s-i), so its size is read at the clamped cell.
    """
    params, n = code.params, code.n
    p, s = params.p, params.s
    sizes = [0] * (s + 1) ** n
    valuation: dict[int, int] = {}
    for word in code.codewords(cap):
        cell = 0
        for x in word:
            if x not in valuation:
                valuation[x] = params.valuation(x)
            cell = cell * (s + 1) + valuation[x]
        sizes[cell] += 1
    log_p = {p**k: k for k in range(s * n + 1)}
    try:
        logs = [log_p[size] for size in _suffix_sums(sizes, n, s)]
    except KeyError as exc:
        raise InternalCheckError(f"|C cap A| = {exc.args[0]} is no power of {p}") from None
    clamped = [
        _grid(n, s, lambda x, d, floor=s - i: x * (s + 1) + max(d, floor), 0)
        for i in range(s + 1)
    ]
    by_levels: dict = {}
    out = []
    for levels in zip(*([logs[c] for c in cells] for cells in clamped)):
        if levels not in by_levels:
            by_levels[levels] = _subtype_from_sizes(levels, n)
        out.append(by_levels[levels])
    return out


def binomial_moment_single(code: Code, anticode: ac.Anticode, j: int) -> int:
    """Number of rank-j subcodes of C cap A, by the chain_bracket sum."""
    ext = _intersection_cached(code, anticode).extended_subtype
    return _bracket_moments(ext, code.params.p, j)[j]


def weight_distribution_single(code: Code, anticode: ac.Anticode, j: int) -> int:
    """Number of rank-j subcodes of C cap A whose hull is exactly A: the sum
    over the sets T of coordinates with e_t < s, where the Moebius function
    is nonzero, of (-1)^|T| * binomial_moment_single(A + 1_T)."""
    params, exps = anticode.params, anticode.exponents
    steps = [(0, 1) if e < params.s else (0,) for e in exps]
    return sum(
        (-1) ** sum(delta)
        * binomial_moment_single(
            code, ac.Anticode(params, tuple(e + d for e, d in zip(exps, delta))), j
        )
        for delta in itertools.product(*steps)
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
    a = check_composition(a)
    ah = prefix_sums(a)
    row = [0] * (rank + 1)
    for b in compositions(len(a), sum(a)):
        if _below(prefix_sums(b), ah):
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


def r_weight_minimal_set(code: Code) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For r = 1..rank(C), the dominance-minimal shapes whose family meets C
    in rank >= r.

    The family rank of a is the largest r with ghw_r <= n - a_s, so the
    shapes reaching r are those with a_s <= n - ghw_r, and the one minimal
    among them is (0, ..., 0, ghw_r, n - ghw_r).
    """
    return r_weight_fields(code)["minimal_valid"]


def r_weight(code: Code) -> tuple[tuple[int, ...], ...]:
    """The R-weights d_1, ..., d_rank(C): d_r is the first a in the linear
    extension whose family meets C in rank >= r, the one minimal shape."""
    return r_weight_fields(code)["r_weights"]


def r_weight_free(code: Code) -> tuple[tuple[int, ...], ...]:
    """Like r_weight, over the free shapes (m, 0, ..., 0, n-m) only: a chain,
    walked in m until its family rank, the largest rank(C cap A) over the
    exponent vectors of the shape, reaches rank(C)."""
    s, n, gen = code.params.s, code.n, code.gen
    out: list = []
    for m in range(n + 1):
        a = (m,) + (0,) * (s - 1) + (n - m,)
        vectors = ac.exponent_vectors(a)
        rank = max(matrices.rank(matrices.restrict(gen, e)) for e in vectors)
        out.extend([a] * (min(rank, code.rank) - len(out)))
        if len(out) == code.rank:
            return tuple(out)
    raise InternalCheckError(
        f"no free shape admits rank {len(out) + 1}; code rank {code.rank}"
    )


def ghw(code: Code) -> tuple[int, ...]:
    """The generalized Hamming weights: the m of each free R-weight shape."""
    return r_weight_fields(code)["ghw"]


def r_weight_fields(code: Code) -> dict:
    """The R-weight fields of `InvariantTable`, in its order, from one free
    walk: r_weights, r_weights_free, ghw and minimal_valid."""
    s, n = code.params.s, code.n
    r_free = r_weight_free(code)
    minimal = tuple(((0,) * (s - 1) + (a[0], n - a[0]),) for a in r_free)
    return {
        "r_weights": tuple(tier[0] for tier in minimal),
        "r_weights_free": r_free,
        "ghw": tuple(a[0] for a in r_free),
        "minimal_valid": minimal,
    }


def build_invariant_table(code: Code, cap: int = DEFAULT_CENSUS_CAP) -> InvariantTable:
    """Compute the full B/W tables and R-weight chains.

    Each anticode gets one B row, the bracket sums over the extended subtype
    of C cap A (`_meet_subtypes`), computed once per distinct subtype. W is
    the difference pass over the grid of B, one column j at a time, and one
    pass keyed by the digit counts of e sums each family. The work is one
    enumeration of C; a code with more than cap words, or a length with
    more than cap anticodes, is refused before it starts.
    """
    guard_cap(code.size, cap, "codeword enumeration")
    params, n = code.params, code.n
    s, jmax = params.s, code.rank
    guard_cap((s + 1) ** n, cap, "anticode count")
    rows_by_ext: dict = {}
    b_cells = []
    for ext in _meet_subtypes(code, cap):
        if ext not in rows_by_ext:
            rows_by_ext[ext] = _bracket_moments(ext, params.p, jmax)
        b_cells.append(rows_by_ext[ext])
    shapes = _grid(n, s, lambda a, d: a[:d] + (a[d] + 1,) + a[d + 1 :], (0,) * (s + 1))
    keys = [(a, j) for a in compositions(s + 1, n) for j in range(jmax + 1)]
    moments = dict.fromkeys(keys, 0)
    weights = dict.fromkeys(keys, 0)
    for j, column in enumerate(zip(*b_cells)):
        for a, b, w in zip(shapes, column, _differences(list(column), n, s)):
            moments[(a, j)] += b
            weights[(a, j)] += w
    return InvariantTable(
        params=params,
        n=n,
        rank=jmax,
        digest=hashlib.sha256(matrices.format_matrix(code.gen).encode()).hexdigest(),
        linear_extension=LINEAR_EXTENSION_NAME,
        binomial_moments=moments,
        weight_distributions=weights,
        **r_weight_fields(code),
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
