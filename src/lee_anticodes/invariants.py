"""Counting invariants: Gaussian coefficients, subcode brackets, binomial
moments, weight distributions, their inversion identities, and R-weights.

All counts are exact integers. Anticode shapes are weak compositions
a = (a_0, ..., a_s) of n ordered by dominance; the fixed linear extension is
lexicographic order on prefix sums (dominance.linear_key).

The binomial moment B(A, j) of a code C counts the rank-j subcodes of
C cap A by chain_bracket sums over its extended subtype, which one walk
over prefix sums gives for every j at once (`_bracket_moments`): the
transfer recursion behind Birkhoff's subgroup count, O(s * n^2) products
per subtype. The table reads
that subtype off sizes alone: C is enumerated once, a coordinate at a
time, into a histogram of valuation vectors, whose suffix sums along each
coordinate give |C cap A_e| for all (s+1)^n anticodes A_e together, and
(C cap A_e)[p^i] = C cap A_max(e, s-i) gives the subtype. Each pass over
the (s+1)^n cells is n strided sweeps (`_sweep`), and no index table is
kept. The aggregate B_a^(j) sums over family(a): the bracket row of each
subtype counts once per cell of that subtype whose digit counts are a,
read off a code of the cell (`_shape_codes`). The weight distribution
W(A, j) counts those subcodes whose hull is exactly A: it is the Moebius
inversion of B over the anticodes, a product of chains (Rota 1964).
Grouping the B count by the hull gives

    B_a^(j) = sum over b dominated by a of W_b^(j) * count_containing(b, a)

whose unitriangular inversion has the signed binomial coefficients of
`inversion_coefficient`. The b of nonzero coefficient are the shapes of
the anticodes A + 1_T, A in family(a): d_t of the a_t parts at t < s move
to t + 1. The coefficient is a product of one signed binomial per t, so
the table takes W from B in s passes over the shapes, one per t
(`_inversion_pass`).

rank(C cap A) is the dimension of the socle C[p] cap A[p], and A[p] is
p^(s-1)R on the n - a_s coordinates with e_t < s and 0 elsewhere. So the
family rank of a, the largest rank(C cap A) over A in family(a), is the
largest r with ghw_r <= n - a_s, and every R-weight quantity comes from
the generalized Hamming weights (Wei 1991, in the anticode form of
Ravagnani 2016): the minimal set for r is the one shape
(0, ..., 0, ghw_r, n - ghw_r), which is also d_r. The weights themselves
come from one walk over the free shapes (m, 0, ..., 0, n-m), a chain, on
the socle soc(C) = C cap p^(s-1)R^n, one matrices.restrict per code whose
entries divided by p^(s-1) give an F_p matrix G of rank K = rank(C). For A
of a free shape, A[p] vanishes on a set T of n - m coordinates, so
rank(C cap A) = K - rank_p(G[:, T]): the walk is F_p elimination on column
subsets of G (Wei 1991; Horimoto-Shiromoto 2001 over chain rings). It
builds no Code or Anticode, keeps no cache and never enumerates C.
Each quantity is computed one way here; `verification.verify_invariants`
checks it against the element-set census of submodules, the double
enumeration of pairs and both identities.

A table names its code by a digest, the SHA-256 of the canonical
generator matrix as `matrices.format_matrix` writes it. It comes from
CPython's builtin SHA-256 module, so no OpenSSL is loaded; `hashlib` is
the fallback only on a build that ships no such module.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from . import anticodes as ac
from . import matrices
from .codes import Code
from .dominance import (
    LINEAR_EXTENSION_NAME,
    check_pair,
    compositions,
    prefix_sums,
)
from .errors import InternalCheckError, guard_cap
from .ring import ChainRingParams

try:
    # hashlib loads OpenSSL, which is heavy: take the lean builtin module
    # first, as the standard library's random.py does for SHA-512.
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

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
    return _inversion(prefix_sums(b), prefix_sums(a))


def _inversion(bh, ah) -> int:
    """`inversion_coefficient` read off the prefix sums of b and a, with
    b_t = b_hat_t - b_hat_{t-1}."""
    sign_exp = 0
    out = 1
    for t in range(1, len(ah)):
        m, b_t = ah[t - 1] - bh[t - 1], bh[t] - bh[t - 1]
        if m < 0 or m > b_t:
            return 0
        sign_exp += m
        out *= math.comb(b_t, m)
    return -out if sign_exp % 2 else out


def pair_count(a, b, n: int) -> int:
    """Number of pairs (A, A') with A in family(a), A' in family(b), A' inside A."""
    a, b = check_pair(a, b)
    if sum(a) != n:
        raise ValueError(f"compositions must sum to n = {n}")
    return ac.family_size(a) * count_inside(a, b)


@lru_cache(maxsize=1024)
def _intersection_cached(code: Code, anticode: ac.Anticode) -> Code:
    return Code(matrices.restrict(code.gen, anticode.exponents))


# Nothing in the package calls _subcode_stats, and only
# binomial_moment_single, reached by tests and perfbench/spans.py, calls
# _intersection_cached. matrices.submodule_census is the digest list of the
# oracle's element-set census, kept only because spans.py wraps it; spans.py
# also reads both caches' cache_info(), so all stay until the benchmark
# drops them. Both caches are bounded, at 1,024 intersections and 32
# censuses.
@lru_cache(maxsize=32)
def _subcode_stats(code: Code, cap: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(rank, hull exponents) for every submodule of the given code, by census."""
    out = []
    for mat in matrices.submodule_census(code.gen, cap):
        sub = Code(mat)
        out.append((sub.rank, ac.hull(sub).exponents))
    return tuple(out)


def _bracket_moments(ext, q: int, jmax: int) -> list[int]:
    """Rank-j submodule counts, j <= jmax, of a module of extended subtype ext:
    the sums of chain_bracket(ext, b) over the b with b_s = n - j.

    A b is the path of its prefix sums 0 <= y_0 <= ... <= y_(s-1) = n - b_s
    with y_i <= a_hat_i, and chain_bracket is a product of one factor per
    step, q^((a_hat_i - y) * x) * [a_hat_i - x, y - x]_q from x = y_(i-1)
    to y = y_i. So the sums come from one walk over prefix sums, the
    transfer recursion behind Birkhoff's subgroup count (Butler 1994):
    V_(-1) = {0: 1}, V_i(y) = sum over x <= y of V_(i-1)(x) times that
    factor, for y <= min(a_hat_i, jmax), and row[j] = V_(s-1)(j). A path
    that ends at j <= jmax stays at or below j, so no term is cut off. For
    each x the Gaussian binomial follows y by
    [N, k+1]_q = [N, k]_q * (q^(N-k) - 1) / (q^(k+1) - 1), exactly. The
    work is O(s * n^2) products, where summing chain_bracket over the
    shapes takes C(n+s, s) calls of O(s) each.
    """
    vals = [1]
    for top in prefix_sums(ext)[:-1]:
        new = [0] * (min(top, jmax) + 1)
        for x, v in enumerate(vals):
            gauss = 1
            for y in range(x, len(new)):
                new[y] += v * q ** ((top - y) * x) * gauss
                gauss = gauss * (q ** (top - y) - 1) // (q ** (y - x + 1) - 1)
        vals = new
    return vals + [0] * (jmax + 1 - len(vals))


def _sweep(grid: list, n: int, s: int, combine) -> list:
    """The anticode grid has one cell per exponent vector e in {0..s}^n, in
    lexicographic order. A sweep replaces the slices grid[d::s+1] of the
    cells with e_(n-1) = d by combine(slices) and joins them, which makes
    e_(n-1) the slowest digit: n sweeps take each coordinate once, in turn,
    and leave a new grid in the order of the first."""
    for _ in range(n):
        slices = combine([grid[d :: s + 1] for d in range(s + 1)])
        grid = list(itertools.chain.from_iterable(slices))
    return grid


@lru_cache(maxsize=8)
def _shapes(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    """The weak compositions of n into s + 1 parts, in linear extension order."""
    return tuple(compositions(s + 1, n))


def _suffix_sums(grid: list[int], n: int, s: int) -> list[int]:
    """The grid of the sums of grid[e'] over e' >= e at each e: along each
    coordinate, with d descending, slice d adds slice d + 1."""

    def combine(slices):
        for d in reversed(range(s)):
            slices[d] = list(map(operator.add, slices[d], slices[d + 1]))
        return slices

    return _sweep(grid, n, s, combine)


def _clamped(grid: list, n: int, s: int, floor: int) -> list:
    """grid[max(e, floor)] at each cell e: along each coordinate the slices
    below floor become copies of slice floor."""
    return _sweep(grid, n, s, lambda slices: [slices[floor]] * floor + slices[floor:])


def _shape_codes(n: int, s: int) -> list[int]:
    """sum_t (n+1)^(e_t) at each cell e, which is sum_d a_d (n+1)^d over its
    digit counts a: the base-(n+1) digits of the code are the a_d <= n."""
    weights = [(n + 1) ** d for d in range(s + 1)]
    codes = [0]
    for _ in range(n):
        codes = [x + w for x in codes for w in weights]
    return codes


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


def _cell_counts(code: Code, cap: int) -> list[int]:
    """The number of codewords in each cell, the cell of a word being its
    valuation vector (v_p(0) = s): the cell index is folded a coordinate at
    a time over the columns of C's words, and no word is built."""
    params, s = code.params, code.params.s
    columns = matrices.element_columns(code.gen, cap)
    # Over the entries that occur: p^s may be far larger than C.
    val = {x: params.valuation(x) for x in set().union(*columns)}
    cells = [0] * len(columns[0])
    for col in columns:
        cells = [c * (s + 1) + val[x] for c, x in zip(cells, col)]
    counts = [0] * (s + 1) ** code.n
    for cell in cells:
        counts[cell] += 1
    return counts


def _meet_subtypes(code: Code, cap: int = DEFAULT_CENSUS_CAP) -> list[tuple[int, ...]]:
    """The extended subtype of C cap A_e for every cell e, from one pass over C.

    Suffix sums of the cell counts (`_cell_counts`) give |C cap A_e|, and
    (C cap A_e)[p^i] is C cap A_max(e, s-i), so its size is read at the
    clamped cell. The clamp at s is the zero module and the clamp at 0 the
    grid itself, so only the floors 1..s-1 are swept; each distinct levels
    tuple gives its subtype once.
    """
    params, n = code.params, code.n
    p, s = params.p, params.s
    sizes = _suffix_sums(_cell_counts(code, cap), n, s)
    log_p = {p**k: k for k in range(s * n + 1)}
    try:
        logs = list(map(log_p.__getitem__, sizes))
    except KeyError as exc:
        raise InternalCheckError(f"|C cap A| = {exc.args[0]} is no power of {p}") from None
    levels = list(zip(*(_clamped(logs, n, s, s - i) for i in range(1, s)), logs))
    subtype = {lv: _subtype_from_sizes((0, *lv), n) for lv in dict.fromkeys(levels)}
    return list(map(subtype.__getitem__, levels))


def _inversion_pass(rows: dict, shapes, n: int, t: int) -> dict:
    """One coordinate of the inversion of B into W: the rows, keyed by shape
    code in `shapes` order, go to (U_t F)(c) = sum over d <= c_t of
    (-1)^d * C(c_(t+1) + d, d) * F(c - d e_t + d e_(t+1)). Moving d parts
    from t to t + 1 adds d * ((n+1)^(t+1) - (n+1)^t) to the code. A shape
    with c_t = 0 keeps its row."""
    step = (n + 1) ** (t + 1) - (n + 1) ** t
    signed = [
        [(-1) ** d * math.comb(m + d, d) for d in range(n - m + 1)] for m in range(n + 1)
    ]
    out = dict(rows)
    for c, key in zip(shapes, rows):
        if c[t]:
            out[key] = [
                sum(map(operator.mul, signed[c[t + 1]], col))
                for col in zip(*(rows[key + d * step] for d in range(c[t] + 1)))
            ]
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
    identifies the code: the SHA-256 of its canonical generator matrix as
    `matrices.format_matrix` writes it.
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
    exponent vectors of the shape, reaches rank(C).

    Such an A has A[p] = p^(s-1)R on m coordinates and 0 on the other
    n - m, a set T, so rank(C cap A) = dim (soc(C) cap A[p]) is K minus the
    F_p rank of the columns T of the socle matrix G, and the family rank
    is K minus the least rank of n - m columns of G.
    """
    p, s, n, k = code.params.p, code.params.s, code.n, code.rank
    unit = p ** (s - 1)
    socle = matrices.restrict(code.gen, (s - 1,) * n)
    basis = _basis_mod_p(([x // unit for x in row] for row in socle.rows), p)
    if len(basis) != k:
        raise InternalCheckError(
            f"socle of F_p rank {len(basis)} for a code of rank {k}: {code.gen.rows}"
        )
    columns = [tuple(row[t] for row in basis) for t in range(n)]
    out: list = []
    for m in range(n + 1):
        a = (m,) + (0,) * (s - 1) + (n - m,)
        least = _least_rank(columns, n - m, p, floor=max(0, k - m))
        out.extend([a] * (k - least - len(out)))
        if len(out) == k:
            break
    return tuple(out)


def _basis_mod_p(vectors, p: int, stop: int | None = None) -> list[list[int]]:
    """An echelon basis over F_p of the span of the vectors, taken one at a
    time, each basis vector 1 at its own pivot and 0 at the pivots before
    it; with `stop`, it returns once it has that many vectors."""
    basis: list[tuple[int, list[int]]] = []
    for vec in vectors:
        vec = list(vec)
        for j, b in basis:
            c = vec[j]
            if c:
                vec = [(x - c * y) % p for x, y in zip(vec, b)]
        j = next((i for i, x in enumerate(vec) if x), None)
        if j is not None:
            inv = pow(vec[j], -1, p)
            basis.append((j, [inv * x % p for x in vec]))
            if len(basis) == stop:
                break
    return [b for _, b in basis]


def _least_rank(columns, size: int, p: int, floor: int) -> int:
    """The least F_p rank of `size` of the columns, or `floor`, a lower bound
    on it, as soon as some subset reaches it."""
    least = None
    for subset in itertools.combinations(columns, size):
        rank = len(_basis_mod_p(subset, p, least))
        if least is None or rank < least:
            least = rank
            if least <= floor:
                break
    return least


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
    of C cap A (`_meet_subtypes`), computed once per distinct subtype. B_a
    adds each row once per cell of its subtype with digit counts a, and
    W_a is the sum of inversion_coefficient(b, a) * B_b over the b of
    nonzero coefficient, (-1)^(sum d) * prod_t C(a_(t+1) - d_(t+1) + d_t, d_t)
    for b = a - sum_t d_t (e_t - e_(t+1)): pass t of `_inversion_pass`
    takes the factor of t, on the shape the passes above t have left. The
    work is one enumeration of C; a code with more than cap words, a length
    with more than cap anticodes, or a table of more than cap entries
    (shapes times ranks 0..rank(C)) is refused before it starts.
    """
    guard_cap(code.size, cap, "codeword enumeration")
    params, n = code.params, code.n
    s, jmax = params.s, code.rank
    guard_cap((s + 1) ** n, cap, "anticode count")
    guard_cap(math.comb(n + s, s) * (jmax + 1), cap, "table entries")
    subtypes = _meet_subtypes(code, cap)
    rows_by_ext = {
        ext: _bracket_moments(ext, params.p, jmax) for ext in dict.fromkeys(subtypes)
    }
    shapes = _shapes(n, s)
    # Keyed by the code of `_shape_codes` of each shape, in `_shapes` order.
    powers = [(n + 1) ** d for d in range(s + 1)]
    b_rows = {sum(map(operator.mul, a, powers)): [0] * (jmax + 1) for a in shapes}
    for (key, ext), count in Counter(zip(_shape_codes(n, s), subtypes)).items():
        b_rows[key] = [x + count * y for x, y in zip(b_rows[key], rows_by_ext[ext])]
    w_rows = b_rows
    for t in range(s):
        w_rows = _inversion_pass(w_rows, shapes, n, t)
    moments, weights = (
        {(a, j): x for a, row in zip(shapes, rows.values()) for j, x in enumerate(row)}
        for rows in (b_rows, w_rows)
    )
    return InvariantTable(
        params=params,
        n=n,
        rank=jmax,
        digest=sha256(matrices.format_matrix(code.gen).encode()).hexdigest(),
        linear_extension=LINEAR_EXTENSION_NAME,
        binomial_moments=moments,
        weight_distributions=weights,
        **r_weight_fields(code),
    )


def table_json_dict(table: InvariantTable) -> dict:
    """JSON-ready mirror of the table with deterministic entry order."""
    entries = []
    for a in _shapes(table.n, table.params.s):
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
