"""Canonical linear algebra for finitely generated submodules of (Z/p^s Z)^n.

The workhorse is the Howell form, a canonical echelon form over the chain
ring: pivots are exact powers of p, entries above a pivot are reduced modulo
that pivot, and the span is Howell-closed, meaning every span element whose
leading coordinates vanish lies in the span of the trailing rows. Two row
sets span the same module iff their Howell forms are identical, which makes
module equality, deduplication, and counting reliable. `howell_form` builds
it in one sweep over the columns. Its eliminations and `systematic_form`
take the one step `_reduce`: a row less (row[j] // piv[j]) * piv, which
`Code.contains_columns` takes on whole columns of vectors. With pivot
p^v, p^(s-v) * row is zero up to and including its pivot column, so it
lies in the span of the later rows, and the coefficients 0 <= c < p^(s-v)
of each row list every span element once (`_pivot_orders`). p^(s-v) is
the order of the pivot entry, not of the row: over Z/9 the Howell row
(3, 1) of span{(3,1)} has order 9. The span is listed a coordinate at a
time (`element_columns`): one list per column, grown by one Howell row at
a time, so that the invariant table builds no codeword;
`enumerate_elements` reads those columns across as tuples.

The subtype comes from a second reduction, full pivoting on an entry of
globally minimal valuation, least gcd with p^s, at each step
(`systematic_form`). Its pivots
p^{v_1}, ..., p^{v_K} have nondecreasing valuations, and the span is
isomorphic to the direct sum of the cyclic modules p^{v_i} R, so the
valuations read off the module's subtype. Howell pivots cannot be used for
that purpose: span{(3,1)} over Z/9 has Howell form {(3,1),(0,3)} with two
non-unit pivots, yet the module is free of rank 1 with the single
generator (3,1): full pivoting takes its unit entry 1 as the pivot, giving
valuations (0,), free rank 1, subtype (1,0).

`kernel` and `restrict` both take a left null space {x : x L = 0} from one
Howell form of [L | I] (`_left_null_space`). The kernel has L = H^T. A code
met with an anticode, C cap prod_t <p^{e_t}>, has L = H diag(p^{s-e_t}): the
x are the coefficient vectors with x H in the anticode. The R-weight walk
of `invariants` takes one `restrict`, the socle C cap p^{s-1}R^n, and ranks
column subsets of it over F_p; the table reads the subtypes of all (s+1)^n
intersections off the columns of one enumeration of C. `module_intersect`
meets two modules by duality, through kernels, at about nine Howell forms;
it is the reference the tests hold `restrict` to. Rows this module has
reduced itself skip the checks of `ModMatrix` (`ModMatrix._reduced`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import guard_cap
from .ring import ChainRingParams

DEFAULT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class ModMatrix:
    """A matrix over Z/p^s Z whose rows generate a submodule of R^n."""

    params: ChainRingParams
    n: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one column")
        m = self.params.modulus
        rows = []
        for row in self.rows:
            row = tuple(int(x) % m for x in row)
            if len(row) != self.n:
                raise ValueError(f"row length {len(row)} != {self.n}")
            rows.append(row)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _reduced(cls, params: ChainRingParams, n: int, rows) -> "ModMatrix":
        """Rows this module has already reduced, built with no check."""
        mat = object.__new__(cls)
        mat.__dict__.update(params=params, n=n, rows=rows)
        return mat

    @classmethod
    def zero(cls, params: ChainRingParams, n: int) -> "ModMatrix":
        return cls(params, n, ())

    @classmethod
    def full(cls, params: ChainRingParams, n: int) -> "ModMatrix":
        rows = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return cls(params, n, rows)


def _check_same_space(a, b) -> None:
    """Both operands, modules or anticodes, live in one R^n."""
    if a.params != b.params:
        raise ValueError("ring parameter mismatch")
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")


def _first_nonzero(row) -> int | None:
    for j, x in enumerate(row):
        if x:
            return j
    return None


def _normalized(params: ChainRingParams, row, j: int, pv: int) -> list[int]:
    """Scale the row by a unit so entry j becomes exactly pv = p^v."""
    if row[j] == pv:
        return list(row)
    m = params.modulus
    inv = params.unit_inverse(row[j] // pv)
    return [(inv * x) % m for x in row]


def _reduce(row, piv, j: int, m: int):
    """The row less (row[j] // piv[j]) * piv, the one row-reduction step of
    this module: entry j ends below piv[j], at 0 when piv[j] divides it."""
    q = row[j] // piv[j]
    if not q:
        return row
    return [(x - q * y) % m for x, y in zip(row, piv)]


def howell_form(mat: ModMatrix) -> ModMatrix:
    """The unique canonical generator matrix of the row span.

    One sweep over the columns. At column j, of the nonzero rows left (all
    zero before j), one of least valuation v at j is the pivot, scaled so
    that its entry is exactly p^v = gcd(entry, p^s). `_reduce` clears column
    j from the other rows and brings entry j of each earlier pivot below
    p^v. The closure p^{s-v} * pivot, zero up to column j, joins the rows
    left, which then span every span element zero up to column j: the
    Howell closure.
    """
    m = mat.params.modulus
    rows, pivots = [row for row in mat.rows if any(row)], []
    for j in range(mat.n):
        hits = [row for row in rows if row[j]]
        if not hits:
            continue
        pv, i = min((math.gcd(row[j], m), i) for i, row in enumerate(hits))
        piv = _normalized(mat.params, hits.pop(i), j, pv)
        if pv > 1:
            hits.append([m // pv * x % m for x in piv])
        rows = [row for row in rows if not row[j]]
        for row in hits:
            row = _reduce(row, piv, j, m)
            if any(row):
                rows.append(row)
        pivots = [_reduce(row, piv, j, m) for row in pivots]
        pivots.append(piv)
        if not rows:
            break
    return ModMatrix._reduced(mat.params, mat.n, tuple(map(tuple, pivots)))


def valuation_counts(values, bins: int) -> tuple[int, ...]:
    """(c_0, ..., c_{bins-1}) with c_i the number of values equal to i: the
    subtype from pivot valuations, the support subtype from column
    valuations, the extended subtype from anticode exponents."""
    counts = [0] * bins
    for v in values:
        counts[v] += 1
    return tuple(counts)


def pivot_columns(H: ModMatrix) -> tuple[int, ...]:
    """The pivot column of each row of a Howell form."""
    return tuple(_first_nonzero(row) for row in H.rows)


def _pivot_orders(H: ModMatrix) -> list[int]:
    """p^{s-v} for each Howell row with pivot entry p^v: the order of that
    entry, and of the row modulo the span of the later rows."""
    m = H.params.modulus
    return [m // row[j] for row, j in zip(H.rows, pivot_columns(H))]


def span_size(mat: ModMatrix) -> int:
    """Number of elements of the row span: product of p^{s-v} over Howell pivots."""
    return math.prod(_pivot_orders(howell_form(mat)))


def element_columns(mat: ModMatrix, cap: int = DEFAULT_ENUM_CAP) -> list[list[int]]:
    """For each coordinate t, coordinate t of every element of the row span.

    Elements are the sums c_1 r_1 + ... + c_h r_h over the Howell rows with
    0 <= c_i < p^{s - v_i}; leading-term induction shows these hit each span
    element once. Each column is built one Howell row at a time, in
    lexicographic order of (c_1, ..., c_h), and no element is formed.
    """
    m = mat.params.modulus
    H = howell_form(mat)
    orders = _pivot_orders(H)
    guard_cap(math.prod(orders), cap, "module enumeration")
    columns = [[0] for _ in range(H.n)]
    for row, order in zip(H.rows, orders):
        for t, x in enumerate(row):
            steps = [c * x % m for c in range(order)]
            columns[t] = [(y + z) % m for y in columns[t] for z in steps]
    return columns


def enumerate_elements(mat: ModMatrix, cap: int = DEFAULT_ENUM_CAP):
    """Every element of the row span exactly once, as a tuple: the columns of
    `element_columns` read across, in its order."""
    return zip(*element_columns(mat, cap))


def _left_null_space(params: ChainRingParams, left) -> tuple[tuple[int, ...], ...]:
    """Generators of {x : x L = 0}, L the matrix with the given rows: the
    combination x of the rows of [L | I] is (x L, x), and by Howell closure
    the Howell rows of [L | I] with zero left block span all those with
    x L = 0, so their right blocks generate."""
    k, width = len(left), len(left[0])
    big_rows = tuple(
        tuple(row) + tuple(int(t == i) for t in range(k)) for i, row in enumerate(left)
    )
    big = howell_form(ModMatrix._reduced(params, width + k, big_rows))
    return tuple(row[width:] for row in big.rows if not any(row[:width]))


def kernel(mat: ModMatrix) -> ModMatrix:
    """Generators of {x in R^n : M x^T = 0}, as a canonical Howell form: the
    left null space of H^T, for H the Howell form of M."""
    params, n = mat.params, mat.n
    H = howell_form(mat)
    transposed = [tuple(row[i] for row in H.rows) for i in range(n)]
    null_space = _left_null_space(params, transposed)
    return howell_form(ModMatrix._reduced(params, n, null_space))


def module_sum(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    _check_same_space(a, b)
    return howell_form(ModMatrix._reduced(a.params, a.n, a.rows + b.rows))


def module_intersect(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    """Intersection via duality: (A cap B) is the annihilator of ann(A) + ann(B)."""
    _check_same_space(a, b)
    return kernel(module_sum(kernel(a), kernel(b)))


def restrict(mat: ModMatrix, exponents) -> ModMatrix:
    """Generators of span(mat) cap prod_t <p^{e_t}>, the code met with an anticode.

    With H the h rows of mat, the intersection is {xH : p^{s-e_t} (xH)_t = 0
    for every t}: the x form the left null space of H diag(p^{s-e_t}), one
    Howell form (`_left_null_space`). Columns with e_t = 0 are left out,
    since p^s = 0. The rows returned are not reduced; `Code` canonicalises.
    """
    exponents = tuple(exponents)
    if len(exponents) != mat.n:
        raise ValueError(f"{len(exponents)} exponents for length {mat.n}")
    params = mat.params
    p, s, m = params.p, params.s, params.modulus
    if not mat.rows:
        return mat
    scale = [(t, p ** (s - e)) for t, e in enumerate(exponents) if e]
    coeffs = _left_null_space(
        params, [tuple(row[t] * c % m for t, c in scale) for row in mat.rows]
    )
    rows = tuple(
        tuple(sum(x * y for x, y in zip(c, col)) % m for col in zip(*mat.rows))
        for c in coeffs
    )
    return ModMatrix._reduced(params, mat.n, rows)


def _least_entry(row, m: int) -> tuple[int, int]:
    """(gcd(x, m), j) of the first entry x = row[j] of least valuation."""
    return min((math.gcd(x, m), j) for j, x in enumerate(row) if x)


def systematic_form(mat: ModMatrix) -> tuple[int, ...]:
    """The pivot valuations v_1 <= ... <= v_K of full pivoting on the rows.

    Each step takes an entry of globally minimal valuation v, scales its row
    by a unit so that the entry is exactly p^v, and clears that column from
    the other rows; the quotients are exact, since no entry has valuation
    below v. The row is then set aside: it generates a cyclic summand of
    order p^{s-v}, and that summand meets the span of the remaining rows only
    in 0, because they vanish in its pivot column and p^{s-v} kills the row.
    So the span is the direct sum of the p^{v_i} R, whichever minimal entry
    each step takes. A row keeps its least entry (`_least_entry`) until a
    step changes it, which it does only where the row is nonzero at the
    pivot column.
    """
    params = mat.params
    m = params.modulus
    rows = [(_least_entry(row, m), row) for row in mat.rows if any(row)]
    diag: list[int] = []
    while rows:
        (pv, j), pivot = rows.pop(min(range(len(rows)), key=lambda i: rows[i][0]))
        pivot = _normalized(params, pivot, j, pv)
        changed = [_reduce(row, pivot, j, m) for _, row in rows if row[j]]
        rows = [entry for entry in rows if not entry[1][j]]
        rows += [(_least_entry(row, m), row) for row in changed if any(row)]
        diag.append(params.valuation(pv))
    return tuple(diag)


def subtype(mat: ModMatrix) -> tuple[int, ...]:
    """(k_0, ..., k_{s-1}) with k_i the number of pivot valuations equal to i."""
    return valuation_counts(systematic_form(mat), mat.params.s)


def rank(mat: ModMatrix) -> int:
    """Size of a minimal generating set: the number of pivots."""
    return len(systematic_form(mat))


def free_rank(mat: ModMatrix) -> int:
    """Number of unit pivots, k_0."""
    return systematic_form(mat).count(0)


def parse_matrix(text: str) -> ModMatrix:
    """Read the shared text format: header line `p s n`, then one row per line."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be `p s n`, got {lines[0]!r}")
    p, s, n = (int(tok) for tok in header)
    params = ChainRingParams(p, s)
    rows = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != n:
            raise ValueError(f"row {row} has {len(row)} entries, expected {n}")
        rows.append(row)
    return ModMatrix(params, n, tuple(rows))


def format_matrix(mat: ModMatrix) -> str:
    lines = [f"{mat.params.p} {mat.params.s} {mat.n}"]
    lines.extend(" ".join(str(x) for x in row) for row in mat.rows)
    return "\n".join(lines) + "\n"


def submodule_census(mat: ModMatrix, cap: int = 3**7) -> list[ModMatrix]:
    """All submodules of the row span, as canonical Howell forms: the digests
    of the element-set census `oracle.enumerate_submodules`, in its order (by
    size, then rows). The cap bounds the span size, not the census length."""
    from . import oracle  # oracle imports this module

    return [entry.mat for entry in oracle.enumerate_submodules(mat, cap).entries]
