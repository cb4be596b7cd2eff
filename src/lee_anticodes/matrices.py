"""Canonical linear algebra for finitely generated submodules of (Z/p^s Z)^n.

The workhorse is the Howell form, a canonical echelon form over the chain
ring: pivots are exact powers of p, entries above a pivot are reduced modulo
that pivot, and the span is Howell-closed, meaning every span element whose
leading coordinates vanish lies in the span of the trailing rows. Two row
sets span the same module iff their Howell forms are identical, which makes
module equality, deduplication, and counting reliable. A row with pivot p^v
has additive order p^s / p^v (`_pivot_orders`, read by `span_size` and
`enumerate_elements`), and membership reduction divides by the pivot.

The subtype comes from a second reduction, full pivoting on an entry of
globally minimal valuation at each step (`systematic_form`). Its pivots
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
of `invariants` reads the rank of `restrict` at each free exponent vector;
the invariant table reads the subtypes of all (s+1)^n intersections off
one enumeration of C instead. `module_intersect` meets two modules by duality,
through kernels, at about nine Howell forms; it is the reference the tests
hold `restrict` to.
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


def _vec_add(m: int, a, b) -> tuple[int, ...]:
    return tuple((x + y) % m for x, y in zip(a, b))


def _normalized(params: ChainRingParams, row: list[int], j: int, v: int) -> list[int]:
    """Scale the row by a unit so entry j becomes exactly p^v."""
    m = params.modulus
    inv = params.unit_inverse(row[j] // params.p**v)
    return [(inv * x) % m for x in row]


def howell_form(mat: ModMatrix) -> ModMatrix:
    """The unique canonical generator matrix of the row span.

    Rows are inserted into a pivot table one at a time. An incoming row is
    reduced against existing pivots while its leading entry sits in an
    occupied column with a pivot of no larger valuation; otherwise it is
    unit-normalized and installed, displacing any weaker pivot back onto the
    worklist. Installing a row with leading valuation v also enqueues its
    closure p^{s-v} * row, which is what makes the final span Howell-closed.
    A last pass reduces entries above each pivot modulo that pivot.
    """
    params = mat.params
    p, s, m = params.p, params.s, params.modulus
    pivots: dict[int, list[int]] = {}

    def install(row: list[int], j: int, v: int) -> None:
        row = _normalized(params, row, j, v)
        pivots[j] = row
        if v:
            closure = [(p ** (s - v) * x) % m for x in row]
            if any(closure):
                work.append(closure)

    work = [list(row) for row in mat.rows]
    while work:
        row = work.pop()
        while True:
            j = _first_nonzero(row)
            if j is None:
                break
            v = params.valuation(row[j])
            held = pivots.get(j)
            if held is None:
                install(row, j, v)
                break
            if row[j] % held[j] == 0:
                q = row[j] // held[j]
                row = [(x - q * y) % m for x, y in zip(row, held)]
            else:
                install(row, j, v)
                work.append(held)
                break

    for j in sorted(pivots):
        piv = pivots[j]
        for j2, other in list(pivots.items()):
            if j2 < j and other[j]:
                q = other[j] // piv[j]
                if q:
                    pivots[j2] = [(x - q * y) % m for x, y in zip(other, piv)]

    return ModMatrix(mat.params, mat.n, tuple(tuple(pivots[j]) for j in sorted(pivots)))


def valuation_counts(values, bins: int) -> tuple[int, ...]:
    """(c_0, ..., c_{bins-1}) with c_i the number of values equal to i: the
    subtype from pivot valuations, the support subtype from column
    valuations, the extended subtype from anticode exponents."""
    counts = [0] * bins
    for v in values:
        counts[v] += 1
    return tuple(counts)


def _pivot_orders(H: ModMatrix) -> list[int]:
    """The additive order p^{s-v} of each row of a Howell form, whose pivot
    entries are exactly p^v."""
    m = H.params.modulus
    return [m // row[_first_nonzero(row)] for row in H.rows]


def span_size(mat: ModMatrix) -> int:
    """Number of elements of the row span: product of p^{s-v} over Howell pivots."""
    return math.prod(_pivot_orders(howell_form(mat)))


def _residue(vec, H: ModMatrix) -> list[int]:
    """Reduce a vector against a Howell form; the residue is zero iff vec is in the span."""
    m = H.params.modulus
    row = [int(x) % m for x in vec]
    for piv in H.rows:
        j = _first_nonzero(piv)
        q = row[j] // piv[j]
        if q:
            row = [(x - q * y) % m for x, y in zip(row, piv)]
    return row


def enumerate_elements(mat: ModMatrix, cap: int = DEFAULT_ENUM_CAP):
    """Yield every element of the row span exactly once.

    Elements are formed as sums c_1 r_1 + ... + c_h r_h over the Howell rows
    with 0 <= c_i < p^{s - v_i}; leading-term induction shows these hit each
    span element once. Yield order is lexicographic in (c_1, ..., c_h).
    """
    m = mat.params.modulus
    H = howell_form(mat)
    orders = _pivot_orders(H)
    guard_cap(math.prod(orders), cap, "module enumeration")

    def gen():
        elems = [(0,) * H.n]
        for row, order in zip(H.rows, orders):
            multiples = [(0,) * H.n]
            for _ in range(order - 1):
                multiples.append(_vec_add(m, multiples[-1], row))
            elems[:] = [_vec_add(m, e, f) for e in elems for f in multiples]
        yield from elems

    return gen()


def _left_null_space(params: ChainRingParams, left) -> tuple[tuple[int, ...], ...]:
    """Generators of {x : x L = 0}, L the matrix with the given rows: the
    combination x of the rows of [L | I] is (x L, x), and by Howell closure
    the Howell rows of [L | I] with zero left block span all those with
    x L = 0, so their right blocks generate."""
    k, width = len(left), len(left[0])
    big_rows = tuple(
        tuple(row) + tuple(int(t == i) for t in range(k)) for i, row in enumerate(left)
    )
    big = howell_form(ModMatrix(params, width + k, big_rows))
    return tuple(row[width:] for row in big.rows if not any(row[:width]))


def kernel(mat: ModMatrix) -> ModMatrix:
    """Generators of {x in R^n : M x^T = 0}, as a canonical Howell form: the
    left null space of H^T, for H the Howell form of M."""
    params, n = mat.params, mat.n
    H = howell_form(mat)
    transposed = [tuple(row[i] for row in H.rows) for i in range(n)]
    return howell_form(ModMatrix(params, n, _left_null_space(params, transposed)))


def module_sum(a: ModMatrix, b: ModMatrix) -> ModMatrix:
    _check_same_space(a, b)
    return howell_form(ModMatrix(a.params, a.n, a.rows + b.rows))


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
    p, s = params.p, params.s
    if not mat.rows:
        return mat
    scale = [(t, p ** (s - e)) for t, e in enumerate(exponents) if e]
    coeffs = _left_null_space(
        params, [tuple(row[t] * c for t, c in scale) for row in mat.rows]
    )
    rows = tuple(
        tuple(sum(x * gen[t] for x, gen in zip(c, mat.rows)) for t in range(mat.n))
        for c in coeffs
    )
    return ModMatrix(params, mat.n, rows)


def systematic_form(mat: ModMatrix) -> tuple[int, ...]:
    """The pivot valuations v_1 <= ... <= v_K of full pivoting on the rows.

    Each step takes an entry of globally minimal valuation v, scales its row
    by a unit so that the entry is exactly p^v, and clears that column from
    the other rows; the quotients are exact, since no entry has valuation
    below v. The row is then set aside: it generates a cyclic summand of
    order p^{s-v}, and that summand meets the span of the remaining rows only
    in 0, because they vanish in its pivot column and p^{s-v} kills the row.
    So the span is the direct sum of the p^{v_i} R, whichever minimal entry
    each step takes.
    """
    params = mat.params
    m = params.modulus
    rows = [row for row in mat.rows if any(row)]
    diag: list[int] = []
    while rows:
        v, i, j = min(
            (params.valuation(x), i, j)
            for i, row in enumerate(rows)
            for j, x in enumerate(row)
            if x
        )
        pivot = _normalized(params, rows.pop(i), j, v)
        cleared = []
        for row in rows:
            q = row[j] // pivot[j]
            if q:
                row = [(x - q * y) % m for x, y in zip(row, pivot)]
            if any(row):
                cleared.append(row)
        rows = cleared
        diag.append(v)
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
