"""Canonical linear algebra for finitely generated submodules of (Z/p^s Z)^n.

The workhorse is the Howell form, a canonical echelon form over the chain
ring: pivots are exact powers of p, entries above a pivot are reduced modulo
that pivot, and the span is Howell-closed, meaning every span element whose
leading coordinates vanish lies in the span of the trailing rows. Two row
sets span the same module iff their Howell forms are identical, which makes
module equality, deduplication, and counting reliable. One column sweep,
`_sweep`, returns the pivots and the rows left, which span every span
element zero on the columns swept; it stops at the column its caller
names. `howell_form` sweeps every column and marks its output, so a Howell
form is never swept again. Every elimination takes the one step `_reduce`,
a row less q * piv, which `Code.contains_columns` takes on whole columns of
vectors. With pivot p^v, the coefficients 0 <= c < p^(s-v) of each Howell
row list every span element once (`_pivot_orders`); p^(s-v) is the order of
the pivot entry, not of the row: over Z/9 the Howell row (3, 1) of
span{(3,1)} has order 9. The span is listed a coordinate at a time
(`element_columns`), so that the invariant table builds no codeword.

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

`kernel` and `restrict` sweep [L | R] up to the end of L and keep the right
blocks of the rows left, {x R : x L = 0} (`_left_null_space`): the kernel
has L = H^T and R = I, a code met with an anticode, C cap prod_t
<p^{e_t}>, has L = H diag(p^{s-e_t}) and R = H. `module_intersect` meets
two modules by duality, through kernels; it is the reference the tests
hold `restrict` to. Rows this module has reduced itself skip the checks of
`ModMatrix` (`ModMatrix._reduced`).
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
    _howell = False  # set on the output of `howell_form` alone; not a field

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


def _reduce(row, piv, q: int, m: int):
    """The row less q * piv, the one row-reduction step of this module."""
    if not q:
        return row
    return [(x - q * y) % m for x, y in zip(row, piv)]


def _least_entry(values, m: int) -> tuple[int, int]:
    """(gcd(x, m), i) of the first nonzero x = values[i] of least valuation;
    the scan stops at a unit."""
    least = (m, -1)
    for i, x in enumerate(values):
        if x:
            g = math.gcd(x, m)
            if g < least[0]:
                least = (g, i)
                if g == 1:
                    break
    return least


def _sweep(params: ChainRingParams, rows, stop: int):
    """(pivots, rows left) of the Howell sweep over columns 0 to stop - 1,
    each pivot as (j, row), not reduced by the pivots after it.

    At column j, of the nonzero rows left (all zero before j), the first of
    least valuation v at j is the pivot, scaled so that its entry is exactly
    p^v = gcd(entry, p^s). `_reduce` clears column j from the other rows, and
    the closure p^{s-v} * pivot, zero up to column j, joins the rows left,
    which then span every span element zero up to column j.
    """
    m = params.modulus
    rows, pivots = [row for row in rows if any(row)], []
    for j in range(stop):
        if not rows:
            break
        hits, rest = [], []
        for row in rows:
            (hits if row[j] else rest).append(row)
        if not hits:
            continue
        pv, i = _least_entry([row[j] for row in hits], m)
        piv = hits.pop(i)
        if piv[j] != pv:
            unit = params.unit_inverse(piv[j] // pv)
            piv = [unit * x % m for x in piv]
        if pv > 1:
            hits.append([m // pv * x % m for x in piv])
        for row in hits:
            row = _reduce(row, piv, row[j] // pv, m)
            if any(row):
                rest.append(row)
        rows = rest
        pivots.append((j, piv))
    return pivots, rows


def howell_form(mat: ModMatrix) -> ModMatrix:
    """The unique canonical generator matrix of the row span: the sweep over
    every column, each pivot then bringing entry j of the earlier pivots
    below its own entry p^v. The output is marked (`ModMatrix._howell`) and
    comes back unchanged if passed again."""
    if mat._howell:
        return mat
    m = mat.params.modulus
    rows = []
    for j, piv in _sweep(mat.params, mat.rows, mat.n)[0]:
        rows = [_reduce(row, piv, row[j] // piv[j], m) for row in rows]
        rows.append(piv)
    out = ModMatrix._reduced(mat.params, mat.n, tuple(map(tuple, rows)))
    object.__setattr__(out, "_howell", True)
    return out


def valuation_counts(values, bins: int) -> tuple[int, ...]:
    """(c_0, ..., c_{bins-1}) with c_i the number of values equal to i: the
    subtype from pivot valuations, the support subtype from column
    valuations, the extended subtype from anticode exponents."""
    counts = [0] * bins
    for v in values:
        counts[v] += 1
    return tuple(counts)


def pivot_columns(H: ModMatrix) -> tuple[int, ...]:
    """The pivot column of each row of a Howell form: its first nonzero entry."""
    return tuple(next(j for j, x in enumerate(row) if x) for row in H.rows)


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


def _left_null_space(params: ChainRingParams, left, right) -> tuple:
    """Generators of {x R : x L = 0}: the combination x of the rows of
    [L | R] is (x L, x R), and the rows the sweep leaves after the columns
    of L span every such combination with x L = 0, so their right blocks
    generate."""
    width = len(left[0])
    _, rest = _sweep(params, [a + b for a, b in zip(left, right)], width)
    return tuple(tuple(row[width:]) for row in rest)


def kernel(mat: ModMatrix) -> ModMatrix:
    """Generators of {x in R^n : M x^T = 0}, as a canonical Howell form: the
    sweep of [H^T | I] stops after H^T (`_left_null_space`), with H the
    Howell form of M, which a marked M already is."""
    params, n = mat.params, mat.n
    H = howell_form(mat)
    transposed = [tuple(row[i] for row in H.rows) for i in range(n)]
    identity = [tuple(int(t == i) for t in range(n)) for i in range(n)]
    null_space = _left_null_space(params, transposed, identity)
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
    for every t}, the right blocks of the rows of [H diag(p^{s-e_t}) | H]
    that the sweep leaves after the left block (`_left_null_space`).
    Columns with e_t = 0 are left out, since p^s = 0. The rows returned are
    not reduced; `Code` canonicalises.
    """
    exponents = tuple(exponents)
    if len(exponents) != mat.n:
        raise ValueError(f"{len(exponents)} exponents for length {mat.n}")
    params = mat.params
    p, s, m = params.p, params.s, params.modulus
    if not mat.rows:
        return mat
    scale = [(t, p ** (s - e)) for t, e in enumerate(exponents) if e]
    left = [tuple(row[t] * c % m for t, c in scale) for row in mat.rows]
    return ModMatrix._reduced(params, mat.n, _left_null_space(params, left, mat.rows))


def systematic_form(mat: ModMatrix) -> tuple[int, ...]:
    """The pivot valuations v_1 <= ... <= v_K of full pivoting on the rows.

    Each step takes an entry p^v u, u a unit, of globally minimal valuation
    v and clears its column from every row, each less (x // p^v) u^-1 times
    the pivot row, which itself goes to zero; the quotients are exact, since
    no entry has valuation below v. The pivot row generates a cyclic summand
    of order p^{s-v}, and that summand meets the span of the remaining rows
    only in 0, because they vanish in its pivot column and p^{s-v} kills the
    row. So the span is the direct sum of the p^{v_i} R, whichever minimal
    entry each step takes. A row keeps its least entry (`_least_entry`)
    until a step changes it, which it does only where the row is nonzero at
    the pivot column.
    """
    params = mat.params
    m = params.modulus
    rows = [(_least_entry(row, m), row) for row in mat.rows if any(row)]
    diag: list[int] = []
    while rows:
        (pv, j), pivot = min(rows, key=lambda entry: entry[0])
        unit = params.unit_inverse(pivot[j] // pv)
        changed = [_reduce(r, pivot, r[j] // pv * unit, m) for _, r in rows if r[j]]
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
