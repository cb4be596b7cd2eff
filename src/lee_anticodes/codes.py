"""Linear codes over Z/p^s Z: ranks, subtypes, supports, duals, weights.

A code of length n is a submodule of R^n, held here by its Howell canonical
generator matrix so that equal codes compare equal. The structural data is
computed eagerly: the subtype (k_0, ..., k_{s-1}) counts minimal generators
by valuation, the support subtype (n_0, ..., n_s) counts coordinates by the
ideal they project onto, and the R-dimension k = sum (s-i)/s * k_i is kept
exact as the integer s*k. Coordinates are 0-based throughout.

Every weight comes from one pass, `weight_range`: C's element columns are
built once and `ring.column_weights` folds them into each metric's weights.
Membership reduces vectors in the same column layout, many at once
(`Code.contains_columns`); `contains_vector` is its one-vector case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matrices
from .matrices import DEFAULT_ENUM_CAP, ModMatrix
from .ring import METRICS, ChainRingParams, column_weights


@dataclass(frozen=True)
class Code:
    gen: ModMatrix
    subtype: tuple[int, ...] = field(init=False)
    support_subtype: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        canonical = matrices.howell_form(self.gen)
        object.__setattr__(self, "gen", canonical)
        object.__setattr__(self, "subtype", matrices.subtype(canonical))
        bins = self.params.s + 1
        support = matrices.valuation_counts(column_valuations(canonical), bins)
        object.__setattr__(self, "support_subtype", support)

    @classmethod
    def from_rows(cls, params: ChainRingParams, n: int, rows) -> "Code":
        return cls(ModMatrix(params, n, tuple(tuple(row) for row in rows)))

    @classmethod
    def zero(cls, params: ChainRingParams, n: int) -> "Code":
        return cls(ModMatrix.zero(params, n))

    @classmethod
    def full(cls, params: ChainRingParams, n: int) -> "Code":
        return cls(ModMatrix.full(params, n))

    @property
    def params(self) -> ChainRingParams:
        return self.gen.params

    @property
    def n(self) -> int:
        return self.gen.n

    @property
    def rank(self) -> int:
        return sum(self.subtype)

    @property
    def free_rank(self) -> int:
        return self.subtype[0]

    @property
    def is_free(self) -> bool:
        return self.rank == self.free_rank

    @property
    def r_dimension_scaled(self) -> int:
        """The integer s*k = sum (s-i) k_i; |C| = p^(s*k)."""
        s = self.params.s
        return sum((s - i) * k for i, k in enumerate(self.subtype))

    @property
    def size(self) -> int:
        return self.params.p**self.r_dimension_scaled

    @property
    def extended_subtype(self) -> tuple[int, ...]:
        """(k_0, ..., k_{s-1}, n - K), a weak composition of n into s+1 parts."""
        return self.subtype + (self.n - self.rank,)

    def dual(self) -> "Code":
        """The orthogonal code under the standard inner product."""
        return Code(matrices.kernel(self.gen))

    def contains_vector(self, vec) -> bool:
        """Membership of one vector, the one-vector case of `contains_columns`."""
        return self.contains_columns([[x] for x in vec])[0]

    def contains_columns(self, columns) -> list[bool]:
        """Membership of many vectors, given as columns (`element_columns`):
        each Howell row (pivot j) reduces all of them at once, by
        q = x_j // piv[j] on every column t with piv[t] != 0. A vector is in
        C iff its residue is zero."""
        if len(columns) != self.n:
            raise ValueError(f"vector length {len(columns)} != {self.n}")
        m = self.params.modulus
        cols = [[x % m for x in col] for col in columns]
        for piv, j in zip(self.gen.rows, matrices.pivot_columns(self.gen)):
            qs = [x // piv[j] for x in cols[j]]
            for t, y in enumerate(piv):
                if y:
                    cols[t] = [(x - q * y) % m for x, q in zip(cols[t], qs)]
        return [not any(residue) for residue in zip(*cols)]

    def max_weight(self, metric: str, cap: int = DEFAULT_ENUM_CAP) -> int:
        return weight_range(self, [metric], cap)[metric][0]

    def min_distance(self, metric: str, cap: int = DEFAULT_ENUM_CAP) -> int:
        least = weight_range(self, [metric], cap)[metric][1]
        if least is None:
            raise ValueError("minimum distance of the zero code is undefined")
        return least


def weight_range(code: Code, metrics, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """For each metric, (maximum weight, least nonzero weight or None) over
    one enumeration of C. Only the zero word weighs 0, in every metric."""
    columns = matrices.element_columns(code.gen, cap)
    out = {}
    for metric in metrics:
        weights = column_weights(code.params, columns, metric)
        out[metric] = (max(weights), min(filter(None, weights), default=None))
    return out


def column_valuations(gen: ModMatrix) -> tuple[int, ...]:
    """Per coordinate j, the least valuation over the generators there, s for
    an all-zero column: the projection of the span onto coordinate j is the
    ideal generated by the column entries, <p^v_j>."""
    params = gen.params
    return tuple(
        min((params.valuation(row[j]) for row in gen.rows), default=params.s)
        for j in range(gen.n)
    )


def hamming_support(code: Code) -> tuple[int, ...]:
    """Coordinates (0-based, ascending) where some codeword is nonzero."""
    return tuple(
        j for j in range(code.n) if any(row[j] for row in code.gen.rows)
    )


def type_partition(code: Code) -> tuple[int, ...]:
    """The partition (s^{k_0}, (s-1)^{k_1}, ..., 1^{k_{s-1}})."""
    s = code.params.s
    parts: list[int] = []
    for i, k in enumerate(code.subtype):
        parts.extend([s - i] * k)
    return tuple(parts)


def analysis_record(code: Code, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """JSON-ready summary of a code's structural and metric parameters."""
    record = {
        "p": code.params.p,
        "s": code.params.s,
        "n": code.n,
        "rank": code.rank,
        "free_rank": code.free_rank,
        "k_times_s": code.r_dimension_scaled,
        "size": code.size,
        "is_free": code.is_free,
        "subtype": list(code.subtype),
        "support_subtype": list(code.support_subtype),
        "extended_subtype": list(code.extended_subtype),
        "type_partition": list(type_partition(code)),
        "hamming_support": list(hamming_support(code)),
        "generator_rows": [list(row) for row in code.gen.rows],
    }
    ranges = weight_range(code, METRICS, cap)
    record["max_weight"] = {metric: top for metric, (top, _) in ranges.items()}
    record["min_distance"] = {metric: least for metric, (_, least) in ranges.items()}
    return record
