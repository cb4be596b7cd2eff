"""Linear codes over Z/p^s Z: ranks, subtypes, supports, duals, weights.

A code of length n is a submodule of R^n, held here by its Howell canonical
generator matrix so that equal codes compare equal. The structural data is
computed eagerly: the subtype (k_0, ..., k_{s-1}) counts minimal generators
by valuation, the support subtype (n_0, ..., n_s) counts coordinates by the
ideal they project onto, and the R-dimension k = sum (s-i)/s * k_i is kept
exact as the integer s*k. Coordinates are 0-based throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import matrices
from .errors import guard_cap
from .matrices import DEFAULT_ENUM_CAP, ModMatrix
from .ring import METRICS, ChainRingParams, vector_weight


@dataclass(frozen=True)
class Code:
    gen: ModMatrix
    subtype: tuple[int, ...] = field(init=False)
    support_subtype: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        canonical = matrices.howell_form(self.gen)
        object.__setattr__(self, "gen", canonical)
        object.__setattr__(self, "subtype", matrices.subtype(canonical))
        object.__setattr__(self, "support_subtype", _support_subtype(canonical))

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

    def codewords(self, cap: int = DEFAULT_ENUM_CAP):
        return matrices.enumerate_elements(self.gen, cap)

    def dual(self) -> "Code":
        """The orthogonal code under the standard inner product."""
        return Code(matrices.kernel(self.gen))

    def contains_vector(self, vec) -> bool:
        """Membership by reduction against the generator, a Howell form already."""
        if len(vec) != self.n:
            raise ValueError(f"vector length {len(vec)} != {self.n}")
        return not any(matrices._residue(vec, self.gen))

    def max_weight(self, metric: str, cap: int = DEFAULT_ENUM_CAP) -> int:
        return max(vector_weight(self.params, w, metric) for w in self.codewords(cap))

    def min_distance(self, metric: str, cap: int = DEFAULT_ENUM_CAP) -> int:
        weights = [
            vector_weight(self.params, w, metric) for w in self.codewords(cap) if any(w)
        ]
        if not weights:
            raise ValueError("minimum distance of the zero code is undefined")
        return min(weights)


def _support_subtype(gen: ModMatrix) -> tuple[int, ...]:
    """(n_0, ..., n_s): n_i = #columns whose projection generates <p^i>."""
    params = gen.params
    counts = [0] * (params.s + 1)
    for j in range(gen.n):
        v = min((params.valuation(row[j]) for row in gen.rows), default=params.s)
        counts[v] += 1
    return tuple(counts)


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
    guard_cap(code.size, cap, "code analysis enumeration")
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
    max_weights = {}
    min_distances = {}
    for metric in METRICS:
        max_weights[metric] = code.max_weight(metric, cap)
        if code.rank == 0:
            min_distances[metric] = None
        else:
            min_distances[metric] = code.min_distance(metric, cap)
    record["max_weight"] = max_weights
    record["min_distance"] = min_distances
    return record
