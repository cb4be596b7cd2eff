"""Anticodes: products of coordinate ideals, their bounds and optimality.

An anticode is the submodule prod_j <p^{e_j}> of R^n, stored intensionally
as its exponent vector e in {0,...,s}^n. Inclusion, duality, hulls, and
family enumeration are then O(n) exact operations on exponents; the matrix
view is derived on demand. The extended subtype of an anticode is the weak
composition a with a_i = #{j : e_j = i}, and the family of a collects all
anticodes sharing that composition.

For odd p the anticodes are exactly the maximum-size codes among those of
their subtype whose maximum Lee weight meets the lower bound sum k_i M_i,
so `is_optimal` decides Lee optimality by structure: the code equals its
hull. `verification.verify_anticodes` keeps the weight route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import matrices
from .codes import Code, column_valuations
from .errors import guard_cap
from .matrices import DEFAULT_ENUM_CAP, ModMatrix
from .ring import ChainRingParams

DEFAULT_FAMILY_CAP = 10**5


@dataclass(frozen=True)
class Anticode:
    params: ChainRingParams
    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if not exps:
            raise ValueError("anticode needs at least one coordinate")
        if any(e < 0 or e > self.params.s for e in exps):
            raise ValueError(f"exponents must lie in 0..{self.params.s}: {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def extended_subtype(self) -> tuple[int, ...]:
        return matrices.valuation_counts(self.exponents, self.params.s + 1)

    @property
    def rank(self) -> int:
        return sum(1 for e in self.exponents if e < self.params.s)

    @property
    def size(self) -> int:
        return self.params.p ** sum(self.params.s - e for e in self.exponents)

    def module(self) -> ModMatrix:
        """Generator matrix: one row p^{e_j} * unit_j per coordinate with e_j < s.

        The rows are already in Howell canonical form.
        """
        s = self.params.s
        rows = tuple(
            tuple(self.params.p**e if t == j else 0 for t in range(self.n))
            for j, e in enumerate(self.exponents)
            if e < s
        )
        return ModMatrix._reduced(self.params, self.n, rows)

    def as_code(self) -> Code:
        return Code(self.module())


def _check_extended_composition(a, params: ChainRingParams) -> tuple[int, ...]:
    a = tuple(int(x) for x in a)
    if len(a) != params.s + 1:
        raise ValueError(f"composition must have s+1 = {params.s + 1} parts: {a}")
    if any(x < 0 for x in a):
        raise ValueError(f"composition parts must be nonnegative: {a}")
    if sum(a) < 1:
        raise ValueError("composition must sum to the length n >= 1")
    return a


def family_size(a) -> int:
    """Multinomial coefficient n!/(a_0! ... a_s!)."""
    n = sum(a)
    out = math.factorial(n)
    for x in a:
        out //= math.factorial(x)
    return out


def exponent_vectors(a):
    """Yield every vector with a_i coordinates equal to i, in lexicographic order."""
    counts = list(a)

    def gen(remaining: int):
        if not remaining:
            yield ()
            return
        for value in range(len(counts)):
            if counts[value]:
                counts[value] -= 1
                for rest in gen(remaining - 1):
                    yield (value,) + rest
                counts[value] += 1

    yield from gen(sum(counts))


def family(a, params: ChainRingParams, cap: int = DEFAULT_FAMILY_CAP) -> list[Anticode]:
    """All anticodes with extended subtype a, in lexicographic exponent order."""
    a = _check_extended_composition(a, params)
    guard_cap(family_size(a), cap, "anticode family enumeration")
    return [Anticode(params, exps) for exps in exponent_vectors(a)]


def contains(outer: Anticode, inner: Anticode) -> bool:
    """True iff inner is a submodule of outer: exponentwise e_inner >= e_outer."""
    matrices._check_same_space(outer, inner)
    return all(ei >= eo for eo, ei in zip(outer.exponents, inner.exponents))


def dual_anticode(a: Anticode) -> Anticode:
    """The annihilator, again an anticode: exponents s - e_j."""
    return Anticode(a.params, tuple(a.params.s - e for e in a.exponents))


def hull(code: Code) -> Anticode:
    """The unique smallest anticode containing the code: coordinate j gets
    the ideal the code projects onto there (`codes.column_valuations`)."""
    return Anticode(code.params, column_valuations(code.gen))


def hamming_bound(rank: int) -> int:
    """Lower bound on the maximum Hamming weight of a rank-K code."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return rank


def hom_bound_scaled(rank: int, params: ChainRingParams) -> int:
    """Lower bound on the maximum homogeneous weight, scaled by p-1: K*p."""
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    return rank * params.p


def lee_bound(subtype, params: ChainRingParams) -> int:
    """Lower bound on the maximum Lee weight of a subtype-(k_i) code: sum k_i M_i."""
    params.require_odd()
    subtype = tuple(int(k) for k in subtype)
    if len(subtype) != params.s:
        raise ValueError(f"subtype must have s = {params.s} parts: {subtype}")
    profile = params.ideal_max_lee_profile
    return sum(k * m for k, m in zip(subtype, profile))


def weight_bound(code: Code, metric: str) -> int:
    if metric == "hamming":
        return hamming_bound(code.rank)
    if metric == "hom":
        return hom_bound_scaled(code.rank, code.params)
    if metric == "lee":
        return lee_bound(code.subtype, code.params)
    raise ValueError(f"unknown metric: {metric!r}")


def meets_bound(code: Code, metric: str, max_weight: int | None) -> bool:
    """Whether a code of maximum weight `max_weight` is optimal: the maximum
    meets the anticode bound for the metric.

    For the Lee metric (odd p only) the bound-meeting codes are exactly the
    anticodes, so the verdict is structural, the code equals the hull
    anticode it spans, and `max_weight` is not read.
    """
    if metric == "lee":
        code.params.require_odd()
        return code.size == hull(code).size
    return max_weight == weight_bound(code, metric)


def is_optimal(code: Code, metric: str, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """`meets_bound`, enumerating C for the maximum weight only when the
    metric needs it (hamming and hom)."""
    top = code.max_weight(metric, cap) if metric in ("hamming", "hom") else None
    return meets_bound(code, metric, top)
