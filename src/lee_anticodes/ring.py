"""Exact arithmetic and the weight functions on the chain ring Z/p^s Z.

Everything here works on plain Python integers reduced modulo p^s, so all
results are exact for any prime p and any nilpotency index s >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# The first twelve primes: as Miller-Rabin bases they decide primality
# exactly for every m below 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for m < 2^64, which ChainRingParams enforces."""
    if m < 2:
        return False
    for q in _MR_BASES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class ChainRingParams:
    """The ring R = Z/p^s Z, whose ideals form the chain R > <p> > ... > <p^s> = 0."""

    p: int
    s: int
    # p**s, computed once: nearly every ring operation reads it.
    modulus: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p >= 2**64:
            raise ValueError(f"p must be below 2^64, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        object.__setattr__(self, "modulus", self.p**self.s)

    def require_odd(self) -> None:
        """The Lee bound machinery is only available for odd p."""
        if self.p == 2:
            raise ValueError("operation requires an odd prime p")

    def valuation(self, x: int) -> int:
        """Largest i <= s with p^i dividing x, where valuation(0) = s."""
        x %= self.modulus
        if x == 0:
            return self.s
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def unit_inverse(self, x: int) -> int:
        x %= self.modulus
        if x % self.p == 0:
            raise ValueError(f"{x} is not a unit modulo {self.modulus}")
        return pow(x, -1, self.modulus)

    def lee_weight(self, x: int) -> int:
        x %= self.modulus
        return min(x, self.modulus - x)

    def hom_weight_scaled(self, x: int) -> int:
        """Homogeneous weight scaled by (p - 1) so that it stays an integer.

        0 on zero, p on the nonzero socle <p^(s-1)>, and p - 1 everywhere else.
        """
        x %= self.modulus
        if x == 0:
            return 0
        if x % self.p ** (self.s - 1) == 0:
            return self.p
        return self.p - 1

    def ideal_max_lee(self, i: int) -> int:
        """M_i = (p^s - p^i) / 2, the largest Lee weight on the ideal <p^i>; odd p only.

        The ideal holds the multiples p^i * t, 0 <= t < p^(s-i). With p odd,
        p^(s-i) is odd and t = (p^(s-i) - 1) / 2 lands p^i / 2 below half the
        modulus, the closest any multiple gets.
        """
        self.require_odd()
        if not 0 <= i < self.s:
            raise ValueError(f"ideal index must lie in 0..{self.s - 1}, got {i}")
        return (self.modulus - self.p**i) // 2

    @property
    def ideal_max_lee_profile(self) -> tuple[int, ...]:
        """The sequence M_0..M_(s-1); strictly decreasing for odd p."""
        return tuple(self.ideal_max_lee(i) for i in range(self.s))


METRICS = ("lee", "hamming", "hom")


def residue_weight(params: ChainRingParams, x: int, metric: str) -> int:
    """Weight of x mod p^s in the chosen metric; the one metric dispatch."""
    if metric == "lee":
        return params.lee_weight(x)
    if metric == "hamming":
        return int(x % params.modulus != 0)
    if metric == "hom":
        return params.hom_weight_scaled(x)
    raise ValueError(f"unknown metric {metric!r}")


def vector_weight(params: ChainRingParams, vec, metric: str) -> int:
    """Weight of a vector: the sum of its residue weights."""
    return sum(residue_weight(params, x, metric) for x in vec)


def column_weights(params: ChainRingParams, columns, metric: str) -> list[int]:
    """The weight of every vector, the list `columns` holding coordinate t of
    each in column t. Each residue present is weighed once: p^s may be far
    larger than the number of vectors."""
    weight = {x: residue_weight(params, x, metric) for x in set().union(*columns)}
    totals = [0] * len(columns[0])
    for col in columns:
        totals = [w + weight[x] for w, x in zip(totals, col)]
    return totals
