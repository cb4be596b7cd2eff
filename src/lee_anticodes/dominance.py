"""The dominance lattice on weak compositions with a fixed number of parts.

A weak composition of n into L parts is a tuple of L nonnegative integers
summing to n. With a_hat denoting the prefix-sum sequence, dominance is
a <= b iff a_hat_j <= b_hat_j for every j. Under this order the compositions
form a distributive lattice with top (n,0,...,0) and bottom (0,...,0,n);
joins and meets are the componentwise max and min of prefix sums.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate, chain, combinations

from .errors import guard_cap

DEFAULT_LATTICE_CAP = 10**5


def check_composition(a) -> tuple[int, ...]:
    a = tuple(map(int, a))
    if not a:
        raise ValueError("composition needs at least one part")
    if min(a) < 0:
        raise ValueError(f"composition parts must be nonnegative: {a}")
    return a


def check_pair(a, b) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = check_composition(a), check_composition(b)
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {a} vs {b}")
    if sum(a) != sum(b):
        raise ValueError(f"sum mismatch: {a} vs {b}")
    return a, b


def prefix_sums(a) -> tuple[int, ...]:
    """The associated sequence a_hat; recovers a via first differences."""
    return tuple(accumulate(a))


def from_prefix_sums(ah) -> tuple[int, ...]:
    return tuple(map(operator.sub, ah, chain((0,), ah)))


def compositions(parts: int, total: int) -> list[tuple[int, ...]]:
    """All weak compositions of `total` into `parts` parts, in linear_key order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    out: list[tuple[int, ...]] = []
    # prefix sums are the nondecreasing (parts-1)-multisets of {0..total}
    for bars in combinations(range(total + parts - 1), parts - 1):
        ah = tuple(b - i for i, b in enumerate(bars)) + (total,)
        out.append(from_prefix_sums(ah))
    out.sort(key=prefix_sums)
    return out


def composition_count(parts: int, total: int) -> int:
    return math.comb(total + parts - 1, parts - 1)


def dominance_leq(a, b) -> bool:
    a, b = check_pair(a, b)
    return all(map(operator.le, accumulate(a), accumulate(b)))


def join(a, b) -> tuple[int, ...]:
    a, b = check_pair(a, b)
    return from_prefix_sums(tuple(map(max, accumulate(a), accumulate(b))))


def meet(a, b) -> tuple[int, ...]:
    a, b = check_pair(a, b)
    return from_prefix_sums(tuple(map(min, accumulate(a), accumulate(b))))


def top(parts: int, total: int) -> tuple[int, ...]:
    return (total,) + (0,) * (parts - 1)


def bottom(parts: int, total: int) -> tuple[int, ...]:
    return (0,) * (parts - 1) + (total,)


def covers(a) -> tuple[tuple[int, ...], ...]:
    """The elements covering a: one unit moved from part j+1 to part j."""
    a = check_composition(a)
    out = []
    for j in range(len(a) - 1):
        if a[j + 1]:
            b = list(a)
            b[j] += 1
            b[j + 1] -= 1
            out.append(tuple(b))
    return tuple(sorted(out, key=prefix_sums))


def covered_by(a) -> tuple[tuple[int, ...], ...]:
    """The elements a covers: reversal is an order anti-isomorphism, so they
    are the reversed covers of reversed a."""
    below = (b[::-1] for b in covers(reverse_composition(a)))
    return tuple(sorted(below, key=prefix_sums))


def boolean_sublattice(a) -> tuple[tuple[int, ...], ...]:
    """The Boolean sublattice above a: unit moves into distinct nonzero parts.

    One element per subset S of the support of (a_1,...,a_{L-1}); the element
    for S moves one unit from part j to part j-1 for every j in S.
    """
    a = check_composition(a)
    support = [j for j in range(1, len(a)) if a[j]]
    out = []
    for r in range(len(support) + 1):
        for chosen in combinations(support, r):
            b = list(a)
            for j in chosen:
                b[j - 1] += 1
                b[j] -= 1
            out.append(tuple(b))
    return tuple(sorted(out, key=prefix_sums))


def mobius(a, b) -> int:
    """Mobius function of the interval [a, b] in the dominance lattice.

    Zero unless b lies in the Boolean sublattice above a, in which case the
    value is (-1) raised to the Boolean rank, the total prefix-sum difference.
    """
    a, b = check_pair(a, b)
    deltas = [y - x for x, y in zip(prefix_sums(a), prefix_sums(b))]
    if any(d not in (0, 1) for d in deltas):
        return 0
    # delta_{j-1} = 1 means one unit moved out of part j, so a_j must be nonzero
    for j in range(1, len(a)):
        if deltas[j - 1] == 1 and a[j] == 0:
            return 0
    return -1 if sum(deltas) % 2 else 1


def is_join_irreducible(a) -> bool:
    """True iff a covers exactly one element, i.e. one nonzero among a_0..a_{L-2}."""
    a = check_composition(a)
    return sum(1 for x in a[:-1] if x) == 1


def is_meet_irreducible(a) -> bool:
    """True iff a is covered by exactly one element: reversed a is join
    irreducible."""
    return is_join_irreducible(reverse_composition(a))


def reverse_composition(a) -> tuple[int, ...]:
    """The order anti-isomorphism: reverse the parts."""
    return check_composition(a)[::-1]


def linear_key(a):
    """Sort key for the fixed linear extension of dominance: lex on prefix sums."""
    return prefix_sums(check_composition(a))


LINEAR_EXTENSION_NAME = "prefix-sum lexicographic"


def linear_cmp(a, b) -> int:
    a, b = check_pair(a, b)
    ka, kb = prefix_sums(a), prefix_sums(b)
    if ka == kb:
        return 0
    return -1 if ka < kb else 1


def maximal_chain_length(parts: int, total: int) -> int:
    """Every maximal chain takes (parts - 1) * total covering steps."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if total < 0:
        raise ValueError("total must be >= 0")
    return (parts - 1) * total


def maximal_chain_count(parts: int, total: int) -> int:
    """Number of maximal chains, by the hook-length formula (Frame, Robinson
    and Thrall 1954): a_hat_1, ..., a_hat_(parts-1) are the row lengths, read
    backwards, of a Young diagram inside the (parts - 1) x total rectangle, a
    cover adds one box, so the chains are the standard tableaux of it."""
    hooks = math.prod(i + j + 1 for i in range(parts - 1) for j in range(total))
    return math.factorial(maximal_chain_length(parts, total)) // hooks


def maximal_chains(parts: int, total: int, cap: int = DEFAULT_LATTICE_CAP):
    """Yield every maximal chain, bottom to top, as a tuple of compositions."""
    guard_cap(composition_count(parts, total), cap, "lattice size")
    goal = top(parts, total)
    stack = [(bottom(parts, total),)]
    while stack:
        chain = stack.pop()
        if chain[-1] == goal:
            yield chain
            continue
        for nxt in reversed(covers(chain[-1])):
            stack.append(chain + (nxt,))


def lattice_rank(a) -> int:
    """Covering steps from the bottom: total prefix-sum excess over (0,...,0,n)."""
    a = check_composition(a)
    return sum(prefix_sums(a)[:-1])


def hasse_dot(parts: int, total: int, cap: int = DEFAULT_LATTICE_CAP) -> str:
    """DOT digraph of the Hasse diagram, edges pointing up, ranked by height."""
    guard_cap(composition_count(parts, total), cap, "lattice size")
    elems = compositions(parts, total)
    label = lambda a: '"(' + ",".join(str(x) for x in a) + ')"'
    lines = ["digraph dominance_lattice {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for a in elems:
        lines.append(f"  {label(a)};")
    for a in elems:
        for b in covers(a):
            lines.append(f"  {label(a)} -> {label(b)};")
    by_rank: dict[int, list] = {}
    for a in elems:
        by_rank.setdefault(lattice_rank(a), []).append(a)
    for r in sorted(by_rank):
        group = " ".join(f"{label(a)};" for a in by_rank[r])
        lines.append(f"  {{ rank=same; {group} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"
