import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lee_anticodes import invariants as inv
from lee_anticodes import oracle
from lee_anticodes.anticodes import Anticode, family, family_size, hull
from lee_anticodes.codes import Code
from lee_anticodes.dominance import compositions, dominance_leq
from lee_anticodes.ring import ChainRingParams

Z9 = ChainRingParams(3, 2)


def example_code() -> Code:
    return Code.from_rows(Z9, 3, [(1, 2, 1), (0, 3, 0)])


def test_gaussian_binomial_values():
    for n in range(5):
        assert inv.gaussian_binomial(n, 0, 3) == 1
        assert inv.gaussian_binomial(n, n, 3) == 1
    assert inv.gaussian_binomial(2, 1, 3) == 4
    assert inv.gaussian_binomial(4, 2, 2) == 35
    assert inv.gaussian_binomial(3, 1, 5) == 31
    assert inv.gaussian_binomial(2, 3, 3) == 0


def test_gaussian_binomial_symmetry_and_recurrence():
    for q in (2, 3, 5):
        for n in range(1, 7):
            for k in range(n + 1):
                assert inv.gaussian_binomial(n, k, q) == inv.gaussian_binomial(
                    n, n - k, q
                )
                if k:
                    assert inv.gaussian_binomial(n, k, q) == inv.gaussian_binomial(
                        n - 1, k - 1, q
                    ) + q**k * inv.gaussian_binomial(n - 1, k, q)


def test_chain_bracket_values():
    assert inv.chain_bracket((1, 1, 1), (0, 1, 2), 3) == 4
    assert inv.chain_bracket((0, 2, 1), (0, 1, 2), 3) == 4
    assert inv.chain_bracket((2, 0, 1), (1, 2, 0), 3) == 0
    for a in compositions(3, 3):
        assert inv.chain_bracket(a, a, 3) == 1
        assert inv.chain_bracket(a, (0, 0, 3), 3) == 1


def test_count_containing_and_inside():
    assert inv.count_containing((0, 1, 2), (1, 1, 1)) == 4
    assert inv.count_inside((1, 1, 1), (0, 1, 2)) == 2
    assert inv.count_containing((1, 2, 0), (2, 0, 1)) == 0
    for a in compositions(3, 3):
        assert inv.count_containing(a, a) == 1
        assert inv.count_inside(a, a) == 1


def test_count_containing_matches_enumeration():
    for a in compositions(3, 3):
        members_a = list(inv.ac.exponent_vectors(a))
        for b in compositions(3, 3):
            if not dominance_leq(b, a):
                continue
            fixed = next(iter(inv.ac.exponent_vectors(b)))
            direct = sum(
                1
                for ea in members_a
                if all(x <= y for x, y in zip(ea, fixed))
            )
            assert inv.count_containing(b, a) == direct


def test_pair_count():
    assert inv.pair_count((1, 1, 1), (0, 1, 2), 3) == 12
    assert inv.pair_count((3, 0, 0), (3, 0, 0), 3) == 1
    for a in compositions(3, 3):
        assert inv.pair_count(a, (0, 0, 3), 3) == family_size(a)
    with pytest.raises(ValueError):
        inv.pair_count((1, 1, 1), (0, 1, 2), 4)


def test_inversion_coefficient_is_mobius_inverse():
    comps = compositions(3, 3)
    for a in comps:
        assert inv.inversion_coefficient(a, a) == 1
        for c in comps:
            total = sum(
                inv.inversion_coefficient(b, a) * inv.count_containing(c, b)
                for b in comps
            )
            assert total == (1 if c == a else 0)


def test_binomial_moment_single():
    c = example_code()
    assert inv.binomial_moment_single(c, Anticode(Z9, (1, 0, 2)), 0) == 1
    assert inv.binomial_moment_single(c, Anticode(Z9, (1, 0, 2)), 1) == 1
    assert inv.binomial_moment_single(c, Anticode(Z9, (1, 0, 2)), 2) == 0
    assert inv.binomial_moment_single(c, Anticode(Z9, (0, 0, 0)), 2) == 2


def test_binomial_moment_aggregate():
    moments = inv.build_invariant_table(example_code()).binomial_moments
    assert moments[((1, 1, 1), 1)] == 6
    assert moments[((0, 0, 3), 0)] == 1


def test_weight_distribution_single():
    c = example_code()
    assert inv.weight_distribution_single(c, Anticode(Z9, (0, 1, 2)), 1) == 0
    assert inv.weight_distribution_single(c, Anticode(Z9, (2, 1, 2)), 1) == 1


@st.composite
def codes_anticodes_ranks(draw):
    """A random code of at most 81 words, an anticode and a rank, p = 2 included."""
    p, s, n = draw(
        st.sampled_from(
            [(2, 1, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2)]
        )
    )
    params = ChainRingParams(p, s)
    k = draw(st.integers(min_value=0, max_value=2))
    rows = [
        tuple(draw(st.integers(0, params.modulus - 1)) for _ in range(n))
        for _ in range(k)
    ]
    code = Code.from_rows(params, n, rows)
    # The code's own hull makes W nonzero for some j; a drawn anticode mostly not.
    if draw(st.booleans()):
        anticode = hull(code)
    else:
        anticode = Anticode(params, tuple(draw(st.integers(0, s)) for _ in range(n)))
    return code, anticode, draw(st.integers(0, n))


@settings(max_examples=60, deadline=None)
@given(codes_anticodes_ranks())
def test_weight_distribution_single_matches_element_sets(case):
    """W(A, j) equals the number of rank-j subcodes whose element set has hull A."""
    code, anticode, j = case
    params = code.params
    expected = 0
    for entry in oracle.enumerate_submodules(code.gen).entries:
        exps = tuple(
            min(params.valuation(x[t]) for x in entry.elements) for t in range(code.n)
        )
        if entry.rank == j and exps == anticode.exponents:
            expected += 1
    assert inv.weight_distribution_single(code, anticode, j) == expected


def test_rank_intersection_identity_edge_cases(rank_intersection_identity):
    c = example_code()
    full = Anticode(Z9, (0, 0, 0))
    zero = Anticode(Z9, (2, 2, 2))
    assert rank_intersection_identity(c, full) == (2, 2)
    assert rank_intersection_identity(c, zero) == (0, 0)
    assert rank_intersection_identity(c, Anticode(Z9, (0, 1, 2))) == (1, 1)


def test_rank_intersection_identity_known_gap(rank_intersection_identity):
    """The quoted closed form is not a theorem: this pair separates its sides.

    The sound variant rank(C cap A) = n - freerank(C-perp + A-perp) agrees
    with the left side here; the verification suite checks that form.
    """
    c = Code.from_rows(Z9, 2, [(1, 3)])
    lhs, rhs = rank_intersection_identity(c, Anticode(Z9, (0, 2)))
    assert lhs == 1
    assert rhs == 0


def test_r_weights_full_code():
    full = Code.full(Z9, 3)
    assert inv.r_weight(full)[0] == (0, 1, 2)
    assert inv.r_weight_free(full)[0] == (1, 0, 2)
    assert inv.ghw(full) == (1, 2, 3)


def test_r_weights_example(ghw_by_elements):
    c = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    assert inv.r_weight(c) == ((0, 1, 2), (0, 2, 1))
    assert inv.ghw(c) == (1, 2)
    assert ghw_by_elements(c) == (1, 2)


def test_r_weight_minimal_set_is_antichain():
    c = example_code()
    tiers = inv.r_weight_minimal_set(c)
    assert len(tiers) == c.rank
    for minimal, d_r in zip(tiers, inv.r_weight(c)):
        assert minimal
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not dominance_leq(a, b)
        assert any(dominance_leq(a, d_r) for a in minimal)


# Every code of these spaces: (p, s, n) for (Z/9)^3, (Z/8)^2, F_2^4,
# (Z/4)^3, (Z/9)^2 and (Z/25)^2.
CENSUSES = [(3, 2, 3), (2, 3, 2), (2, 1, 4), (2, 2, 3), (3, 2, 2), (5, 2, 2)]


@pytest.mark.parametrize("p, s, n", CENSUSES)
def test_minimal_sets_match_pairwise_dominance(p, s, n):
    """Each tier is the set of dominance-minimal shapes whose family rank,
    max rank(C cap A) over the family, reaches r."""
    params = ChainRingParams(p, s)
    comps = compositions(s + 1, n)
    for code in oracle.enumerate_codes(n, params):
        ranks = {
            a: max(inv._intersection_cached(code, A).rank for A in family(a, params))
            for a in comps
        }
        tiers = inv.r_weight_minimal_set(code)
        assert len(tiers) == code.rank
        for r, tier in enumerate(tiers, start=1):
            valid = [a for a in comps if ranks[a] >= r]
            minimal = tuple(
                a for a in valid if not any(b != a and dominance_leq(b, a) for b in valid)
            )
            assert tier == minimal, (code.gen.rows, r)


@pytest.mark.parametrize("p, s, n", CENSUSES)
def test_r_weights_are_the_first_nonzero_moments(p, s, n):
    """B(A, r) > 0 iff r <= rank(C cap A), so d_r is the first a in the
    linear extension with B_a^(r) > 0, and the free d_r the first free shape."""
    params = ChainRingParams(p, s)
    comps = compositions(s + 1, n)
    free = [(m,) + (0,) * (s - 1) + (n - m,) for m in range(n + 1)]
    for code in oracle.enumerate_codes(n, params):
        table = inv.build_invariant_table(code)
        moments = table.binomial_moments
        want = tuple(
            next(a for a in comps if moments[(a, r)] > 0) for r in range(1, code.rank + 1)
        )
        want_free = tuple(
            next(a for a in free if moments[(a, r)] > 0) for r in range(1, code.rank + 1)
        )
        assert inv.r_weight(code) == table.r_weights == want, code.gen.rows
        assert inv.r_weight_free(code) == table.r_weights_free == want_free, code.gen.rows
        assert inv.ghw(code) == table.ghw == tuple(a[0] for a in want_free)
        assert table.minimal_valid == inv.r_weight_minimal_set(code)


def test_build_invariant_table():
    c = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    table = inv.build_invariant_table(c)
    assert table.rank == 2
    assert table.n == 3
    assert len(table.digest) == 64
    assert table.linear_extension == "prefix-sum lexicographic"
    assert table.r_weights == ((0, 1, 2), (0, 2, 1))
    assert table.ghw == (1, 2)
    assert table.binomial_moments[((0, 0, 3), 0)] == 1
    assert table.weight_distributions[((0, 0, 3), 0)] == 1
    assert table.binomial_moments[((3, 0, 0), 0)] == 1
    assert table.weight_distributions[((3, 0, 0), 0)] == 0
    for key, b_value in table.binomial_moments.items():
        assert b_value >= table.weight_distributions[key] >= 0


def test_table_identities_explicitly():
    table = inv.build_invariant_table(example_code())
    for a in compositions(3, 3):
        moments = inv.moments_from_distribution(table, a)
        weights = inv.distribution_from_moments(table, a)
        assert len(moments) == len(weights) == table.rank + 1
        for j in range(table.rank + 1):
            assert moments[j] == table.binomial_moments[(a, j)]
            assert weights[j] == table.weight_distributions[(a, j)]


def test_table_digest_identifies_code():
    a = inv.build_invariant_table(example_code())
    b = inv.build_invariant_table(example_code())
    other = inv.build_invariant_table(Code.from_rows(Z9, 3, [(1, 0, 0)]))
    assert a.digest == b.digest
    assert a.digest != other.digest


def test_table_json_dict():
    table = inv.build_invariant_table(example_code())
    payload = inv.table_json_dict(table)
    json.dumps(payload)
    assert len(payload["entries"]) == 30
    first = payload["entries"][0]
    assert first["a"] == [0, 0, 3]
    assert first["j"] == 0
