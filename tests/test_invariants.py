import json

import pytest

from lee_anticodes import invariants as inv
from lee_anticodes.anticodes import Anticode, family_size
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
    assert inv.binomial_moment(example_code(), (1, 1, 1), 1) == 6
    assert inv.binomial_moment(example_code(), (0, 0, 3), 0) == 1


def test_weight_distribution_single():
    c = example_code()
    assert inv.weight_distribution_single(c, Anticode(Z9, (0, 1, 2)), 1) == 0
    assert inv.weight_distribution_single(c, Anticode(Z9, (2, 1, 2)), 1) == 1


def test_rank_intersection_identity_edge_cases():
    c = example_code()
    full = Anticode(Z9, (0, 0, 0))
    zero = Anticode(Z9, (2, 2, 2))
    assert inv.rank_intersection_identity(c, full) == (2, 2)
    assert inv.rank_intersection_identity(c, zero) == (0, 0)
    assert inv.rank_intersection_identity(c, Anticode(Z9, (0, 1, 2))) == (1, 1)


def test_rank_intersection_identity_known_gap():
    """The quoted closed form is not a theorem: this pair separates its sides.

    The sound variant rank(C cap A) = n - freerank(C-perp + A-perp) agrees
    with the left side here; the verification suite checks that form.
    """
    c = Code.from_rows(Z9, 2, [(1, 3)])
    lhs, rhs = inv.rank_intersection_identity(c, Anticode(Z9, (0, 2)))
    assert lhs == 1
    assert rhs == 0


def test_r_weights_full_code():
    full = Code.full(Z9, 3)
    assert inv.r_weight(full, 1) == (0, 1, 2)
    assert inv.r_weight_free(full, 1) == (1, 0, 2)
    assert inv.ghw(full, 1) == 1
    assert [inv.ghw(full, r) for r in (1, 2, 3)] == [1, 2, 3]


def test_r_weights_example():
    c = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    assert inv.r_weight(c, 1) == (0, 1, 2)
    assert inv.r_weight(c, 2) == (0, 2, 1)
    assert inv.ghw(c, 1) == 1
    assert inv.ghw(c, 2) == 2
    assert inv.ghw_brute(c, 1) == 1
    assert inv.ghw_brute(c, 2) == 2


def test_r_weight_range_checks():
    c = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            inv.r_weight(c, bad)
        with pytest.raises(ValueError):
            inv.r_weight_free(c, bad)
        with pytest.raises(ValueError):
            inv.r_weight_minimal_set(c, bad)
        with pytest.raises(ValueError):
            inv.ghw_brute(c, bad)


def test_r_weight_minimal_set_is_antichain():
    c = example_code()
    for r in (1, 2):
        minimal = inv.r_weight_minimal_set(c, r)
        assert minimal
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not dominance_leq(a, b)
        d_r = inv.r_weight(c, r)
        assert any(dominance_leq(a, d_r) for a in minimal)


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
        for j in range(table.rank + 1):
            assert (
                inv.moments_from_distribution(table, a, j)
                == table.binomial_moments[(a, j)]
            )
            assert (
                inv.distribution_from_moments(table, a, j)
                == table.weight_distributions[(a, j)]
            )


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
