import itertools

import pytest

from lee_anticodes import dominance as dom
from lee_anticodes.errors import CapExceeded
from lee_anticodes.oracle import poset_oracle


def test_prefix_sums_round_trip():
    assert dom.prefix_sums((0, 0, 3)) == (0, 0, 3)
    assert dom.prefix_sums((1, 1, 1)) == (1, 2, 3)
    assert dom.prefix_sums((4, 0, 0)) == (4, 4, 4)
    for a in dom.compositions(4, 5):
        assert dom.from_prefix_sums(dom.prefix_sums(a)) == a


def test_composition_validation():
    with pytest.raises(ValueError):
        dom.check_composition((1, -1, 3))
    with pytest.raises(ValueError):
        dom.check_composition(())
    with pytest.raises(ValueError):
        dom.check_pair((1, 2), (1, 2, 0))
    with pytest.raises(ValueError):
        dom.check_pair((1, 2), (2, 2))


def test_enumeration_counts():
    assert dom.compositions(1, 5) == [(5,)]
    assert len(dom.compositions(3, 4)) == 15
    assert len(dom.compositions(4, 3)) == 20
    for parts, total in ((1, 0), (2, 3), (3, 3), (4, 2), (5, 1)):
        elems = dom.compositions(parts, total)
        assert len(elems) == dom.composition_count(parts, total)
        assert len(set(elems)) == len(elems)
        assert all(sum(a) == total and len(a) == parts for a in elems)
        assert all(min(a) >= 0 for a in elems)


def test_enumeration_is_in_linear_order():
    for parts, total in ((3, 3), (3, 4), (4, 3)):
        elems = dom.compositions(parts, total)
        keys = [dom.linear_key(a) for a in elems]
        assert keys == sorted(keys)


def test_dominance_examples():
    assert dom.dominance_leq((0, 0, 3), (3, 0, 0))
    assert dom.dominance_leq((1, 1, 1), (1, 1, 1))
    assert not dom.dominance_leq((2, 0, 1), (1, 2, 0))
    assert not dom.dominance_leq((1, 2, 0), (2, 0, 1))


def test_join_meet_examples():
    assert dom.meet((2, 0, 1), (1, 2, 0)) == (1, 1, 1)
    assert dom.join((2, 0, 1), (1, 2, 0)) == (2, 1, 0)
    a = (1, 0, 2)
    assert dom.join(a, a) == a
    assert dom.meet(a, a) == a


def test_top_bottom():
    assert dom.top(3, 3) == (3, 0, 0)
    assert dom.bottom(3, 3) == (0, 0, 3)
    for a in dom.compositions(3, 3):
        assert dom.dominance_leq(dom.bottom(3, 3), a)
        assert dom.dominance_leq(a, dom.top(3, 3))


def test_covers_examples():
    assert dom.covers((3, 0, 0)) == ()
    assert dom.covers((1, 0, 2)) == ((1, 1, 1),)
    assert set(dom.covers((1, 1, 1))) == {(2, 0, 1), (1, 2, 0)}
    for a in dom.compositions(3, 4):
        tail_weight = sum(1 for x in a[1:] if x != 0)
        assert len(dom.covers(a)) == tail_weight


def test_covers_and_covered_by_are_inverse():
    elems = dom.compositions(4, 3)
    for a in elems:
        for b in dom.covers(a):
            assert a in dom.covered_by(b)
        for c in dom.covered_by(a):
            assert a in dom.covers(c)


def test_boolean_sublattice():
    cube = set(dom.boolean_sublattice((1, 1, 1)))
    assert cube == {(1, 1, 1), (2, 0, 1), (1, 2, 0), (2, 1, 0)}
    for a in dom.compositions(4, 3):
        members = dom.boolean_sublattice(a)
        tail_weight = sum(1 for x in a[1:] if x != 0)
        assert len(members) == 2**tail_weight
        assert len(set(members)) == len(members)
        assert all(dom.dominance_leq(a, b) for b in members)


def test_mobius_examples():
    assert dom.mobius((1, 1, 1), (1, 1, 1)) == 1
    assert dom.mobius((1, 1, 1), (2, 0, 1)) == -1
    assert dom.mobius((1, 1, 1), (2, 1, 0)) == 1
    assert dom.mobius((0, 0, 3), (3, 0, 0)) == 0
    assert dom.mobius((0, 1, 2), (1, 1, 1)) == 1


def test_mobius_support_is_boolean_sublattice():
    elems = dom.compositions(3, 4)
    for a in elems:
        support = {b for b in elems if dom.mobius(a, b) != 0}
        assert support == set(dom.boolean_sublattice(a))


def test_mobius_matches_recursion():
    po = poset_oracle(4, 3)
    for a in po.elements:
        for b in po.elements:
            assert dom.mobius(a, b) == po.mobius(a, b)


def test_mobius_inversion_round_trip():
    elems = dom.compositions(3, 4)

    def f(a):
        return 1 + 7 * a[0] + 3 * a[1] * a[1] - 2 * a[2]

    summed = {
        a: sum(f(b) for b in elems if dom.dominance_leq(b, a)) for a in elems
    }
    for a in elems:
        recovered = sum(
            dom.mobius(b, a) * summed[b] for b in elems if dom.dominance_leq(b, a)
        )
        assert recovered == f(a)


def test_lattice_axioms_against_oracle():
    po = poset_oracle(3, 3)
    elems = po.elements
    for a in elems:
        for b in elems:
            assert dom.join(a, b) == po.join(a, b)
            assert dom.meet(a, b) == po.meet(a, b)
            assert dom.join(a, b) == dom.join(b, a)
            assert dom.meet(dom.join(a, b), a) == a


def test_distributivity():
    elems = dom.compositions(3, 4)
    for a, b, c in itertools.product(elems, repeat=3):
        assert dom.join(a, dom.meet(b, c)) == dom.meet(dom.join(a, b), dom.join(a, c))


def test_irreducibles():
    assert not dom.is_join_irreducible((0, 0, 0, 3))
    assert dom.is_join_irreducible((0, 2, 0, 1))
    assert not dom.is_join_irreducible((1, 1, 1))
    assert not dom.is_meet_irreducible((1, 1, 1))
    assert dom.is_meet_irreducible((2, 1, 0))
    po = poset_oracle(3, 3)
    below = {
        a: [b for b in po.elements if a in po.covers(b)] for a in po.elements
    }
    for a in po.elements:
        assert dom.is_join_irreducible(a) == (len(below[a]) == 1)
        assert dom.is_meet_irreducible(a) == (len(po.covers(a)) == 1)


def test_maximal_chain_length():
    assert dom.maximal_chain_length(1, 7) == 0
    assert dom.maximal_chain_length(3, 3) == 6
    assert dom.maximal_chain_length(4, 3) == 9


def test_maximal_chains_structure():
    chains = list(dom.maximal_chains(3, 3))
    assert chains
    for chain in chains:
        assert chain[0] == dom.bottom(3, 3)
        assert chain[-1] == dom.top(3, 3)
        assert len(chain) - 1 == 6
        for lo, hi in zip(chain, chain[1:]):
            assert hi in dom.covers(lo)
    assert len({tuple(c) for c in chains}) == len(chains)
    po = poset_oracle(3, 3)
    assert len(chains) == len(list(po.maximal_chains()))


def test_maximal_chains_cap():
    with pytest.raises(CapExceeded):
        list(dom.maximal_chains(3, 40, cap=10))


def test_reverse_composition():
    assert dom.reverse_composition((4, 0, 0)) == (0, 0, 4)
    assert dom.reverse_composition((1, 2, 0)) == (0, 2, 1)
    elems = dom.compositions(3, 4)
    for a in elems:
        assert dom.reverse_composition(dom.reverse_composition(a)) == a
        for b in elems:
            assert dom.dominance_leq(a, b) == dom.dominance_leq(
                dom.reverse_composition(b), dom.reverse_composition(a)
            )


def test_linear_extension():
    assert dom.linear_cmp((0, 0, 3), (0, 1, 2)) < 0
    assert dom.linear_cmp((1, 1, 1), (1, 1, 1)) == 0
    elems = dom.compositions(3, 4)
    for a in elems:
        for b in elems:
            if dom.dominance_leq(a, b) and a != b:
                assert dom.linear_cmp(a, b) < 0


def test_lattice_rank():
    assert dom.lattice_rank(dom.bottom(4, 3)) == 0
    for a in dom.compositions(4, 3):
        for b in dom.covers(a):
            assert dom.lattice_rank(b) == dom.lattice_rank(a) + 1


def test_hasse_dot():
    single = dom.hasse_dot(1, 2)
    assert '"(2)"' in single
    assert "->" not in single
    text = dom.hasse_dot(3, 3)
    elems = dom.compositions(3, 3)
    for a in elems:
        assert f'"{"(" + ",".join(map(str, a)) + ")"}"' in text
    edge_count = sum(line.count(" -> ") for line in text.splitlines())
    assert edge_count == sum(len(dom.covers(a)) for a in elems)
    assert text == dom.hasse_dot(3, 3)


def test_maximal_chain_count_matches_both_enumerations():
    """The hook-length count against the chains both routes enumerate, on
    every shape of the grid with at most 300 maximal chains."""
    shapes = 0
    for parts in range(1, 9):
        for total in range(9):
            chains = list(itertools.islice(dom.maximal_chains(parts, total), 301))
            if len(chains) > 300:
                continue
            oracle_count = sum(1 for _ in poset_oracle(parts, total).maximal_chains())
            assert dom.maximal_chain_count(parts, total) == len(chains) == oracle_count
            shapes += 1
    assert shapes > 20


def test_maximal_chain_count_edges():
    for n in range(20):
        assert dom.maximal_chain_count(1, n) == 1
    for parts in range(1, 20):
        assert dom.maximal_chain_count(parts, 0) == 1
    for parts, total in ((0, 3), (-1, 3), (3, -1), (0, -1)):
        with pytest.raises(ValueError):
            dom.maximal_chain_count(parts, total)
