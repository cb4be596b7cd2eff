from itertools import accumulate

import pytest

from lee_anticodes import cli
from lee_anticodes import matrices as mx
from lee_anticodes import oracle
from lee_anticodes.errors import CapExceeded, InternalCheckError
from lee_anticodes.matrices import ModMatrix
from lee_anticodes.ring import ChainRingParams

Z9 = ChainRingParams(3, 2)


def test_span_elements():
    assert len(oracle.span_elements(Z9, 2, [(3, 1)])) == 9
    assert len(oracle.span_elements(Z9, 2, [])) == 1
    assert len(oracle.span_elements(Z9, 3, [(1, 2, 0), (0, 3, 0)])) == 27
    full = oracle.span_elements(Z9, 2, [(1, 0), (0, 1)])
    assert len(full) == 81
    assert (7, 2) in full


def test_subtype_from_elements():
    assert oracle.subtype_from_elements(
        Z9, oracle.span_elements(Z9, 2, [(3, 1)])
    ) == (1, 0)
    assert oracle.subtype_from_elements(
        Z9, oracle.span_elements(Z9, 2, [(3, 0), (0, 3)])
    ) == (0, 2)
    assert oracle.subtype_from_elements(
        Z9, oracle.span_elements(Z9, 2, [(1, 0), (0, 1)])
    ) == (2, 0)
    assert oracle.subtype_from_elements(Z9, {(0, 0)}) == (0, 0)


def test_enumerate_submodules_counts():
    assert len(oracle.enumerate_submodules(ModMatrix.full(Z9, 1))) == 3
    assert len(oracle.enumerate_submodules(ModMatrix.full(Z9, 2))) == 23
    shaped = ModMatrix(Z9, 2, ((3, 0), (0, 3)))
    assert len(oracle.enumerate_submodules(shaped)) == 6


def test_census_entries_are_consistent():
    census = oracle.enumerate_submodules(ModMatrix.full(Z9, 2))
    sizes = [len(entry.elements) for entry in census.entries]
    assert sizes == sorted(sizes)
    for entry in census.entries:
        assert entry.subtype == mx.subtype(entry.mat)
        assert mx.span_size(entry.mat) == len(entry.elements)
        assert entry.rank == sum(entry.subtype)
    assert len({entry.elements for entry in census.entries}) == len(census)


# (p, s, n): (Z/9)^2, (Z/8)^2, F_2^4, (Z/4)^3, (Z/25)^2, F_5^3.
DIGEST_CENSUSES = [(3, 2, 2), (2, 3, 2), (2, 1, 4), (2, 2, 3), (5, 2, 2), (5, 1, 3)]


@pytest.mark.parametrize("p, s, n", DIGEST_CENSUSES)
def test_census_digests_match_the_element_set_howell_form(p, s, n):
    # Each digest comes from the few extension elements that built the
    # module; it must be the Howell form of the whole element set.
    params = ChainRingParams(p, s)
    census = oracle.enumerate_submodules(ModMatrix.full(params, n))
    for entry in census.entries:
        assert entry.mat == mx.howell_form(
            ModMatrix(params, n, tuple(sorted(entry.elements)))
        )


def test_census_rejects_a_digest_that_spans_too_little(monkeypatch):
    def drops_last_row(mat):
        form = mx.howell_form(mat)
        return ModMatrix(form.params, form.n, form.rows[:-1])

    monkeypatch.setattr(oracle, "howell_form", drops_last_row)
    with pytest.raises(InternalCheckError):
        oracle.enumerate_submodules(ModMatrix.full(Z9, 2))


def test_enumerate_submodules_cap():
    with pytest.raises(CapExceeded):
        oracle.enumerate_submodules(ModMatrix.full(Z9, 2), cap=10)


def test_census_cap_is_checked_before_any_element_is_built(monkeypatch, capsys):
    def no_elements(*args, **kwargs):
        raise AssertionError("an element set was built")

    monkeypatch.setattr(oracle, "span_elements", no_elements)
    with pytest.raises(CapExceeded, match="submodule census: 81 exceeds cap 10"):
        oracle.enumerate_submodules(ModMatrix.full(Z9, 2), cap=10)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "counting", "--p", "13", "--s", "2", "--n", "4"]) == 2
    assert "submodule census: 815730721 exceeds cap" in capsys.readouterr().err


def test_poset_oracle_basics():
    po = oracle.PosetOracle(3, 3)
    assert len(po.elements) == 10
    assert po.bottom() == (0, 0, 3)
    assert po.top() == (3, 0, 0)
    assert po.leq((0, 1, 2), (1, 1, 1))
    assert not po.leq((2, 0, 1), (1, 2, 0))
    assert po.join((2, 0, 1), (1, 2, 0)) == (2, 1, 0)
    assert po.meet((2, 0, 1), (1, 2, 0)) == (1, 1, 1)
    assert set(po.covers((1, 1, 1))) == {(2, 0, 1), (1, 2, 0)}
    assert po.mobius((1, 1, 1), (2, 0, 1)) == -1
    assert po.mobius((1, 1, 1), (2, 1, 0)) == 1
    assert po.mobius((0, 0, 3), (3, 0, 0)) == 0


def _leq_by_definition(a, b):
    return all(x <= y for x, y in zip(accumulate(a), accumulate(b)))


def _covers_by_definition(elements, a):
    a = tuple(a)
    return {
        b
        for b in elements
        if b != a
        and _leq_by_definition(a, b)
        and not any(
            c not in (a, b) and _leq_by_definition(a, c) and _leq_by_definition(c, b)
            for c in elements
        )
    }


def test_poset_oracle_answers_inputs_by_definition():
    po = oracle.PosetOracle(3, 3)
    # lists, and tuples that are no element of the lattice
    outside = [(0, 0, 2), (1, 1, 2), (0, 4, 0), (3, 0, 0, 0), (0, 0, 1)]
    inputs = [list(a) for a in po.elements] + outside + list(po.elements)
    for a in inputs:
        for b in inputs:
            assert po.leq(a, b) == _leq_by_definition(a, b), (a, b)
        assert set(po.covers(a)) == _covers_by_definition(po.elements, a), a
    assert po.leq([0, 1, 2], (1, 1, 1)) and not po.leq((1, 1, 1), [0, 1, 2])
    assert po.covers((0, 0, 2)) == ((0, 0, 3),)
    assert po.covers([1, 1, 1]) == po.covers((1, 1, 1))


def test_poset_oracle_chains():
    po = oracle.PosetOracle(3, 3)
    chains = list(po.maximal_chains())
    assert len({tuple(c) for c in chains}) == len(chains)
    for chain in chains:
        assert chain[0] == (0, 0, 3)
        assert chain[-1] == (3, 0, 0)
        assert len(chain) == 7


def test_poset_oracle_validation():
    with pytest.raises(ValueError):
        oracle.PosetOracle(0, 3)
    with pytest.raises(CapExceeded):
        oracle.PosetOracle(6, 30)


def test_enumerate_anticodes():
    anticodes = oracle.enumerate_anticodes(2, Z9)
    assert len(anticodes) == 9
    exps = [a.exponents for a in anticodes]
    assert exps == sorted(exps)
    assert exps[0] == (0, 0)
    assert exps[-1] == (2, 2)
    with pytest.raises(CapExceeded):
        oracle.enumerate_anticodes(2, Z9, cap=5)


def test_enumerate_codes():
    codes = list(oracle.enumerate_codes(2, Z9))
    assert len(codes) == 23
    assert len(set(codes)) == 23
    assert sum(1 for c in codes if c.rank == 0) == 1
    assert sum(1 for c in codes if c.size == 81) == 1
