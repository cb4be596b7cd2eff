import functools
import inspect
import math
import signal
from contextlib import contextmanager
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def packed_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    s = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    vec = st.lists(st.integers(0, p**s - 1), min_size=n, max_size=n)
    return p**s, n, draw(st.lists(vec, min_size=1, max_size=4)), draw(vec)


@settings(max_examples=300, deadline=None)
@given(packed_pairs())
@example((2, 1, [[1]], [1]))
@example((2, 6, [[1, 0, 1, 1, 0, 1]], [1, 1, 1, 0, 0, 1]))
@example((8, 3, [[7, 7, 0]], [7, 1, 7]))
@example((16, 4, [[15, 15, 15, 15]], [15, 15, 15, 15]))
@example((243, 6, [[242] * 6, [0, 121, 242, 1, 122, 241]], [242, 122, 1, 0, 121, 242]))
@example((13**5, 6, [[13**5 - 1] * 6], [13**5 - 1] * 6))
def test_packed_addition_is_coordinatewise_mod_m(case):
    m, n, xs, y = case
    pack, unpack, translate = oracle._packing(m, n)
    assert [unpack(pack(x)) for x in xs] == [tuple(x) for x in xs]
    sums = translate({pack(x) for x in xs}, pack(y))
    assert sorted(map(unpack, sums)) == sorted(
        {tuple((a + b) % m for a, b in zip(x, y)) for x in xs}
    )


def _closure(m, n, gens):
    """The span by closure of tuples under adding a generator."""
    elems, frontier = {(0,) * n}, [(0,) * n]
    while frontier:
        e = frontier.pop()
        for g in gens:
            x = tuple((a + b) % m for a, b in zip(e, g))
            if x not in elems:
                elems.add(x)
                frontier.append(x)
    return elems


def _filtration_by_tuples(p, m, s, elems):
    return [len({tuple(p**j * x % m for x in e) for e in elems}) for j in range(s + 1)]


@st.composite
def small_modules(draw):
    # p^(s n) <= 4096, so every closure stays small
    p, s, n = draw(
        st.sampled_from(
            [(p, s, n) for p in (2, 3, 5, 7, 13) for s in range(1, 6)
             for n in range(1, 7) if p ** (s * n) <= 4096]
        )
    )
    vec = st.lists(st.integers(0, p**s - 1), min_size=n, max_size=n)
    return ChainRingParams(p, s), n, draw(st.lists(vec, max_size=3))


@settings(max_examples=150, deadline=None)
@given(small_modules())
@example((ChainRingParams(2, 1), 6, [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]]))
@example((ChainRingParams(3, 5), 1, [[9]]))
@example((ChainRingParams(2, 3), 4, [[4, 2, 6, 1], [0, 4, 4, 2]]))
def test_span_and_filtration_match_tuple_closures(case):
    params, n, gens = case
    p, s, m = params.p, params.s, params.modulus
    elems = oracle.span_elements(params, n, gens)
    assert elems == _closure(m, n, gens)
    # the subtype that the tuple-based sizes of p^j M give
    logs = [round(math.log(size, p)) for size in _filtration_by_tuples(p, m, s, elems)]
    drops = [logs[j] - logs[j + 1] for j in range(s)] + [0]
    expect = tuple(drops[s - 1 - i] - drops[s - i] for i in range(s))
    assert oracle.subtype_from_elements(params, elems) == expect
    if len(elems) > 32:
        return
    # each census entry's subtype against the sizes of p^j M: for subtype k,
    # |M| / |p^j M| = p^(sum_i k_i min(j, s - i))
    census = oracle.enumerate_submodules(ModMatrix(params, n, tuple(map(tuple, gens))))
    for entry in census.entries:
        k = entry.subtype
        assert [
            len(entry.elements) // p ** sum(k[i] * min(j, s - i) for i in range(s))
            for j in range(s + 1)
        ] == _filtration_by_tuples(p, m, s, entry.elements)


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


def _down_indices(census) -> list[list[int]]:
    return [[j for j in range(len(census)) if down >> j & 1] for down in census.down]


# R^n at every (p, s, n) of the benchmark's `verify` mix, and one parent
# that is not a full space.
DOWN_SET_PARENTS = [
    *(
        pytest.param(ModMatrix.full(ChainRingParams(p, s), n), id=f"Z{p**s}^{n}")
        for p, s, n in [
            (3, 2, 2), (5, 2, 2), (3, 3, 2), (2, 3, 2), (2, 2, 2),
            (3, 1, 3), (5, 1, 3), (2, 1, 4), (11, 1, 2), (13, 1, 2),
        ]
    ),
    pytest.param(ModMatrix(Z9, 3, ((3, 0, 1), (0, 3, 0))), id="Z9^3-not-full"),
]


@pytest.mark.parametrize("parent", DOWN_SET_PARENTS)
def test_census_down_sets_match_subset_tests(parent, census_inside):
    census = oracle.enumerate_submodules(parent)
    assert _down_indices(census) == census_inside(census)


def test_census_builds_each_element_set_once(monkeypatch):
    calls, span = [], oracle._span
    monkeypatch.setattr(oracle, "_span", lambda *args: calls.append(1) or span(*args))
    census = oracle.enumerate_submodules(ModMatrix.full(ChainRingParams(5, 1), 3))
    # the parent, every entry but the zero module as a child, every digest:
    # over F_5^3 a child reached again is always found by the scan
    assert len(calls) == 1 + (len(census) - 1) + len(census)


@st.composite
def small_parents(draw):
    # p^(s n) <= 81 and n <= 4, so every census and its subset tests stay small
    p, s, n = draw(
        st.sampled_from(
            [(p, s, n) for p in (2, 3, 5, 7) for s in range(1, 7)
             for n in range(1, 5) if p ** (s * n) <= 81]
        )
    )
    vec = st.lists(st.integers(0, p**s - 1), min_size=n, max_size=n)
    rows = draw(st.lists(vec, max_size=n))
    return ModMatrix(ChainRingParams(p, s), n, tuple(map(tuple, rows)))


@settings(max_examples=100, deadline=None)
@given(mat=small_parents())
def test_census_down_sets_match_subset_tests_on_any_parent(mat, census_inside):
    census = oracle.enumerate_submodules(mat)
    assert _down_indices(census) == census_inside(census)


def test_census_rejects_a_digest_that_spans_too_little(monkeypatch):
    def drops_last_row(mat):
        form = mx.howell_form(mat)
        return ModMatrix(form.params, form.n, form.rows[:-1])

    monkeypatch.setattr(oracle, "howell_form", drops_last_row)
    with pytest.raises(InternalCheckError):
        oracle.enumerate_submodules(ModMatrix.full(Z9, 2))


@contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block after the given wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _one_coset_short(span):
    def planted(module, gens, translate, bound):
        return span(module, gens, translate, bound - 1)

    return planted


def _no_spare_bit(packing):
    # the same function with fields of m.bit_length() bits, too narrow for
    # a sum below 2m
    source = inspect.getsource(packing)
    assert "w = m.bit_length() + 1" in source
    namespace = {}
    exec(source.replace("w = m.bit_length() + 1", "w = m.bit_length()"), namespace)
    return namespace[packing.__name__]


# A broken span or packing must make the census raise InternalCheckError at
# once, not loop forever or escape as a KeyError: (attribute, fault).
CENSUS_FAULTS = {
    "span_one_coset_short": ("_span", _one_coset_short),
    "packing_without_spare_bit": ("_packing", _no_spare_bit),
}


@pytest.mark.parametrize("fault", sorted(CENSUS_FAULTS))
def test_broken_census_arithmetic_raises_at_once(fault, monkeypatch, capsys):
    attr, plant = CENSUS_FAULTS[fault]
    monkeypatch.setattr(oracle, attr, plant(getattr(oracle, attr)))
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    with _deadline(20):
        with pytest.raises(InternalCheckError):
            oracle.enumerate_submodules(ModMatrix.full(Z9, 2))
        assert cli.main(["verify", "counting", "--format", "text"]) == 3
    assert "internal check failed" in capsys.readouterr().err


def test_enumerate_submodules_cap():
    with pytest.raises(CapExceeded):
        oracle.enumerate_submodules(ModMatrix.full(Z9, 2), cap=10)


def test_census_cap_is_checked_before_any_element_is_built(monkeypatch, capsys):
    def no_elements(*args, **kwargs):
        raise AssertionError("an element set was built")

    # every element set is built through the packed arithmetic
    monkeypatch.setattr(oracle, "_packing", no_elements)
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


@pytest.mark.parametrize("parts", [3, 4])
def test_poset_oracle_answers_inputs_by_definition(parts):
    po = oracle.PosetOracle(parts, 3)
    pad = (0,) * (parts - 3)
    # lists, and tuples that are no element of the lattice
    outside = [(3, 0)] + [
        pad + a for a in [(0, 0, 2), (1, 1, 2), (0, 4, 0), (3, 0, 0, 0), (0, 0, 1)]
    ]
    inputs = [list(a) for a in po.elements] + outside + list(po.elements)

    @functools.cache
    def mobius(a, b):
        if not _leq_by_definition(a, b):
            return 0
        return 1 if a == b else -sum(
            mobius(a, c)
            for c in po.elements
            if c != b and _leq_by_definition(a, c) and _leq_by_definition(c, b)
        )

    for a in inputs:
        for b in inputs:
            assert po.leq(a, b) == _leq_by_definition(a, b), (a, b)
            assert po.mobius(a, b) == mobius(tuple(a), tuple(b)), (a, b)
        assert set(po.covers(a)) == _covers_by_definition(po.elements, a), a
    lowest = [a for a in po.elements if all(_leq_by_definition(a, b) for b in po.elements)]
    highest = [a for a in po.elements if all(_leq_by_definition(b, a) for b in po.elements)]
    assert [po.bottom()] == lowest and [po.top()] == highest
    assert po.leq(list(pad + (0, 1, 2)), pad + (1, 1, 1))
    assert not po.leq(pad + (1, 1, 1), list(pad + (0, 1, 2)))
    assert po.covers(pad + (0, 0, 2)) == (pad + (0, 0, 3),)
    assert po.covers(list(pad + (1, 1, 1))) == po.covers(pad + (1, 1, 1))


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
