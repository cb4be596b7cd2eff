import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import matrices as mx
from lee_anticodes.anticodes import Anticode
from lee_anticodes.codes import Code
from lee_anticodes.errors import CapExceeded
from lee_anticodes.oracle import enumerate_anticodes
from lee_anticodes.ring import METRICS, ChainRingParams

Z9 = ChainRingParams(3, 2)


def test_anticode_validation():
    with pytest.raises(ValueError):
        Anticode(Z9, ())
    with pytest.raises(ValueError):
        Anticode(Z9, (0, 3))
    with pytest.raises(ValueError):
        Anticode(Z9, (-1, 0))


def test_anticode_basic_properties():
    a = Anticode(Z9, (0, 1, 2))
    assert a.n == 3
    assert a.extended_subtype == (1, 1, 1)
    assert a.rank == 2
    assert a.size == 9**1 * 3**1
    assert a.module().rows == ((1, 0, 0), (0, 3, 0))
    assert a.as_code().subtype == (1, 1)


def test_canonical_generator():
    gen = Anticode(Z9, (0, 1, 2)).module()
    assert gen.rows == ((1, 0, 0), (0, 3, 0))
    assert ac.family((1, 1, 1), Z9)[0].exponents == (0, 1, 2)
    assert Anticode(Z9, (2, 2)).module().rows == ()
    assert Anticode(Z9, (0, 0, 0)).module().rows == (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    )
    with pytest.raises(ValueError):
        ac.family((1, 1), Z9)
    with pytest.raises(ValueError):
        ac.family((0, 0, 0), Z9)


def test_family_sizes():
    assert ac.family_size((1, 1, 1)) == 6
    assert ac.family_size((2, 0, 1)) == 3
    assert ac.family_size((0, 3, 0)) == 1
    members = ac.family((1, 1, 1), Z9)
    assert len(members) == 6
    assert len(set(members)) == 6
    for member in members:
        assert member.extended_subtype == (1, 1, 1)


def test_family_cap():
    with pytest.raises(CapExceeded):
        ac.family((1, 1, 1), Z9, cap=5)


def test_exponent_vectors_order():
    vecs = list(ac.exponent_vectors((1, 1, 1)))
    assert vecs == sorted(vecs)
    assert vecs[0] == (0, 1, 2)
    assert vecs[-1] == (2, 1, 0)
    assert len(vecs) == 6


def test_contains():
    outer = Anticode(Z9, (0, 1, 2))
    assert ac.contains(outer, Anticode(Z9, (1, 2, 2)))
    assert not ac.contains(outer, Anticode(Z9, (2, 2, 1)))
    assert ac.contains(outer, outer)
    full = Anticode(Z9, (0, 0, 0))
    for a in enumerate_anticodes(3, Z9):
        assert ac.contains(full, a)


def test_contains_matches_module_inclusion():
    anticodes = enumerate_anticodes(2, Z9)
    for outer in anticodes:
        outer_elems = set(mx.enumerate_elements(outer.module()))
        for inner in anticodes:
            inner_elems = set(mx.enumerate_elements(inner.module()))
            assert ac.contains(outer, inner) == (inner_elems <= outer_elems)


def test_dual_anticode():
    assert ac.dual_anticode(Anticode(Z9, (0, 1, 2))).exponents == (2, 1, 0)
    for a in enumerate_anticodes(2, Z9):
        d = ac.dual_anticode(a)
        assert ac.dual_anticode(d) == a
        assert d.extended_subtype == tuple(reversed(a.extended_subtype))
        assert mx.howell_form(d.module()) == mx.kernel(a.module())


def test_hull_examples():
    assert ac.hull(Code.zero(Z9, 3)).exponents == (2, 2, 2)
    assert ac.hull(Code.from_rows(Z9, 3, [(0, 3, 0)])).exponents == (2, 1, 2)
    assert ac.hull(Code.from_rows(Z9, 3, [(1, 2, 0), (0, 3, 0)])).exponents == (
        0,
        0,
        2,
    )


def test_hull_is_minimal_cover():
    code = Code.from_rows(Z9, 2, [(3, 3)])
    h = ac.hull(code)
    assert h.exponents == (1, 1)
    code_elems = set(mx.enumerate_elements(code.gen))
    for a in enumerate_anticodes(2, Z9):
        covers = code_elems <= set(mx.enumerate_elements(a.module()))
        assert covers == ac.contains(a, h)


def test_hull_fixes_anticodes():
    for a in enumerate_anticodes(3, Z9):
        assert ac.hull(a.as_code()) == a


def test_bounds():
    assert ac.lee_bound((1, 1), Z9) == 7
    assert ac.lee_bound((0, 0), Z9) == 0
    assert ac.hom_bound_scaled(2, Z9) == 6
    assert ac.hamming_bound(2) == 2
    assert ac.hamming_bound(0) == 0
    with pytest.raises(ValueError):
        ac.hamming_bound(-1)
    with pytest.raises(ValueError):
        ac.lee_bound((1, 1, 1), Z9)
    with pytest.raises(ValueError):
        ac.lee_bound((1, 1), ChainRingParams(2, 2))


def test_weight_bound_dispatch():
    code = Code.from_rows(Z9, 3, [(1, 2, 0), (0, 3, 0)])
    assert ac.weight_bound(code, "hamming") == 2
    assert ac.weight_bound(code, "hom") == 6
    assert ac.weight_bound(code, "lee") == 7
    with pytest.raises(ValueError):
        ac.weight_bound(code, "euclid")


def test_is_optimal_worked_pair():
    not_anticode = Code.from_rows(Z9, 3, [(1, 2, 0), (0, 3, 0)])
    assert not ac.is_optimal(not_anticode, "lee")
    assert ac.is_optimal(not_anticode, "hamming")
    assert ac.is_optimal(not_anticode, "hom")
    anticode = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    assert ac.is_optimal(anticode, "lee")


def test_zero_code_is_optimal_everywhere():
    z = Code.zero(Z9, 3)
    for metric in METRICS:
        assert ac.is_optimal(z, metric)


def test_is_optimal_rejects_unknown_metric_and_even_p():
    code = Code.from_rows(Z9, 2, [(1, 0)])
    with pytest.raises(ValueError):
        ac.is_optimal(code, "euclid")
    even = Code.from_rows(ChainRingParams(2, 2), 2, [(1, 0)])
    with pytest.raises(ValueError):
        ac.is_optimal(even, "lee")
    assert ac.is_optimal(even, "hamming")
