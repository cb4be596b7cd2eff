import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lee_anticodes import invariants as inv
from lee_anticodes import matrices as mx
from lee_anticodes import oracle
from lee_anticodes.anticodes import Anticode
from lee_anticodes.codes import Code
from lee_anticodes.errors import CapExceeded
from lee_anticodes.matrices import ModMatrix
from lee_anticodes.oracle import span_elements, subtype_from_elements
from lee_anticodes.ring import ChainRingParams

Z9 = ChainRingParams(3, 2)

RING_CHOICES = [
    ChainRingParams(2, 2),
    ChainRingParams(3, 1),
    ChainRingParams(3, 2),
    ChainRingParams(5, 1),
]


@st.composite
def mod_matrices(draw):
    params = draw(st.sampled_from(RING_CHOICES))
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=0, max_value=3))
    rows = tuple(
        tuple(draw(st.integers(0, params.modulus - 1)) for _ in range(n))
        for _ in range(k)
    )
    return ModMatrix(params, n, rows)


def test_matrix_construction():
    mat = ModMatrix(Z9, 2, ((10, -1),))
    assert mat.rows == ((1, 8),)
    with pytest.raises(ValueError):
        ModMatrix(Z9, 0, ())
    with pytest.raises(ValueError):
        ModMatrix(Z9, 2, ((1, 2, 3),))
    assert ModMatrix.zero(Z9, 3).rows == ()
    assert ModMatrix.full(Z9, 2).rows == ((1, 0), (0, 1))


def test_parse_and_format_round_trip():
    text = "# generator matrix\n3 2 3\n\n1 2 0\n0 3 0\n"
    mat = mx.parse_matrix(text)
    assert mat.params == Z9
    assert mat.n == 3
    assert mat.rows == ((1, 2, 0), (0, 3, 0))
    assert mx.format_matrix(mat) == "3 2 3\n1 2 0\n0 3 0\n"
    assert mx.parse_matrix(mx.format_matrix(mat)) == mat


def test_parse_rejects_bad_input():
    with pytest.raises(ValueError):
        mx.parse_matrix("")
    with pytest.raises(ValueError):
        mx.parse_matrix("3 2\n1 2\n")
    with pytest.raises(ValueError):
        mx.parse_matrix("3 2 3\n1 2\n")


def test_howell_examples():
    assert mx.howell_form(ModMatrix(Z9, 2, ((2, 4),))).rows == ((1, 2),)
    mat = ModMatrix(Z9, 3, ((3, 6, 0), (0, 3, 0)))
    assert mx.howell_form(mat).rows == ((3, 0, 0), (0, 3, 0))
    assert mx.howell_form(ModMatrix.zero(Z9, 2)).rows == ()


def test_howell_idempotent():
    mat = ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0), (3, 6, 0)))
    h = mx.howell_form(mat)
    assert mx.howell_form(h) == h


@settings(max_examples=60, deadline=None)
@given(mod_matrices(), st.randoms(use_true_random=False))
def test_howell_is_canonical(mat, rng):
    """Row shuffles and unit scalings leave the Howell form unchanged."""
    h = mx.howell_form(mat)
    rows = list(mat.rows)
    rng.shuffle(rows)
    m = mat.params.modulus
    units = [u for u in range(1, m) if u % mat.params.p != 0]
    scaled = []
    for row in rows:
        u = rng.choice(units)
        scaled.append(tuple(u * x % m for x in row))
    scaled = tuple(scaled)
    assert mx.howell_form(ModMatrix(mat.params, mat.n, scaled)) == h


@settings(max_examples=60, deadline=None)
@given(mod_matrices())
def test_howell_preserves_span(mat):
    h = mx.howell_form(mat)
    original = span_elements(mat.params, mat.n, mat.rows)
    assert set(mx.enumerate_elements(h)) == original
    assert mx.span_size(h) == len(original)


@settings(max_examples=60, deadline=None)
@given(mod_matrices())
def test_kernel_pairing(mat):
    ker = mx.kernel(mat)
    m = mat.params.modulus
    for row in mat.rows:
        for krow in ker.rows:
            assert sum(x * y for x, y in zip(row, krow)) % m == 0
    assert mx.span_size(mat) * mx.span_size(ker) == m**mat.n
    assert mx.kernel(ker) == mx.howell_form(mat)


def test_kernel_example():
    mat = ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0)))
    ker = mx.kernel(mat)
    assert ker.rows == ((3, 3, 0), (0, 0, 1))
    assert mx.span_size(mat) == 27
    assert mx.span_size(ker) == 27


def test_span_size_example():
    assert mx.span_size(ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0)))) == 27
    assert mx.span_size(ModMatrix.zero(Z9, 3)) == 1
    assert mx.span_size(ModMatrix.full(Z9, 2)) == 81


def test_membership():
    mat = ModMatrix(Z9, 3, ((0, 3, 0), (3, 0, 0)))
    code = Code(mat)
    assert code.contains_vector((3, 6, 0))
    assert not code.contains_vector((1, 0, 0))
    elems = set(mx.enumerate_elements(mat))
    for vec in [(0, 0, 0), (3, 6, 0), (1, 0, 0), (0, 1, 0), (6, 3, 0)]:
        assert code.contains_vector(vec) == (vec in elems)


def test_enumerate_elements_cap():
    with pytest.raises(CapExceeded):
        list(mx.enumerate_elements(ModMatrix.full(Z9, 2), cap=10))


def test_systematic_form_unit_pivot():
    mat = ModMatrix(Z9, 3, ((2, 1, 0),))
    assert mx.systematic_form(mat) == (0,)
    assert mx.subtype(mat) == (1, 0)


def test_systematic_form_column_swap():
    mat = ModMatrix(Z9, 2, ((3, 1),))
    assert mx.systematic_form(mat) == (0,)
    assert mx.free_rank(mat) == 1


def test_systematic_form_spans_permuted_module():
    mat = ModMatrix(Z9, 3, ((1, 2, 1), (0, 3, 0), (3, 0, 6)))
    diag = mx.systematic_form(mat)
    assert list(diag) == sorted(diag)
    assert math.prod(9 // 3**v for v in diag) == mx.span_size(mat)


def test_subtype_examples():
    assert mx.subtype(ModMatrix(Z9, 2, ((3, 0), (0, 3)))) == (0, 2)
    assert mx.subtype(ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0)))) == (1, 1)
    assert mx.subtype(ModMatrix(Z9, 2, ((3, 1),))) == (1, 0)
    assert mx.subtype(ModMatrix.zero(Z9, 2)) == (0, 0)
    assert mx.rank(ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0)))) == 2
    assert mx.free_rank(ModMatrix(Z9, 3, ((1, 2, 0), (0, 3, 0)))) == 1


@settings(max_examples=60, deadline=None)
@given(mod_matrices())
def test_subtype_matches_span_size(mat):
    p, s = mat.params.p, mat.params.s
    counts = mx.subtype(mat)
    predicted = 1
    for i, k in enumerate(counts):
        predicted *= p ** ((s - i) * k)
    assert predicted == mx.span_size(mat)


@st.composite
def generator_rows(draw):
    """Rows over Z/8, Z/9 or Z/27 with entries p^e u, mostly non-units, in no
    normal form, so that spans of one size but different subtypes, such as
    (1, 0) and (0, 2) over Z/9, both occur."""
    params = draw(st.sampled_from((ChainRingParams(2, 3), Z9, ChainRingParams(3, 3))))
    n = draw(st.integers(1, 3))
    entry = st.builds(
        lambda e, u: params.p**e * u, st.integers(0, params.s), st.integers(1, params.modulus)
    )
    rows = draw(st.lists(st.tuples(*[entry] * n), max_size=4))
    return ModMatrix(params, n, tuple(rows))


@settings(max_examples=80, deadline=None)
@given(generator_rows())
@example(ModMatrix(Z9, 2, ((3, 1),)))
@example(ModMatrix(Z9, 2, ((3, 6), (6, 0))))
def test_subtype_matches_element_set_oracle(mat):
    elems = span_elements(mat.params, mat.n, mat.rows)
    assert mx.subtype(mat) == subtype_from_elements(mat.params, elems)


def test_module_sum():
    a = ModMatrix(Z9, 2, ((3, 0),))
    b = ModMatrix(Z9, 2, ((0, 3),))
    assert mx.module_sum(a, b).rows == ((3, 0), (0, 3))
    zero = ModMatrix.zero(Z9, 2)
    assert mx.module_sum(a, zero) == mx.howell_form(a)


def test_module_intersect_examples():
    code = ModMatrix(Z9, 3, ((1, 2, 1), (0, 3, 0)))
    other = ModMatrix(Z9, 3, ((1, 0, 0), (0, 3, 0)))
    assert mx.module_intersect(code, other).rows == ((0, 3, 0),)
    third = ModMatrix(Z9, 3, ((0, 1, 0), (3, 0, 0)))
    meet = mx.module_intersect(code, third)
    assert meet.rows == ((0, 3, 0),)
    expected = set(mx.enumerate_elements(code)) & set(mx.enumerate_elements(third))
    assert set(mx.enumerate_elements(meet)) == expected


@settings(max_examples=40, deadline=None)
@given(mod_matrices())
def test_module_identities(mat):
    full = ModMatrix.full(mat.params, mat.n)
    h = mx.howell_form(mat)
    assert mx.module_intersect(mat, full) == h
    assert mx.module_sum(mat, mat) == h


@st.composite
def codes_and_exponents(draw):
    p = draw(st.sampled_from((2, 3, 5)))
    params = ChainRingParams(p, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(0, 4))
    rows = tuple(
        tuple(draw(st.integers(0, params.modulus - 1)) for _ in range(n))
        for _ in range(k)
    )
    exponents = draw(
        st.one_of(
            st.just((0,) * n),
            st.just((params.s,) * n),
            st.tuples(*[st.integers(0, params.s)] * n),
        )
    )
    return ModMatrix(params, n, rows), exponents


@settings(max_examples=80, deadline=None)
@given(codes_and_exponents())
@example((ModMatrix.zero(Z9, 3), (0, 1, 2)))
@example((ModMatrix.full(Z9, 3), (0, 0, 0)))
@example((ModMatrix.full(Z9, 3), (2, 2, 2)))
def test_restrict_matches_module_intersect(case):
    """restrict agrees with the duality route and, on codes the invariant
    table admits, with the subtype the table reads off the valuation grid."""
    mat, exponents = case
    code = Code(mat)
    anticode = Anticode(mat.params, exponents).module()
    want = Code(mx.module_intersect(code.gen, anticode)).gen
    assert Code(mx.restrict(code.gen, exponents)).gen == want
    if code.size <= inv.DEFAULT_CENSUS_CAP:
        s, n = mat.params.s, mat.n
        cells = list(itertools.product(range(s + 1), repeat=n))
        grid = inv._meet_subtypes(code)
        assert grid[cells.index(exponents)] == Code(want).extended_subtype


def test_restrict_examples():
    code = ModMatrix(Z9, 3, ((1, 2, 1), (0, 3, 0)))
    meet = Code(mx.restrict(code, (0, 1, 0))).gen
    assert meet.rows == ((3, 0, 3), (0, 3, 0))
    expected = {x for x in mx.enumerate_elements(code) if x[1] % 3 == 0}
    assert set(mx.enumerate_elements(meet)) == expected
    zero = ModMatrix.zero(Z9, 3)
    assert mx.restrict(zero, (2, 2, 2)) is zero
    assert mx.span_size(mx.restrict(code, (2, 2, 2))) == 1
    with pytest.raises(ValueError):
        mx.restrict(code, (0, 1))


def test_submodule_census_size():
    census = mx.submodule_census(ModMatrix.full(Z9, 2))
    assert len(census) == 23
    sizes = sorted(mx.span_size(m) for m in census)
    assert sizes[0] == 1 and sizes[-1] == 81
    assert sum(sizes) == sum(
        len(span_elements(Z9, 2, m.rows)) for m in census
    )
    assert len({m.rows for m in census}) == 23


def test_submodule_census_cap(monkeypatch):
    def no_elements(*args, **kwargs):
        raise AssertionError("an element set was built")

    monkeypatch.setattr(oracle, "span_elements", no_elements)
    with pytest.raises(CapExceeded):
        mx.submodule_census(ModMatrix.full(Z9, 2), cap=10)


def test_submodule_census_is_the_oracle_census_digests():
    for mat in (
        ModMatrix.full(Z9, 2),
        ModMatrix.full(ChainRingParams(2, 2), 3),
        ModMatrix(Z9, 3, ((3, 0, 1), (0, 3, 0))),
    ):
        entries = oracle.enumerate_submodules(mat, 3**7).entries
        assert mx.submodule_census(mat) == [entry.mat for entry in entries]


def test_mixed_space_operations_rejected():
    a = ModMatrix(Z9, 2, ((1, 0),))
    b = ModMatrix(ChainRingParams(3, 1), 2, ((1, 0),))
    c = ModMatrix(Z9, 3, ((1, 0, 0),))
    with pytest.raises(ValueError):
        mx.module_sum(a, b)
    with pytest.raises(ValueError):
        mx.module_intersect(a, c)
