import hashlib
import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lee_anticodes import invariants as inv
from lee_anticodes import matrices, oracle
from lee_anticodes.anticodes import Anticode, exponent_vectors, family, family_size, hull
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


def test_gaussian_binomial_and_bracket_at_long_lengths():
    assert inv.gaussian_binomial(1500, 1, 2) == 2**1500 - 1
    count = inv.chain_bracket((1500, 0), (1497, 3), 3)
    assert count > 0
    assert count * 2 * 8 * 26 == (3**1500 - 1) * (3**1499 - 1) * (3**1498 - 1)


def test_chain_bracket_values():
    assert inv.chain_bracket((1, 1, 1), (0, 1, 2), 3) == 4
    assert inv.chain_bracket((0, 2, 1), (0, 1, 2), 3) == 4
    assert inv.chain_bracket((2, 0, 1), (1, 2, 0), 3) == 0
    for a in compositions(3, 3):
        assert inv.chain_bracket(a, a, 3) == 1
        assert inv.chain_bracket(a, (0, 0, 3), 3) == 1


@st.composite
def bracket_rows(draw):
    """(ext, q, jmax): an extended subtype of n <= 7 into s + 1 <= 6 parts,
    a residue field size and a top rank up to n + 1."""
    s = draw(st.integers(1, 5))
    n = draw(st.integers(0, 7))
    ext = draw(st.sampled_from(compositions(s + 1, n)))
    return ext, draw(st.sampled_from((2, 3, 5, 7))), draw(st.integers(0, n + 1))


@settings(max_examples=150, deadline=None)
@given(bracket_rows())
@example(((0, 0, 0, 0, 0, 7), 7, 7))
@example(((2, 1, 0, 3, 1, 0), 2, 8))
def test_bracket_walk_matches_the_sum_over_shapes(case):
    ext, q, jmax = case
    n, s = sum(ext), len(ext) - 1
    want = [0] * (jmax + 1)
    for b in compositions(s + 1, n):
        if n - b[s] <= jmax:
            want[n - b[s]] += inv.chain_bracket(ext, b, q)
    assert inv._bracket_moments(ext, q, jmax) == want


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
    assert inv.r_weight_fields(full)["ghw"] == (1, 2, 3)


def test_r_weights_example(ghw_by_elements):
    c = Code.from_rows(Z9, 3, [(1, 0, 0), (0, 3, 0)])
    assert inv.r_weight(c) == ((0, 1, 2), (0, 2, 1))
    assert inv.r_weight_fields(c)["ghw"] == (1, 2)
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
def test_grid_subtypes_match_restriction(p, s, n):
    """The subtype the table reads off |C cap A_e| alone is that of the
    restriction, for every code and every anticode."""
    params = ChainRingParams(p, s)
    cells = list(itertools.product(range(s + 1), repeat=n))
    for code in oracle.enumerate_codes(n, params):
        grid = inv._meet_subtypes(code)
        assert len(grid) == len(cells)
        for e, ext in zip(cells, grid):
            assert ext == Code(matrices.restrict(code.gen, e)).extended_subtype, (
                code.gen.rows, e,
            )


# (Z/9)^3, (Z/8)^2, F_2^4, (Z/4)^3, (Z/25)^2 and (Z/27)^2.
WIDE_CENSUSES = [(3, 2, 3), (2, 3, 2), (2, 1, 4), (2, 2, 3), (5, 2, 2), (3, 3, 2)]


@pytest.mark.parametrize("p, s, n", WIDE_CENSUSES)
def test_cell_counts_match_a_count_per_word(p, s, n):
    """The histogram folded over the columns of C counts each element of the
    oracle's element set once, in the cell of its valuation vector."""
    params = ChainRingParams(p, s)
    census = oracle.enumerate_submodules(matrices.ModMatrix.full(params, n))
    for entry in census.entries:
        want = [0] * (s + 1) ** n
        for word in entry.elements:
            cell = 0
            for x in word:
                cell = cell * (s + 1) + params.valuation(x)
            want[cell] += 1
        assert inv._cell_counts(Code(entry.mat), inv.DEFAULT_CENSUS_CAP) == want


def _tables_by_cells(code: Code) -> tuple[dict, dict]:
    """B and W summed over each family cell by cell, W at the cell e by its
    definition: the sum over the sets T of coordinates with e_t < s of
    (-1)^|T| B(e + 1_T)."""
    params, n, jmax = code.params, code.n, code.rank
    s = params.s
    cells = list(itertools.product(range(s + 1), repeat=n))
    rows = {
        e: inv._bracket_moments(ext, params.p, jmax)
        for e, ext in zip(cells, inv._meet_subtypes(code))
    }
    keys = [(a, j) for a in compositions(s + 1, n) for j in range(jmax + 1)]
    moments, weights = dict.fromkeys(keys, 0), dict.fromkeys(keys, 0)
    for e in cells:
        a = tuple(e.count(d) for d in range(s + 1))
        steps = [(0, 1) if x < s else (0,) for x in e]
        raised = [
            ((-1) ** sum(delta), rows[tuple(map(sum, zip(e, delta)))])
            for delta in itertools.product(*steps)
        ]
        for j in range(jmax + 1):
            moments[(a, j)] += rows[e][j]
            weights[(a, j)] += sum(sign * row[j] for sign, row in raised)
    return moments, weights


def _wide_codes():
    for p, s, n in WIDE_CENSUSES:
        yield from oracle.enumerate_codes(n, ChainRingParams(p, s))
    # The full module of F_11^3: brackets up to its 133 lines and planes,
    # the largest of these spaces.
    yield Code.full(ChainRingParams(11, 1), 3)


def test_table_matches_the_per_cell_reference():
    for code in _wide_codes():
        table = inv.build_invariant_table(code)
        moments, weights = _tables_by_cells(code)
        assert table.binomial_moments == moments, code.gen.rows
        assert table.weight_distributions == weights, code.gen.rows


@st.composite
def anticode_grids(draw):
    """(n, s, grid): random integers on the cells {0..s}^n, 1 <= n <= 6,
    1 <= s <= 4 and (s+1)^n <= 4096, drawn from a seeded generator."""
    s = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6).filter(lambda n: (s + 1) ** n <= 4096))
    rng = draw(st.randoms(use_true_random=False))
    return n, s, [rng.randint(-50, 50) for _ in range((s + 1) ** n)]


@settings(max_examples=40, deadline=None)
@given(anticode_grids())
@example((1, 3, [5, -2, 7, 1]))
@example((3, 1, [4, 0, -3, 8, 2, 9, -1, 6]))
def test_sweeps_match_the_per_cell_definitions(case):
    n, s, grid = case
    cells = list(itertools.product(range(s + 1), repeat=n))
    at = dict(zip(cells, grid))
    before = list(grid)
    sums = inv._suffix_sums(grid, n, s)
    assert sums == [
        sum(at[f] for f in itertools.product(*(range(x, s + 1) for x in e)))
        for e in cells
    ]
    for floor in range(s + 1):
        assert inv._clamped(grid, n, s, floor) == [
            at[tuple(max(x, floor) for x in e)] for e in cells
        ]
    # _meet_subtypes clamps one grid s - 1 times, so no pass may change the
    # list it is given.
    assert grid == before
    for e, code in zip(cells, inv._shape_codes(n, s)):
        assert [code // (n + 1) ** d % (n + 1) for d in range(s + 1)] == [
            e.count(d) for d in range(s + 1)
        ]


def test_sweeps_at_one_coordinate_and_at_s_1():
    # n = 1, s = 2: the cells e = 0, 1, 2.
    assert inv._suffix_sums([3, 5, 7], 1, 2) == [15, 12, 7]
    assert [inv._clamped([3, 5, 7], 1, 2, f) for f in range(3)] == [
        [3, 5, 7], [5, 5, 7], [7, 7, 7],
    ]
    assert inv._shape_codes(1, 2) == [1, 2, 4]
    # n = 2, s = 1: the cells 00, 01, 10, 11.
    assert inv._suffix_sums([1, 2, 4, 8], 2, 1) == [15, 10, 12, 8]
    assert inv._clamped([1, 2, 4, 8], 2, 1, 0) == [1, 2, 4, 8]
    assert inv._clamped([1, 2, 4, 8], 2, 1, 1) == [8, 8, 8, 8]
    assert inv._shape_codes(2, 1) == [2, 4, 4, 6]


def _free_shape(m: int, s: int, n: int) -> tuple[int, ...]:
    return (m,) + (0,) * (s - 1) + (n - m,)


@pytest.mark.parametrize("p, s, n", WIDE_CENSUSES)
def test_socle_walk_matches_element_set_supports(p, s, n, ghw_by_elements):
    """On every code of (Z/9)^3, (Z/8)^2, F_2^4, (Z/4)^3, (Z/25)^2 and
    (Z/27)^2, the m of the r-th free R-weight is the least Hamming support
    of a rank-r subcode in the element-set census."""
    for code in oracle.enumerate_codes(n, ChainRingParams(p, s)):
        want = tuple(_free_shape(m, s, n) for m in ghw_by_elements(code))
        assert inv.r_weight_free(code) == want, code.gen.rows


def _free_walk_by_restriction(code: Code) -> tuple[tuple[int, ...], ...]:
    """The free R-weights by definition: the family rank of each free shape
    is the largest rank(C cap A) over its exponent vectors, one restriction
    over Z/p^s each."""
    s, n = code.params.s, code.n
    out: list = []
    for m in range(n + 1):
        a = _free_shape(m, s, n)
        rank = max(
            matrices.rank(matrices.restrict(code.gen, e)) for e in exponent_vectors(a)
        )
        out.extend([a] * (rank - len(out)))
    return tuple(out)


@st.composite
def random_codes(draw):
    """A code of length up to 7 from up to four random rows, each scaled by
    a random power of p so that non-free subtypes are common."""
    p, s = draw(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2), (7, 2)])
    )
    params = ChainRingParams(p, s)
    n = draw(st.integers(1, 7))
    rows = [
        tuple(
            p ** draw(st.integers(0, s)) * draw(st.integers(0, params.modulus - 1))
            for _ in range(n)
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return Code.from_rows(params, n, rows)


@settings(max_examples=80, deadline=None)
@given(random_codes())
def test_socle_walk_matches_restriction_walk(code):
    assert inv.r_weight_free(code) == _free_walk_by_restriction(code), code.gen.rows


def test_socle_walk_restricts_once_per_code(monkeypatch):
    """The walk, and with it the table, meets each code with its socle
    anticode (s-1, ..., s-1) once and with no other anticode."""
    codes = [
        *oracle.enumerate_codes(2, Z9),
        Code.from_rows(ChainRingParams(2, 3), 4, [(1, 2, 4, 0), (0, 2, 6, 4)]),
        Code.from_rows(ChainRingParams(3, 1), 6, [(1, 1, 1, 1, 1, 1)]),
    ]
    calls = []
    restrict = matrices.restrict

    def counted(mat, exponents):
        calls.append(tuple(exponents))
        return restrict(mat, exponents)

    monkeypatch.setattr(matrices, "restrict", counted)
    for code in codes:
        socle = [(code.params.s - 1,) * code.n]
        for route in (inv.r_weight_free, inv.build_invariant_table):
            calls.clear()
            route(code)
            assert calls == socle, (route.__name__, code.gen.rows)


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
        ghw = inv.r_weight_fields(code)["ghw"]
        assert ghw == table.ghw == tuple(a[0] for a in want_free)
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
    B, W = table.binomial_moments, table.weight_distributions
    shapes = list(compositions(3, 3))
    for a in shapes:
        below = [b for b in shapes if dominance_leq(b, a)]
        for j in range(table.rank + 1):
            assert B[(a, j)] == sum(inv.count_containing(b, a) * W[(b, j)] for b in below)
            assert W[(a, j)] == sum(inv.inversion_coefficient(b, a) * B[(b, j)] for b in below)


def test_table_digest_identifies_code():
    a = inv.build_invariant_table(example_code())
    b = inv.build_invariant_table(example_code())
    other = inv.build_invariant_table(Code.from_rows(Z9, 3, [(1, 0, 0)]))
    assert a.digest == b.digest
    assert a.digest != other.digest


@settings(max_examples=60, deadline=None)
@given(
    random_codes().filter(
        lambda code: (code.params.s + 1) ** code.n <= 256
        and code.size <= inv.DEFAULT_CENSUS_CAP
    )
)
def test_table_digest_is_sha256_of_canonical_matrix(code):
    """The builtin SHA-256 module gives the bytes hashlib's would."""
    text = matrices.format_matrix(code.gen)
    want = hashlib.sha256(text.encode()).hexdigest()
    assert inv.build_invariant_table(code).digest == want, text


def test_table_json_dict():
    table = inv.build_invariant_table(example_code())
    payload = inv.table_json_dict(table)
    json.dumps(payload)
    assert len(payload["entries"]) == 30
    first = payload["entries"][0]
    assert first["a"] == [0, 0, 3]
    assert first["j"] == 0


@pytest.mark.parametrize("p, s, n", CENSUSES)
def test_hull_shape_is_the_support_subtype(p, s, n):
    for code in oracle.enumerate_codes(n, ChainRingParams(p, s)):
        assert code.support_subtype == hull(code).extended_subtype, code.gen.rows
