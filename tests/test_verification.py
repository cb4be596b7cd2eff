import sys
from collections import Counter

import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import cli
from lee_anticodes import dominance as comp
from lee_anticodes import invariants as inv
from lee_anticodes import matrices as mx
from lee_anticodes import oracle
from lee_anticodes import verification as vf
from lee_anticodes.codes import Code
from lee_anticodes.errors import InternalCheckError
from lee_anticodes.matrices import ModMatrix
from lee_anticodes.ring import ChainRingParams


def test_verify_all_passes():
    results = vf.verify_all(3, 2, 2, 3, 3)
    assert len(results) == 34
    failures = [r for r in results if not r.passed]
    assert failures == []
    assert len({r.name for r in results}) == 34


def test_verify_lattice_rectangular_case():
    # (4, 3) and the edge shapes: one part, total zero, two parts (a chain)
    for parts, total in [(4, 3), (1, 0), (1, 5), (3, 0), (2, 8)]:
        results = vf.verify_lattice(parts, total)
        assert [r.name for r in results if not r.passed] == []
        assert len(results) == 11


def test_verify_lattice_enumerates_no_chain(monkeypatch):
    def no_chains(*args, **kwargs):
        raise AssertionError("a maximal chain was enumerated")

    monkeypatch.setattr(comp, "maximal_chains", no_chains)
    monkeypatch.setattr(oracle.PosetOracle, "maximal_chains", no_chains)
    results = vf.verify_lattice(4, 3)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 11


def _joins_to_the_top(join):
    """Every pair of distinct elements joins to the top: still in L, but not
    distributive."""
    return lambda a, b: a if a == b else (sum(a),) + (0,) * (len(a) - 1)


def _joins_outside_the_lattice(join):
    return lambda a, b: join(a, b) + (0,)


@pytest.mark.parametrize(
    "plant, detail",
    [
        (_joins_to_the_top, "distributivity fails at "),
        (_joins_outside_the_lattice, "a join or meet leaves the lattice"),
    ],
)
def test_distributivity_check_names_its_failure(plant, detail, monkeypatch):
    monkeypatch.setattr(comp, "join", plant(comp.join))
    results = {r.name: r for r in vf.verify_lattice(3, 3)}
    assert results["the lattice is distributive"].detail.startswith(detail)


@pytest.mark.parametrize("answer, vector", [(False, (0, 0)), (True, (0, 1))])
def test_membership_check_names_the_least_disagreeing_vector(
    answer, vector, monkeypatch
):
    # Rejecting every vector only misses members and accepting every vector
    # only adds non-members; the zero code, first in the census, fails both.
    monkeypatch.setattr(
        Code, "contains_columns", lambda self, columns: [answer] * len(columns[0])
    )
    results = {r.name: r for r in vf.verify_counting(3, 2, 2)}
    membership = results["membership agrees with element sets"]
    assert membership.detail == f"membership disagrees for {vector} in ()"


def test_check_result_shape():
    results = vf.verify_anticodes(3, 2, 2)
    for r in results:
        assert isinstance(r.name, str) and r.name
        assert r.passed is True
        assert r.detail == ""


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _ghw_off_by_one(fields):
    def planted(code):
        out = fields(code)
        return {**out, "ghw": tuple(g + 1 for g in out["ghw"])}

    return planted


def _from_the_wrong_end(grid_pass):
    """Runs the pass on the reversed grid, so each chain is walked from e_t = s."""
    return lambda grid, n, s: grid_pass(grid[::-1], n, s)[::-1]


def _top_rank_off_by_one(walk):
    """Adds one to the last entry of every bracket row, the rank-jmax count."""

    def planted(ext, q, jmax):
        row = walk(ext, q, jmax)
        return row[:-1] + [row[-1] + 1]

    return planted


def _inverts_the_first_coordinate_only(inversion_pass):
    """Leaves the rows as they are on every pass after the first."""
    return lambda rows, shapes, n, t: rows if t else inversion_pass(rows, shapes, n, t)


def _clamps_one_below(clamped):
    """Clamps at floor - 1, so each level is read one cell too low."""
    return lambda grid, n, s, floor: clamped(grid, n, s, max(floor - 1, 0))


def _swaps_two_digit_weights(shape_codes):
    """Weighs digit 0 as (n+1)^1 and digit 1 as (n+1)^0: each cell's code is
    that of its shape with a_0 and a_1 swapped."""

    def planted(n, s):
        base = n + 1
        return [x + (x % base - x // base % base) * n for x in shape_codes(n, s)]

    return planted


def _swaps_first_two_parts(subtype):
    def planted(levels, n):
        ext = subtype(levels, n)
        return (ext[1], ext[0]) + ext[2:]

    return planted


def _reads_one_level_down(filtration_subtype):
    """Reads the size filtration of p M in place of that of M."""
    return lambda params, module, times_p: filtration_subtype(
        params, set(map(times_p, module)), times_p
    )


def _one_free_weight_off(fields):
    """Moves the first free r-weight of the full code one coordinate up."""

    def planted(code):
        out = fields(code)
        if code.size == code.params.modulus**code.n:
            first, *rest = out["r_weights_free"]
            out = {**out, "r_weights_free": ((first[0] + 1, *first[1:]), *rest)}
        return out

    return planted


def _optimal_off_by_one(_is_optimal):
    return lambda code, metric, cap=None: code.size == ac.hull(code).size + 1


def _negates_each(method):
    return lambda self, columns: [not x for x in method(self, columns)]


def _drops_last_column(column_weights):
    return lambda params, columns, metric: column_weights(params, columns[:-1], metric)


def _drops_last_generator(restrict):
    def planted(mat, exponents):
        meet = restrict(mat, exponents)
        return ModMatrix(meet.params, meet.n, meet.rows[:-1])

    return planted


def _lowers_a_positive_exponent(hull):
    def planted(code):
        exps = list(hull(code).exponents)
        t = next((t for t, e in enumerate(exps) if e), None)
        if t is not None:
            exps[t] -= 1
        return ac.Anticode(code.params, tuple(exps))

    return planted


def _skips_one_lower_cover(down_sets):
    """Closes each census entry's down-set over all but its first lower cover."""
    return lambda covers: down_sets([below[1:] for below in covers])


def _drops_last_kernel_row(kernel):
    def planted(mat):
        ker = kernel(mat)
        return ModMatrix(ker.params, ker.n, ker.rows[:-1])

    return planted


TABLES = "invariant tables satisfy both identities"
KERNELS = "kernels pair sizes and reverse subtypes"
RANK_IDENTITY = "intersection rank matches dual-sum free rank"

# Each production route with one planted fault: (owner, attribute, fault,
# the suite that keeps the second route, the check that must catch it).
PLANTED = {
    "bracket_walk": (
        inv, "_bracket_moments", _top_rank_off_by_one, "invariants", TABLES,
    ),
    "suffix_sums": (inv, "_suffix_sums", _from_the_wrong_end, "invariants", TABLES),
    "subtype_from_sizes": (
        inv, "_subtype_from_sizes", _swaps_first_two_parts, "invariants", TABLES,
    ),
    "clamped": (inv, "_clamped", _clamps_one_below, "invariants", TABLES),
    "shape_codes": (
        inv, "_shape_codes", _swaps_two_digit_weights, "invariants", TABLES,
    ),
    "restrict": (mx, "restrict", _drops_last_generator, "invariants", TABLES),
    "chain_bracket_counting": (
        inv, "chain_bracket", _off_by_one, "counting",
        "brackets count submodules on every parent",
    ),
    "down_sets": (
        oracle, "_down_sets", _skips_one_lower_cover, "counting",
        "brackets count submodules on every parent",
    ),
    "down_sets_tables": (
        oracle, "_down_sets", _skips_one_lower_cover, "invariants", TABLES,
    ),
    "down_sets_containment": (
        oracle, "_down_sets", _skips_one_lower_cover, "anticodes",
        "containment agrees with module inclusion",
    ),
    "count_containing": (inv, "count_containing", _off_by_one, "invariants", TABLES),
    "inversion_coefficient": (
        inv, "inversion_coefficient", _off_by_one, "invariants", TABLES,
    ),
    "inversion": (inv, "_inversion", _off_by_one, "invariants", TABLES),
    "inversion_pass": (
        inv, "_inversion_pass", _inverts_the_first_coordinate_only, "invariants", TABLES,
    ),
    "count_inside": (
        inv, "count_inside", _off_by_one, "invariants",
        "pair counts match double enumeration",
    ),
    "ghw": (
        inv, "r_weight_fields", _ghw_off_by_one, "invariants",
        "ghw matches brute support minima",
    ),
    "free_rank": (mx, "free_rank", _off_by_one, "invariants", RANK_IDENTITY),
    "kernel_counting": (mx, "kernel", _drops_last_kernel_row, "counting", KERNELS),
    "kernel_invariants": (
        mx, "kernel", _drops_last_kernel_row, "invariants", RANK_IDENTITY,
    ),
    "contains_columns": (
        Code, "contains_columns", _negates_each, "counting",
        "membership agrees with element sets",
    ),
    "is_optimal": (
        ac, "is_optimal", _optimal_off_by_one, "anticodes",
        "lee optimality routes agree everywhere",
    ),
    "ideal_max_lee": (
        ChainRingParams, "ideal_max_lee", _off_by_one, "anticodes",
        "lee bound holds on the census",
    ),
    "hamming_bound": (
        ac, "hamming_bound", _off_by_one, "anticodes",
        "hamming bound holds on the census",
    ),
    "hom_bound_scaled": (
        ac, "hom_bound_scaled", _off_by_one, "anticodes",
        "homogeneous bound holds on the census",
    ),
    "hull": (
        ac, "hull", _lowers_a_positive_exponent, "anticodes",
        "hull is the minimal covering anticode",
    ),
    "column_weights": (
        vf, "column_weights", _drops_last_column, "anticodes",
        "lee bound holds on the census",
    ),
    "filtration": (
        oracle, "_filtration_subtype", _reads_one_level_down, "counting",
        "systematic subtypes match the size filtration",
    ),
    "r_weights_free": (
        inv, "r_weight_fields", _one_free_weight_off, "invariants",
        "equal r-weights force equal free r-weights",
    ),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_fails_its_check(fault, monkeypatch, capsys):
    owner, attr, plant, scope, name = PLANTED[fault]
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    results = {r.name: r for r in getattr(vf, f"verify_{scope}")(3, 2, 2)}
    assert not results[name].passed
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", scope, "--format", "text"]) == 3
    assert f"FAIL {name}:" in capsys.readouterr().out


def test_verify_all_builds_one_census(monkeypatch, capsys):
    built, census = [], oracle.enumerate_submodules

    def counted(mat, *args, **kwargs):
        built.append((mat.params, mat.n))
        return census(mat, *args, **kwargs)

    monkeypatch.setattr(oracle, "enumerate_submodules", counted)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "all"]) == 0
    assert built == [(ChainRingParams(3, 2), 2)]


def test_packed_addition_without_its_mod_correction_fails_the_census(
    monkeypatch, capsys
):
    # Not in PLANTED: no check runs, because the census raises before any.
    packing = oracle._packing

    def no_correction(m, n):
        pack, unpack, _ = packing(m, n)
        return pack, unpack, lambda elems, x: {e + x for e in elems}

    monkeypatch.setattr(oracle, "_packing", no_correction)
    with pytest.raises(InternalCheckError, match="leaves its parent"):
        vf.verify_counting(3, 2, 2)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "counting", "--format", "text"]) == 3
    assert "internal check failed: a census module" in capsys.readouterr().err


def test_socle_missing_a_row_fails_the_tables_check(monkeypatch, capsys):
    # Only the socle C cap p^(s-1)R^n loses a generator; every other
    # restriction is left whole.
    restrict = mx.restrict

    def drops_a_socle_row(mat, exponents):
        meet = restrict(mat, exponents)
        if set(exponents) == {mat.params.s - 1}:
            return ModMatrix(meet.params, meet.n, meet.rows[:-1])
        return meet

    monkeypatch.setattr(mx, "restrict", drops_a_socle_row)
    tables = {r.name: r for r in vf.verify_invariants(3, 2, 2)}[TABLES]
    assert not tables.passed and tables.detail.startswith("socle of F_p rank")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "invariants", "--format", "text"]) == 3
    assert f"FAIL {TABLES}: socle of F_p rank" in capsys.readouterr().out


@pytest.mark.parametrize("p", [3, 2])
def test_verify_anticodes_enumerates_no_codeword(p, monkeypatch):
    def no_codewords(*args, **kwargs):
        raise AssertionError("a codeword was enumerated")

    monkeypatch.setattr(mx, "element_columns", no_codewords)
    monkeypatch.setattr(mx, "enumerate_elements", no_codewords)
    results = vf.verify_anticodes(p, 2, 2)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == (9 if p == 3 else 6)


def test_anticode_outside_the_census_fails_containment(monkeypatch, capsys):
    # The same module, but its rows reversed, which is not a Howell form.
    module = ac.Anticode.module

    def reversed_rows(self):
        mat = module(self)
        return ModMatrix(mat.params, mat.n, mat.rows[::-1])

    monkeypatch.setattr(ac.Anticode, "module", reversed_rows)
    name = "containment agrees with module inclusion"
    results = {r.name: r for r in vf.verify_anticodes(3, 2, 2)}
    assert not results[name].passed
    assert results[name].detail == "anticode (0, 0) is not a census module"
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "anticodes", "--format", "text"]) == 3
    assert f"FAIL {name}: anticode (0, 0)" in capsys.readouterr().out
    # The invariant checks that read an anticode's down-set fail the same way.
    names = [TABLES, RANK_IDENTITY]
    results = {r.name: r for r in vf.verify_invariants(3, 2, 2)}
    for name in names:
        assert results[name].detail == "anticode (0, 0) is not a census module"
    assert cli.main(["verify", "invariants", "--format", "text"]) == 3
    out = capsys.readouterr().out
    assert all(f"FAIL {name}: anticode (0, 0)" in out for name in names)


def test_kernel_outside_the_census_fails_both_kernel_checks(monkeypatch, capsys):
    # The kernel of the zero module, R^2, with its rows reversed: the same
    # module, but no Howell form, so no census digest.
    kernel = mx.kernel

    def reversed_rows(mat):
        ker = kernel(mat)
        return ModMatrix(ker.params, ker.n, ker.rows[::-1])

    monkeypatch.setattr(mx, "kernel", reversed_rows)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    for scope, name in [("counting", KERNELS), ("invariants", RANK_IDENTITY)]:
        results = {r.name: r for r in getattr(vf, f"verify_{scope}")(3, 2, 2)}
        assert results[name].detail == "kernel of () is not a census module"
        assert cli.main(["verify", scope, "--format", "text"]) == 3
        assert f"FAIL {name}: kernel of ()" in capsys.readouterr().out


def _called_from(name: str) -> bool:
    """Whether a function called name is on the stack above the caller."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != name:
        frame = frame.f_back
    return frame is not None


def test_rank_identity_makes_one_kernel_and_free_rank_per_entry(monkeypatch):
    # The dual sum of each (code, anticode) pair is read off the kernel map,
    # so no pair sweeps or validates a matrix of its own.
    census = oracle.enumerate_submodules(ModMatrix.full(ChainRingParams(3, 2), 2))
    calls = Counter()
    for name in ("kernel", "free_rank"):

        def counted(mat, original=getattr(mx, name), name=name):
            calls[name] += 1
            return original(mat)

        monkeypatch.setattr(mx, name, counted)
    entered = []
    post_init = ModMatrix.__post_init__

    def traced(self):
        entered.append(_called_from("check_rank_identity"))
        post_init(self)

    monkeypatch.setattr(ModMatrix, "__post_init__", traced)
    assert all(r.passed for r in vf.verify_invariants(3, 2, 2))
    assert 0 < calls["kernel"] <= len(census)
    assert 0 < calls["free_rank"] <= len(census)
    assert entered and not any(entered)


@pytest.mark.parametrize("p, s", [(3, 2), (2, 3), (5, 1)])
def test_census_suites_pass_at_length_one(p, s):
    for suite in (vf.verify_counting, vf.verify_anticodes, vf.verify_invariants):
        assert [r.name for r in suite(p, s, 1) if not r.passed] == []


def test_verify_invariants_builds_each_table_once(monkeypatch):
    calls = {"build_invariant_table": [], "r_weight_free": []}
    for name, seen in calls.items():
        original = getattr(inv, name)

        def counted(code, *args, original=original, seen=seen):
            seen.append(code)
            return original(code, *args)

        monkeypatch.setattr(inv, name, counted)
    results = vf.verify_invariants(3, 2, 2)
    assert all(r.passed for r in results)
    codes = list(oracle.enumerate_codes(2, ChainRingParams(3, 2)))
    for seen in calls.values():
        assert sorted(seen, key=lambda c: c.gen.rows) == sorted(
            codes, key=lambda c: c.gen.rows
        )


def test_ghw_checked_for_p_2():
    results = {r.name: r for r in vf.verify_invariants(2, 2, 2)}
    assert results["ghw matches brute support minima"].passed
    assert all(r.passed for r in results.values())


def test_chain_count_fault_fails_the_chains_check(monkeypatch, capsys):
    # Not in PLANTED, which runs each suite as (3, 2, 2): a cap of 2 for
    # verify_lattice.
    monkeypatch.setattr(
        comp, "maximal_chain_count", _off_by_one(comp.maximal_chain_count)
    )
    results = {r.name: r for r in vf.verify_lattice(3, 3)}
    assert not results["maximal chains have the uniform length"].passed
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "lattice", "--format", "text"]) == 3
    assert "FAIL maximal chains have the uniform length:" in capsys.readouterr().out


def test_chain_length_fault_fails_the_chains_check(monkeypatch, capsys):
    monkeypatch.setattr(
        comp, "maximal_chain_length", _off_by_one(comp.maximal_chain_length)
    )
    results = {r.name: r for r in vf.verify_lattice(3, 3)}
    chains = results["maximal chains have the uniform length"]
    assert not chains.passed and chains.detail.startswith("chain lengths 6 to 6")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    assert cli.main(["verify", "lattice", "--format", "text"]) == 3
    assert "FAIL maximal chains have the uniform length:" in capsys.readouterr().out


def _per_family_tables(params, subs, comps):
    """B and W the way check_tables once counted them: every (rank, floor)
    class of subcodes against every member of every family."""
    want_b, want_w = Counter(), Counter()
    for a in comps:
        for A in ac.family(a, params):
            e = A.exponents
            for (r, floor), count in subs.items():
                if all(x >= y for x, y in zip(floor, e)):
                    want_b[a, r] += count
                    if floor == e:
                        want_w[a, r] += count
    return want_b, want_w


def _subcode_classes(params, census, census_inside):
    """For each census entry C, how many entries inside C have each (rank,
    floor), by subset tests and valuations on element sets alone."""
    entries, coords = census.entries, range(census.parent.n)
    floors = [
        tuple(min(params.valuation(v[t]) for v in d.elements) for t in coords)
        for d in entries
    ]
    return [
        Counter((entries[j].rank, floors[j]) for j in inside)
        for inside in census_inside(census)
    ]


@pytest.mark.parametrize("p, s, n", [(3, 2, 2), (2, 3, 2), (2, 1, 4)])
def test_census_references_match_the_per_family_loop(p, s, n, census_inside):
    params = ChainRingParams(p, s)
    census = oracle.enumerate_submodules(ModMatrix.full(params, n))
    comps = comp.compositions(s + 1, n)
    floors = vf._element_floors(params, census)
    tables = vf._down_set_tables(census, floors, oracle.enumerate_anticodes(n, params))
    classes = _subcode_classes(params, census, census_inside)
    for subs, (b_ref, w_ref) in zip(classes, tables, strict=True):
        assert (b_ref, w_ref) == _per_family_tables(params, subs, comps)


def test_census_meet_ranks_match_restrict():
    # C cap A is the highest bit of down(C) & down(A).
    params = ChainRingParams(3, 2)
    census = oracle.enumerate_submodules(ModMatrix.full(params, 2))
    anticodes = oracle.enumerate_anticodes(2, params)
    downs = [census.down[i] for i in vf._census_positions(census, anticodes)]
    for entry, d in zip(census.entries, census.down):
        meet = {
            A.exponents: census.entries[(d & a).bit_length() - 1].rank
            for A, a in zip(anticodes, downs)
        }
        assert sorted(meet) == [A.exponents for A in anticodes]
        for A in anticodes:
            assert meet[A.exponents] == mx.rank(mx.restrict(entry.mat, A.exponents))
