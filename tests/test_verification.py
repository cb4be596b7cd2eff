import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import cli
from lee_anticodes import dominance as comp
from lee_anticodes import invariants as inv
from lee_anticodes import matrices as mx
from lee_anticodes import oracle
from lee_anticodes import verification as vf
from lee_anticodes.codes import Code
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


def _swaps_first_two_parts(subtype):
    def planted(levels, n):
        ext = subtype(levels, n)
        return (ext[1], ext[0]) + ext[2:]

    return planted


def _optimal_off_by_one(_is_optimal):
    return lambda code, metric, cap=None: code.size == ac.hull(code).size + 1


def _negated(method):
    return lambda self, *args: not method(self, *args)


def _drops_last_generator(restrict):
    def planted(mat, exponents):
        meet = restrict(mat, exponents)
        return ModMatrix(meet.params, meet.n, meet.rows[:-1])

    return planted


TABLES = "invariant tables satisfy both identities"

# Each production route with one planted fault: (owner, attribute, fault,
# the suite that keeps the second route, the check that must catch it).
PLANTED = {
    "chain_bracket": (inv, "chain_bracket", _off_by_one, "invariants", TABLES),
    "suffix_sums": (inv, "_suffix_sums", _from_the_wrong_end, "invariants", TABLES),
    "subtype_from_sizes": (
        inv, "_subtype_from_sizes", _swaps_first_two_parts, "invariants", TABLES,
    ),
    "differences": (inv, "_differences", _from_the_wrong_end, "invariants", TABLES),
    "restrict": (mx, "restrict", _drops_last_generator, "invariants", TABLES),
    "chain_bracket_counting": (
        inv, "chain_bracket", _off_by_one, "counting",
        "brackets count submodules on every parent",
    ),
    "count_containing": (inv, "count_containing", _off_by_one, "invariants", TABLES),
    "inversion_coefficient": (
        inv, "inversion_coefficient", _off_by_one, "invariants", TABLES,
    ),
    "count_inside": (
        inv, "count_inside", _off_by_one, "invariants",
        "pair counts match double enumeration",
    ),
    "ghw": (
        inv, "r_weight_fields", _ghw_off_by_one, "invariants",
        "ghw matches brute support minima",
    ),
    "free_rank": (
        mx, "free_rank", _off_by_one, "invariants",
        "intersection rank matches dual-sum free rank",
    ),
    "contains_vector": (
        Code, "contains_vector", _negated, "counting",
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


@pytest.mark.parametrize("p", [3, 2])
def test_verify_anticodes_enumerates_no_codeword(p, monkeypatch):
    def no_codewords(*args, **kwargs):
        raise AssertionError("a codeword was enumerated")

    monkeypatch.setattr(Code, "codewords", no_codewords)
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
