import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import cli
from lee_anticodes import invariants as inv
from lee_anticodes import matrices as mx
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
    results = vf.verify_lattice(4, 3)
    assert all(r.passed for r in results)
    assert len(results) == 11


def test_check_result_shape():
    results = vf.verify_anticodes(3, 2, 2)
    for r in results:
        assert isinstance(r.name, str) and r.name
        assert r.passed is True
        assert r.detail == ""


def _off_by_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def _each_off_by_one(fn):
    return lambda *args: tuple(x + 1 for x in fn(*args))


def _mobius_skips_top_step(terms):
    return lambda exponents, s: terms(exponents, s - 1)


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
    "mobius": (inv, "_mobius_terms", _mobius_skips_top_step, "invariants", TABLES),
    "restrict": (mx, "restrict", _drops_last_generator, "invariants", TABLES),
    "count_containing": (inv, "count_containing", _off_by_one, "invariants", TABLES),
    "inversion_coefficient": (
        inv, "inversion_coefficient", _off_by_one, "invariants", TABLES,
    ),
    "count_inside": (
        inv, "count_inside", _off_by_one, "invariants",
        "pair counts match double enumeration",
    ),
    "ghw": (
        inv, "ghw", _each_off_by_one, "invariants", "ghw matches brute support minima",
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
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_fails_its_check(fault, monkeypatch, capsys):
    owner, attr, plant, scope, name = PLANTED[fault]
    monkeypatch.setattr(owner, attr, plant(getattr(owner, attr)))
    # Earlier tests leave correct intersections in the production cache.
    inv._intersection_cached.cache_clear()
    try:
        results = {r.name: r for r in getattr(vf, f"verify_{scope}")(3, 2, 2)}
        assert not results[name].passed
        monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
        assert cli.main(["verify", scope, "--format", "text"]) == 3
        assert f"FAIL {name}:" in capsys.readouterr().out
    finally:
        inv._intersection_cached.cache_clear()


def test_ghw_checked_for_p_2():
    results = {r.name: r for r in vf.verify_invariants(2, 2, 2)}
    assert results["ghw matches brute support minima"].passed
    assert all(r.passed for r in results.values())
