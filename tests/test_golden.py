"""Golden outputs of the command line: every subcommand, action and format.

Each case runs `cli.main` in this process on a fixed argument list and
compares its stdout byte for byte with `golden/<case>.out`, and its exit code
and stderr with the entry for the case in `golden/status.json`. The inputs
are the matrix files under `golden/inputs`: a mixed code, a free code, the
rank-0 code and a code over Z/4 (p = 2).

After an intended change of output, record the files again with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import cli, matrices
from lee_anticodes import invariants as inv

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
STATUS = GOLDEN / "status.json"

FORMATS = (None, "json", "text", "csv", "dot")
MATRICES = ("mixed", "free", "zero", "even")
LATTICE = ("--parts", "3", "--sum", "3")


def _with_format(name, argv, fmt):
    if fmt is None:
        return f"{name}-default", argv
    return f"{name}-{fmt}", argv + ("--format", fmt)


def _cases():
    cases = []
    for action in ("enum", "hasse", "mobius", "covers", "chains"):
        argv = ("lattice",) + LATTICE + (action,)
        for fmt in FORMATS:
            cases.append(_with_format(f"lattice-{action}", argv, fmt))
    for matrix in MATRICES:
        path = f"{{{matrix}}}"
        for action in ("analyze", "dual", "distance", "optimal"):
            for fmt in FORMATS:
                argv = ("code", path, action)
                cases.append(_with_format(f"code-{matrix}-{action}", argv, fmt))
        for action in ("distance", "optimal"):
            for fmt in FORMATS:
                argv = ("code", path, action, "--metric", "lee")
                cases.append(_with_format(f"code-{matrix}-{action}-lee", argv, fmt))
        for action in ("moments", "distribution", "rweights", "ghw"):
            for fmt in FORMATS:
                argv = ("invariants", path, action)
                cases.append(_with_format(f"invariants-{matrix}-{action}", argv, fmt))
    for scope in ("lattice", "counting", "anticodes", "invariants", "all"):
        for fmt in FORMATS:
            cases.append(_with_format(f"verify-{scope}", ("verify", scope), fmt))
    cases.append(("lattice-enum-cap", ("lattice",) + LATTICE + ("enum", "--cap", "5")))
    cases.append(("lattice-usage", ("lattice", "--parts", "3", "enum")))
    return cases


CASES = dict(_cases())


def _run(argv):
    paths = {matrix: str(INPUTS / f"{matrix}.txt") for matrix in MATRICES}
    argv = [arg.format(**paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def fixed_env(monkeypatch):
    # argparse wraps usage lines at the terminal width it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)


def _check(name):
    recorded = json.loads(STATUS.read_text())[name]
    status, out, err = _run(CASES[name])
    with open(GOLDEN / f"{name}.out", encoding="utf-8", newline="") as handle:
        assert out == handle.read()
    assert [status, err] == recorded


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, fixed_env):
    _check(name)


@pytest.mark.parametrize("action", ["moments", "distribution", "rweights", "ghw"])
def test_invariants_take_no_census(action, fixed_env, monkeypatch):
    """The invariants come from closed forms; the census is only the oracle."""

    def no_census(*args, **kwargs):
        raise AssertionError("submodule census started")

    monkeypatch.setattr(matrices, "submodule_census", no_census)
    monkeypatch.setattr(inv, "_subcode_stats", no_census)
    _check(f"invariants-mixed-{action}-default")


@pytest.mark.parametrize("action", ["moments", "distribution", "rweights", "ghw"])
def test_invariants_intersect_by_restriction(action, fixed_env, monkeypatch):
    """C cap A is one restriction; the duality route is only the oracle's."""

    def no_duality(*args, **kwargs):
        raise AssertionError("duality route started")

    monkeypatch.setattr(matrices, "module_intersect", no_duality)
    monkeypatch.setattr(matrices, "kernel", no_duality)
    _check(f"invariants-mixed-{action}-default")


def _raises(*args, **kwargs):
    raise AssertionError("the intersection cache or an anticode family was used")


@pytest.mark.parametrize("action", ["moments", "distribution", "rweights", "ghw"])
def test_invariants_walk_keeps_no_cache_and_builds_no_family(
    action, fixed_env, monkeypatch
):
    """The free walk reads the rank of each restriction by exponent vector:
    no process-lifetime cache, no Anticode objects."""
    monkeypatch.setattr(inv, "_intersection_cached", _raises)
    monkeypatch.setattr(ac, "family", _raises)
    _check(f"invariants-mixed-{action}-default")


def test_verify_invariants_keeps_no_intersection_cache(fixed_env, monkeypatch):
    monkeypatch.setattr(inv, "_intersection_cached", _raises)
    _check("verify-invariants-default")


def test_verify_invariants_counts_in_the_element_census(fixed_env, monkeypatch):
    """verify reads every subcode count off the element-set census it holds;
    no Howell-form census or duality intersection runs."""

    def no_howell_census(*args, **kwargs):
        raise AssertionError("Howell-form census route started")

    for owner, attr in (
        (matrices, "submodule_census"),
        (matrices, "module_intersect"),
        (inv, "_subcode_stats"),
    ):
        monkeypatch.setattr(owner, attr, no_howell_census)
    _check("verify-invariants-default")


def test_golden_cases_match_recorded_files():
    recorded = json.loads(STATUS.read_text())
    outputs = {path.stem for path in GOLDEN.glob("*.out")}
    assert set(recorded) == set(CASES) == outputs


def record() -> None:
    os.environ["COLUMNS"] = "80"
    os.environ.pop(cli.CAP_ENV_VAR, None)
    for stale in GOLDEN.glob("*.out"):
        stale.unlink()
    status = {}
    for name in sorted(CASES):
        code, out, err = _run(CASES[name])
        with open(GOLDEN / f"{name}.out", "w", encoding="utf-8", newline="") as handle:
            handle.write(out)
        status[name] = [code, err]
    STATUS.write_text(json.dumps(status, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(status)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
