"""Helpers shared by the test modules: references that only tests use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from lee_anticodes import anticodes as ac
from lee_anticodes import invariants as inv
from lee_anticodes import matrices, oracle
from lee_anticodes.cli import CAP_ENV_VAR
from lee_anticodes.codes import Code

SRC = Path(__file__).resolve().parents[1] / "src"


def _census_inside(census) -> list[list[int]]:
    """For each census entry C, the indices of the entries inside C, by
    subset tests on element sets: the reference for the census down-sets."""
    entries = census.entries
    return [
        [j for j, d in enumerate(entries) if d.elements <= c.elements] for c in entries
    ]


def _rank_intersection_identity(code: Code, anticode: ac.Anticode) -> tuple[int, int]:
    """Both sides of the quoted relation rank(C cap A) = K - a_s + freerank(C-perp cap A-perp).

    The relation is false in general, because free rank is not modular: for
    C = <(1,3)> over (Z/9)^2 and A with exponents (0,2) the left side is 1
    and the right side 0. The sound form, which verify_invariants checks, is
    rank(C cap A) = n - freerank(C-perp + A-perp), from (C cap A)-perp =
    C-perp + A-perp. Returns (lhs, rhs) so callers can see where they differ.
    """
    lhs = inv._intersection_cached(code, anticode).rank
    a_s = anticode.n - anticode.rank
    dual_meet = Code(
        matrices.module_intersect(code.dual().gen, ac.dual_anticode(anticode).module())
    )
    return lhs, code.rank - a_s + dual_meet.free_rank


def _ghw_by_elements(code: Code) -> tuple[int, ...]:
    """For r = 1..rank(C), the least Hamming support of a rank-r subcode,
    from the element sets of the oracle's submodule census."""
    entries = oracle.enumerate_submodules(code.gen).entries
    return tuple(
        min(
            sum(any(x[t] for x in entry.elements) for t in range(code.n))
            for entry in entries
            if entry.rank == r
        )
        for r in range(1, code.rank + 1)
    )


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run on `args`, with `src` on the import path and no
    cap in the environment; stdout and stderr are captured as text."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop(CAP_ENV_VAR, None)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
    )


@pytest.fixture
def run_python():
    return _run_python


@pytest.fixture
def rank_intersection_identity():
    return _rank_intersection_identity


@pytest.fixture
def ghw_by_elements():
    return _ghw_by_elements


@pytest.fixture(scope="session")
def census_inside():
    return _census_inside
