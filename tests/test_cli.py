import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lee_anticodes import cli, matrices
from lee_anticodes.verification import CheckResult


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("3 2 3\n1 2 0\n0 3 0\n")
    return str(path)


@pytest.fixture
def free_code_file(tmp_path):
    path = tmp_path / "free.txt"
    path.write_text("3 2 3\n1 0 0\n0 3 0\n")
    return str(path)


@pytest.fixture
def even_code_file(tmp_path):
    path = tmp_path / "even.txt"
    path.write_text("2 2 2\n1 1\n")
    return str(path)


def run_cli(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_lattice_enum_json(capsys):
    status, out, err = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "enum")
    assert status == 0 and err == ""
    payload = json.loads(out)
    assert payload["parts"] == 3 and payload["sum"] == 3
    assert payload["count"] == 10
    assert payload["elements"][0] == [0, 0, 3]
    assert payload["elements"][-1] == [3, 0, 0]
    assert out.endswith("\n")


def test_lattice_enum_text_and_csv(capsys):
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--format", "text"
    )
    assert status == 0
    assert len(out.splitlines()) == 10
    assert out.splitlines()[0] == "0,0,3"
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--format", "csv"
    )
    assert status == 0
    assert out.splitlines()[0] == "a"
    assert len(out.splitlines()) == 11


def test_lattice_hasse_defaults_to_dot(capsys):
    status, out, _ = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "hasse")
    assert status == 0
    assert out.lstrip().startswith("digraph")
    status, json_out, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "hasse", "--format", "json"
    )
    assert status == 0
    assert json.loads(json_out)["dot"] == out


def test_lattice_mobius_csv(capsys):
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "mobius", "--format", "csv"
    )
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "a;b;mu"
    assert "1,1,1;2,0,1;-1" in lines


def test_lattice_covers_json(capsys):
    status, out, _ = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "covers")
    assert status == 0
    payload = json.loads(out)
    by_a = {tuple(entry["a"]): entry["covers"] for entry in payload["entries"]}
    assert by_a[(3, 0, 0)] == []
    assert sorted(map(tuple, by_a[(1, 1, 1)])) == [(1, 2, 0), (2, 0, 1)]


def test_lattice_chains(capsys):
    status, out, _ = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "chains")
    assert status == 0
    payload = json.loads(out)
    assert payload["count"] == 5
    assert payload["length"] == 6
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "chains", "--format", "text"
    )
    assert out == "5 maximal chains, all of length 6\n"


def test_code_analyze(capsys, code_file):
    status, out, _ = run_cli(capsys, "code", code_file, "analyze")
    assert status == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["subtype"] == [1, 1]
    assert payload["max_weight"] == {"lee": 8, "hamming": 2, "hom": 6}
    status, text, _ = run_cli(capsys, "code", code_file, "analyze", "--format", "text")
    assert "rank = 2" in text.splitlines()
    status, csv_out, _ = run_cli(capsys, "code", code_file, "analyze", "--format", "csv")
    assert csv_out.splitlines()[0] == "key;value"
    assert "max_weight.lee;8" in csv_out.splitlines()


def test_code_dual(capsys, code_file):
    status, out, _ = run_cli(capsys, "code", code_file, "dual", "--format", "text")
    assert status == 0
    assert out == "3 2 3\n3 3 0\n0 0 1\n"
    status, json_out, _ = run_cli(capsys, "code", code_file, "dual")
    payload = json.loads(json_out)
    assert payload["generator_rows"] == [[3, 3, 0], [0, 0, 1]]
    assert payload["subtype"] == [1, 1]


def test_code_distance(capsys, code_file):
    status, out, _ = run_cli(capsys, "code", code_file, "distance")
    assert status == 0
    metrics = json.loads(out)["metrics"]
    assert metrics["lee"] == {"min_distance": 2, "max_weight": 8}
    assert metrics["hamming"] == {"min_distance": 1, "max_weight": 2}
    assert metrics["hom"] == {"min_distance": 3, "max_weight": 6}
    status, csv_out, _ = run_cli(
        capsys, "code", code_file, "distance", "--format", "csv", "--metric", "lee"
    )
    assert csv_out == "metric;min_distance;max_weight\nlee;2;8\n"


def test_code_distance_zero_code(capsys, tmp_path):
    path = tmp_path / "zero.txt"
    path.write_text("3 2 2\n0 0\n")
    status, out, _ = run_cli(capsys, "code", str(path), "distance", "--format", "csv")
    assert status == 0
    assert "lee;;0" in out.splitlines()


def test_code_optimal(capsys, code_file, free_code_file):
    status, out, _ = run_cli(capsys, "code", code_file, "optimal")
    assert status == 0
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["lee"] == {"optimal": False, "bound": 7, "max_weight": 8}
    assert verdicts["hamming"]["optimal"] is True
    assert verdicts["hom"]["optimal"] is True
    status, csv_out, _ = run_cli(
        capsys, "code", free_code_file, "optimal", "--format", "csv", "--metric", "lee"
    )
    assert csv_out == "metric;optimal;bound;max_weight\nlee;true;7;7\n"


def test_code_optimal_even_prime(capsys, even_code_file):
    status, out, _ = run_cli(capsys, "code", even_code_file, "optimal")
    assert status == 0
    assert set(json.loads(out)["verdicts"]) == {"hamming", "hom"}
    status, _, err = run_cli(
        capsys, "code", even_code_file, "optimal", "--metric", "lee"
    )
    assert status == 1
    assert "odd prime" in err


def test_invariants_moments(capsys, free_code_file):
    status, out, _ = run_cli(capsys, "invariants", free_code_file, "moments")
    assert status == 0
    entries = json.loads(out)["entries"]
    assert len(entries) == 30
    assert entries[0] == {"a": [0, 0, 3], "j": 0, "B": 1, "W": 1}
    status, csv_out, _ = run_cli(
        capsys, "invariants", free_code_file, "distribution", "--format", "csv"
    )
    assert csv_out.splitlines()[0] == "a;j;B;W"
    assert csv_out.splitlines()[1] == "0,0,3;0;1;1"
    status, text, _ = run_cli(
        capsys, "invariants", free_code_file, "moments", "--format", "text"
    )
    assert text.splitlines()[0] == "a=(0,0,3) j=0 B=1 W=1"


def test_invariants_rweights(capsys, free_code_file):
    status, out, _ = run_cli(capsys, "invariants", free_code_file, "rweights")
    assert status == 0
    payload = json.loads(out)
    assert payload["linear_extension"] == "prefix-sum lexicographic"
    assert payload["r_weights"] == [[0, 1, 2], [0, 2, 1]]
    assert payload["ghw"] == [1, 2]
    status, csv_out, _ = run_cli(
        capsys, "invariants", free_code_file, "rweights", "--format", "csv"
    )
    assert csv_out.splitlines()[0] == "r;d_r;d_r_free;ghw"


def test_invariants_ghw(capsys, free_code_file):
    status, out, _ = run_cli(
        capsys, "invariants", free_code_file, "ghw", "--format", "text"
    )
    assert status == 0
    assert out == "ghw = 1 2\n"
    status, csv_out, _ = run_cli(
        capsys, "invariants", free_code_file, "ghw", "--format", "csv"
    )
    assert csv_out == "r;ghw\n1;1\n2;2\n"


def test_verify_ok(capsys):
    status, out, err = run_cli(capsys, "verify", "lattice", "--parts", "3", "--sum", "3")
    assert status == 0 and err == ""
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(r["passed"] for r in payload["results"])
    status, text, _ = run_cli(
        capsys, "verify", "lattice", "--parts", "3", "--sum", "3", "--format", "text"
    )
    assert text.splitlines()[-1] == "ok"
    assert all(line.startswith("PASS ") for line in text.splitlines()[:-1])


def test_verify_failure_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(
        cli.verification,
        "verify_lattice",
        lambda parts, total, cap=None: [CheckResult("stub check", False, "broken")],
    )
    status, out, err = run_cli(capsys, "verify", "lattice", "--format", "text")
    assert status == 3
    assert "counterexample [stub check]: broken" in err
    assert "FAIL stub check: broken" in out


def test_usage_errors_exit_1(capsys):
    assert cli.main(["bogus"]) == 1
    capsys.readouterr()
    assert cli.main(["lattice", "--parts", "3", "enum"]) == 1
    capsys.readouterr()
    status, _, err = run_cli(capsys, "code", "/nonexistent/path.txt", "analyze")
    assert status == 1
    assert "error:" in err


def test_unsupported_format_exits_1(capsys):
    status, _, err = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--format", "dot"
    )
    assert status == 1
    assert "not available" in err


def test_cap_flag_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--cap", "5"
    )
    assert status == 2
    assert "exceeds cap" in err


def test_cap_env_and_override(capsys, monkeypatch):
    monkeypatch.setenv(cli.CAP_ENV_VAR, "5")
    status, _, _ = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "enum")
    assert status == 2
    status, _, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--cap", "100"
    )
    assert status == 0
    monkeypatch.setenv(cli.CAP_ENV_VAR, "not-a-number")
    status, _, err = run_cli(capsys, "lattice", "--parts", "3", "--sum", "3", "enum")
    assert status == 1
    assert cli.CAP_ENV_VAR in err


@pytest.mark.parametrize("scope", ["lattice", "all"])
def test_verify_honours_cap(capsys, monkeypatch, scope):
    status, _, err = run_cli(capsys, "verify", scope, "--cap", "5")
    assert status == 2
    assert "poset oracle: 10 exceeds cap 5" in err
    monkeypatch.setenv(cli.CAP_ENV_VAR, "5")
    status, _, err = run_cli(capsys, "verify", scope)
    assert status == 2
    assert "exceeds cap 5" in err


def test_invariants_refuses_oversized_code_before_census(capsys, monkeypatch, code_file):
    def no_census(*args, **kwargs):
        raise AssertionError("submodule census started")

    monkeypatch.setattr(matrices, "submodule_census", no_census)
    for action in ("moments", "distribution"):
        status, out, err = run_cli(
            capsys, "invariants", code_file, action, "--cap", "8"
        )
        assert status == 2 and out == ""
        assert "submodule census base module: 27 exceeds cap 8" in err


def test_module_runs_as_script():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop(cli.CAP_ENV_VAR, None)
    argv = ["lattice", "--parts", "3", "--sum", "2", "enum", "--format", "text"]
    proc = subprocess.run(
        [sys.executable, "-m", "lee_anticodes.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0,0,2\n0,1,1\n0,2,0\n1,0,1\n1,1,0\n2,0,0\n"


def test_bad_cap_flag_exits_1(capsys):
    status, _, err = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--cap", "-3"
    )
    assert status == 1
    assert "positive" in err


def test_seed_flag_accepted(capsys):
    status, _, _ = run_cli(
        capsys, "lattice", "--parts", "3", "--sum", "3", "enum", "--seed", "7"
    )
    assert status == 0


def test_outputs_are_deterministic(capsys, code_file, free_code_file):
    invocations = [
        ("lattice", "--parts", "3", "--sum", "4", "enum"),
        ("lattice", "--parts", "3", "--sum", "3", "hasse"),
        ("lattice", "--parts", "3", "--sum", "3", "mobius", "--format", "csv"),
        ("code", code_file, "analyze"),
        ("code", code_file, "optimal", "--format", "csv"),
        ("invariants", free_code_file, "moments", "--format", "csv"),
        ("invariants", free_code_file, "rweights"),
        ("verify", "lattice", "--parts", "3", "--sum", "3"),
    ]
    for argv in invocations:
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0
