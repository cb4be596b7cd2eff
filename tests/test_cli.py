import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lee_anticodes import cli, dominance, matrices
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


def test_lattice_chains_counts_without_enumerating(capsys, monkeypatch):
    def no_chains(*args, **kwargs):
        raise AssertionError("maximal chains enumerated")

    monkeypatch.setattr(dominance, "maximal_chains", no_chains)
    start = time.perf_counter()
    status, out, _ = run_cli(capsys, "lattice", "--parts", "5", "--sum", "8", "chains")
    assert status == 0
    payload = json.loads(out)
    assert (payload["count"], payload["length"]) == (1489877926680, 32)
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "6", "--sum", "12", "chains", "--format", "text"
    )
    assert status == 0
    assert out == "336839101096824285057473785200 maximal chains, all of length 60\n"
    assert time.perf_counter() - start < 5
    status, _, err = run_cli(
        capsys, "lattice", "--parts", "6", "--sum", "12", "chains", "--cap", "6187"
    )
    assert status == 2 and "lattice size: 6188 exceeds cap 6187" in err


def test_lattice_chains_lists_no_elements(capsys, monkeypatch):
    def no_list(*args, **kwargs):
        raise AssertionError("compositions listed")

    monkeypatch.setattr(dominance, "compositions", no_list)
    status, out, _ = run_cli(
        capsys, "lattice", "--parts", "8", "--sum", "40", "chains", "--cap", "100000000"
    )
    assert status == 0
    payload = json.loads(out)
    assert (payload["count"], payload["length"]) == (dominance.maximal_chain_count(8, 40), 280)


def test_lattice_hasse_lists_the_elements_once(capsys, monkeypatch):
    calls = []
    listed = dominance.compositions

    def counted(*args):
        calls.append(args)
        return listed(*args)

    monkeypatch.setattr(dominance, "compositions", counted)
    status, out, _ = run_cli(capsys, "lattice", "--parts", "3", "--sum", "4", "hasse")
    assert status == 0 and out.startswith("digraph")
    assert calls == [(3, 4)]


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


@pytest.mark.parametrize("action", ["analyze", "distance", "optimal"])
def test_code_action_enumerates_once(capsys, monkeypatch, code_file, action):
    calls = []
    columns = matrices.element_columns

    def counted(*args, **kwargs):
        calls.append(args)
        return columns(*args, **kwargs)

    monkeypatch.setattr(matrices, "element_columns", counted)
    status, out, _ = run_cli(capsys, "code", code_file, action)
    assert status == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize("action", ["analyze", "distance", "optimal"])
def test_code_action_refuses_oversized_code(capsys, code_file, action):
    status, out, err = run_cli(capsys, "code", code_file, action, "--cap", "8")
    assert status == 2 and out == ""
    assert "exceeds cap 8" in err


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


@pytest.mark.parametrize("parts, action", [("0", "enum"), ("-1", "chains")])
def test_lattice_rejects_parts_below_one(capsys, parts, action):
    status, out, err = run_cli(capsys, "lattice", "--parts", parts, "--sum", "3", action)
    assert (status, out) == (1, "")
    assert err == "error: parts must be >= 1\n"


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

    def no_codewords(*args, **kwargs):
        raise AssertionError("codeword enumeration started")

    monkeypatch.setattr(matrices, "submodule_census", no_census)
    monkeypatch.setattr(matrices, "enumerate_elements", no_codewords)
    monkeypatch.setattr(matrices, "element_columns", no_codewords)
    for action in ("moments", "distribution"):
        status, out, err = run_cli(
            capsys, "invariants", code_file, action, "--cap", "8"
        )
        assert status == 2 and out == ""
        assert "codeword enumeration: 27 exceeds cap 8" in err


def test_invariants_refuses_too_many_anticodes(capsys, monkeypatch, tmp_path):
    # |C| = 9 passes the cap, but (Z/9)^12 has 3^12 anticodes to intersect.
    path = tmp_path / "long.txt"
    path.write_text("3 2 12\n" + " ".join(["1"] * 12) + "\n")

    def no_intersection(*args, **kwargs):
        raise AssertionError("module intersection started")

    def no_codewords(*args, **kwargs):
        raise AssertionError("codeword enumeration started")

    monkeypatch.setattr(matrices, "module_intersect", no_intersection)
    monkeypatch.setattr(matrices, "restrict", no_intersection)
    monkeypatch.setattr(matrices, "enumerate_elements", no_codewords)
    monkeypatch.setattr(matrices, "element_columns", no_codewords)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    for action in ("moments", "distribution"):
        status, out, err = run_cli(capsys, "invariants", str(path), action)
        assert status == 2 and out == ""
        assert "anticode count: 531441 exceeds cap 2187" in err
    # The R-weights walk only the 2^12 free anticodes.
    status, out, err = run_cli(capsys, "invariants", str(path), "rweights")
    assert status == 2 and out == ""
    assert "free anticode count: 4096 exceeds cap 2187" in err


@pytest.mark.parametrize(
    "p, s, rows, entries",
    [
        # Length 1 over Z/2^2186: 2187 anticodes pass their cap, but the
        # table has 2187 shapes at ranks 0 and 1.
        (2, 2186, [[2**2180]], 4374),
        # Length 2 over Z/2^37 at rank 2: C(39, 2) shapes at ranks 0, 1, 2.
        (2, 37, [[2**35, 0], [0, 2**35]], 2223),
    ],
)
def test_invariants_refuses_too_many_table_entries(
    capsys, monkeypatch, tmp_path, p, s, rows, entries
):
    path = tmp_path / "wide.txt"
    path.write_text(f"{p} {s} {len(rows[0])}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows
    ))

    def no_codewords(*args, **kwargs):
        raise AssertionError("codeword enumeration started")

    monkeypatch.setattr(matrices, "element_columns", no_codewords)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    for action in ("moments", "distribution"):
        status, out, err = run_cli(capsys, "invariants", str(path), action)
        assert status == 2 and out == ""
        assert f"table entries: {entries} exceeds cap 2187" in err


def test_invariants_keeps_tables_at_the_entry_cap(capsys, monkeypatch, tmp_path):
    # Length 2 over Z/2^36 at rank 2: C(38, 2) * 3 = 2109 entries.
    path = tmp_path / "wide.txt"
    path.write_text(f"2 36 2\n{2**34} 0\n0 {2**34}\n")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    status, out, _ = run_cli(capsys, "invariants", str(path), "moments")
    assert status == 0
    assert len(json.loads(out)["entries"]) == 2109


@pytest.mark.parametrize(
    "text, command, action",
    [
        ("3 2 9100\n", "invariants", "moments"),
        ("3 10000 1\n1\n", "code", "analyze"),
        ("3 10000 1\n1\n", "invariants", "moments"),
    ],
)
def test_refusal_of_a_huge_count_is_short(
    capsys, monkeypatch, tmp_path, text, command, action
):
    # 3^9100 anticodes of the zero code, or the 3^10000 words of Z/3^10000:
    # counts with more decimal digits than str() converts by default.
    path = tmp_path / "huge.txt"
    path.write_text(text)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    status, out, err = run_cli(capsys, command, str(path), action)
    assert status == 2 and out == ""
    assert "exceeds cap" in err and len(err) < 200


def test_ghw_refuses_a_long_free_walk_before_any_intersection(
    capsys, monkeypatch, tmp_path
):
    # The free walk of a length-20 code would meet C with up to 2^20 anticodes.
    path = tmp_path / "long.txt"
    path.write_text("3 1 20\n" + " ".join(["1"] * 20) + "\n")

    def no_intersection(*args, **kwargs):
        raise AssertionError("module intersection started")

    monkeypatch.setattr(matrices, "restrict", no_intersection)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "invariants", str(path), "ghw")
    assert status == 2 and out == ""
    assert "free anticode count: 1048576 exceeds cap 2187" in err
    assert time.perf_counter() - start < 5


def test_ghw_keeps_lengths_up_to_eleven(capsys, monkeypatch, tmp_path):
    # 2^11 = 2048 free anticodes stay within the default cap of 3^7.
    path = tmp_path / "eleven.txt"
    path.write_text("3 1 11\n" + " ".join(["1"] * 11) + "\n")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    status, out, err = run_cli(
        capsys, "invariants", str(path), "ghw", "--format", "text"
    )
    assert (status, out, err) == (0, "ghw = 11\n", "")


def test_rweights_accept_every_length_ghw_accepts(capsys, monkeypatch, tmp_path):
    # (Z/9)^8 has 3^8 = 6561 anticodes but only 2^8 = 256 free ones, and
    # both actions read the R-weights off the free walk.
    path = tmp_path / "eight.txt"
    path.write_text("3 2 8\n" + " ".join(["1"] * 8) + "\n")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    expected = {"ghw": "ghw = 8\n", "rweights": "r=1 d=(0,8,0) d_free=(8,0,0) ghw=8\n"}
    for action, text in expected.items():
        status, out, err = run_cli(
            capsys, "invariants", str(path), action, "--format", "text"
        )
        assert (status, out, err) == (0, text, "")


def test_r_weights_over_a_large_ring_take_no_enumeration(capsys, monkeypatch, tmp_path):
    # |C| = 10007^2: the R-weights come from the free walk, never from C's words.
    path = tmp_path / "big.txt"
    path.write_text("10007 2 3\n1 2 3\n")

    def no_codewords(*args, **kwargs):
        raise AssertionError("codeword enumeration started")

    monkeypatch.setattr(matrices, "enumerate_elements", no_codewords)
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    expected = {
        "ghw": "ghw = 3\n",
        "rweights": "r=1 d=(0,3,0) d_free=(3,0,0) ghw=3\n",
    }
    for action, text in expected.items():
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "invariants", str(path), action, "--format", "text"
        )
        assert (status, out, err) == (0, text, "")
        assert time.perf_counter() - start < 5


def test_code_dual_over_large_prime_finishes(tmp_path):
    # Primality of the header's p once took trial division up to sqrt(p).
    path = tmp_path / "big.txt"
    path.write_text("1000000000000000003 1 2\n1 5\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "lee_anticodes.cli", "code", str(path), "dual",
         "--format", "text"],
        capture_output=True,
        text=True,
        env=env,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1000000000000000003 1 2\n1 400000000000000001\n"


def test_code_dual_guards_its_kernel_matrix(capsys, tmp_path, code_file, monkeypatch):
    # The zero code of length 100000: its kernel would eliminate a
    # 100000 x 100000 identity.
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    path = tmp_path / "zero.txt"
    path.write_text("3 2 100000\n")
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "code", str(path), "dual")
    assert time.perf_counter() - start < 5
    assert (status, out) == (2, "")
    assert "kernel matrix entries: 10000000000 exceeds cap 1000000" in err
    # n = 3 with two Howell rows: [H^T | I] has 3 * (2 + 3) entries.
    assert run_cli(capsys, "code", code_file, "dual", "--cap", "15")[0] == 0
    status, out, err = run_cli(capsys, "code", code_file, "dual", "--cap", "14")
    assert (status, out) == (2, "")
    assert "kernel matrix entries: 15 exceeds cap 14" in err


def test_prime_from_2_64_exits_1(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"{2**64 + 13} 1 2\n1 5\n")
    status, out, err = run_cli(capsys, "code", str(path), "dual")
    assert status == 1 and out == ""
    assert "p must be below 2^64" in err


def test_module_runs_as_script(run_python):
    argv = ["lattice", "--parts", "3", "--sum", "2", "enum", "--format", "text"]
    proc = run_python("-m", "lee_anticodes.cli", *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0,0,2\n0,1,1\n0,2,0\n1,0,1\n1,1,0\n2,0,0\n"


# One command of each family, "{code}" standing for a code file.
_COMMANDS = [
    ("invariants", "{code}", "moments"),
    ("code", "{code}", "analyze"),
    ("lattice", "--parts", "3", "--sum", "3", "enum"),
    ("verify", "invariants"),
]


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no builtin SHA-256 module: digests take hashlib",
)
@pytest.mark.parametrize("argv", _COMMANDS)
def test_commands_load_no_openssl(run_python, code_file, argv):
    """hashlib loads OpenSSL's _hashlib, some 3.5 MB resident; the table
    digest comes from the builtin SHA-256 module, so no command loads it."""
    script = (
        "import sys\n"
        "from lee_anticodes import cli\n"
        "status = cli.main(sys.argv[1:])\n"
        "print('_hashlib loaded:', '_hashlib' in sys.modules, file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    proc = run_python("-c", script, *(arg.format(code=code_file) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == "_hashlib loaded: False"


# Records the file of every code object run by exec(), the event the import
# system raises for each module it executes, from source or from bytecode.
_RECORD_EXECS = (
    "import sys\n"
    "ran = set()\n"
    "def hook(event, args):\n"
    "    if event == 'exec':\n"
    "        ran.add(getattr(args[0], 'co_filename', ''))\n"
    "sys.addaudithook(hook)\n"
)


@pytest.mark.parametrize("argv", _COMMANDS)
def test_only_verify_runs_oracle_and_verification(run_python, code_file, argv):
    """`cli` binds both brute-force modules at import and runs their code on
    first use, which only `verify` makes."""
    script = _RECORD_EXECS + (
        "import json, os\n"
        "from lee_anticodes import cli\n"
        "deferred = ('lee_anticodes.oracle', 'lee_anticodes.verification')\n"
        "bound = [name in sys.modules for name in deferred]\n"
        "status = cli.main(sys.argv[1:])\n"
        "package = os.path.dirname(cli.__file__)\n"
        "ran = sorted(os.path.basename(f) for f in ran if os.path.dirname(f) == package)\n"
        "print(json.dumps({'bound': bound, 'ran': ran}), file=sys.stderr)\n"
        "sys.exit(status)\n"
    )
    proc = run_python("-c", script, *(arg.format(code=code_file) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stderr.splitlines()[-1])
    assert record["bound"] == [True, True]
    assert {"cli.py", "invariants.py", "matrices.py"} <= set(record["ran"])
    deferred = {"oracle.py", "verification.py"}
    assert deferred & set(record["ran"]) == (deferred if argv[0] == "verify" else set())


def test_suite_replaced_before_first_use_is_run(run_python):
    """A suite set on `cli.verification` before the module has run survives
    its first use: `cmd_verify` runs the replacement."""
    script = _RECORD_EXECS + (
        "import types\n"
        "from lee_anticodes import cli\n"
        "assert not any(f.endswith('verification.py') for f in ran)\n"
        "cli.verification.verify_lattice = lambda parts, total, cap=None: [\n"
        "    types.SimpleNamespace(name='stub check', passed=False, detail='broken')\n"
        "]\n"
        "sys.exit(cli.main(['verify', 'lattice', '--format', 'text']))\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 3, proc.stderr
    assert "counterexample [stub check]: broken" in proc.stderr
    assert proc.stdout == "FAIL stub check: broken\nfailures: 1\n"


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


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch, code_file):
    """main builds its parser once per process; each call in a sequence, a
    refused one included, prints the bytes it prints in a process of its own."""
    calls = [
        ("lattice", "--parts", "3", "enum"),
        ("lattice", "--parts", "3", "--sum", "3", "enum", "--cap", "5"),
        ("lattice", "--parts", "3", "--sum", "3", "covers", "--format", "text"),
        ("code", code_file, "analyze"),
        ("invariants", code_file, "rweights", "--format", "csv"),
        ("verify", "lattice", "--format", "text"),
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    env.pop(cli.CAP_ENV_VAR, None)
    alone = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "lee_anticodes.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert [status for status, _, _ in alone] == [1, 2, 0, 0, 0, 0]
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    for _ in range(2):
        assert [run_cli(capsys, *argv) for argv in calls] == alone
    assert cli.build_parser() is cli.build_parser()


# Scalars and containers as records hold them, and the cases json.dumps
# treats apart: bools beside ints, ints past 2^64, None, and strings with
# quotes, backslashes, control characters and non-ASCII text.
JSON_SCALARS = (
    st.integers(-(2**70), 2**70)
    | st.booleans()
    | st.none()
    | st.text(alphabet=st.sampled_from('ab"\\\n\t\x00\x1f\x7f\u00e9\u2603\U0001f600 '))
    | st.text()
    | st.floats(allow_nan=True, allow_infinity=True)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(-(2**70), 2**70), max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [], "b": {}, "c": (), "d": [True, 1, False, 0, -1, 2**64]})
@example([[[]], {"": {"x": None}}, 'q"uote\\back\x01\u00e9\U0001f600'])
def test_json_writer_matches_json_dumps_indent_2(value):
    assert cli._json(value) == json.dumps(value, indent=2)
