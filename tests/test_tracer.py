"""The benchmark's tracer must still find every function it wraps.

`perfbench/spans.py` wraps named functions wherever the package binds them
and reads the two `lru_cache`s of `invariants`; a renamed or unbound target
makes `perfbench/run.py --trace 1` fail. This installs the tracer on the
imported package, runs one traced command and uninstalls it again.
"""

import importlib.util
from pathlib import Path

from lee_anticodes import cli
from lee_anticodes import invariants as inv

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MIXED = Path(__file__).parent / "golden" / "inputs" / "mixed.txt"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys, monkeypatch):
    monkeypatch.delenv(cli.CAP_ENV_VAR, raising=False)
    spans = _load_spans()
    original = inv.build_invariant_table
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert inv.build_invariant_table is not original
        assert cli.main(["invariants", str(MIXED), "moments"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert inv.build_invariant_table is original
    metrics = tracer.metrics(1.0)
    assert set(metrics) == {name for name, _, _ in spans.PER_LAYER}
    assert metrics["invariants.build_invariant_table.calls"]["value"] == 1
    assert metrics["cli.main.calls"]["value"] == 1


def test_tracer_installs_on_a_fresh_import(run_python):
    """`perfbench/run.py` installs the tracer right after a fresh import, when
    neither `oracle` nor `verification` has run: it looks both up in
    sys.modules, and the suites it then traces call into the census."""
    script = (
        "import importlib.util, sys\n"
        "from lee_anticodes import cli\n"
        "spec = importlib.util.spec_from_file_location('perfbench_spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "try:\n"
        "    assert cli.main(['invariants', sys.argv[2], 'moments']) == 0\n"
        "    assert cli.main(['verify', 'counting', '--p', '3', '--s', '2', '--n', '2']) == 0\n"
        "finally:\n"
        "    tracer.uninstall()\n"
        "calls = tracer.metrics(1.0)['oracle.enumerate_submodules.calls']['value']\n"
        "print('oracle.enumerate_submodules.calls', calls, file=sys.stderr)\n"
    )
    proc = run_python("-c", script, str(SPANS), str(MIXED))
    assert proc.returncode == 0, proc.stderr
    name, calls = proc.stderr.splitlines()[-1].split()
    assert name == "oracle.enumerate_submodules.calls" and int(calls) >= 1
