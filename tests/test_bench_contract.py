"""The nftsynth names the benchmark harness in perfbench/ patches must exist.

perfbench/spans.py and perfbench/ops.py wrap nftsynth functions by module
attribute.  Deleting or renaming one of them breaks the benchmark without
failing any other test, so the names are read from those files here and
resolved on the package.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import nftsynth
from nftsynth import asymptotics, cli, specfact, synthesis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _constant(filename, name):
    """The literal value assigned to `name` at the top level of perfbench/<filename>."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no top-level {name} in perfbench/{filename}")


def test_benchmark_patched_names_resolve():
    wanted = [(mod, attr) for mod, attr, _span in _constant("spans.py", "LAYER_NAMES")]
    wanted += [("cli", attr) for attr in _constant("ops.py", "CLI_CAPTURED")]
    wanted += [("inverse", "poly_mul"), ("poly", "_FFT_CUTOFF")]
    assert len(wanted) > 20
    missing = [f"nftsynth.{mod}.{attr}" for mod, attr in wanted
               if not hasattr(importlib.import_module(f"nftsynth.{mod}"), attr)]
    assert missing == []


def test_cli_roundtrip_calls_captured_names(tmp_path, monkeypatch):
    """The CLI workload reads its results from calls to these names on
    nftsynth.cli; a roundtrip that bypasses one of them breaks the workload."""
    calls = {}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return call

    names = _constant("ops.py", "CLI_CAPTURED")
    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambdas": [[0.0, 20.0]], "delta": 0.01, "D": 256,
                                "omega_c": 10.0}))
    assert cli.main(["roundtrip", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    assert [name for name in names if name not in calls] == []


def test_package_all_resolves():
    """Every exported name exists on the package, and none is listed twice."""
    assert [name for name in nftsynth.__all__ if not hasattr(nftsynth, name)] == []
    assert len(set(nftsynth.__all__)) == len(nftsynth.__all__)


def test_make_ub_has_one_cached_function():
    """The benchmark patches make_ub in synthesis and asymptotics; both must be the
    one cached specfact.make_ub, so no uncached alias escapes the spans."""
    assert synthesis.make_ub is specfact.make_ub is asymptotics.make_ub
    assert hasattr(specfact.make_ub, "cache_info")


def test_cli_import_leaves_ode_solver_out():
    """Importing the CLI, as the benchmark's set-up does, must not load
    scipy.integrate: only the continuous_oracle test reference needs it."""
    src = str(Path(nftsynth.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nftsynth.cli; "
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
