"""The nftsynth names the benchmark harness in perfbench/ patches must exist.

perfbench/spans.py and perfbench/ops.py wrap nftsynth functions by module
attribute.  Deleting or renaming one of them breaks the benchmark without
failing any other test, so the names are read from those files here and
resolved on the package, and one small spec per workload runs through the
harness's own operation and check.
"""

import ast
import importlib
import json
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import nftsynth
from nftsynth import asymptotics, cli, specfact, synthesis

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(nftsynth.__file__).resolve().parent


def _constant(filename, name):
    """The literal value assigned to `name` at the top level of perfbench/<filename>."""
    tree = ast.parse((PERFBENCH / filename).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no top-level {name} in perfbench/{filename}")


def test_benchmark_patched_names_resolve():
    """Every name the harness patches, and every `nft.<module>.<attr>` that
    perfbench/ops.py calls, such as inverse.energy_identity_residual, which
    inverse binds for it."""
    wanted = [(mod, attr) for mod, attr, _span in _constant("spans.py", "LAYER_NAMES")]
    wanted += [("cli", attr) for attr in _constant("ops.py", "CLI_CAPTURED")]
    wanted += [("inverse", "poly_mul"), ("poly", "_FFT_CUTOFF")]
    read = re.findall(r"\bnft\.(\w+)\.(\w+)", (PERFBENCH / "ops.py").read_text())
    assert read
    wanted += read
    assert len(wanted) > 20
    missing = [f"nftsynth.{mod}.{attr}" for mod, attr in wanted
               if not hasattr(importlib.import_module(f"nftsynth.{mod}"), attr)]
    assert missing == []


def _counting(monkeypatch, names):
    """Calls nftsynth.cli makes to each of `names`, counted from now on."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    return calls


def test_cli_roundtrip_calls_captured_names(tmp_path, monkeypatch):
    """The CLI workload reads its results from calls to these names on
    nftsynth.cli; a roundtrip that bypasses one of them breaks the workload.
    invert_fast runs twice, the second time as the re-inversion behind the
    report's inversion_max_dev, which the workload's check reads;
    invert_sequential, still on the list, runs no more."""
    names = _constant("ops.py", "CLI_CAPTURED")
    calls = _counting(monkeypatch, names)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambdas": [[0.0, 20.0]], "delta": 0.01, "D": 256,
                                "omega_c": 10.0}))
    out = tmp_path / "o"
    assert cli.main(["roundtrip", "--spec", str(spec), "--out", str(out)]) == 0
    assert [name for name in names if not calls[name] and name != "invert_sequential"] == []
    assert calls["invert_sequential"] == 0
    assert calls["invert_fast"] == 2
    assert json.loads((out / "report.json").read_text())["inversion_max_dev"] <= 1e-10


@pytest.mark.parametrize("D", [256, 8192])
@pytest.mark.parametrize("command, lambdas", [
    ("invert", [[0.0, 20.0]]), ("roundtrip", [[0.0, 20.0]]), ("roundtrip", []),
], ids=["invert", "roundtrip", "roundtrip-radiation"])
def test_command_transform_calls(tmp_path, monkeypatch, command, lambdas, D):
    """A cost ledger of the verifying commands: each makes exactly one
    forward_fast, two invert_fast (the samples and their re-inversion) and
    no invert_sequential call at every D, so both stay O(D log^2 D).
    roundtrip searches its forward pair for bound states once, radiation
    only too; invert never does."""
    calls = _counting(monkeypatch, ("forward_fast", "invert_fast", "invert_sequential",
                                    "find_eigenvalues"))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"lambdas": lambdas, "delta": 0.01, "D": D,
                                "omega_c": 10.0}))
    assert cli.main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
    assert calls == {"forward_fast": 1, "invert_fast": 2, "invert_sequential": 0,
                     "find_eigenvalues": int(command == "roundtrip")}


def _defined(node):
    """The name a top-level statement binds: a def's, a class's, or the one
    target of a single-name assignment (a module constant); else None."""
    if (isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)):
        return node.targets[0].id
    return getattr(node, "name", None)


def _statements(path):
    """(name, code) for each top-level statement of a file: the name it
    binds (_defined), and its source without docstrings (comments are not
    in the tree)."""
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and node.body and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            node.body = node.body[1:] or [ast.Pass()]
    return [(_defined(node), ast.unparse(node)) for node in tree.body]


def test_library_names_have_callers():
    """Every top-level def, class and module constant in src/nftsynth is
    referenced from code in src/ or perfbench/ outside its own definition:
    a name only the tests use belongs in tests/oracles.py, and a limit
    only its own test reads is not a limit.  Docstrings and __init__'s
    re-exports do not count; a string naming the attribute (as perfbench's
    patch lists do) counts."""
    library = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    code = {p: _statements(p) for p in library + sorted(PERFBENCH.glob("*.py"))}
    unused = []
    for path in library:
        for name, _ in code[path]:
            if name and not any(re.search(rf"\b{name}\b", text)
                                for other, stmts in code.items()
                                for defined, text in stmts if (other, defined) != (path, name)):
                unused.append(f"{path.stem}.{name}")
    assert unused == []


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
    """Importing the package and the CLI, as the benchmark's set-up does, must
    load no scipy module at all: only the tests use scipy, among them
    continuous_oracle in tests/oracles.py (scipy.integrate)."""
    src = str(Path(nftsynth.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import nftsynth, nftsynth.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_workloads_run_through_harness_calls(tmp_path, monkeypatch):
    """Each workload's small warm-up spec goes through perfbench/ops.py as
    a benchmark run takes it (run_library or run_cli, then check) and
    verifies.  This pins the call shapes the harness uses: invert_fast's
    (Signal, C) return and its check= keyword, predict(spec).norming_predictions
    and energy_identity_residual(signal, a0)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ops = importlib.import_module("ops")
    workloads = importlib.import_module("workloads")
    nft = SimpleNamespace(**{m: importlib.import_module(f"nftsynth.{m}") for m in (
        "poly", "synthesis", "inverse", "forward", "asymptotics", "cli")})
    for name in workloads.WORKLOADS:
        doc = workloads.warmup_spec(name, 1, small=True)
        if workloads.kind(name) == workloads.CLI:
            out, rc, report = ops.run_cli(nft, doc, tmp_path)
        else:
            out, rc, report = ops.run_library(nft, doc), None, None
        outcome = ops.check(nft, doc, out, cli_rc=rc, report=report)
        assert outcome.status == "ok", (name, outcome.detail)
