"""The nftsynth names the benchmark harness in perfbench/ patches must exist.

perfbench/spans.py and perfbench/ops.py wrap nftsynth functions by module
attribute.  Deleting or renaming one of them breaks the benchmark without
failing any other test, so the names are read from those files here and
resolved on the package.
"""

import ast
import importlib
from pathlib import Path

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
