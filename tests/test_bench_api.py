"""The package API that the benchmark in `bench/` calls, read from its sources.

The benchmark runs its own copy of `bench/` against the package, so a
renamed or moved function fails there, not here. These checks read the
benchmark's sources without importing or changing them.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np

import qsanov
import qsanov.cli  # noqa: F401  (the benchmark reads q.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _traced() -> dict:
    tree = ast.parse((BENCH / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TRACED")


def test_traced_names_live_in_their_home_modules():
    traced = _traced()
    assert traced
    for layer, fns in traced.items():
        # the tracer wraps numpy.linalg under the layer name "linalg"
        home = np.linalg if layer == "linalg" else importlib.import_module(f"qsanov.{layer}")
        for fn in fns:
            obj = getattr(home, fn, None)
            assert callable(obj), f"{layer}.{fn}"
            if layer != "linalg":
                assert obj.__module__ == home.__name__, f"{layer}.{fn} lives in {obj.__module__}"


def test_workload_attributes_exist_on_the_package():
    names = set(re.findall(r"\bq\.([A-Za-z_]\w*)", (BENCH / "workloads.py").read_text()))
    assert names
    missing = sorted(name for name in names if not hasattr(qsanov, name))
    assert not missing, missing


def test_robustification_check_accepts_rng():
    assert "rng" in inspect.signature(qsanov.robustification_check).parameters
