"""The snippets of tools/layers.py name only attributes that exist.

Each layer set runs its snippets in fresh interpreters, so a rename in
jkepler or bench/workloads.py would otherwise surface only when the next
timing run fails.  These tests read the snippets with `ast` and start no
process."""
import ast
import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name, path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _imported(tree, workloads) -> tuple[dict, list]:
    """The modules a snippet binds, by local name, and the `from` imports it
    names that do not exist."""
    modules, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = (
                    workloads if alias.name == "workloads" else importlib.import_module(alias.name))
        elif isinstance(node, ast.ImportFrom):
            source = importlib.import_module(node.module)
            for alias in node.names:
                try:  # a submodule, or else an attribute of the module
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    value = getattr(source, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    return modules, missing


# a few of the names each set's snippets use, so a walk that finds none fails
_SAMPLE = {"poly": {"cli.main", "weyl.verify_tkk_ops", "phase.verify_poisson_tkk",
                    "weyl.lowest_weight_check"},
           "tkk": {"conformal._str_span_exact", "conformal.structure_constants",
                   "conformal.random_co_element"},
           "cone": {"workloads.verify_report", "workloads.build_ops", "workloads.execute"}}


@pytest.mark.parametrize("name", sorted(_SAMPLE))
def test_layer_set_snippets_name_existing_attributes(name, monkeypatch):
    layers = _load("tools_layers", ROOT / "tools" / "layers.py", monkeypatch)
    workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py", monkeypatch)
    assert set(layers.SETS) == set(_SAMPLE)
    named = set()
    for snippet in layers.SETS[name].snippets:
        tree = ast.parse(snippet)
        modules, missing = _imported(tree, workloads)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                named.add(f"{node.value.id}.{node.attr}")
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{node.value.id}.{node.attr}")
        assert missing == [], missing
    assert _SAMPLE[name] <= named
