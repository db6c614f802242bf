"""Every exported name of the package resolves and is reached, and the
benchmark's counters accept the signatures of the functions they count."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import extomo

MODULES = ["extomo"] + sorted(
    info.name for info in pkgutil.walk_packages(extomo.__path__, "extomo."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"


ROOT = Path(__file__).resolve().parents[1]
LAYERS = ["sphere", "extension", "tomography", "spherical", "reports"]
# direct paths kept as the test oracle of a fast path that replaced them
ORACLES = {"spherical.BT_delta"}  # of bt_delta_circle_grid


def _used_names(path):
    """Names a file reads: identifiers and attribute names, but not the name
    of a def or class statement, an import or a string such as an
    ``__all__`` entry."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_layer_export_is_reached():
    # an exported name that neither the package itself, a demo nor an
    # acceptance criterion uses is dead surface
    files = [*(ROOT / "src" / "extomo").rglob("*.py"),
             *(ROOT / "demos").glob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_used_names, files))
    unreached = [f"{layer}.{name}" for layer in LAYERS
                 for name in importlib.import_module(f"extomo.{layer}").__all__
                 if name not in used and f"{layer}.{name}" not in ORACLES]
    assert not unreached, f"exported but never used: {unreached}"


def _load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, loaded without writing bytecode."""
    path = ROOT / "perfbench" / "tracing.py"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_counters_accept_library_signatures(monkeypatch):
    # the benchmark's tracer calls each counter with the arguments of the
    # library call it wraps, so every parameter must bind by position and
    # by name
    from extomo.sphere import Density

    for name, counter in _load_tracing(monkeypatch).COUNTERS.items():
        layer, func = name.split(".")
        fn = (Density.evaluate if name == "sphere.evaluate"
              else getattr(importlib.import_module(f"extomo.{layer}"), func))
        params = [p for p in inspect.signature(fn).parameters.values()
                  if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
        sig = inspect.signature(counter)
        positional = [p for p in params if p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        sig.bind(*[None] * len(positional))
        sig.bind(**{p.name: None for p in params
                    if p.kind is not p.POSITIONAL_ONLY})
