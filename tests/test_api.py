"""Every exported name of the package resolves, and the benchmark's
counters accept the signatures of the functions they count."""

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


def _load_tracing(monkeypatch):
    """perfbench/tracing.py as a module, loaded without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
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
