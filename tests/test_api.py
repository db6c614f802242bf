"""Every exported name of the package resolves and is reached, every
optional parameter is passed by some caller, and the benchmark's counters
accept the signatures of the functions they count."""

import ast
import importlib
import importlib.util
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def test_import_loads_no_scipy():
    # scipy costs about 0.5 s of every process; only the n = 2 Bessel
    # paths load it, when they first run
    code = ("import sys, extomo.cli, extomo.experiments; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# the package modules each layer may import, ``errors`` aside; a new
# cross-layer edge is a change to this table
LAYER_IMPORTS = {
    "sphere": set(),
    "reports": set(),
    "tomography": {"sphere"},
    "extension": {"sphere", "tomography"},
    "spherical": {"sphere", "extension"},
}


def _package_imports(path):
    """The extomo modules a file imports, relatively or by absolute name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            names = ([f"extomo.{node.module}"] if node.module else
                     [f"extomo.{alias.name}" for alias in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module == "extomo":
            names = [f"extomo.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        imported.update(name.split(".")[1] for name in names
                        if name.startswith("extomo."))
    return imported - {"errors"}


def test_layers_import_only_the_declared_layers():
    assert sorted(LAYER_IMPORTS) == sorted(LAYERS)
    extra = {layer: sorted(_package_imports(
        ROOT / "src" / "extomo" / f"{layer}.py") - allowed)
        for layer, allowed in LAYER_IMPORTS.items()}
    assert not any(extra.values()), f"undeclared layer imports: {extra}"


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


ALL_KEYS = frozenset({"*"})  # a ``**x`` whose keys the scan cannot see


def _calls(node, scope=()):
    """Each call in the tree with the function definitions enclosing it."""
    if isinstance(node, ast.FunctionDef):
        scope = scope + (node,)
    if isinstance(node, ast.Call):
        yield node, scope
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, scope)


def _callers(name):
    """(module, innermost enclosing def) of each call of ``name`` in the
    package."""
    found = set()
    for path in (ROOT / "src" / "extomo").rglob("*.py"):
        for call, scope in _calls(ast.parse(path.read_text(), str(path))):
            if name in (getattr(call.func, "id", None),
                        getattr(call.func, "attr", None)):
                found.add((path.stem, scope[-1].name if scope else None))
    return found


def test_nufft_is_called_only_inside_the_extension_layer():
    # a uniform grid of the extension reaches the NUFFT through
    # _extend_square or extend, and the phase tables of the slice line
    # profiles are built there too; no experiment builds its phases by hand
    assert _callers("_nufft1") == {("extension", "_nufft_extend")}
    assert {module for module, _ in _callers("_nufft_extend")} == {"extension"}
    assert {module for module, _ in _callers("_extend_square")} == {"extension"}


def test_nearest_nodes_are_looked_up_only_inside_the_sphere_layer():
    # one nearest-node rule: an argmax over a grid's nodes is
    # SphereGrid.nearest_node, which bounds the product it forms
    found = set()
    for path in (ROOT / "src" / "extomo").rglob("*.py"):
        for call, _ in _calls(ast.parse(path.read_text(), str(path))):
            if "argmax" in (getattr(call.func, "id", None),
                            getattr(call.func, "attr", None)) and any(
                    getattr(node, "attr", None) == "nodes"
                    for arg in call.args for node in ast.walk(arg)):
                found.add(path.stem)
    assert found == {"sphere"}


def test_sphere_grids_are_built_only_inside_the_sphere_layer():
    # every quadrature grid comes from a sphere builder (circle, sphere or
    # zonal); no experiment assembles nodes and weights by hand
    assert {module for module, _ in _callers("SphereGrid")} == {"sphere"}


def test_perp_frames_are_built_only_inside_the_sphere_layer():
    # one frame rule: every (e1, e2) of omega-perp is sphere._perp_frames,
    # the one place that takes a cross product
    assert _callers("cross") == {("sphere", "_perp_frames")}


def test_gauss_legendre_rules_are_built_only_inside_the_sphere_layer():
    # one quadrature-rule builder: every Gauss-Legendre rule is the cached,
    # read-only sphere._gauss_legendre
    assert _callers("leggauss") == {("sphere", "_gauss_legendre")}


# one small call of each cached function of the package
CACHED_CALLS = {
    "extomo.sphere._gauss_legendre": (4,),
    "extomo.extension._slice_phase_tables": (3, 8, 2.0, 5),
    "extomo.tomography._taper_window": (16,),
    "extomo.tomography._fourier_multiplier": (16, 2, 0.5, 0.25),
}


def _cached_functions():
    """module.name of each def in the package under an ``lru_cache`` or
    ``cache`` decorator, called or not."""
    found = set()
    for path in (ROOT / "src" / "extomo").rglob("*.py"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    {getattr(d, "id", None), getattr(d, "attr", None)}
                    & {"lru_cache", "cache"}
                    for d in (getattr(dec, "func", dec)
                              for dec in node.decorator_list)):
                found.add(f"{module}.{node.name}")
    return found


def test_cached_functions_return_read_only_arrays():
    # every caller shares a cached table: a writable array would let one
    # caller corrupt what every later caller reads
    assert _cached_functions() == CACHED_CALLS.keys()
    for name, args in CACHED_CALLS.items():
        module, fn = name.rsplit(".", 1)
        result = getattr(importlib.import_module(module), fn)(*args)
        for array in result if isinstance(result, tuple) else (result,):
            assert not array.flags.writeable, name


def test_seeded_draws_go_through_the_keyed_generator():
    # every seeded draw comes from experiment_rng, keyed by (seed, name), so
    # two experiments sharing a seed never share a stream
    assert _callers("default_rng") == set()


def _top_level_defs(tree):
    """(qualified name, def, is method) of each top-level function and
    method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, not static


def _knob_keys(expr, assigned, scope):
    """What a ``**expr`` argument passes: a set of keys, ALL_KEYS, or
    ``("forward", name)`` for the ``**kwargs`` of the enclosing function
    ``name``."""
    if isinstance(expr, ast.IfExp):
        keys = [_knob_keys(e, assigned, scope)
                for e in (expr.body, expr.orelse)]
        if any(isinstance(k, tuple) for k in keys):
            return ALL_KEYS
        return keys[0] | keys[1]
    if (isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "dict"
            and not expr.args):
        names = {kw.arg for kw in expr.keywords}
        return ALL_KEYS if None in names else frozenset(names)
    if isinstance(expr, ast.Dict):
        if all(isinstance(k, ast.Constant) for k in expr.keys):
            return frozenset(k.value for k in expr.keys)
        return ALL_KEYS
    if isinstance(expr, ast.Name):
        for fn in reversed(scope):
            if fn.args.kwarg is not None and fn.args.kwarg.arg == expr.id:
                return ("forward", fn.name)
        values = assigned.get(expr.id, [])
        keys = [_knob_keys(v, assigned, scope) for v in values]
        if not keys or any(isinstance(k, tuple) for k in keys):
            return ALL_KEYS
        return frozenset().union(*keys)
    return ALL_KEYS


def _optional_parameters(fn, method):
    """(name, position or None) of each optional parameter of a def; a
    ``**kwargs`` catch-all is named ``**kwargs``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(p.arg, i - method) for i, p in enumerate(positional) if i >= first]
    out += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    if args.kwarg is not None:
        out.append((f"**{args.kwarg.arg}", None))
    return out


def _unreached_knobs():
    """Optional parameters of ``src/extomo`` that no scanned call passes."""
    package = sorted((ROOT / "src" / "extomo").rglob("*.py"))
    files = [*package, *sorted((ROOT / "demos").glob("*.py")),
             ROOT / "tests" / "test_acceptance.py",
             ROOT / "perfbench" / "workloads.py"]
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}

    # calls by bare name: (positional count, keyword names, ** arguments)
    calls = {}
    named = {}  # bare name -> the named parameters of every def of that name
    for path, tree in trees.items():
        assigned = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for _, fn, _ in _top_level_defs(tree):
            a = fn.args
            named.setdefault(fn.name, set()).update(
                p.arg for p in a.posonlyargs + a.args + a.kwonlyargs)
        for call, scope in _calls(tree):
            name = (getattr(call.func, "id", None)
                    or getattr(call.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in call.args)
            calls.setdefault(name, []).append((
                math.inf if starred else len(call.args),
                {kw.arg for kw in call.keywords if kw.arg is not None},
                [_knob_keys(kw.value, assigned, scope)
                 for kw in call.keywords if kw.arg is None]))

    # the CLI calls each REGISTRY runner as runner(**params), where params
    # holds only keys of the entry's {key: type} dict, plus seed when the
    # runner takes one: read each entry as a call with those literal keys
    for node in ast.walk(trees[ROOT / "src" / "extomo" / "cli.py"]):
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "REGISTRY"):
            for entry in node.value.values:
                _, runner, keys, _ = entry.elts
                name = getattr(runner, "id", None) or runner.attr
                keys = {key.value for key in keys.keys}
                if "seed" in named.get(name, ()):
                    keys.add("seed")
                calls.setdefault(name, []).append((0, keys, []))

    # the keys that reach each function's own **kwargs, to a fixed point
    forwarded = {}

    def passed(keys):
        if isinstance(keys, tuple):
            return forwarded.get(keys[1], frozenset())
        return keys

    while True:
        new = {name: frozenset().union(*(
            (kws - named[name]).union(*map(passed, stars))
            for _, kws, stars in calls.get(name, [])))
            for name in named}
        if new == forwarded:
            break
        forwarded = new

    def reached(name, param, position):
        for n_args, kws, stars in calls.get(name, []):
            keys = frozenset().union(*map(passed, stars))
            if param.startswith("**"):
                if (kws - named[name]) or keys:
                    return True
            elif (position is not None and position < n_args) or param in kws \
                    or param in keys or "*" in keys:
                return True
        return False

    return [f"{path.stem}.{qualname}({param})"
            for path in package
            for qualname, fn, method in _top_level_defs(trees[path])
            for param, position in _optional_parameters(fn, method)
            if not reached(fn.name, param, position)]


def test_every_optional_parameter_is_reached():
    # an optional parameter that no caller in the package, a demo, an
    # acceptance criterion or a benchmark workload passes is a setting
    # with one value in use: it belongs in the code as a constant
    unreached = _unreached_knobs()
    assert not unreached, f"optional parameters never passed: {unreached}"


def _forwards_only(fn):
    """Whether a def's body is one ``return X.f(...)`` whose arguments are
    its own parameters, passed through unchanged."""
    body = fn.body[1:] if ast.get_docstring(fn) else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and getattr(call.func.value, "id", None) == "X"):
        return False
    a = fn.args
    own = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    own |= {p.arg for p in (a.vararg, a.kwarg) if p is not None}
    values = [v.value if isinstance(v, ast.Starred) else v for v in call.args]
    values += [kw.value for kw in call.keywords]
    return all(isinstance(v, ast.Name) and v.id in own for v in values)


def test_cli_adapters_do_more_than_forward():
    # an adapter that only passes its arguments on to an experiment is a
    # second name for it: the REGISTRY entry names the experiment itself
    tree = ast.parse((ROOT / "src" / "extomo" / "cli.py").read_text())
    forwarding = [name for name, fn, _ in _top_level_defs(tree)
                  if name.startswith("_run_") and _forwards_only(fn)]
    assert not forwarding, f"adapters that only forward: {forwarding}"


def _forwarded_to(runner):
    """The functions a runner's body passes its ``**kwargs`` on to."""
    kwarg = next((p.name for p in inspect.signature(runner).parameters.values()
                  if p.kind is p.VAR_KEYWORD), None)
    if kwarg is None:
        return []
    tree = ast.parse(textwrap.dedent(inspect.getsource(runner)))
    targets = []
    for call, _ in _calls(tree):
        if not any(kw.arg is None and getattr(kw.value, "id", None) == kwarg
                   for kw in call.keywords):
            continue
        func = call.func
        if isinstance(func, ast.Attribute):
            targets.append(getattr(runner.__globals__[func.value.id],
                                   func.attr))
        else:
            targets.append(runner.__globals__[func.id])
    return targets


def test_every_registry_key_is_read():
    # a key a command declares binds by name to its runner or to every
    # function the runner passes **kwargs on to: no key is accepted in one
    # mode of a command and ignored, or rejected late, in another
    from extomo.cli import REGISTRY

    def binds(fn, key):
        param = inspect.signature(fn).parameters.get(key)
        return param is not None and param.kind in (
            param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)

    unread = []
    for name, (_, runner, keys, _) in REGISTRY.items():
        targets = _forwarded_to(runner)
        unread += [f"{name} --{key}" for key in keys
                   if not binds(runner, key)
                   and not (targets and all(binds(t, key) for t in targets))]
    assert not unread, f"declared keys the command never reads: {unread}"
