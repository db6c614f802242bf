"""Span tracing of the extomo layers, installed from outside the library.

``Tracer.install`` replaces every module binding of each public function of
the layer modules (``from ..extension import extend`` copies the name into
the experiment modules, so each copy is swapped) and the ``Density.evaluate``
method with a wrapper that records one span per call: name, start, end,
parent span and job id.  Work counts are computed from the call arguments
before the call, so they repeat exactly from run to run.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer numbers and ``dump``
writes them out when the run ends.
"""

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("sphere", "extension", "tomography", "spherical", "reports")

# the extension functions that evaluate g dsigma hat on a point set
FIELD_EVALUATIONS = ("extension.extend", "extension.extend_field",
                     "extension.extend_plane_field")


def _key(*parts):
    """Digest of arrays and scalars: equal keys mean identical inputs."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        arr = np.ascontiguousarray(part)
        h.update(str((arr.dtype, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _density_key(g):
    return _key(g.grid.nodes, g.grid.weights, g.values)


# counters take the wrapped function's arguments and return the work counts
def _extend(g, x, chunk=None):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return {"point_nodes": pts.shape[0] * g.grid.node_count,
            "key": _key(_density_key(g), pts)}


def _extend_field(g, half_width, points_per_axis, *args, **kwargs):
    return {"point_nodes": int(points_per_axis) ** g.grid.dim * g.grid.node_count,
            "key": _key(_density_key(g), [half_width, points_per_axis])}


def _extend_plane_field(g, omega, t, truncation, n_samples):
    return {"point_nodes": int(n_samples) ** 2 * g.grid.node_count,
            "key": _key(_density_key(g), np.asarray(omega, dtype=float),
                        [t, truncation, n_samples])}


def _extend_slice(g, spec, v, n_slice=256):
    return {"slice_points": n_slice if g.grid.dim == 3 else 2}


def _ba_t(g1, g2, omega, t, n_slice=256, method="auto"):
    return {"slice_points": n_slice if np.size(omega) == 3 else 2}


def _bt_delta_circle_grid(g1, g2, delta):
    return {"bt_pairs": g1.grid.node_count ** 2}


def _xray(f, line, truncation, n_samples=1024):
    return {"line_samples": n_samples}


def _radon(f, plane, truncation, n_samples_per_axis=1024):
    # n = 2 delegates to xray, which counts its own samples
    n = np.size(plane.omega)
    return {"line_samples": n_samples_per_axis ** 2 if n == 3 else 0}


def _xray_profile(f, omega, half_width, samples_per_axis, truncation,
                  n_samples=1024):
    return {"line_samples": samples_per_axis ** (np.size(omega) - 1) * n_samples}


def _frac_laplacian(profile, *args, **kwargs):
    return {"fft_points": int(np.size(profile.values))}


def _make_sphere_grid(N_polar, N_azimuthal):
    return {"grid_nodes": N_polar * N_azimuthal}


def _make_circle_grid(N):
    return {"grid_nodes": N}


def _evaluate(self, points):
    pts = np.asarray(points)
    return {"points": 1 if pts.ndim == 1 else pts.shape[0]}


COUNTERS = {
    "extension.extend": _extend,
    "extension.extend_field": _extend_field,
    "extension.extend_plane_field": _extend_plane_field,
    "extension.extend_slice": _extend_slice,
    "spherical.BA_t": _ba_t,
    "spherical.bt_delta_circle_grid": _bt_delta_circle_grid,
    "tomography.xray": _xray,
    "tomography.radon": _radon,
    "tomography.xray_profile": _xray_profile,
    "tomography.frac_laplacian": _frac_laplacian,
    "sphere.make_sphere_grid": _make_sphere_grid,
    "sphere.make_circle_grid": _make_circle_grid,
    "sphere.evaluate": _evaluate,
}


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds (name, start, end, parent index or -1, job, counts)
    tuples in call order; ``job`` names the job that new spans belong to.
    """

    def __init__(self):
        self.spans = []
        self.job = "setup"
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = counter(*args, **kwargs) if counter is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job, counts)

        return traced

    def call(self, name, fn):
        """Run a zero-argument callable of the benchmark itself in a span."""
        return self._wrap(name, fn)()

    def install(self):
        """Swap every extomo binding of a layer function for its traced wrapper."""
        if self._restore:
            return
        import extomo.experiments  # noqa: F401  (load every binding site)
        from extomo.sphere import Density

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"extomo.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "extomo" and not modname.startswith("extomo."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        self._restore.append((Density, "evaluate", Density.evaluate))
        Density.evaluate = self._wrap("sphere.evaluate", Density.evaluate)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, counts in self.spans:
                counts = {k: v for k, v in (counts or {}).items() if k != "key"}
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "counts": counts}) + "\n")


def layer_metrics(spans, jobs):
    """Per-layer metrics of the spans whose job is in ``jobs``.

    Busy time of a layer (or function) sums the spans that have no ancestor
    in the same layer (function), so nested calls are not counted twice.
    Self time is a span's duration minus the durations of its direct
    children, summed over the layer.  Work counts of the field evaluations
    are taken only at the outermost extension span.
    """
    jobs = set(jobs)
    child = [0.0] * len(spans)
    for name, start, end, parent, job, counts in spans:
        if parent >= 0:
            child[parent] += end - start

    def ancestors(idx):
        parent = spans[idx][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    seen_keys = {}
    for idx, (name, start, end, parent, job, counts) in enumerate(spans):
        if job not in jobs:
            continue
        dur = end - start
        add("spans", 1)
        layer = name.split(".", 1)[0]
        up = list(ancestors(idx))
        up_layers = {a.split(".", 1)[0] for a in up}
        add(f"{layer}.self_s", dur - child[idx])
        if layer not in up_layers:
            add(f"{layer}.busy_s", dur)
            add(f"{layer}.calls", 1)
        if name not in up:
            add(f"{name}.busy_s", dur)
        add(f"{name}.calls", 1)
        for key, value in (counts or {}).items():
            if key != "key":
                add(f"{name}.{key}", value)
        if name in FIELD_EVALUATIONS and "extension" not in up_layers:
            pn = counts["point_nodes"]
            add("extension.point_nodes", pn)
            add("extension.field_busy_s", dur)
            keys = seen_keys.setdefault(job, set())
            if counts["key"] in keys:
                add("extension.repeat_point_nodes", pn)
            keys.add(counts["key"])
    return m
