"""The benchmark's workloads: seeded inputs and the job list of each.

Every job calls a public entry point of ``extomo.experiments`` at the sizes
of the CLI defaults (``scale="full"``) or at a few-second size for the
self-test (``scale="tiny"``).  The library receives only what the workload
seed generates: directions, density coefficients and experiment seeds.

Each workload loads one layer most and another little, so a change to one
layer has a workload that exercises it and one that bypasses it:

* ``structured``: the extension layer on structured point sets with many
  nodes (2401 line points and 481^2 plane patches against 18k nodes).
* ``slices``: the sphere-side slice layer (``spherical``); it makes no
  ``extend`` call at all.
* ``fields``: the tomography layer on analytic fields, with the extension
  layer used on few nodes (128) and many points (about 50k).
"""

import math
from dataclasses import dataclass

import numpy as np

from extomo import experiments as X
from extomo import sphere
from extomo.reports import ExperimentReport

WORKLOADS = ("structured", "slices", "fields")
SEED_MASK = 2 ** 64 - 1  # any integer seed, negative ones included
SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    """One experiment call: ``run()`` returns an ExperimentReport."""

    name: str
    run: object
    # report -> relative errors against exact values (identity or closed form)
    errors: object = lambda report: []


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def _smooth_density(grid, rng):
    """Positive smooth density 1 + 0.1 tanh(a.xi) + 0.05 (b.xi)^2, seeded a, b.

    Being positive, its |g| equals g, so the line identity evaluates the
    same field twice.  The modest amplitude keeps the truncation error of
    the line identity (which scales with g(+-omega)^2) within a narrow band
    across seeds.
    """
    a = rng.standard_normal(grid.dim)
    b = rng.standard_normal(grid.dim)

    def evaluator(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return 1.0 + 0.1 * np.tanh(pts @ a) + 0.05 * (pts @ b) ** 2

    return sphere.Density(grid, evaluator(grid.nodes), evaluator=evaluator)


def _seed(rng):
    return int(rng.integers(2 ** 31))


def _identity_errors(report):
    return [v for k, v in report.metrics.items() if k.startswith("rel_err")]


def _bt_bounds_report(delta_list, max_nodes):
    """bt_bounds_sweep with the checks of the ``sweep bt-bounds`` CLI adapter.

    The family is the CLI default, "constant".  The "random" family fails
    the adapter's r^2 >= 0.9 check at about half of all seeds (r^2 of 0.69
    to 0.87 at seeds 1, 2, 6, 7 and 10), so it cannot be a passing job.
    """
    fit_half, fit_one = X.bt_bounds_sweep(delta_list=delta_list,
                                          family="constant",
                                          max_nodes=max_nodes)
    report = ExperimentReport(name="bt_bounds_sweep",
                              params={"family": "constant"})
    report.check("slope", fit_one.slope, lo=0.0)
    report.check("r_squared", fit_one.r_squared, lo=0.9, hi=1.0)
    report.record("intercept", fit_one.intercept)
    report.record("slope_half_norm", fit_half.slope)
    report.record("r_squared_half_norm", fit_half.r_squared)
    return report


def _reduce_lemma_report(g, **sizes):
    report = X.verify_reduce_lemma(g, **sizes)
    # the experiment reports a ratio only; a positive finite ratio is its check
    report.check("ratio", report.metrics["ratio"], lo=np.finfo(float).tiny)
    return report


def structured(seed, scale):
    rng = np.random.default_rng([seed & SEED_MASK, 0])
    tiny = scale == "tiny"
    grid = sphere.make_sphere_grid(*((32, 64) if tiny else (96, 192)))
    g = _smooth_density(grid, rng)
    omega = _unit(rng, 3)
    cap3 = sphere.bump_cap_density(grid, omega, 0.7)
    circle = sphere.make_circle_grid(64 if tiny else 512)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    omega2 = np.array([math.cos(angle), math.sin(angle)])
    cap2 = sphere.bump_cap_density(circle, omega2, 0.7)
    xray_sizes = (dict(truncation=60.0, n_samples=481, n_t=16, n_slice=64)
                  if tiny else {})
    radon3_sizes = dict(truncation=20.0, n_samples=81) if tiny else {}
    radon2_sizes = dict(truncation=40.0, n_samples=161) if tiny else {}
    return [
        Job("verify_xray_identity",
            lambda: X.verify_xray_identity(g, omega, **xray_sizes),
            _identity_errors),
        Job("verify_radon_identity_n3",
            lambda: X.verify_radon_identity(cap3, omega, **radon3_sizes),
            _identity_errors),
        Job("verify_radon_identity_n2",
            lambda: X.verify_radon_identity(cap2, omega2, **radon2_sizes),
            _identity_errors),
    ]


def slices(seed, scale):
    rng = np.random.default_rng([seed & SEED_MASK, 1])
    tiny = scale == "tiny"
    grid = sphere.make_sphere_grid(*((8, 16) if tiny else (24, 48)))
    g = _smooth_density(grid, rng)
    necessity_seed = _seed(rng)
    t_delta_sizes = (dict(delta_list=(1e-1, 1e-2, 1e-3), n_u=24, n_slice=32)
                     if tiny else {})
    bt_sizes = ((1e-1, 3e-2, 1e-2), 1024) if tiny else \
        ((1e-1, 3e-2, 1e-2, 3e-3, 1e-3), 16384)
    reduce_sizes = (dict(omega_grid=sphere.make_sphere_grid(4, 8), n_v=9, n_t=6,
                         n_slice=32, n_s=6) if tiny else {})
    necessity_sizes = (dict(delta_list=(0.2, 0.1, 0.05), n_u=32, n_s=24,
                            n_slice=512) if tiny else {})

    def t_delta():
        return X.t_delta_log_law(**t_delta_sizes)[1]

    def necessity():
        return X.necessity_band_example(seed=necessity_seed,
                                        **necessity_sizes)[0]

    return [
        Job("t_delta_log_law", t_delta,
            lambda r: [abs(r.metrics["slope"] - 4.0) / 4.0]),
        Job("bt_bounds_sweep", lambda: _bt_bounds_report(*bt_sizes)),
        Job("verify_reduce_lemma",
            lambda: _reduce_lemma_report(g, **reduce_sizes)),
        Job("necessity_band_example", necessity,
            lambda r: [r.metrics["exponent_gap"] / r.metrics["target_exponent"]]),
    ]


def fields(seed, scale):
    rng = np.random.default_rng([seed & SEED_MASK, 2])
    tiny = scale == "tiny"
    isometry_seed = _seed(rng)
    wmiztak_seed = _seed(rng)
    isometry_sizes = dict(n_funcs=3, n_omega=8) if tiny else {}
    wmiztak_sizes = dict(R_list=(16, 32), n_random=2, R_mt=8.0) if tiny else {}
    return [
        Job("isometry_constancy",
            lambda: X.isometry_constancy(seed=isometry_seed, **isometry_sizes),
            lambda r: [r.metrics["c2_vs_closed_form"]]),
        Job("verify_wmiztak",
            lambda: X.verify_wmiztak(seed=wmiztak_seed, **wmiztak_sizes)),
    ]


BUILDERS = {"structured": structured, "slices": slices, "fields": fields}


def build(workload, seed, scale="full"):
    """Build the workload's grids and densities from the seed; return its jobs."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (choose from {WORKLOADS})")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r} (choose from {SCALES})")
    return BUILDERS[workload](seed, scale)
