"""Projected gradient ascent over densities for sharp-constant probes.

Each functional is a scale-invariant Rayleigh-type quotient on densities;
the extremizer search renormalizes to unit L^p norm after every step and
climbs with finite-difference gradients and a halving line search.  The
functionals are compiled to small linear operators on node values first,
so an objective evaluation is a couple of matrix-vector products.
"""

import re

import numpy as np

from ..errors import InvalidArgumentError, NonFiniteObjectiveError
from ..reports import ExperimentReport, experiment_rng
from ..extension import slice_rule
from ..sphere import (Density, _gauss_legendre, _trapezoid_weights,
                      make_circle_grid, make_sphere_grid)
from ..spherical import t_delta_via_slices

__all__ = ["extremize"]


def _parse_functional(functional_id):
    """Split e.g. 'xray_sup_ratio(2,inf)' into name and numeric args."""
    m = re.fullmatch(r"\s*(\w+)\s*(?:\(([^)]*)\))?\s*", functional_id)
    if not m:
        raise InvalidArgumentError(f"cannot parse functional {functional_id!r}")
    name, argstr = m.group(1), m.group(2)
    args = []
    if argstr:
        for tok in argstr.split(","):
            tok = tok.strip()
            args.append(np.inf if tok in ("inf", "oo") else float(tok))
    return name, args


def _xray_sup_functional(grid, q):
    """L^q_omega norm of the origin line integral of |g dsigma hat|^2.

    At the line offset zero the slice extension degenerates to the plain
    slice integral of g, so the whole functional is a quadratic form: one
    row of the compiled matrix per (direction, slice), over a 4 x 8
    direction grid and 16 slices of 64 points.  A row adds the slice weight
    at the node nearest each slice point.
    """
    n_t, n_slice = 16, 64
    omega_grid = make_sphere_grid(4, 8)
    t_nodes, t_weights = _gauss_legendre(n_t)
    pts, w = slice_rule(omega_grid.nodes, t_nodes, n_slice)
    idx = grid.nearest_node(pts.reshape(-1, grid.dim)).reshape(-1, n_slice)
    A = np.zeros((idx.shape[0], grid.node_count))
    np.add.at(A, (np.arange(idx.shape[0])[:, None], idx),
              np.tile(w, omega_grid.node_count)[:, None])
    A = A.reshape(omega_grid.node_count, n_t, grid.node_count)
    p_norm_weights = grid.weights

    def objective(x):
        slice_ints = A @ np.abs(x)
        line_vals = 2.0 * np.pi * (slice_ints ** 2) @ t_weights
        if np.isinf(q):
            num = line_vals.max()
        else:
            num = float(omega_grid.integrate(line_vals ** q) ** (1.0 / q))
        den = np.add.reduce(p_norm_weights * np.abs(x) ** 2)
        return num / den

    return objective


def _t_delta_functional(grid, p, q, delta):
    """L^q_omega norm of T_delta(|g|^2) over ||g||_p^2 on the circle, over
    8 equispaced directions."""
    step = max(1, grid.node_count // 8)
    omegas = grid.nodes[::step]
    cols = []
    for k in range(grid.node_count):
        e_k = np.zeros(grid.node_count)
        e_k[k] = 1.0
        f = Density(grid, e_k)
        cols.append([t_delta_via_slices(f, om, delta, n_u=96)
                     for om in omegas])
    B = np.array(cols).T
    w_omega = 2.0 * np.pi / omegas.shape[0]
    p_norm_weights = grid.weights

    def objective(x):
        vals = B @ np.abs(x) ** 2
        if np.isinf(q):
            num = vals.max()
        else:
            num = (np.add.reduce(vals ** q) * w_omega) ** (1.0 / q)
        den = np.add.reduce(p_norm_weights * np.abs(x) ** p) ** (2.0 / p)
        return num / den

    return objective


def _mt_radial_functional(grid):
    """Weighted mass of |g dsigma hat|^2 against the radial weight <x>^-1
    on the disc of radius 16, sampled at spacing 0.5, normalized by the
    sup of the weight's line transform and ||g||_2^2."""
    R = 16.0
    u = np.linspace(-R, R, int(2 * R / 0.5) + 1)
    trap = _trapezoid_weights(u.size)
    xx, yy = np.meshgrid(u, u, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    inside = np.add.reduce(pts ** 2, axis=1) <= R * R
    pts = pts[inside]
    du = u[1] - u[0]
    quad_w = ((trap[:, None] * trap[None, :]).ravel()[inside]
              * du * du / np.sqrt(1.0 + np.add.reduce(pts ** 2, axis=1)))
    P = np.exp(1j * pts @ grid.nodes.T) * grid.weights[None, :]
    sup_xw = 2.0 * np.arcsinh(R)
    p_norm_weights = grid.weights

    def objective(x):
        field = np.abs(P @ x) ** 2
        num = np.add.reduce(quad_w * field)
        den = sup_xw * np.add.reduce(p_norm_weights * np.abs(x) ** 2)
        return num / den

    return objective


def _build_functional(functional_id):
    """Compile a functional id to (objective, grid, p) for ascent.

    Supported ids: ``xray_sup_ratio(p,q)`` on the 8 x 16 grid of the
    2-sphere, ``T_delta_norm(p,q,delta)`` on the 32-node circle and
    ``MT_radial_constant`` on the 64-node circle.  ``p`` is the exponent
    of the unit-norm constraint.
    """
    name, args = _parse_functional(functional_id)
    if name == "xray_sup_ratio":
        p, q = args if args else (2.0, np.inf)
        if p != 2.0:
            raise InvalidArgumentError("xray_sup_ratio requires p = 2")
        grid = make_sphere_grid(8, 16)
        return _xray_sup_functional(grid, q), grid, p
    if name == "T_delta_norm":
        if len(args) != 3:
            raise InvalidArgumentError("T_delta_norm takes (p, q, delta)")
        p, q, delta = args
        grid = make_circle_grid(32)
        return _t_delta_functional(grid, p, q, delta), grid, p
    if name == "MT_radial_constant":
        grid = make_circle_grid(64)
        return _mt_radial_functional(grid), grid, 2.0
    raise InvalidArgumentError(f"unknown functional {name!r}")


def _normalize(x, weights, p):
    return x / np.add.reduce(weights * np.abs(x) ** p) ** (1.0 / p)


def extremize(functional="xray_sup_ratio(2,inf)", steps=40, step_size=0.5,
              seed=0):
    """Monotone projected gradient ascent of a Rayleigh-type functional.

    Starts from a seeded random positive density on the grid of
    ``_build_functional``, renormalizes to unit L^p norm after every move,
    climbs along forward-difference gradients of step 1e-5, and accepts a
    step only if the objective increases, halving the step length until it
    does.  Returns a report whose raw data hold the (nondecreasing)
    objective trace, also as the ``abscissa``/``ordinate`` sweep, and the
    best density's node values.  A non-finite objective value aborts the
    search.
    """
    objective, grid, p = _build_functional(functional)
    rng = experiment_rng(seed, f"extremize:{functional}")
    x = _normalize(rng.uniform(0.5, 1.5, size=grid.node_count),
                   grid.weights, p)

    def checked(x):
        val = objective(x)
        if not np.isfinite(val):
            raise NonFiniteObjectiveError(
                f"objective of {functional} is {val!r} at iterate with "
                f"value range [{x.min():.3g}, {x.max():.3g}]")
        return val

    fd_step = 1e-5
    trace = [checked(x)]
    accepted = 0
    for _ in range(steps):
        base = trace[-1]
        grad = np.empty_like(x)
        for i in range(x.size):
            x_pert = x.copy()
            x_pert[i] += fd_step
            grad[i] = (checked(x_pert) - base) / fd_step
        gnorm = np.linalg.norm(grad)
        if gnorm == 0:
            break
        direction = grad / gnorm
        s = step_size
        moved = False
        while s > step_size * 2.0 ** -20:
            cand = _normalize(x + s * direction, grid.weights, p)
            val = checked(cand)
            if val > base:
                x, moved = cand, True
                trace.append(val)
                accepted += 1
                break
            s /= 2.0
        if not moved:
            break

    report = ExperimentReport(
        name="extremize", seed=seed,
        params={"functional": functional, "steps": steps,
                "step_size": step_size})
    trace = [float(v) for v in trace]
    report.raw_data["objective"] = trace
    report.raw_data["abscissa"] = list(range(len(trace)))
    report.raw_data["ordinate"] = trace
    report.raw_data["density_values"] = [float(v) for v in x]
    report.record("objective_init", trace[0])
    report.record("objective_final", trace[-1])
    report.record("accepted_steps", float(accepted))
    final_norm = np.add.reduce(grid.weights * np.abs(x) ** p) ** (1.0 / p)
    report.check("unit_norm_err", abs(final_norm - 1.0), hi=1e-10)
    report.check("monotone", float(np.min(np.diff(trace))) if len(trace) > 1
                 else 0.0, lo=0.0)
    return report
