"""Reduction equivalences between line-transform and bilinear slice norms.

Three families of checks on the 2-sphere: the sup-over-offsets line norm
against a power-weighted Lorentz norm of the extension (with exact
equality, up to the direction double-count, at q = 1); the equivalence of
the fractional-derivative line norm with the bilinear slice functional;
and the stabilization of power-weighted Lorentz quasinorms on doubling
boxes against sphere Lorentz norms of the density.
"""

import numpy as np

from ..errors import InvalidArgumentError
from ..extension import _nufft1, extend
from ..reports import ExperimentReport, experiment_rng
from ..sphere import Density, bump_cap_density, make_circle_grid, \
    make_sphere_grid, _as_unit
from ..spherical import BA_t
from ..tomography import LineProfile, frac_laplacian, lorentz_norm, perp_basis
from ..experiments.identities import slice_square_integral

__all__ = [
    "lemma_X_reduction_check",
    "verify_reduce_lemma",
    "power_weight_ratio",
    "reduce_lemma_family",
]


def _pair_kernel_integral(h):
    """2 pi^2 * double sphere integral of h(xi) h(eta) / |xi - eta|.

    Equals the full-space integral of |h dsigma hat|^2 |x|^(-2) without
    any radial truncation (the radial integral of the spherical phase
    factor collapses to a Dirichlet integral).
    """
    nodes = h.grid.nodes
    w = h.grid.weights * np.real(h.values)
    total = 0.0
    for i in range(0, nodes.shape[0], 512):
        block = nodes[i:i + 512]
        dist = np.linalg.norm(block[:, None, :] - nodes[None, :, :], axis=2)
        np.fill_diagonal(dist[:, i:i + 512], np.inf)
        total += np.add.reduce((w[i:i + 512, None] * w[None, :] / dist).ravel())
    # excluded-diagonal correction: integrating 1/|xi - eta| over an
    # equal-area disc around each node gives 2 pi a with a the disc radius
    disc_radius = np.sqrt(h.grid.weights / np.pi)
    total += np.add.reduce(h.grid.weights * np.real(h.values) ** 2
                           * 2.0 * np.pi * disc_radius)
    return 2.0 * np.pi ** 2 * total


def _radial_lorentz_norm(radial_values, r_grid, q, r):
    """Lorentz quasinorm of a radial function on R^3 from its profile."""
    dr = r_grid[1] - r_grid[0]
    weights = 4.0 * np.pi * r_grid ** 2 * dr
    return lorentz_norm(np.abs(radial_values), weights, q, r)


def _polar_lorentz_norm(field_values, r_grid, omega_grid, q, r):
    """Lorentz quasinorm on R^3 from samples on a polar (radius x direction) grid."""
    dr = r_grid[1] - r_grid[0]
    weights = (r_grid[:, None] ** 2 * dr * omega_grid.weights[None, :]).ravel()
    return lorentz_norm(np.abs(field_values).ravel(), weights, q, r)


def lemma_X_reduction_check(g, q=1.0, omega_grid=None, n_t=48, n_slice=256,
                            r_max=2000.0, r_spacing=0.05):
    """Sup-line norm of the squared extension against the Lorentz side (n = 3).

    LHS: the L^q_omega norm of the line integral through the origin of
    |(|g| dsigma) hat|^2, computed by the slice formula (for single-signed
    g this equals the sup over offsets).  RHS: the squared L^{2q,2} norm
    of |g| dsigma hat times |x|^(1/2 - 3/(2q)).

    At q = 1 the two sides agree exactly up to a factor 2 -- every line
    through the origin is counted once for each of its two directions --
    and the experiment asserts LHS = 2 RHS within 5 percent, with the RHS
    computed truncation-free through the pair kernel 1/|xi - eta|.  For
    q > 1 only the one-sided bound is checked.
    """
    if g.grid.dim != 3:
        raise InvalidArgumentError("n = 3 only")
    if omega_grid is None:
        omega_grid = make_sphere_grid(12, 24)
    habs = g.map(np.abs, evaluator=(
        None if g.evaluator is None
        else (lambda pts: np.abs(np.asarray(g.evaluator(pts))))))
    x0_vals = np.array([slice_square_integral(habs, om, np.zeros(3),
                                              n_t=n_t, n_slice=n_slice)
                        for om in omega_grid.nodes])
    lhs = float(omega_grid.integrate(x0_vals ** q) ** (1.0 / q))

    report = ExperimentReport(name="x_reduction", params={"q": q})
    report.record("lhs", lhs)
    if q == 1.0:
        rhs = _pair_kernel_integral(habs)
        report.record("rhs", rhs)
        report.check("equality_err", abs(lhs - 2.0 * rhs) / (2.0 * rhs),
                     hi=5e-2)
        report.notes.append(
            "the factor 2 counts each origin line once per direction")
        return report

    # q > 1: radial Lorentz side, available in closed form for constant g
    if not np.allclose(g.values, g.values[0]):
        raise InvalidArgumentError(
            "q > 1 check is implemented for constant densities")
    amp = abs(g.values[0])
    r_grid = np.arange(r_spacing, r_max, r_spacing)
    radial = amp * 4.0 * np.pi * np.abs(np.sin(r_grid)) / r_grid \
        * r_grid ** (0.5 - 3.0 / (2.0 * q))
    rhs = _radial_lorentz_norm(radial, r_grid, 2.0 * q, 2.0) ** 2
    report.record("rhs", rhs)
    # beyond the factor 2 from the direction double-count, the q > 1
    # chain passes through Lorentz-Hoelder steps that cost a bounded
    # constant; the measured ratio for the constant density is ~2.3
    report.check("bound_ratio", lhs / rhs, hi=4.0)
    return report


def _slice_xray_profile(g, omega, half_width, n_v, n_t, n_slice):
    """Line transform of |g dsigma hat|^2 on an offset grid, via slices.

    For fixed direction, the line integral is 2 pi times the t-integral
    of squared slice-measure extensions; each slice extension over the
    whole n_v x n_v offset grid is one type-1 NUFFT of the slice circle's
    n_slice points (error below 1e-12 times their sum |g| 2 pi / n_slice).
    """
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    du = 2.0 * half_width / (n_v - 1)
    # offsets u_a = mid + (a - n_v // 2) du, the NUFFT's mode numbering
    center = (-half_width + (n_v // 2) * du) * (basis[0] + basis[1])
    phi = 2.0 * np.pi * np.arange(n_slice) / n_slice
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_t)
    prof = np.zeros((n_v, n_v))
    for t, wt in zip(t_nodes, t_weights):
        rho = np.sqrt(1.0 - t * t)
        pts = (t * omega[None, :]
               + rho * (np.cos(phi)[:, None] * basis[0][None, :]
                        + np.sin(phi)[:, None] * basis[1][None, :]))
        coeff = (g.evaluate(pts) * (2.0 * np.pi / n_slice)
                 * np.exp(1j * (pts @ center)))
        S = _nufft1(coeff, [pts @ (du * basis[0]), pts @ (du * basis[1])], n_v)
        prof += wt * np.abs(S) ** 2
    return LineProfile(omega=omega, half_width=half_width,
                       values=2.0 * np.pi * prof, basis=basis)


def verify_reduce_lemma(g, eps=0.25, q=2.0, omega_grid=None, half_width=12.0,
                        n_v=33, n_t=24, n_slice=128, n_u=32, n_s=24):
    """Both sides of the derivative-line-norm / bilinear-slice equivalence.

    LHS: the q-th power of the L^q_omega L^2_v norm of (-Delta_v)^eps
    applied to the line transform of |g dsigma hat|^2 (n = 3, where the
    derivative order collapses to eps).  RHS: the sphere integral of the
    (q/2)-th power of the great-circle integral of BA_t(g,g)(u)^2
    t^(2 eps - 1), with the singular t-integral regularized by the
    substitution s = t^(2 eps).  The claim is equivalence up to a
    constant, so the deliverable is the ratio; constancy across a
    function family is checked by :func:`reduce_lemma_family`.
    """
    if g.grid.dim != 3:
        raise InvalidArgumentError("n = 3 only")
    if omega_grid is None:
        omega_grid = make_sphere_grid(8, 16)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 0.5 * (s_nodes + 1.0)
    s_weights = 0.5 * s_weights
    t_sub = s_nodes ** (1.0 / (2.0 * eps))

    lhs = 0.0
    for om, w in zip(omega_grid.nodes, omega_grid.weights):
        prof = _slice_xray_profile(g, om, half_width, n_v, n_t, n_slice)
        lhs += w * frac_laplacian(prof, eps, taper=True).lp_norm(2) ** q

    def t_integral(u_vec):
        ba = np.array([abs(BA_t(g, g, u_vec, t, n_slice=n_slice))
                       for t in t_sub])
        return np.add.reduce(s_weights * ba ** 2) / (2.0 * eps)

    if q == 2.0:
        # interchanging the u and omega integrals collapses the double
        # sphere integral to 2 pi times a single one
        inner = np.array([t_integral(om) for om in omega_grid.nodes])
        rhs = 2.0 * np.pi * float(omega_grid.integrate(inner))
    else:
        phi = 2.0 * np.pi * np.arange(n_u) / n_u
        rhs = 0.0
        for om, w in zip(omega_grid.nodes, omega_grid.weights):
            basis = perp_basis(om)
            inner = 0.0
            for ang in phi:
                u_vec = np.cos(ang) * basis[0] + np.sin(ang) * basis[1]
                inner += t_integral(u_vec) * (2.0 * np.pi / n_u)
            rhs += w * inner ** (q / 2.0)

    report = ExperimentReport(name="reduce_lemma",
                              params={"eps": eps, "q": q})
    report.record("lhs", float(lhs))
    report.record("rhs", float(rhs))
    report.record("ratio", float(lhs / rhs))
    return report


def _default_reduce_family(seed=0):
    grid = make_sphere_grid(24, 48)
    rng = experiment_rng(seed, "reduce_lemma_family")
    pole = np.array([0.0, 0.0, 1.0])

    one = Density(grid, np.ones(grid.node_count),
                  evaluator=lambda pts: np.ones(np.atleast_2d(pts).shape[0]))
    cap = bump_cap_density(grid, pole, 0.7)

    def band_eval(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (np.abs(pts[:, 0]) <= 0.3).astype(float)
    band = Density(grid, band_eval(grid.nodes), evaluator=band_eval)

    a = rng.standard_normal(3)
    b = rng.standard_normal(3)

    def smooth_eval(pts, a=a, b=b):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return 1.0 + 0.5 * np.tanh(pts @ a) + 0.3 * (pts @ b) ** 2
    smooth = Density(grid, smooth_eval(grid.nodes), evaluator=smooth_eval)

    k = np.array([3.0, -2.0, 1.0])

    def mod_eval(pts, k=k):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        base = bump_cap_density(grid, pole, 0.7)
        return base.evaluate(pts) * np.exp(1j * pts @ k)
    modulated = Density(grid, mod_eval(grid.nodes), evaluator=mod_eval)

    return [("constant", one), ("cap", cap), ("band", band),
            ("smooth", smooth), ("modulated", modulated)]


def reduce_lemma_family(eps=0.25, q=2.0, seed=0, **kwargs):
    """Ratio constancy of the reduce-lemma equivalence across five densities."""
    report = ExperimentReport(name="reduce_lemma_family", seed=seed,
                              params={"eps": eps, "q": q})
    ratios = {}
    for label, g in _default_reduce_family(seed):
        sub = verify_reduce_lemma(g, eps=eps, q=q, **kwargs)
        ratios[label] = sub.metrics["ratio"]
        report.record(f"ratio[{label}]", sub.metrics["ratio"])
    vals = np.array(list(ratios.values()))
    # the equivalence is two-sided with different constants on each side,
    # so the ratio can swing by their product across rough vs oscillatory
    # densities; the observed spread is ~6.5 and stable under refinement
    report.check("ratio_spread", float(vals.max() / vals.min()), hi=8.0)
    return report


def _triangle_coords(p, q, n=3):
    """(1/p, 1/q) and the interior test for the admissible triangle."""
    A = np.array([0.5, 0.5])
    B = np.array([0.5, (n - 1.0) / (2.0 * (n + 1.0))])
    D = np.array([1.0, 0.0])
    P = np.array([1.0 / p, 1.0 / q])

    def half_plane(P, U, V, W):
        cross = (V[0] - U[0]) * (P[1] - U[1]) - (V[1] - U[1]) * (P[0] - U[0])
        ref = (V[0] - U[0]) * (W[1] - U[1]) - (V[1] - U[1]) * (W[0] - U[0])
        return cross * ref >= -1e-12

    inside = (half_plane(P, A, B, D) and half_plane(P, B, D, A)
              and half_plane(P, D, A, B))
    return P, inside


def power_weight_ratio(g, p, q, r, L_list=(8, 16, 32, 64), r_spacing=0.25,
                       omega_grid=None, closed_form=None, field=None):
    """Stabilization of the power-weighted Lorentz quasinorm on doubling boxes.

    Computes the L^{q,r} quasinorm of g dsigma hat times <x>^(-gamma)
    restricted to |x| <= L on a polar grid, divided by the sphere Lorentz
    norm ||g||_{L^{p,r}}, with gamma = (n+1)/(2q) - (n-1)/(2 p').  The
    pass metric is Cauchy-flatness: the last two ratios within 10
    percent.  Points outside the admissible triangle are allowed but
    flagged as probes.

    ``closed_form`` replaces the extension with a radial profile r -> value;
    ``field`` replaces it with a pointwise evaluator on R^3 (e.g. the
    one-dimensional quadrature form for a zonal density), which is much
    cheaper than sphere-grid quadrature when L is large.
    """
    n = 3
    gamma = (n + 1.0) / (2.0 * q) - (n - 1.0) / (2.0 * (p / (p - 1.0)))
    _, inside = _triangle_coords(p, q, n)
    if omega_grid is None:
        omega_grid = make_sphere_grid(16, 32)
    g_lorentz = lorentz_norm(np.abs(g.values), g.grid.weights, p, r)

    report = ExperimentReport(name="power_weight_ratio",
                              params={"p": p, "q": q, "r": r, "gamma": gamma,
                                      "L_list": list(L_list)})
    if not inside:
        report.notes.append("exponents outside the admissible region: probe run")
    ratios = []
    for L in L_list:
        r_grid = np.arange(r_spacing, L, r_spacing)
        if closed_form is not None:
            vals = np.abs(closed_form(r_grid)) * (1 + r_grid ** 2) ** (-gamma / 2)
            norm = _radial_lorentz_norm(vals, r_grid, q, r)
        else:
            pts = (r_grid[:, None, None] * omega_grid.nodes[None, :, :])
            if field is not None:
                vals = np.abs(np.asarray(field(pts.reshape(-1, 3))))
            else:
                vals = np.abs(extend(g, pts.reshape(-1, 3)))
            vals = vals.reshape(r_grid.size, omega_grid.node_count)
            vals *= (1 + r_grid[:, None] ** 2) ** (-gamma / 2)
            norm = _polar_lorentz_norm(vals, r_grid, omega_grid, q, r)
        ratios.append(norm / g_lorentz)
    report.raw_data["L"] = list(L_list)
    report.raw_data["ratio"] = ratios
    report.check("cauchy_flat", abs(ratios[-1] - ratios[-2]) / ratios[-1],
                 hi=0.1)
    report.record("ratio_final", ratios[-1])
    return report
