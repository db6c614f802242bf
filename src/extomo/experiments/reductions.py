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
from ..extension import _constant_extension, _slice_phase_tables, extend, slice_rule
from ..reports import ExperimentReport, experiment_rng
from ..sphere import _gauss_legendre, make_sphere_grid, preset_density
from ..spherical import BA_t, S_operator
from ..tomography import SampledField, frac_laplacian, lorentz_norm
from .identities import _require_resolved

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


def lemma_X_reduction_check(g, q=1.0):
    """Sup-line norm of the squared extension against the Lorentz side (n = 3).

    LHS: the L^q_omega norm of the line integral through the origin of
    |(|g| dsigma) hat|^2, computed by the slice formula (for single-signed
    g this equals the sup over offsets).  RHS: the squared L^{2q,2} norm
    of |g| dsigma hat times |x|^(1/2 - 3/(2q)).

    At q = 1 the two sides agree exactly up to a factor 2 -- every line
    through the origin is counted once for each of its two directions --
    and the experiment asserts LHS = 2 RHS within 5 percent, with the RHS
    computed truncation-free through the pair kernel 1/|xi - eta|.  For
    q > 1 and g = c on the whole sphere, the one-sided bound is checked
    against |c| sigma-hat sampled at spacing 0.05 out to radius 2000.  The
    line integrals use 48 slices of 256 points over one direction of each
    antipodal pair of a 12 x 24 grid; symmetric t nodes make S even in omega.
    """
    if g.grid.dim != 3:
        raise InvalidArgumentError("n = 3 only")
    omegas, weights = make_sphere_grid(12, 24).line_directions()
    habs = g.map(np.abs)
    x0_vals = np.array([2.0 * np.pi * S_operator(habs, om, n_t=48,
                                                 n_slice=256) ** 2
                        for om in omegas])
    lhs = float(np.add.reduce(weights * x0_vals ** q) ** (1.0 / q))

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
    profile = _constant_extension(g)
    if profile is None:
        raise InvalidArgumentError(
            "q > 1 check needs a constant density on the whole sphere")
    r_grid = np.arange(0.05, 2000.0, 0.05)
    radial = profile(r_grid) * r_grid ** (0.5 - 3.0 / (2.0 * q))
    rhs = _radial_lorentz_norm(radial, r_grid, 2.0 * q, 2.0) ** 2
    report.record("rhs", rhs)
    # beyond the factor 2 from the direction double-count, the q > 1
    # chain passes through Lorentz-Hoelder steps that cost a bounded
    # constant; the measured ratio for the constant density is ~2.3
    report.check("bound_ratio", lhs / rhs, hi=4.0)
    return report


# directions per block of _slice_xray_profiles; every block has this shape
_PROFILE_BLOCK = 4
# rows per BA_t call of _ba_square_integral: 128 rows (9.4 MB of points) run slower
_BA_BLOCK = 8


def _slice_xray_profiles(g, omegas, half_width, n_v, n_t, n_slice):
    """Per direction, the line transform of |g dsigma hat|^2 on n_v^2 offsets:
    2 pi times the t-integral of |slice extension|^2 (``_slice_phase_tables``).

    The directions go in blocks of exactly ``_PROFILE_BLOCK``, the last one
    zero-padded: one ``slice_rule`` call and one ``g.evaluate`` a block, and
    per t-node one (4 n_v x n_slice) @ (n_slice x n_v) product.  The shape
    is fixed because BLAS rounds a row by the row count of its product, so
    a direction's profile is the one it gives alone only if every block has
    the same shape; the block is small because its temporaries scale with it.
    """
    t_nodes, t_weights = _gauss_legendre(n_t)
    E1, E2 = _slice_phase_tables(n_t, n_slice, half_width, n_v)
    B = _PROFILE_BLOCK
    c = np.empty((n_t, B, n_slice), dtype=complex)
    P = np.empty((n_t, B, n_v, n_v))
    profiles = []
    for start in range(0, len(omegas), B):
        rows = omegas[start:start + B]
        K = len(rows)
        pts, w = slice_rule(rows, t_nodes, n_slice)
        vals = g.evaluate(pts.reshape(-1, 3)).reshape(K, n_t, n_slice)
        c[:, :K] = vals.transpose(1, 0, 2) * w[:, None, None]
        c[:, K:] = 0.0
        for i in range(n_t):
            # |S|^2 per t-node: a whole block's S raises the peak by about 3 MB
            S = (E1[i] * c[i, :, None, :]).reshape(B * n_v, n_slice) @ E2[i]
            P[i] = (S.real ** 2 + S.imag ** 2).reshape(B, n_v, n_v)
        profiles += [SampledField(half_width, 2.0 * np.pi * np.tensordot(
            t_weights, P[:, k], axes=1)) for k in range(K)]
    return profiles


def _s_rule(eps, n_s):
    """(t_nodes, s_weights): n_s-point Gauss-Legendre in s = t^(2 eps), so the
    integral of f(t) t^(2 eps - 1) over (0, 1) is sum(s_weights f) / (2 eps)."""
    s_nodes, s_weights = _gauss_legendre(n_s)
    return (0.5 * (s_nodes + 1.0)) ** (1.0 / (2.0 * eps)), 0.5 * s_weights


def _ba_square_integral(g, eps, n_s, n_slice):
    """u -> integral over t in (0, 1) of |BA_t(g,g)(u)|^2 t^(2 eps - 1) by
    ``_s_rule`` (s = t^(2 eps) removes the singularity); a (K, 3) stack of u
    goes to BA_t in blocks of ``_BA_BLOCK``, row k bit for bit u[k] alone."""
    t_nodes, s_weights = _s_rule(eps, n_s)

    def integral(u_rows):
        ba = np.concatenate([BA_t(g, g, u_rows[k:k + _BA_BLOCK], t_nodes,
                                  n_slice=n_slice)
                             for k in range(0, len(u_rows), _BA_BLOCK)])
        # as abs() of each complex; np.abs of an array can differ by an ulp
        ba = np.hypot(ba.real, ba.imag)
        return np.add.reduce(s_weights * ba ** 2, axis=-1) / (2.0 * eps)

    return integral


def verify_reduce_lemma(g, eps=0.25, q=2.0, omega_grid=None, n_v=33, n_t=24,
                        n_slice=128, n_s=24):
    """Both sides of the derivative-line-norm / bilinear-slice equivalence.

    LHS: the q-th power of the L^q_omega L^2_v norm of (-Delta_v)^eps
    applied to the line transform of |g dsigma hat|^2 (n = 3, where the
    derivative order collapses to eps).  RHS: the sphere integral of the
    (q/2)-th power of the great-circle integral of BA_t(g,g)(u)^2
    t^(2 eps - 1), with the singular t-integral regularized by the
    substitution s = t^(2 eps).  Line profiles cover the offsets
    [-12, 12]^2; for q != 2 each great circle takes 32 points.  omega and
    -omega give the same lines and the same great circle, so both omega
    sweeps visit one node of each antipodal pair of ``omega_grid``.  The
    claim is equivalence up to a constant, so the deliverable is the
    ratio; constancy across a function family is checked by
    :func:`reduce_lemma_family`.
    """
    if g.grid.dim != 3:
        raise InvalidArgumentError("n = 3 only")
    if omega_grid is None:
        omega_grid = make_sphere_grid(8, 16)
    lines = omega_grid.line_directions()
    profiles = _slice_xray_profiles(g, lines[0], 12.0, n_v, n_t, n_slice)
    lhs = sum(w * frac_laplacian(prof, eps).lp_norm(2) ** q
              for prof, w in zip(profiles, lines[1]))

    t_integral = _ba_square_integral(g, eps, n_s, n_slice)

    if q == 2.0:
        # interchanging the u and omega integrals collapses the double
        # sphere integral to 2 pi times a single one
        inner = t_integral(omega_grid.nodes)
        rhs = 2.0 * np.pi * float(omega_grid.integrate(inner))
    else:
        rhs = 0.0
        # the great circle perp to omega is the t = 0 slice
        circles, w_u = slice_rule(lines[0], 0.0, 32)
        for circle, w in zip(circles, lines[1]):
            # summed left to right: np.add.reduce would pair the terms
            inner = sum(t_integral(circle) * w_u)
            rhs += w * inner ** (q / 2.0)

    report = ExperimentReport(name="reduce_lemma",
                              params={"eps": eps, "q": q})
    report.record("lhs", float(lhs))
    report.record("rhs", float(rhs))
    report.record("ratio", float(lhs / rhs))
    return report


def reduce_lemma_family(eps=0.25, q=2.0, seed=0):
    """Ratio constancy of the reduce-lemma equivalence across five densities."""
    grid = make_sphere_grid(24, 48)
    rng = experiment_rng(seed, "reduce_lemma_family")
    report = ExperimentReport(name="reduce_lemma_family", seed=seed,
                              params={"eps": eps, "q": q})
    ratios = {}
    for label in ("constant", "cap", "band", "smooth", "modulated"):
        g = preset_density(grid, label, rng, k=(3, -2, 1))
        sub = verify_reduce_lemma(g, eps=eps, q=q)
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


def power_weight_ratio(g, p, q, r, L_list=(8, 16, 32, 64)):
    """Stabilization of the power-weighted Lorentz quasinorm on doubling boxes.

    Computes the L^{q,r} quasinorm of g dsigma hat times <x>^(-gamma)
    restricted to |x| <= L on a polar grid (radial spacing 0.25, 16 x 32
    directions), divided by the sphere Lorentz
    norm ||g||_{L^{p,r}}, with gamma = (n+1)/(2q) - (n-1)/(2 p').  The
    pass metric is Cauchy-flatness: the last two ratios within 10
    percent.  Points outside the admissible triangle are allowed but
    flagged as probes.

    A constant g = c takes its exact, radial extension |c| sigma-hat on any
    full-sphere grid; every other g, a constant on a zonal band included,
    needs a grid that resolves the phases out to the largest radius.
    """
    if len(L_list) < 2:
        raise InvalidArgumentError(f"cauchy_flat needs two L, got {L_list}")
    profile = _constant_extension(g)
    if profile is None:
        _require_resolved(g.grid, np.arange(0.25, max(L_list), 0.25)[-1])
    n = 3
    gamma = (n + 1.0) / (2.0 * q) - (n - 1.0) / (2.0 * (p / (p - 1.0)))
    _, inside = _triangle_coords(p, q, n)
    omega_grid = make_sphere_grid(16, 32)
    g_lorentz = lorentz_norm(np.abs(g.values), g.grid.weights, p, r)

    report = ExperimentReport(name="power_weight_ratio",
                              params={"p": p, "q": q, "r": r, "gamma": gamma,
                                      "L_list": list(L_list)})
    if not inside:
        report.notes.append("exponents outside the admissible region: probe run")
    ratios = []
    for L in L_list:
        r_grid = np.arange(0.25, L, 0.25)
        if profile is not None:
            vals = profile(r_grid) * (1 + r_grid ** 2) ** (-gamma / 2)
            norm = _radial_lorentz_norm(vals, r_grid, q, r)
        else:
            pts = (r_grid[:, None, None] * omega_grid.nodes[None, :, :])
            vals = np.abs(extend(g, pts.reshape(-1, 3)))
            vals = vals.reshape(r_grid.size, omega_grid.node_count)
            vals *= (1 + r_grid[:, None] ** 2) ** (-gamma / 2)
            norm = _polar_lorentz_norm(vals, r_grid, omega_grid, q, r)
        ratios.append(norm / g_lorentz)
    report.raw_data["L"] = list(L_list)
    report.raw_data["ratio"] = ratios
    report.raw_data["abscissa"] = list(L_list)
    report.raw_data["ordinate"] = ratios
    report.check("cauchy_flat", abs(ratios[-1] - ratios[-2]) / ratios[-1],
                 hi=0.1)
    report.record("ratio_final", ratios[-1])
    return report
