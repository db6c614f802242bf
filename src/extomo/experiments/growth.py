"""Growth-law sweeps and lower-bound reproductions.

The log-order claims (equator-singular integrals growing like log(1/delta),
line/hyperplane norms growing like log R) become least-squares fits over a
geometric parameter sweep; the concentration examples (band densities whose
extensions live on dual cylinder-and-slab sets) become exact-geometry
lower-bound measurements with log-log slope fits.
"""

import numpy as np
from scipy.integrate import quad

from ..errors import InvalidArgumentError, PreconditionError
from ..extension import extend
from ..reports import ExperimentReport, GrowthFit, fit_log_growth
from ..sphere import (CapSpec, Density, knapp_cap_density, make_circle_grid,
                      make_sphere_grid, _as_unit)
from ..spherical import BA_t, bt_delta_circle_grid, t_delta_via_slices

__all__ = [
    "t_delta_log_law",
    "radon_growth_sweep",
    "radon_outside_range_probe",
    "knapp_radon_lower_bounds",
    "xray_multiscale_lower_bound",
    "bt_bounds_sweep",
    "necessity_band_example",
]


def t_delta_log_law(delta_list=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5),
                    n_u=200, n_slice=256):
    """Slope of the equator-singular integral of the constant density.

    On the circle, the integral of 1/(|xi.omega| + delta) equals
    4 log(1/delta) + O(1); the sweep fits the value against log(1/delta)
    and checks slope 4 and an essentially perfect linear fit.
    """
    grid = make_circle_grid(256)
    one = Density(grid, np.ones(grid.node_count),
                  evaluator=lambda pts: np.ones(pts.shape[0]))
    omega = np.array([1.0, 0.0])
    values = [t_delta_via_slices(one, omega, d, n_u=n_u, n_slice=n_slice)
              for d in delta_list]
    fit = fit_log_growth(np.log(1.0 / np.asarray(delta_list)), values)
    report = ExperimentReport(name="t_delta_log_law",
                              params={"delta_list": list(delta_list)})
    report.raw_data["delta"] = list(delta_list)
    report.raw_data["value"] = [float(v) for v in values]
    report.record("intercept", fit.intercept)
    report.check("slope", fit.slope, lo=3.8, hi=4.2)
    report.check("r_squared", fit.r_squared, lo=0.999, hi=1.0)
    return fit, report


def _lattice_sup_line_integral(field, omega, R, t_lattice, spacing):
    """max over the offset lattice of the field's line integral inside B_R."""
    perp = np.array([-omega[1], omega[0]])
    n_s = int(2 * R / spacing) + 1
    s = np.linspace(-R, R, n_s)
    best = 0.0
    for t in t_lattice:
        pts = t * omega[None, :] + s[:, None] * perp[None, :]
        vals = field(pts)
        vals = np.where(np.linalg.norm(pts, axis=1) <= R, vals, 0.0)
        best = max(best, float(np.trapezoid(vals, dx=s[1] - s[0])))
    return best


def radon_growth_sweep(g, q, R_list, n_omega=8, t_pitch=0.5, t_extent=2.0,
                       spacing=0.25, closed_form=None):
    """Fit of the ball-truncated hyperplane norm against log R (n = 2).

    For each R, computes the L^q_omega (quadrature over a direction
    sample) of the lattice supremum over offsets t of the line integral
    of 1_{B_R} |g dsigma hat|^2.  ``closed_form``, when supplied, is a
    callable pts -> extension values used instead of grid quadrature
    (for densities with a known extension this sidesteps the grid's
    phase-resolution limit).  Returns the fit of norm against log R.
    """
    if g.grid.dim != 2:
        raise InvalidArgumentError("radon_growth_sweep is n = 2 only")
    R_max = max(R_list)
    if closed_form is None and g.grid.node_count < 2.5 * R_max:
        raise PreconditionError(
            f"grid with {g.grid.node_count} nodes cannot resolve phases out to "
            f"R = {R_max}; need >= 2.5 R nodes or a closed_form evaluator")
    omegas = make_circle_grid(max(n_omega, 4))
    t_lattice = np.arange(-t_extent, t_extent + t_pitch / 2, t_pitch)

    if closed_form is None:
        def field(pts):
            return np.abs(extend(g, pts)) ** 2
    else:
        def field(pts):
            return np.abs(closed_form(pts)) ** 2

    norms = []
    for R in R_list:
        sups = np.array([
            _lattice_sup_line_integral(field, om, float(R), t_lattice, spacing)
            for om in omegas.nodes])
        if np.isinf(q):
            norms.append(float(sups.max()))
        else:
            norms.append(float(omegas.integrate(sups ** q) ** (1.0 / q)))
    return fit_log_growth(np.log(np.asarray(R_list, dtype=float)), norms)


def radon_outside_range_probe(R_list=(16, 32, 64, 128, 256), spacing=0.25):
    """Power growth of the sup-norm ratio outside the admissible exponents.

    Probes (p, q) = (2, inf): a cap of width R^(-1/2) concentrates its
    extension on a dual tube through the origin, and the line integral
    along the tube direction grows like R^(1/2) ||g||_2^2 -- power, not
    log, growth.  Returns the log-log fit of value/||g||_2^2 against R;
    a positive slope is the point.
    """
    values = []
    for R in R_list:
        delta = 1.0 / np.sqrt(R)
        N = 1 << int(np.ceil(np.log2(4.0 * R)))
        grid = make_circle_grid(max(N, 256))
        g = knapp_cap_density(grid, CapSpec(np.array([1.0, 0.0]), delta))
        omega = np.array([0.0, 1.0])

        def field(pts):
            return np.abs(extend(g, pts)) ** 2

        t_lattice = (0.0, 0.5 / delta, 1.0 / delta)
        sup = _lattice_sup_line_integral(field, omega, float(R), t_lattice,
                                         spacing)
        values.append(sup / g.norm(2) ** 2)
    return fit_log_growth(np.log(np.asarray(R_list, dtype=float)),
                          np.log(np.asarray(values)))


def _slab_cylinder_section_area(cos_alpha, radius, half_length, n_quad=96):
    """Central cross-section area of {|x_perp| <= radius, |x_axis| <= half_length}.

    cos_alpha is the cosine of the angle between the plane normal and the
    cylinder axis.  Quadrature over the in-plane coordinate that tilts
    into the axis; exact limits from whichever constraint binds.
    """
    c = abs(float(cos_alpha))
    s = np.sqrt(max(0.0, 1.0 - c * c))
    if s < 1e-15:
        return np.pi * radius ** 2
    lim = half_length / s if c < 1e-15 else min(radius / c, half_length / s)
    u, w = np.polynomial.legendre.leggauss(n_quad)
    u = lim * u
    w = lim * w
    heights = 2.0 * np.sqrt(np.maximum(0.0, radius ** 2 - (u * c) ** 2))
    return float(np.add.reduce(w * heights))


def _knapp_set_geometry(m, delta):
    """(axis, radius, half_length) of the dual concentration set for band width m."""
    if m == 1:
        return np.array([0.0, 0.0, 1.0]), 1.0 / delta, 1.0 / delta ** 2
    return np.array([1.0, 0.0, 0.0]), 1.0 / delta ** 2, 1.0 / delta


def knapp_radon_lower_bounds(m, delta_list=(0.2, 0.1, 0.05, 0.025), q=2.0,
                             n_points=50, seed=0, field_grid=None,
                             omega_grid=None):
    """Concentration of band-density extensions on dual cylinder-slab sets.

    Checks (a) that |extension|^2 of the band indicator g_m stays bounded
    below by a fixed multiple of delta^(2(n-1)) on a sample of the inner
    half of the dual set, with the exact value (4 pi delta)^2 at the
    origin, and (b) that the L^q_omega L^inf_t norm of the hyperplane
    transform of the dual-set indicator follows the predicted log-log
    slope max(-n-m+2, -(n-1+m)+m/q) within 0.3.  n = 3.
    """
    if m not in (1, 2):
        raise InvalidArgumentError("m must be 1 or 2")
    n = 3
    rng = np.random.default_rng(seed)
    if omega_grid is None:
        omega_grid = make_sphere_grid(32, 64)
    report = ExperimentReport(name="knapp_radon_lower_bounds", seed=seed,
                              params={"m": m, "q": q,
                                      "delta_list": list(delta_list)})

    norms = []
    medians = []
    center_errs = []
    mass_sq = []
    for delta in delta_list:
        if field_grid is None:
            # phases need ~ half the dual-set diameter in polar nodes, and
            # the sharp band edge needs cells well below the band width
            n_polar = int(np.ceil(max(0.75 / delta ** 2, 25.0 / delta)))
            grid = make_sphere_grid(max(16, n_polar), max(32, 2 * n_polar))
        else:
            grid = field_grid
        nodes = grid.nodes
        band = np.linalg.norm(nodes[:, :m], axis=1) <= delta
        g = Density(grid, band.astype(complex))
        mass_sq.append(float(grid.integrate(band)) ** 2)

        axis, radius, half_length = _knapp_set_geometry(m, delta)
        perp1 = np.array([1.0, 0.0, 0.0]) if m == 1 else np.array([0.0, 1.0, 0.0])
        perp2 = np.cross(axis, perp1)
        # sample the inner half of the dual set (constants live at the edges)
        r = 0.5 * radius * np.sqrt(rng.uniform(0, 1, n_points))
        phi = rng.uniform(0, 2 * np.pi, n_points)
        h = 0.5 * half_length * rng.uniform(-1, 1, n_points)
        pts = (r * np.cos(phi))[:, None] * perp1 + \
              (r * np.sin(phi))[:, None] * perp2 + h[:, None] * axis
        vals = np.abs(extend(g, pts)) ** 2
        medians.append(float(np.median(vals)) / delta ** (2 * (n - 1)))
        center = abs(extend(g, np.zeros((1, 3)))[0]) ** 2
        if m == 1:
            center_errs.append(abs(center - (4 * np.pi * delta) ** 2)
                               / (4 * np.pi * delta) ** 2)

        sups = np.array([
            _slab_cylinder_section_area(om @ axis, radius, half_length)
            for om in omega_grid.nodes])
        norms.append(float(omega_grid.integrate(sups ** q) ** (1.0 / q)))

    fit = fit_log_growth(np.log(np.asarray(delta_list)), np.log(norms))
    # the larger of the two lower-bound values delta^e as delta -> 0 is
    # the one with the more negative exponent
    predicted = min(-n - m + 2, -(n - 1 + m) + m / q)
    report.raw_data["delta"] = list(delta_list)
    report.raw_data["radon_norm"] = norms
    report.raw_data["median_scaled"] = medians
    report.record("predicted_exponent", predicted)
    report.record("fitted_exponent", fit.slope)
    report.check("exponent_gap", abs(fit.slope - predicted), hi=0.3)
    report.check("median_lower_bound", min(medians), lo=1e-2)
    if center_errs:
        report.check("center_value_err", max(center_errs), hi=1e-2)
    mass_fit = fit_log_growth(np.log(np.asarray(delta_list)), np.log(mass_sq))
    report.record("band_mass_sq_exponent", mass_fit.slope)
    report.notes.append(
        "band_mass_sq_exponent is the measured scaling of ||g_m||_2^4 "
        "against delta; recorded rather than asserted")
    return report


def xray_multiscale_lower_bound(delta_list=(0.2, 0.1, 0.05, 0.025)):
    """Log-refinement of the line-norm lower bound for the dual set of a band.

    The dual set is a cylinder of radius 1/delta cut by a slab of
    half-width 1/delta^2; the longest chord in direction omega passes
    through the center, with exact length 2 min(radius/sin a,
    half_length/|cos a|) where a is the polar angle of omega.  The
    L^2_omega of the chord length gains a log(1/delta)^(1/2) over the
    trivial delta^(-1): the fit of (value * delta)^2 against
    log(1/delta) must be linear with positive slope.

    The axial spike of the chord profile has polar width ~ delta^2, far
    below any reasonable sphere-grid resolution, so the direction
    integral is done by adaptive polar quadrature with a breakpoint at
    the spike edge instead of sphere-grid quadrature.
    """
    values = []
    for delta in delta_list:
        radius, half_length = 1.0 / delta, 1.0 / delta ** 2

        def chord_sq_times_sin(alpha):
            chord = 2.0 * min(radius / max(np.sin(alpha), 1e-300),
                              half_length / max(np.cos(alpha), 1e-300))
            return chord ** 2 * np.sin(alpha)

        alpha_star = np.arctan2(radius, half_length)  # spike edge
        integral, _ = quad(chord_sq_times_sin, 0.0, np.pi / 2,
                           points=[alpha_star], limit=200)
        values.append(np.sqrt(4.0 * np.pi * integral))
    values = np.asarray(values)
    deltas = np.asarray(delta_list)
    return fit_log_growth(np.log(1.0 / deltas), (values * deltas) ** 2)


def bt_bounds_sweep(delta_list=(1e-1, 3e-2, 1e-2, 3e-3, 1e-3),
                    family="constant", seed=0, max_nodes=16384):
    """Quasinorm growth of the bilinear equator-singular operator (n = 2).

    For each delta, evaluates BT_delta(g1, g2) on a circle grid fine
    enough to resolve the kernel width and computes the ratios
    ||BT||_{L^{1/2}} / (||g1||_1 ||g2||_1) and
    ||BT||_{L^1} / (||g1||_2 ||g2||_2).  Returns the pair of fits of
    these ratios against log^2(1/delta) and log(1/delta).

    ``family`` selects the inputs: "constant" (g1 = g2 = 1), "cap"
    (indicator caps of width delta at generic positions), or "random"
    (seeded smooth random densities).
    """
    if family not in ("constant", "cap", "random"):
        raise InvalidArgumentError(f"unknown family {family!r}")
    rng = np.random.default_rng(seed)
    ratios_half = []
    ratios_one = []
    for delta in delta_list:
        N = 1 << int(np.ceil(np.log2(min(max_nodes, max(1024, 16.0 / delta)))))
        grid = make_circle_grid(N)
        if family == "constant":
            g1 = g2 = Density(grid, np.ones(N))
        elif family == "cap":
            inside1 = np.abs((grid.angles - 0.7 + np.pi) % (2 * np.pi)
                             - np.pi) <= delta
            inside2 = np.abs((grid.angles - 2.3 + np.pi) % (2 * np.pi)
                             - np.pi) <= delta
            g1 = Density(grid, inside1.astype(complex))
            g2 = Density(grid, inside2.astype(complex))
        else:
            def smooth(rng):
                coef = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                vals = np.zeros(N, dtype=complex)
                for k, c in enumerate(coef):
                    vals += c * np.exp(1j * k * grid.angles)
                return Density(grid, vals)
            g1, g2 = smooth(rng), smooth(rng)
        bt = Density(grid, bt_delta_circle_grid(g1, g2, delta))
        ratios_half.append(bt.norm(0.5) / (g1.norm(1) * g2.norm(1)))
        ratios_one.append(bt.norm(1.0) / (g1.norm(2) * g2.norm(2)))
    logs = np.log(1.0 / np.asarray(delta_list))
    fit_half = fit_log_growth(logs ** 2, ratios_half)
    fit_one = fit_log_growth(logs, ratios_one)
    return fit_half, fit_one


def _polar_band_density(grid, delta):
    """Indicator of {|(xi_1, xi_2)| <= delta} on S^2 with exact off-node values."""
    def evaluator(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (np.linalg.norm(pts[:, :2], axis=1) <= delta).astype(float)
    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)


def necessity_band_example(delta_list=(0.2, 0.1, 0.05, 0.025), eps=0.25,
                           n_u=64, n_s=24, n_slice=2048, seed=0):
    """Scaling of the bilinear slice functional on polar-cap densities (n = 3).

    For g the indicator of the two polar caps |(xi_1, xi_2)| <= delta,
    computes Q(delta) = the sphere average over omega of
    (int over u in the great circle perp to omega, t in (0,1) of
    BA_t(g,g)(u)^2 t^(2 eps - 1))^(1/2), with the singular t-integral
    regularized by the substitution t = s^(1/(2 eps)).  The fitted
    log-log slope must land within 0.2 of 1.5 + eps.  Also certifies the
    equatorial-band measure lower bound sigma(E_delta on a great circle)
    >= delta/10 at random directions, and the plateau scaling
    BA_(delta/2)(g,g)(equator) ~ delta.
    """
    rng = np.random.default_rng(seed)
    report = ExperimentReport(name="necessity_band_example", seed=seed,
                              params={"delta_list": list(delta_list),
                                      "eps": eps})
    grid = make_sphere_grid(32, 64)
    omega_grid = make_sphere_grid(16, 32)
    s_nodes, s_weights = np.polynomial.legendre.leggauss(n_s)
    s_nodes = 0.5 * (s_nodes + 1.0)
    s_weights = 0.5 * s_weights
    t_nodes = s_nodes ** (1.0 / (2.0 * eps))

    q_values = []
    plateau = []
    for delta in delta_list:
        g = _polar_band_density(grid, delta)
        # the zonal symmetry of g makes BA_t(g,g)(u) a function of |u_3|
        # alone: tabulate the t-integral on a polar-angle mesh once
        theta = np.linspace(0.0, np.pi / 2, n_u)
        F = np.empty(n_u)
        for i, th in enumerate(theta):
            u_vec = np.array([np.sin(th), 0.0, np.cos(th)])
            ba = np.array([abs(BA_t(g, g, u_vec, t, n_slice=n_slice))
                           for t in t_nodes])
            F[i] = np.add.reduce(s_weights * ba ** 2) / (2.0 * eps)
        plateau.append(abs(BA_t(g, g, np.array([1.0, 0.0, 0.0]), delta / 2,
                                n_slice=n_slice)))

        inner = np.empty(omega_grid.node_count)
        phi = 2.0 * np.pi * np.arange(256) / 256
        for k, om in enumerate(omega_grid.nodes):
            e1 = np.array([1.0, 0.0, 0.0])
            e1 = e1 - (e1 @ om) * om
            if np.linalg.norm(e1) < 1e-8:
                e1 = np.array([0.0, 1.0, 0.0]) - om[1] * om
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(om, e1)
            u3 = np.abs(np.cos(phi) * e1[2] + np.sin(phi) * e2[2])
            th_u = np.arccos(np.clip(u3, 0.0, 1.0))
            inner[k] = np.mean(np.interp(th_u, theta, F)) * 2.0 * np.pi
        q_values.append(float(
            omega_grid.integrate(np.sqrt(np.maximum(inner, 0.0)))
            / omega_grid.integrate(np.ones(omega_grid.node_count))))

    fit = fit_log_growth(np.log(np.asarray(delta_list)),
                         np.log(np.asarray(q_values)))
    target = 1.5 + eps
    report.raw_data["delta"] = list(delta_list)
    report.raw_data["Q"] = q_values
    report.record("fitted_exponent", fit.slope)
    report.record("target_exponent", target)
    report.check("exponent_gap", abs(fit.slope - target), hi=0.2)

    plateau_fit = fit_log_growth(np.log(np.asarray(delta_list)),
                                 np.log(np.asarray(plateau)))
    report.check("plateau_exponent_gap", abs(plateau_fit.slope - 1.0), hi=0.3)

    # equatorial-band measure on random great circles at delta = 0.05
    delta0 = 0.05
    phi = 2.0 * np.pi * np.arange(4096) / 4096
    worst = np.inf
    for _ in range(20):
        om = rng.standard_normal(3)
        om /= np.linalg.norm(om)
        e1 = np.array([1.0, 0.0, 0.0]) - om[0] * om
        if np.linalg.norm(e1) < 1e-8:
            e1 = np.array([0.0, 1.0, 0.0]) - om[1] * om
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(om, e1)
        u3 = np.cos(phi) * e1[2] + np.sin(phi) * e2[2]
        measure = 2.0 * np.pi * np.mean(np.abs(u3) <= delta0 / 10.0)
        worst = min(worst, measure)
    report.check("band_measure_ratio", worst / (delta0 / 10.0), lo=1.0)
    return report, fit
