"""Growth-law sweeps and lower-bound reproductions.

The log-order claims (equator-singular integrals growing like log(1/delta),
line/hyperplane norms growing like log R) become least-squares fits over a
geometric parameter sweep; the concentration examples (band densities whose
extensions live on dual cylinder-and-slab sets) become exact-geometry
lower-bound measurements with log-log slope fits.
"""

import numpy as np

from ..errors import InvalidArgumentError, PreconditionError
from ..extension import _constant_extension, extend, slice_rule
from ..reports import ExperimentReport, experiment_rng, fit_columns, fit_log_growth
from ..sphere import (_as_unit, _perp_frames, Density, knapp_cap_density,
                      make_circle_grid, make_sphere_grid, make_zonal_grid,
                      perp_basis, preset_density)
from ..spherical import BA_t, bt_delta_circle_grid, t_delta_via_slices
from ..tomography import Hyperplane, radon
from .reductions import _s_rule

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
    and checks slope 4 and an essentially perfect linear fit.  Returns
    (fit, report).
    """
    grid = make_circle_grid(256)
    one = preset_density(grid, "constant", None)
    omega = np.array([1.0, 0.0])
    values = [t_delta_via_slices(one, omega, d, n_u=n_u, n_slice=n_slice)
              for d in delta_list]
    fit = fit_log_growth(np.log(1.0 / np.asarray(delta_list)), values)
    report = ExperimentReport(name="t_delta_log_law",
                              params={"delta_list": list(delta_list)})
    report.raw_data["delta"] = list(delta_list)
    report.raw_data["value"] = [float(v) for v in values]
    fit_columns(report, fit, checks=(("slope", 3.8, 4.2),
                                     ("r_squared", 0.999, 1.0)))
    return fit, report


def _lattice_sup_line_integral(field, omega, R, t_lattice):
    """max over the offset lattice of the field's line integral inside B_R,
    each line sampled at spacing 0.25."""
    def inside(pts):
        return np.where(np.linalg.norm(pts, axis=1) <= R, field(pts), 0.0)

    n_s = int(2 * R / 0.25) + 1
    if n_s < 16:
        raise InvalidArgumentError(f"R = {R} < 1.875 gives a line of B_R "
                                   "fewer than 16 samples at spacing 0.25")
    return max([0.0] + [radon(inside, Hyperplane(omega, t), R, n_s)
                        for t in t_lattice])


def radon_growth_sweep(g, q, R_list):
    """Fit of the ball-truncated hyperplane norm against log R (n = 2).

    For each R, computes the L^q_omega (quadrature over 8 directions) of
    the supremum over the offsets t = -2, -1.5, ..., 2 of the line
    integral of 1_{B_R} |g dsigma hat|^2.  A constant g = c on a full
    circle takes its exact extension |c| sigma-hat, on any number of
    nodes; every other g takes grid quadrature, which needs >= 2.5 R
    nodes to resolve the phases.  The report fits the norm against log R
    and checks r^2 >= 0.9 and the log band: max/min of norm / log R at
    most 2.
    """
    if g.grid.dim != 2:
        raise InvalidArgumentError("radon_growth_sweep is n = 2 only")
    profile = _constant_extension(g)
    if profile is not None:
        def field(pts):
            return profile(np.linalg.norm(pts, axis=1)) ** 2
    elif g.grid.node_count < 2.5 * max(R_list):
        raise PreconditionError(
            f"grid with {g.grid.node_count} nodes cannot resolve phases out to "
            f"R = {max(R_list)}; need >= 2.5 R nodes")
    else:
        def field(pts):
            return np.abs(extend(g, pts)) ** 2
    omegas = make_circle_grid(8)
    t_lattice = np.arange(-2.0, 2.25, 0.5)

    norms = []
    for R in R_list:
        sups = np.array([
            _lattice_sup_line_integral(field, om, float(R), t_lattice)
            for om in omegas.nodes])
        norms.append(float(Density(omegas, sups).norm(q)))
    log_R = np.log(np.asarray(R_list, dtype=float))
    report = fit_columns(
        ExperimentReport(name="radon_growth_sweep",
                         params={"q": q, "R_list": list(R_list),
                                 "abscissa": "log(R)"}),
        fit_log_growth(log_R, norms), checks=(("r_squared", 0.9, 1.0),))
    band = np.asarray(norms) / log_R
    report.check("band_ratio", band.max() / band.min(), hi=2.0)
    return report


def radon_outside_range_probe(R_list=(16, 32, 64, 128, 256)):
    """Power growth of the sup-norm ratio outside the admissible exponents.

    Probes (p, q) = (2, inf): a cap of width R^(-1/2) concentrates its
    extension on a dual tube through the origin, and the line integral
    along the tube direction grows like R^(1/2) ||g||_2^2 -- power, not
    log, growth.  The report fits log(value/||g||_2^2) against log R and
    checks slope >= 0.3.
    """
    values = []
    for R in R_list:
        delta = 1.0 / np.sqrt(R)
        N = 1 << int(np.ceil(np.log2(4.0 * R)))
        grid = make_circle_grid(max(N, 256))
        g = knapp_cap_density(grid, np.array([1.0, 0.0]), delta)
        omega = np.array([0.0, 1.0])

        def field(pts):
            return np.abs(extend(g, pts)) ** 2

        t_lattice = (0.0, 0.5 / delta, 1.0 / delta)
        sup = _lattice_sup_line_integral(field, omega, float(R), t_lattice)
        values.append(sup / g.norm(2) ** 2)
    fit = fit_log_growth(np.log(np.asarray(R_list, dtype=float)),
                         np.log(np.asarray(values)))
    return fit_columns(
        ExperimentReport(name="radon_outside_range_probe",
                         params={"abscissa": "log(R)"}),
        fit, checks=(("slope", 0.3, np.inf),))


def _slab_cylinder_section_area(cos_alpha, radius, half_length):
    """Central cross-section area of {|x_perp| <= radius, |x_axis| <= half_length}.

    cos_alpha is the cosine of the angle alpha between the plane normal and
    the cylinder axis.  In the plane, the coordinate u that tilts into the
    axis has axial part u s and distance u c from the axis (c = |cos alpha|,
    s = sin alpha, r = radius, h = half_length), so the section is the
    integral of 2 (r^2 - (u c)^2)^(1/2) over |u c| <= V, V = min(r, h c / s),
    in closed form: (2/c) [V (r^2 - V^2)^(1/2) + r^2 arcsin(V/r)].  It is
    pi r^2 at c = 1 and 4 r h at c = 0.
    """
    c = abs(float(cos_alpha))
    if c == 0.0:
        return 4.0 * radius * half_length
    s = np.sqrt(max(0.0, 1.0 - c * c))
    v = radius if half_length * c >= radius * s else half_length * c / s
    return float(2.0 / c * (v * np.sqrt(radius ** 2 - v ** 2)
                            + radius ** 2 * np.arcsin(v / radius)))


def _knapp_set_geometry(m, delta):
    """(axis, radius, half_length) of the dual concentration set for band width m."""
    if m == 1:
        return np.array([0.0, 0.0, 1.0]), 1.0 / delta, 1.0 / delta ** 2
    return np.array([1.0, 0.0, 0.0]), 1.0 / delta ** 2, 1.0 / delta


def _knapp_band(m, delta, rng):
    """(g_m, x): 50 uniform random points x of the inner half of the dual set
    (constants live at its edges), and g_m on its zonal grid sized at x."""
    dual_axis, radius, half_length = _knapp_set_geometry(m, delta)
    r = 0.5 * radius * np.sqrt(rng.uniform(0, 1, 50))
    phi = rng.uniform(0, 2 * np.pi, 50)
    h = 0.5 * half_length * rng.uniform(-1, 1, 50)
    x = np.column_stack([r * np.cos(phi), r * np.sin(phi), h]) @ np.vstack(
        [perp_basis(dual_axis), dual_axis])
    c = np.sqrt(1.0 - delta ** 2)
    axis, zones, length, ds, s_max = (
        (np.eye(3)[0], [(-delta, delta)], 2 * delta, 1 - c, 1.0) if m == 1 else
        (np.eye(3)[2], [(-1.0, -c), (c, 1.0)], 1 - c, delta, delta))
    a = x @ axis
    rho = np.linalg.norm(x - a[:, None] * axis, axis=1).max()
    n_z = 16 + int(np.ceil((np.abs(a).max() * length + rho * ds) / 2))
    grid = make_zonal_grid(axis, zones, n_z, 32 + 2 * int(np.ceil(rho * s_max)))
    return Density(grid, np.ones(grid.node_count)), x


def knapp_radon_lower_bounds(m=1, delta_list=(0.2, 0.1, 0.05, 0.025), q=2.0,
                             seed=0):
    """Concentration of band-density extensions on dual cylinder-slab sets.

    Checks (a) that |extension|^2 of the band indicator g_m stays bounded
    below by a fixed multiple of delta^(2(n-1)) on 50 random points of the
    inner half of the dual set, with the exact value (4 pi delta)^2 at the
    origin, and (b) that the L^q_omega L^inf_t norm of the hyperplane
    transform of the dual-set indicator follows the predicted log-log
    slope max(-n-m+2, -(n-1+m)+m/q) within 0.3.  n = 3.

    g_m is the constant 1 on a zonal grid of its zones: |z| <= delta about
    e_1 (m = 1), |z| >= (1 - delta^2)^(1/2) about e_3 (m = 2).  At x the
    phase is a z + rho s cos(phi - phi_x), s = (1 - z^2)^(1/2); with A, rho
    their largest |a|, rho, L the zone length and s spanning ds up to s_max,
    a zone has 16 + ceil((A L + rho ds)/2) z nodes, 32 + 2 ceil(rho s_max) azimuths.
    """
    if m not in (1, 2):
        raise InvalidArgumentError("m must be 1 or 2")
    n = 3
    rng = experiment_rng(seed, "knapp_radon_lower_bounds")
    omega_grid = make_sphere_grid(32, 64)
    report = ExperimentReport(name="knapp_radon_lower_bounds", seed=seed,
                              params={"m": m, "q": q,
                                      "delta_list": list(delta_list)})

    norms, medians, center_errs, mass_sq = [], [], [], []
    for delta in delta_list:
        g, pts = _knapp_band(m, delta, rng)
        mass_sq.append(float(g.grid.integrate(g.values.real)) ** 2)
        vals = np.abs(extend(g, pts)) ** 2
        medians.append(float(np.median(vals)) / delta ** (2 * (n - 1)))
        if m == 1:  # the extension at the origin is the band mass 4 pi delta
            center = abs(extend(g, np.zeros(3))) ** 2 / (4 * np.pi * delta) ** 2
            center_errs.append(abs(center - 1.0))

        axis, radius, half_length = _knapp_set_geometry(m, delta)
        sups = np.array([
            _slab_cylinder_section_area(om @ axis, radius, half_length)
            for om in omega_grid.nodes])
        norms.append(float(Density(omega_grid, sups).norm(q)))

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
    log(1/delta) must be linear (r^2 >= 0.8) with slope >= 0.

    The axial spike of the chord profile has polar width ~ delta^2, far
    below any reasonable sphere-grid resolution, so the direction
    integral is taken in closed form: with a* = arctan(radius/half_length)
    the spike edge, the integral of chord^2 sin a over [0, pi/2] is
    4 half_length^2 (sec a* - 1) - 4 radius^2 log tan(a*/2).
    """
    delta = np.asarray(delta_list, dtype=float)
    radius, half_length = 1.0 / delta, 1.0 / delta ** 2
    t = np.tan(np.arctan2(radius, half_length) / 2.0)
    # sec a* - 1 = tan a* tan(a*/2), free of cancellation at small a*
    integral = 4.0 * radius * (half_length * t - radius * np.log(t))
    values = np.sqrt(4.0 * np.pi * integral)
    return fit_columns(
        ExperimentReport(name="xray_multiscale_lower_bound",
                         params={"abscissa": "log(1/delta)"}),
        fit_log_growth(np.log(1.0 / delta), (values * delta) ** 2),
        checks=(("slope", 0.0, np.inf), ("r_squared", 0.8, 1.0)))


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
    rng = experiment_rng(seed, "bt_bounds_sweep")
    # "random" sweeps one pair of functions, sampled on each delta's grid
    coefs = [rng.standard_normal(5) + 1j * rng.standard_normal(5)
             for _ in range(2)]
    ratios_half = []
    ratios_one = []
    for delta in delta_list:
        N = 1 << int(np.ceil(np.log2(min(max_nodes, max(1024, 16.0 / delta)))))
        grid = make_circle_grid(N)
        if family == "constant":
            g1 = g2 = Density(grid, np.ones(N))
        elif family == "cap":
            g1, g2 = (Density(grid, (np.abs((grid.angles - c + np.pi) % (2 * np.pi)
                                            - np.pi) <= delta).astype(complex))
                      for c in (0.7, 2.3))
        else:
            g1, g2 = (Density(grid, sum(c * np.exp(1j * k * grid.angles)
                                        for k, c in enumerate(coef)))
                      for coef in coefs)
        bt = Density(grid, bt_delta_circle_grid(g1, g2, delta))
        ratios_half.append(bt.norm(0.5) / (g1.norm(1) * g2.norm(1)))
        ratios_one.append(bt.norm(1.0) / (g1.norm(2) * g2.norm(2)))
    logs = np.log(1.0 / np.asarray(delta_list))
    fit_half = fit_log_growth(logs ** 2, ratios_half)
    fit_one = fit_log_growth(logs, ratios_one)
    return fit_half, fit_one


def _polar_radius(pts):
    """|(xi_1, xi_2)| of each point: the polar-cap band g_delta is radius <= delta."""
    return np.sqrt(pts[..., 0] * pts[..., 0] + pts[..., 1] * pts[..., 1])


def _polar_band_density(grid, delta):
    """Indicator of {|(xi_1, xi_2)| <= delta} on S^2 with exact off-node values."""
    def evaluator(pts):
        return (_polar_radius(pts) <= delta).astype(float)
    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)


def _band_square_integrals(delta_list, theta, eps, n_s, n_slice):
    """``_ba_square_integral`` of each band g_delta (rows) at u = (sin theta,
    0, cos theta) (columns), one slice pass per theta: the half-turn pairs
    point k with k + m/2 (``BA_t``), so BA_t(g,g)(u) is exactly the weight
    times #{k : max(h_k, h_(k+m/2)) <= delta}, h the polar radius: twice the
    count over k < m/2, since k and k + m/2 share their max."""
    if n_slice % 2:
        raise InvalidArgumentError(f"n_slice = {n_slice} must be even")
    t_nodes, s_weights = _s_rule(eps, n_s)
    F = np.empty((len(delta_list), len(theta)))
    for j, th in enumerate(theta):
        # u normalised once, as BA_t's SliceMeasureSpec does: the same points
        pts, weight = slice_rule(_as_unit(np.array([np.sin(th), 0.0, np.cos(th)])),
                                 t_nodes, n_slice)
        h = _polar_radius(pts)
        del pts
        h = np.maximum(h[..., :n_slice // 2], h[..., n_slice // 2:])
        ba = 2 * np.count_nonzero(h <= np.reshape(delta_list, (-1, 1, 1)),
                                  axis=-1) * weight
        F[:, j] = np.add.reduce(s_weights * ba ** 2, axis=-1) / (2.0 * eps)
    return F


def _great_circle_heights(omegas, n_phi):
    """|xi_3| at n_phi equispaced angles of the great circle perp to each row
    of omegas, in the ``perp_basis`` frame."""
    e1, e2 = _perp_frames(omegas)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    heights = np.cos(phi) * e1[:, 2:]
    heights += np.sin(phi) * e2[:, 2:]
    return np.abs(heights, out=heights)


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
    BA_(delta/2)(g,g)(equator) ~ delta.  Returns (report, fit); the
    report carries the fit's plot columns.  ``n_slice`` must be even.
    """
    rng = experiment_rng(seed, "necessity_band_example")
    report = ExperimentReport(name="necessity_band_example", seed=seed,
                              params={"delta_list": list(delta_list),
                                      "eps": eps})
    grid = make_sphere_grid(32, 64)
    omega_grid = make_sphere_grid(16, 32)
    # the zonal symmetry of g makes BA_t(g,g)(u) a function of |u_3|
    # alone: tabulate the t-integral on a polar-angle mesh once
    theta = np.linspace(0.0, np.pi / 2, n_u)
    F = _band_square_integrals(delta_list, theta, eps, n_s, n_slice)
    th_u = np.arccos(np.minimum(_great_circle_heights(omega_grid.nodes, 256), 1.0))
    q_values, plateau = [], []
    for delta, F_delta in zip(delta_list, F):
        g = _polar_band_density(grid, delta)
        plateau.append(abs(BA_t(g, g, np.array([1.0, 0.0, 0.0]), delta / 2,
                                n_slice=n_slice)))
        inner = np.mean(np.interp(th_u, theta, F_delta), axis=1) * 2.0 * np.pi
        q_values.append(float(
            omega_grid.integrate(np.sqrt(np.maximum(inner, 0.0)))
            / omega_grid.integrate(np.ones(omega_grid.node_count))))

    fit = fit_log_growth(np.log(np.asarray(delta_list)),
                         np.log(np.asarray(q_values)))
    target = 1.5 + eps
    report.raw_data["delta"] = list(delta_list)
    report.raw_data["Q"] = q_values
    fit_columns(report, fit)
    report.record("fitted_exponent", fit.slope)
    report.record("target_exponent", target)
    report.check("exponent_gap", abs(fit.slope - target), hi=0.2)

    plateau_fit = fit_log_growth(np.log(np.asarray(delta_list)),
                                 np.log(np.asarray(plateau)))
    report.check("plateau_exponent_gap", abs(plateau_fit.slope - 1.0), hi=0.3)

    # equatorial-band measure on random great circles at delta = 0.05
    delta0 = 0.05
    om = rng.standard_normal((20, 3))
    u3 = _great_circle_heights(om / np.sqrt(np.vecdot(om, om))[:, None], 4096)
    worst = 2.0 * np.pi * np.mean(u3 <= delta0 / 10.0, axis=1).min()
    report.check("band_measure_ratio", worst / (delta0 / 10.0), lo=1.0)
    return report, fit
