"""Weighted L^2 experiments for the extension operator.

The inequalities under test control the mass of |g dsigma hat|^2 against a
weight by direction-wise tomographic data of the weight: a square-function
of the half-derivative of its X-ray transform, or a sup of the X-ray
transform itself.  Inequality experiments report constants, never booleans
alone; pass criteria are boundedness and stability across the sweep.
"""

import numpy as np

from ..errors import InvalidArgumentError
from ..extension import extend_field, sigma_hat_closed_form
from ..reports import ExperimentReport, experiment_rng, fit_log_growth
from ..sphere import (Density, bump_cap_density, make_circle_grid,
                      poisson_mollify_circle, preset_density)
from ..spherical import bt_delta_circle_grid
from ..tomography import (frac_laplacian, radial_xray_profile,
                          xray_isometry_ratio, xray_profile)

__all__ = [
    "isometry_constancy",
    "verify_wstein",
    "verify_wmiztak",
]


def _gamma_R_weight(R):
    """Smooth radial bump adapted to the ball of radius R.

    Returns r -> psi(r/R)^3 on radii r = |x| (an array of any shape), where
    psi(r) = (2 J_1(r/2) / (r/2))^2 is the autocorrelation profile of a ball
    indicator: nonnegative, psi(0) = 1, and with Fourier transform supported
    in the unit ball, so the cube keeps Fourier support in a ball of radius 3/R.
    """
    if R <= 0:
        raise InvalidArgumentError("R must be positive")
    from scipy.special import j1

    def weight(radii):
        r = np.asarray(radii, dtype=float) / R
        z = np.where(r > 0, r / 2.0, 1e-300)
        psi = np.where(r > 0, (2.0 * j1(z) / z) ** 2, 1.0)
        return psi ** 3

    return weight


def _ball_quadrature_2d(gs, weight, R):
    """Trapezoid integrals of |g dsigma hat|^2 * weight over the disc of
    radius R, at spacing 0.25 on the box [-R, R]^2, one per density g of gs.

    The masked weight is built once from the box axis and shared; each
    density's box field is one ``extend_field`` call, dropped once it is
    integrated.
    """
    M = int(2 * R / 0.25) + 1
    xx, yy = np.meshgrid(*[np.linspace(-R, R, M)] * 2, indexing="ij")
    w = weight(np.column_stack([xx.ravel(), yy.ravel()])).reshape(xx.shape)
    w = np.where(xx ** 2 + yy ** 2 <= R * R, w, 0.0)
    del xx, yy
    return [float(extend_field(g, R, M).integrate(
        lambda values: np.abs(values) ** 2 * w)) for g in gs]


_GAUSS_TAIL = 40.0  # cut below e^-40 ~ 4.2e-18 of the peak; the L^2 tail is e^-80


def _gaussian(Q, b):
    """x -> exp(-(x - b).Q(x - b)) for n = 2, set to 0 below exponent
    -_GAUSS_TAIL; ``support`` is the ball |x - b|^2 <= _GAUSS_TAIL / min eig Q."""
    def f(pts, q00=Q[0, 0], q01=2.0 * Q[0, 1], q11=Q[1, 1]):
        d0, d1 = pts[:, 0] - b[0], pts[:, 1] - b[1]
        e = -(d0 * (q00 * d0 + q01 * d1) + q11 * (d1 * d1))
        return np.exp(e, out=np.zeros_like(e), where=e > -_GAUSS_TAIL)

    # 1 / min eig Q = max eig Q / det Q; eigvalsh would add 0.6 MB of peak RSS
    top = (Q[0, 0] + Q[1, 1]) / 2.0 + np.hypot((Q[0, 0] - Q[1, 1]) / 2.0, Q[0, 1])
    det = Q[0, 0] * Q[1, 1] - Q[0, 1] ** 2
    f.support = (b, float(np.sqrt(_GAUSS_TAIL * top / det)))
    return f


def _gaussian_test_functions(n_funcs, rng):
    """Anisotropic shifted Gaussians with closed-form L^2 norms (n = 2)."""
    funcs = []
    for _ in range(n_funcs):
        a = rng.uniform(0.5, 2.0, 2)                   # axis scales
        b = rng.uniform(-2.0, 2.0, 2)                  # center
        theta = rng.uniform(0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        # |diag(a) rot (x - b)|^2 = d.Q d, Q = rot^T diag(a^2) rot, d = x - b
        Q = rot.T @ (a[:, None] ** 2 * rot)
        # ||f||_2^2 = prod_i sqrt(pi/2)/a_i; rotation and shift drop out
        l2sq = (np.sqrt(np.pi / 2.0) / a[0]) * (np.sqrt(np.pi / 2.0) / a[1])
        funcs.append((_gaussian(Q, b), float(np.sqrt(l2sq))))
    return funcs


def isometry_constancy(n_funcs=10, seed=0, n_omega=32):
    """Constancy of the half-derivative line-transform Plancherel ratio.

    The map f -> (-Delta_v)^(1/4) X f is a constant multiple of an
    isometry from L^2(R^2) into L^2 of the line manifold; the experiment
    computes the ratio on a family of anisotropic Gaussians and checks a
    coefficient of variation at the percent level.  The constant c_2 is
    recorded and compared against the closed form sqrt(4 pi) obtained by
    Plancherel on each direction's profile.
    """
    if n_funcs < 2:
        raise InvalidArgumentError("a coefficient of variation needs at least "
                                   f"two functions, got n_funcs = {n_funcs}")
    rng = experiment_rng(seed, "isometry_constancy")
    grid = make_circle_grid(n_omega)
    ratios = []
    for f, l2 in _gaussian_test_functions(n_funcs, rng):
        ratios.append(xray_isometry_ratio(f, l2, grid))
    ratios = np.asarray(ratios)
    report = ExperimentReport(name="isometry_constancy", seed=seed,
                              params={"n_funcs": n_funcs, "n_omega": n_omega})
    c2 = float(ratios.mean())
    report.record("c2", c2)
    report.check("coeff_of_variation", float(ratios.std() / ratios.mean()),
                 hi=1e-2)
    report.check("c2_vs_closed_form", abs(c2 - np.sqrt(4.0 * np.pi))
                 / np.sqrt(4.0 * np.pi), hi=2e-2)
    report.raw_data["ratios"] = [float(r) for r in ratios]
    return report


def _sw_operator(w, omega, half_width, truncation):
    """Square function of the weight: L^2_v norm of the half-derivative
    of the weight's line transform in direction omega (129 offsets, 512
    samples per line)."""
    prof = xray_profile(w, omega, half_width, 129, truncation, 512)
    return frac_laplacian(prof, 0.25).lp_norm(2)


def _symmetric_cap_pair(grid):
    """Smooth antipodally symmetric density: bumps of radius 0.4 at +/- e2."""
    plus, minus = (bump_cap_density(grid, np.array([0.0, s]), 0.4)
                   for s in (1.0, -1.0))

    def evaluator(pts):
        return plus.evaluator(pts) + minus.evaluator(pts)
    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)


def default_wstein_family():
    """The declared (g, w) pairs: symmetric densities, decaying weights."""
    grid = make_circle_grid(512)
    one = preset_density(grid, "constant", None)
    caps = _symmetric_cap_pair(grid)

    w_gauss = _gaussian(np.eye(2) / 16.0, np.zeros(2))
    w_tube = _gaussian(np.diag([1.0 / 400.0, 0.5]), np.zeros(2))
    return [("constant/gauss", one, w_gauss),
            ("cap-pair/gauss", caps, w_gauss),
            ("cap-pair/tube", caps, w_tube)]


def verify_wstein(R_list=(16, 32, 64), C_max=50.0):
    """Weighted ball mass against the bilinear square-function bound (n = 2).

    LHS: integral of |g dsigma hat|^2 w over the ball of radius R, by the
    trapezoid rule at spacing 0.25 on the box [-R, R]^2 masked to the
    disc; the box field is one NUFFT evaluation (``extend_field``).
    RHS: sphere integral, over 64 equispaced directions, of
    [BT_(1/R)(h, h)(omega)^(1/2) + BT_(1/R)(h, h)(omega_perp)^(1/2)]
    * Sw(omega), where h is the squared Poisson mollification of |g| at
    scale 1/R and Sw is the L^2_v norm of the half-derivative of the
    weight's line transform.  The bound holds for antipodally symmetric
    g; the declared family respects that.

    Pass: C = LHS/RHS stays below C_max for every (pair, R), and for each
    pair the spread of C across the R-doubling sweep, which needs two
    distinct R, is at most 2x.
    """
    if len(set(R_list)) < 2:
        raise InvalidArgumentError("a stability check needs at least two "
                                   f"distinct R, got R_list = {list(R_list)}")
    n_omega = 64
    report = ExperimentReport(name="wstein",
                              params={"R_list": list(R_list), "C_max": C_max})
    family = default_wstein_family()
    # the ball weight and Sw depend only on the weight and R, and the pairs
    # share weights: each is built once per (w, R)
    by_weight = {}
    for label, g, w in family:
        by_weight.setdefault(w, []).append((label, g))
    lhs = {}
    for w, pairs in by_weight.items():
        for R in R_list:
            masses = _ball_quadrature_2d([g for _, g in pairs], w, float(R))
            lhs.update({(label, R): m for (label, _), m in zip(pairs, masses)})
    sw_cache = {}
    for label, g, w in family:
        grid = g.grid
        N = grid.node_count
        habs = g.map(np.abs)
        Cs = []
        for R in R_list:
            h = poisson_mollify_circle(habs, 1.0 / R).map(lambda v: v ** 2)
            bt = bt_delta_circle_grid(h, h, 1.0 / R).real
            sub = np.arange(0, N, N // n_omega)
            perp = (sub + N // 4) % N
            if (w, R) not in sw_cache:
                sw_cache[w, R] = np.array([
                    _sw_operator(w, grid.nodes[k], half_width=2.0 * R + 8.0,
                                 truncation=2.0 * R + 8.0)
                    for k in sub])
            sw = sw_cache[w, R]
            integrand = (np.sqrt(np.maximum(bt[sub], 0.0))
                         + np.sqrt(np.maximum(bt[perp], 0.0))) * sw
            rhs = float(np.add.reduce(integrand) * (2.0 * np.pi / n_omega))
            Cs.append(lhs[label, R] / rhs)
        report.raw_data[f"C[{label}]"] = Cs
        report.check(f"C_max[{label}]", max(Cs), hi=C_max)
        report.check(f"stability[{label}]", max(Cs) / min(Cs), hi=2.0)
    return report


def verify_wmiztak(R_list=(16, 32, 64, 128, 256), q_probe=3.0, n_random=10,
                   seed=0, C_max=50.0, R_mt=32.0):
    """Log-weighted tomographic bound and its falsification probe (n = 2).

    Three measurements:

    (a) C_MT = ball mass / (sup of the weight's line transform times
        ||g||_2^2) for the truncated radial weight (1 + |x|^2)^(-1/2)
        over random smooth densities -- the sup-line-transform bound is
        known for radial weights, so the constants must stay bounded.
        The ball mass is a masked trapezoid rule on the box [-R_mt, R_mt]^2,
        whose field is one NUFFT evaluation (``extend_field``) per density;
        the masked weight is built once and serves every density.

    (b) C_q at q = 2: the L^1_omega L^2_v norm of the half-derivative of
        the line transform of gamma_R |g dsigma hat|^2, divided by
        log R ||g||_2^2, for g = 1; must stay within a fixed band (2x)
        across the R sweep.

    (c) the probe q > 2 (default 3): the same quantity with derivative
        order (1/2)(1 - 1/q) and L^(q')_v norm (q' = 1 at q = inf) is *expected
        to grow* like a power of R; the fitted log-log slope must be >= 0.1.
    """
    if min(R_list) <= 1 or q_probe <= 2:
        raise InvalidArgumentError("need R > 1 (C2 divides by log R) and q_probe > 2: "
                                   f"got R_list = {list(R_list)}, q_probe = {q_probe}")
    rng = experiment_rng(seed, "wmiztak")
    report = ExperimentReport(name="wmiztak", seed=seed,
                              params={"R_list": list(R_list),
                                      "q_probe": q_probe, "R_mt": R_mt})

    # (a) radial Mizohata-Takeuchi constants over random densities
    grid = make_circle_grid(128)

    def w_rad(pts):
        return 1.0 / np.sqrt(1.0 + np.sum(np.atleast_2d(pts) ** 2, axis=1))

    sup_xw = 2.0 * np.arcsinh(R_mt)  # line through the origin
    densities = []
    for _ in range(n_random):
        coef = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        vals = np.zeros(grid.node_count, dtype=complex)
        for k, c in enumerate(coef):
            vals += c * np.exp(1j * k * grid.angles)
        densities.append(Density(grid, vals))
    C_mt = [lhs / (sup_xw * g.norm(2) ** 2) for g, lhs in
            zip(densities, _ball_quadrature_2d(densities, w_rad, R_mt))]
    report.raw_data["C_mt"] = C_mt
    report.check("C_mt_max", max(C_mt), hi=C_max)

    # (b), (c): g = 1, radial closed-form extension (2 pi J_0), so a
    # single direction carries the whole L^1_omega integral
    norm_sq = 2.0 * np.pi  # ||1||_2^2 on the circle
    C2 = []
    Cq = []
    for R in R_list:
        gamma = _gamma_R_weight(float(R))

        def field(r):
            return gamma(r) * sigma_hat_closed_form(2, r) ** 2

        # the field oscillates at frequencies up to 2 (twice the sphere
        # radius), so the grid (offsets and line samples alike) keeps an
        # R-independent spacing well below pi/2: 0.5 on [-3R, 3R]
        prof = radial_xray_profile(field, half_width=3.0 * R,
                                   samples_per_axis=2 * int(6.0 * R) + 1)
        half = frac_laplacian(prof, 0.25)
        C2.append(2.0 * np.pi * half.lp_norm(2) / (np.log(R) * norm_sq))
        qprime = 1.0 if np.isinf(q_probe) else q_probe / (q_probe - 1.0)
        probe = frac_laplacian(prof, 0.5 * (1.0 - 1.0 / q_probe))
        Cq.append(2.0 * np.pi * probe.lp_norm(qprime) / norm_sq)
    report.raw_data["R"] = list(R_list)
    report.raw_data["C2"] = C2
    report.raw_data["Cq_probe"] = Cq
    report.check("C2_max", max(C2), hi=C_max)
    report.check("C2_stability", max(C2) / min(C2), hi=2.0)
    probe_fit = fit_log_growth(np.log(np.asarray(R_list, dtype=float)),
                               np.log(np.asarray(Cq)))
    report.record("probe_slope", probe_fit.slope)
    report.check("probe_growth", probe_fit.slope, lo=0.1)
    return report
