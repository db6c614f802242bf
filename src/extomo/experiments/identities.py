"""Identity-verification experiments.

Each experiment computes the two sides of an exact (or near-exact)
transform identity through independent numerical paths and reports the
relative error.  The paths share no quadrature: one side integrates the
extension field over lines/hyperplanes in physical space, the other works
entirely on the sphere through slice transforms.
"""

import numpy as np

from ..errors import InvalidArgumentError, PreconditionError
from ..extension import extend, extend_plane_field, sigma_hat_closed_form
from ..reports import ExperimentReport
from ..spherical import S_operator, T_delta, t_delta_via_slices
from ..sphere import (_as_unit, bump_cap_density, make_sphere_grid,
                      preset_density)
from ..tomography import Line, xray

__all__ = [
    "verify_xray_identity",
    "verify_radon_identity",
    "verify_mollified_radon",
    "sharp_constant_S2",
]


def _require_resolved(grid, radius):
    """Reject a grid that cannot resolve e^{i x.xi} out to |x| = radius."""
    if grid.exactness_degree < radius:
        raise PreconditionError(
            f"grid of exactness degree {grid.exactness_degree} cannot resolve "
            f"phases out to the radius {radius:g}; refine the grid")


def verify_xray_identity(g, omega, truncation=120.0, n_samples=2401,
                         n_t=64, n_slice=256):
    """X-ray of the squared extension field versus its slice-transform form.

    Line side: trapezoid quadrature of |g dsigma hat|^2 along the line
    through the origin.  Slice side: 2 pi * integral of squared
    slice-measure extensions.  Also checks the restricted-line variant:
    for the modulus density |g|, the same line equals 2 pi S(|g|)(omega)^2.

    The line samples are uniform, so ``extend`` evaluates each line by one
    type-1 NUFFT: the cost is about nodes x kernel width plus an FFT of
    2 n_samples, not n_samples x nodes phases.

    The density's quadrature grid must resolve phases e^{i x.xi} out to
    the truncation, the line's largest radius, otherwise the line side
    picks up aliasing noise instead of decay; a grid whose exactness
    degree is below that radius raises PreconditionError.
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    origin = np.zeros(n)
    _require_resolved(g.grid, truncation)

    report = ExperimentReport(name="xray_identity",
                              params={"truncation": truncation,
                                      "n_samples": n_samples, "n_t": n_t,
                                      "n_slice": n_slice,
                                      "omega": omega.tolist()})
    # g, then the restricted-line variant for |g|; rhs == 0 stops after g
    for suffix in ("", "_sup"):
        h = g.map(np.abs) if suffix else g

        def field(pts):
            return np.abs(extend(h, pts)) ** 2

        lhs = xray(field, Line(omega, origin), truncation, n_samples)
        rhs = 2.0 * np.pi * S_operator(h, omega, n_t=n_t, n_slice=n_slice) ** 2
        report.record("lhs" + suffix, lhs)
        report.record("rhs" + suffix, rhs)
        if rhs == 0.0:
            report.check("rel_err", abs(lhs), hi=1e-10)
            return report
        report.check("rel_err" + suffix, abs(lhs - rhs) / abs(rhs), hi=1e-2)
    return report


def verify_radon_identity(g, omega, t_list=(0.5, 1.0, 2.0), truncation=None,
                          n_samples=None, margin=0.2):
    """Radon transform of |g dsigma hat|^2 versus the equator-singular form.

    For g supported in {xi.omega >= margin} the hyperplane integral is
    independent of the offset t and equals (2 pi)^(n-1) times the T_0
    integral of |g|^2 (the constant belongs to the e^{i x.xi} phase
    convention used throughout this package).

    A grid whose exactness degree is below the patch corner radius
    hypot(truncation sqrt(n - 1), max |t|) raises PreconditionError, so
    the n = 3 default truncation is modest: the integrand concentrates at
    small radius anyway, as the stationary direction leaves the cap support.

    Each offset costs one type-1 NUFFT over the hyperplane patch of
    ``extend_plane_field``: n_samples^2 points for n = 3, n_samples for
    n = 2, where the hyperplane is a line.
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    if truncation is None:
        truncation = 400.0 if n == 2 else 60.0
    live = np.abs(g.values) > 1e-13 * max(np.abs(g.values).max(), 1e-300)
    if np.any(live) and (g.grid.nodes[live] @ omega).min() < margin:
        raise PreconditionError(
            f"density must be supported in the spherical cap {{xi.omega >= {margin}}}")
    _require_resolved(g.grid, np.hypot(truncation * np.sqrt(n - 1),
                                       max(abs(t) for t in t_list)))
    if n_samples is None:
        n_samples = int(2 * truncation / 0.25) + 1

    rhs = (2.0 * np.pi) ** (n - 1) * T_delta(
        g.map(lambda v: np.abs(v) ** 2), omega, 0.0, support_margin=margin / 2)
    report = ExperimentReport(name="radon_identity",
                              params={"t_list": list(t_list), "margin": margin,
                                      "truncation": truncation,
                                      "n_samples": n_samples,
                                      "omega": omega.tolist()})
    report.record("rhs", rhs)
    lhs_vals = []
    for t in t_list:
        plane = extend_plane_field(g, omega, t, truncation, n_samples)
        lhs = float(plane.integrate(lambda v: np.abs(v) ** 2))
        lhs_vals.append(lhs)
        if rhs == 0.0:
            report.check(f"abs_err_t{t:g}", abs(lhs), hi=1e-10)
        else:
            report.check(f"rel_err_t{t:g}", abs(lhs - rhs) / rhs, hi=2e-2)
    report.raw_data["t"] = list(t_list)
    report.raw_data["lhs"] = lhs_vals
    if rhs != 0.0:
        spread = (max(lhs_vals) - min(lhs_vals)) / np.mean(lhs_vals)
        report.check("t_spread", spread, hi=2e-2)
    return report


def verify_mollified_radon(g, omega, R_list=(16, 64, 256)):
    """Ball-truncated Radon transform against the mollified equator integral.

    The identity degrades to an inequality once |g dsigma hat|^2 is cut to
    the ball of radius R; the metric is the largest ratio of the two
    sides over the offsets t = 0, 0.5, 1, 2, which should stay within a
    fixed band as R sweeps (max ratio at most twice the median ratio), so
    ``R_list`` needs two distinct radii.
    The right-hand side carries the same (2 pi)^(n-1) convention constant
    as the exact identity, so the ratios are O(1).  Hyperplanes are
    sampled at spacing 0.25, slices at 256 points.  A grid whose exactness
    degree is below max(R_list) raises PreconditionError.
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    t_samples = (0.0, 0.5, 1.0, 2.0)
    report = ExperimentReport(name="mollified_radon",
                              params={"R_list": list(R_list),
                                      "t_samples": list(t_samples),
                                      "omega": omega.tolist()})
    if min(R_list) < 4:
        raise PreconditionError("R must be >= 4")
    if len(set(R_list)) < 2:
        raise InvalidArgumentError("a stability check needs at least two "
                                   f"distinct R, got R_list = {list(R_list)}")
    _require_resolved(g.grid, max(R_list))
    ratios = []
    for R in R_list:
        rhs = (2.0 * np.pi) ** (n - 1) * t_delta_via_slices(
            g.map(lambda v: np.abs(v) ** 2), omega, 1.0 / R, n_u=200)
        n_samples = int(2 * R / 0.25) + 1
        best = 0.0
        for t in t_samples:
            plane = extend_plane_field(g, omega, t, float(R), n_samples)
            disc = sum(u ** 2 for u in plane.meshgrid()) + t * t <= R * R
            lhs = float(plane.integrate(lambda v: np.abs(v) ** 2 * disc))
            best = max(best, lhs / rhs if rhs > 0 else np.inf)
        ratios.append(best)
    report.raw_data["R"] = list(R_list)
    report.raw_data["ratio"] = ratios
    report.raw_data["abscissa"] = list(R_list)
    report.raw_data["ordinate"] = ratios
    report.record("ratio_max", max(ratios))
    report.record("ratio_median", float(np.median(ratios)))
    report.check("stability", max(ratios) / np.median(ratios), hi=2.0)
    return report


def sharp_constant_S2():
    """The best constant in the sup-over-lines bound for the 2-sphere.

    Computes X(|sigma hat|^2)(omega, 0) / ||1||_2^2 by (a) direct line
    quadrature of the closed-form extension of the full surface measure
    (``sigma_hat_closed_form``) and (b) the slice-transform formula, and
    compares them.  A cap density of radius 0.5 is evaluated as well: its
    ratio must fall strictly below the constant-density ratio (constants
    are extremal).  The literature value 2 pi^2 is recorded in the notes
    for comparison; both computational paths here give 4 pi^2.
    """
    truncation, n_t = 2000.0, 128
    spacing = 0.05
    s = np.arange(-truncation, truncation + spacing / 2, spacing)
    direct = float(np.trapezoid(sigma_hat_closed_form(3, s) ** 2, dx=spacing))
    norm_sq = 4.0 * np.pi  # ||1||_2^2 on the 2-sphere
    ratio_direct = direct / norm_sq

    grid = make_sphere_grid(48, 96)
    one = preset_density(grid, "constant", None)
    omega = np.array([0.0, 0.0, 1.0])
    ratio_slice = 2.0 * np.pi * S_operator(one, omega, n_t=n_t) ** 2 / norm_sq

    cap = bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), 0.5)
    cap_norm_sq = cap.norm(2) ** 2
    # generic directions only: along the cap's own symmetry axis every
    # zonal density saturates the bound (equality per slice), so the
    # strict comparison is meaningful only away from that axis
    ratio_cap = 0.0
    for om in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
               np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)):
        val = 2.0 * np.pi * S_operator(cap, om, n_t=n_t) ** 2
        ratio_cap = max(ratio_cap, val / cap_norm_sq)

    target = 4.0 * np.pi ** 2
    report = ExperimentReport(name="sharp_constant_S2",
                              params={"truncation": truncation,
                                      "n_t": n_t})
    report.record("ratio_direct", ratio_direct)
    report.record("ratio_slice", ratio_slice)
    report.record("ratio_cap", ratio_cap)
    report.record("stated_literature_value", 2.0 * np.pi ** 2)
    report.check("path_agreement", abs(ratio_direct - ratio_slice) / ratio_slice,
                 hi=1e-2)
    report.check("direct_vs_target", abs(ratio_direct - target) / target, hi=1e-2)
    report.check("slice_vs_target", abs(ratio_slice - target) / target, hi=1e-2)
    report.check("cap_below_constant", ratio_cap / ratio_direct, hi=1.0)
    report.notes.append(
        "both computational paths give 4 pi^2; the literature statement of "
        "2 pi^2 (recorded above) disagrees with the independent oracles "
        "(Dirichlet integral = pi, slice mass = 2 pi) and is flagged, not adopted")
    return report
