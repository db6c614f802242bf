"""Identity-verification experiments.

Each experiment computes the two sides of an exact (or near-exact)
transform identity through independent numerical paths and reports the
relative error.  The paths share no quadrature: one side integrates the
extension field over lines/hyperplanes in physical space, the other works
entirely on the sphere through slice transforms.
"""

import numpy as np

from ..errors import PreconditionError
from ..extension import (SliceMeasureSpec, extend, extend_plane_field,
                         extend_slice)
from ..reports import ExperimentReport
from ..spherical import S_operator, T_delta, t_delta_via_slices
from ..sphere import _as_unit, _trapezoid_weights
from ..tomography import Hyperplane, Line, radon, xray

__all__ = [
    "verify_xray_identity",
    "verify_radon_identity",
    "verify_mollified_radon",
    "sharp_constant_S2",
    "slice_square_integral",
]


def _abs_squared(g):
    """|g|^2 as a Density, with the evaluator carried along when present."""
    ev = None
    if g.evaluator is not None:
        ev = lambda pts: np.abs(np.asarray(g.evaluator(pts))) ** 2
    return g.map(lambda v: np.abs(v) ** 2, evaluator=ev)


def _abs_density(g):
    ev = None
    if g.evaluator is not None:
        ev = lambda pts: np.abs(np.asarray(g.evaluator(pts)))
    return g.map(np.abs, evaluator=ev)


def slice_square_integral(g, omega, v, n_t=64, n_slice=256):
    """2 pi * integral over t in (-1,1) of |slice-measure extension at v|^2.

    This is the sphere-side expression for the X-ray transform of
    |g dsigma hat|^2 along the line with direction omega and offset v.
    """
    omega = _as_unit(omega, "omega")
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_t)
    ext = extend_slice(g, SliceMeasureSpec(omega, t_nodes), v, n_slice=n_slice)
    # as abs() of each complex; np.abs of an array can differ by an ulp
    vals = np.hypot(ext.real, ext.imag) ** 2
    return 2.0 * np.pi * float(np.add.reduce(t_weights * vals))


def verify_xray_identity(g, omega, v=None, truncation=120.0, n_samples=2401,
                         n_t=64, n_slice=256):
    """X-ray of the squared extension field versus its slice-transform form.

    Line side: trapezoid quadrature of |g dsigma hat|^2 along the line.
    Slice side: 2 pi * integral of squared slice-measure extensions.
    Also checks the restricted-line variant: for the modulus density |g|,
    the line through the origin equals 2 pi S(|g|)(omega)^2.

    The line samples are uniform, so ``extend`` evaluates each line by one
    type-1 NUFFT: the cost is about nodes x kernel width plus an FFT of
    2 n_samples, not n_samples x nodes phases.

    The density's quadrature grid must resolve phases e^{i x.xi} out to
    the line's largest radius hypot(|v|, truncation), otherwise the line
    side picks up aliasing noise instead of decay; a grid whose
    exactness degree is below that radius raises PreconditionError.
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    if v is None:
        v = np.zeros(n)
    v = np.asarray(v, dtype=float)
    radius = float(np.hypot(np.linalg.norm(v), truncation))
    if g.grid.exactness_degree < radius:
        raise PreconditionError(
            f"grid of exactness degree {g.grid.exactness_degree} cannot resolve "
            f"phases out to the line radius {radius:g}; refine the grid or "
            "lower the truncation")

    def field(pts):
        return np.abs(extend(g, pts)) ** 2

    lhs = xray(field, Line(omega, v), truncation, n_samples)
    rhs = slice_square_integral(g, omega, v, n_t=n_t, n_slice=n_slice)

    report = ExperimentReport(name="xray_identity",
                              params={"truncation": truncation,
                                      "n_samples": n_samples, "n_t": n_t,
                                      "n_slice": n_slice,
                                      "omega": omega.tolist(), "v": v.tolist()})
    report.record("lhs", lhs)
    report.record("rhs", rhs)
    if rhs == 0.0:
        report.check("rel_err", abs(lhs), hi=1e-10)
        return report
    report.check("rel_err", abs(lhs - rhs) / abs(rhs), hi=1e-2)

    habs = _abs_density(g)

    def field_abs(pts):
        return np.abs(extend(habs, pts)) ** 2

    lhs_sup = xray(field_abs, Line(omega, np.zeros(n)), truncation, n_samples)
    rhs_sup = 2.0 * np.pi * S_operator(habs, omega, n_t=n_t, n_slice=n_slice) ** 2
    report.record("lhs_sup", lhs_sup)
    report.record("rhs_sup", rhs_sup)
    report.check("rel_err_sup", abs(lhs_sup - rhs_sup) / rhs_sup, hi=1e-2)
    return report


def verify_radon_identity(g, omega, t_list=(0.5, 1.0, 2.0), truncation=None,
                          n_samples=None, margin=0.2):
    """Radon transform of |g dsigma hat|^2 versus the equator-singular form.

    For g supported in {xi.omega >= margin} the hyperplane integral is
    independent of the offset t and equals (2 pi)^(n-1) times the T_0
    integral of |g|^2 (the constant belongs to the e^{i x.xi} phase
    convention used throughout this package).

    For n = 3 the hyperplane patch must stay inside the range where the
    quadrature grid resolves the phases (corner radius truncation*sqrt(2)
    below roughly twice the polar node count), so the default truncation
    is modest; the integrand concentrates at small radius anyway because
    the stationary direction leaves the cap support.

    Each offset costs one type-1 NUFFT: a 2-D one over the n_samples^2
    hyperplane patch for n = 3 (``extend_plane_field``), a 1-D one over
    the line for n = 2 (``extend`` on uniform samples).
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    if truncation is None:
        truncation = 400.0 if n == 2 else 60.0
    live = np.abs(g.values) > 1e-13 * max(np.abs(g.values).max(), 1e-300)
    if np.any(live) and (g.grid.nodes[live] @ omega).min() < margin:
        raise PreconditionError(
            f"density must be supported in the spherical cap {{xi.omega >= {margin}}}")
    if n_samples is None:
        n_samples = int(2 * truncation / 0.25) + 1

    rhs = (2.0 * np.pi) ** (n - 1) * T_delta(_abs_squared(g), omega, 0.0,
                                             support_margin=margin / 2)

    def field(pts):
        return np.abs(extend(g, pts)) ** 2

    report = ExperimentReport(name="radon_identity",
                              params={"t_list": list(t_list), "margin": margin,
                                      "truncation": truncation,
                                      "n_samples": n_samples,
                                      "omega": omega.tolist()})
    report.record("rhs", rhs)
    lhs_vals = []
    for t in t_list:
        if n == 2:
            lhs = radon(field, Hyperplane(omega, t), truncation, n_samples)
        else:
            vals, u = extend_plane_field(g, omega, t, truncation, n_samples)
            w_trap = _trapezoid_weights(n_samples)
            du = u[1] - u[0]
            lhs = float(np.add.reduce(
                (w_trap[:, None] * w_trap[None, :] * np.abs(vals) ** 2).ravel())
                * du * du)
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


def verify_mollified_radon(g, omega, R_list=(16, 64, 256),
                           t_samples=(0.0, 0.5, 1.0, 2.0), spacing=0.25,
                           n_u=200, n_slice=256):
    """Ball-truncated Radon transform against the mollified equator integral.

    The identity degrades to an inequality once |g dsigma hat|^2 is cut to
    the ball of radius R; the metric is the largest ratio of the two
    sides over a t-sample, which should stay within a fixed band as R
    sweeps (max ratio at most twice the median ratio).  The right-hand
    side carries the same (2 pi)^(n-1) convention constant as the exact
    identity, so the ratios are O(1).
    """
    omega = _as_unit(omega, "omega")
    n = omega.size
    report = ExperimentReport(name="mollified_radon",
                              params={"R_list": list(R_list),
                                      "t_samples": list(t_samples),
                                      "omega": omega.tolist()})
    ratios = []
    for R in R_list:
        if R < 4:
            raise PreconditionError("R must be >= 4")
        rhs = (2.0 * np.pi) ** (n - 1) * t_delta_via_slices(
            _abs_squared(g), omega, 1.0 / R, n_u=n_u, n_slice=n_slice)

        def field(pts):
            inside = np.linalg.norm(pts, axis=1) <= R
            return np.abs(extend(g, pts)) ** 2 * inside

        n_samples = int(2 * R / spacing) + 1
        best = 0.0
        for t in t_samples:
            if n == 2:
                lhs = radon(field, Hyperplane(omega, t), float(R), n_samples)
            else:
                vals, u = extend_plane_field(g, omega, t, float(R), n_samples)
                w = _trapezoid_weights(n_samples)
                uu, vv = np.meshgrid(u, u, indexing="ij")
                disc = uu ** 2 + vv ** 2 + t * t <= R * R
                du = u[1] - u[0]
                lhs = float(np.add.reduce(
                    (w[:, None] * w[None, :] * disc * np.abs(vals) ** 2).ravel())
                    * du * du)
            best = max(best, lhs / rhs if rhs > 0 else np.inf)
        ratios.append(best)
    report.raw_data["R"] = list(R_list)
    report.raw_data["ratio"] = ratios
    report.record("ratio_max", max(ratios))
    report.record("ratio_median", float(np.median(ratios)))
    report.check("stability", max(ratios) / np.median(ratios), hi=2.0)
    return report


def sharp_constant_S2(truncation=2000.0, spacing=0.05, n_t=128, n_slice=256,
                      grid=None, cap_radius=0.5):
    """The best constant in the sup-over-lines bound for the 2-sphere.

    Computes X(|sigma hat|^2)(omega, 0) / ||1||_2^2 by (a) direct line
    quadrature of the closed-form extension of the full surface measure
    and (b) the slice-transform formula, and compares them.  A cap
    density is evaluated as well: its ratio must fall strictly below the
    constant-density ratio (constants are extremal).  The literature
    value 2 pi^2 is recorded in the notes for comparison; both
    computational paths here give 4 pi^2.
    """
    from ..sphere import Density, make_sphere_grid

    s = np.arange(-truncation, truncation + spacing / 2, spacing)
    s = np.where(s == 0.0, 1e-30, s)
    integrand = (4.0 * np.pi * np.sin(s) / s) ** 2
    direct = float(np.trapezoid(integrand, dx=spacing))
    norm_sq = 4.0 * np.pi  # ||1||_2^2 on the 2-sphere
    ratio_direct = direct / norm_sq

    if grid is None:
        grid = make_sphere_grid(48, 96)
    one = Density(grid, np.ones(grid.node_count),
                  evaluator=lambda pts: np.ones(pts.shape[0]))
    omega = np.array([0.0, 0.0, 1.0])
    ratio_slice = slice_square_integral(one, omega, np.zeros(3),
                                        n_t=n_t, n_slice=n_slice) / norm_sq

    from ..sphere import bump_cap_density
    cap = bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), cap_radius)
    cap_norm_sq = cap.norm(2) ** 2
    # generic directions only: along the cap's own symmetry axis every
    # zonal density saturates the bound (equality per slice), so the
    # strict comparison is meaningful only away from that axis
    ratio_cap = 0.0
    for om in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
               np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)):
        val = slice_square_integral(cap, om, np.zeros(3),
                                    n_t=n_t, n_slice=n_slice) / cap_norm_sq
        ratio_cap = max(ratio_cap, val)

    target = 4.0 * np.pi ** 2
    report = ExperimentReport(name="sharp_constant_S2",
                              params={"truncation": truncation,
                                      "spacing": spacing, "n_t": n_t,
                                      "cap_radius": cap_radius})
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
