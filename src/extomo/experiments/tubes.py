"""Randomized wavepacket tube families on the circle (n = 2).

A cap of angular half-width ~ R^(-1/2), linearly modulated, has an
extension whose values at R-dilated arguments concentrate on a unit-length
tube of width ~ R^(-1/2): the modulation frequency -R y recenters the
coherence region on the tube through y.  Random sign combinations of the
wavepackets then tie the square function of the family to a Kakeya-type
quantity for the underlying tubes.
"""

import numpy as np

from ..errors import InvalidArgumentError, PreconditionError
from ..reports import ExperimentReport, experiment_rng
from ..sphere import _gauss_legendre, perp_basis
from ..tomography import TubeFamily, kakeya_dual_functional

__all__ = ["randomized_tube_experiment"]


def _tube_direction_angles(R):
    """Angles on [0, pi) with exact spacing R^(-1/2) (the separation scale)."""
    if R < 4:
        raise InvalidArgumentError("R must be >= 4")
    delta = R ** -0.5
    count = int(np.floor(np.pi / delta))
    return delta * np.arange(count)


def _cap_wavepacket_extension(theta, half_width, modulation):
    """Extension of the modulated cap indicator, as a callable on R^2.

    The cap is the arc |phi - theta| <= half_width; the returned function
    evaluates z -> integral over the arc of exp(i (z + a).xi(phi)) dphi
    with a the modulation frequency, by 96-point Gauss-Legendre
    quadrature in phi.
    """
    nodes, weights = _gauss_legendre(96)
    phi = theta + half_width * nodes
    w = half_width * weights
    xi = np.column_stack([np.cos(phi), np.sin(phi)])
    a = np.asarray(modulation, dtype=float)

    def field_fn(z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return np.exp(1j * (z + a[None, :]) @ xi.T) @ w

    return field_fn


def randomized_tube_experiment(R=64, n_trials=400, seed=0, cap_scale=0.5):
    """Wavepacket concentration, Khintchine averaging, and the Kakeya dual.

    Builds a family of unit-length tubes of width R^(-1/2), one per
    direction of ``_tube_direction_angles(R)``, with random centers, and one
    modulated-cap wavepacket phi_T per tube (cap half-width
    cap_scale * R^(-1/2), modulation -R y_T).  Metrics:

    - ``c_min``: the minimum over 9 x 3 tube-core samples x of
      |phi_T dsigma hat(R x)| R^(1/2); concentration predicts ~ 2 cap_scale.
    - ``khintchine_dev_in_se``: Monte Carlo average over random sign
      vectors nu of sum_x |g_nu dsigma hat(R x)|^2 over 32 random points x
      of the unit disc, g_nu = sum nu_T phi_T, against the exact mean
      sum_{x,T} |phi_T dsigma hat(R x)|^2, in units of the standard error
      estimated from the trials.
    - ``kakeya_ratio``: L^2-norm of the tube overlap function against the
      dual Kakeya scale for the induced family.

    R < 4 raises invalid-argument.  The standard error comes from the
    trials themselves, so fewer than 30 trials raise a precondition error:
    at 3 trials P(|t| > 3) is 9.5 %, at 30 it is 0.55 %.
    """
    if n_trials < 30:
        raise PreconditionError(
            f"n_trials = {n_trials} is below 30, too few trials to estimate "
            "the standard error of the Khintchine check")
    delta = R ** -0.5
    angles = _tube_direction_angles(R)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    rng = experiment_rng(seed, "randomized_tube_experiment")
    radii = 0.5 * np.sqrt(rng.uniform(size=angles.size))
    azim = rng.uniform(0.0, 2.0 * np.pi, size=angles.size)
    centers = radii[:, None] * np.column_stack([np.cos(azim), np.sin(azim)])
    family = TubeFamily(delta=delta, directions=dirs, centers=centers,
                        length=1.0)

    half_width = cap_scale * delta
    packets = [_cap_wavepacket_extension(th, half_width, -R * y)
               for th, y in zip(angles, centers)]

    report = ExperimentReport(name="randomized_tube_experiment", seed=seed,
                              params={"R": R, "n_trials": n_trials,
                                      "cap_scale": cap_scale,
                                      "n_tubes": family.count})

    # (a) concentration on the tube cores, in units of R^(-1/2)
    s_core = np.linspace(-0.45, 0.45, 9)
    offsets = np.array([-0.5 * delta, 0.0, 0.5 * delta])
    c_min = np.inf
    center_err = 0.0
    for u, y, packet in zip(dirs, centers, packets):
        perp = perp_basis(u)[0]
        core = (y[None, None, :] + s_core[:, None, None] * u[None, None, :]
                + offsets[None, :, None] * perp[None, None, :])
        vals = np.abs(packet(R * core.reshape(-1, 2))) * R ** 0.5
        c_min = min(c_min, vals.min())
        center = abs(packet(R * y[None, :])[0])
        center_err = max(center_err, abs(center - 2.0 * half_width)
                         / (2.0 * half_width))
    report.check("c_min", float(c_min), lo=0.1)
    report.check("center_arc_err", float(center_err), hi=1e-9)

    # (b) Khintchine: E_nu |sum_T nu_T phi_T|^2 = sum_T |phi_T|^2
    pts_r = np.sqrt(rng.uniform(size=32))
    pts_a = rng.uniform(0.0, 2.0 * np.pi, size=32)
    pts = pts_r[:, None] * np.column_stack([np.cos(pts_a), np.sin(pts_a)])
    Phi = np.column_stack([packet(R * pts) for packet in packets])
    exact = np.add.reduce((np.abs(Phi) ** 2).ravel())
    signs = rng.choice([-1.0, 1.0], size=(family.count, n_trials))
    trial_sums = np.add.reduce(np.abs(Phi @ signs) ** 2, axis=0)
    mean = float(np.mean(trial_sums))
    se = float(np.std(trial_sums, ddof=1) / np.sqrt(n_trials))
    report.record("khintchine_ratio", mean / exact)
    report.record("khintchine_se_rel", se / exact)
    report.check("khintchine_dev_in_se", abs(mean - exact) / se, hi=3.0)

    # (c) overlap norm of the tube family against the dual Kakeya scale
    lhs, rhs = kakeya_dual_functional(family)
    report.record("kakeya_lhs", lhs)
    report.record("kakeya_rhs", rhs)
    report.check("kakeya_ratio", lhs / rhs, lo=0.0, hi=10.0)
    return report
