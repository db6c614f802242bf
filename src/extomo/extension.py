"""The Fourier extension operator on the sphere and its slice transforms.

``extend`` evaluates g |-> integral of exp(i x.xi) g(xi) dsigma(xi) by
quadrature on the density's grid; ``extend_slice`` does the same for the
slice measures delta(xi.omega - t) dsigma, which carry a coarea weight
(1 - t^2)^(-1/2) per unit arc length.

The quadrature sum over nodes is evaluated one of two ways, chosen by the
shape of the point set alone.  Every uniform grid goes through one type-1
non-uniform FFT (Gaussian gridding at 2x oversampling, Greengard & Lee
2004) whose error is below 1e-12 times sum |w_j g_j|: uniformly spaced
collinear points (the samples of a line, as ``xray`` and the n = 2
``radon`` pass them), the n = 2 boxes of ``extend_field`` and the uniform
hyperplane patches of ``extend_plane_field``.  Every other point set takes
the direct sum, one exp(i x.xi) per (point, node) pair.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .errors import InvalidArgumentError
from .sphere import _as_unit, _trapezoid_weights, perp_basis

__all__ = [
    "SampledField",
    "SliceMeasureSpec",
    "extend",
    "extend_field",
    "extend_plane_field",
    "extend_slice",
    "sigma_hat_closed_form",
]

# type-1 NUFFT accuracy, relative to sum |w_j g_j|; at 2x oversampling the
# Gaussian kernel needs exp(-2 pi m / 3) <= eps, so m cells on each side
_NUFFT_EPS = 1e-12
_NUFFT_HALF_WIDTH = int(np.ceil(-1.5 * np.log(_NUFFT_EPS) / np.pi))
# entries per block of the spreading matrix (16 MB of float64)
_SPREAD_BLOCK = 2 ** 21
# uniform-line test: deviation from x0 + k d allowed, in ulps of max |x|
_LINE_ULPS = 8


@dataclass(frozen=True)
class SampledField:
    """Uniform Cartesian samples of a function on the box [-L, L]^dim."""

    dim: int
    half_width: float
    points_per_axis: int
    values: np.ndarray

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise InvalidArgumentError("points_per_axis must be >= 2")
        vals = np.asarray(self.values, dtype=complex)
        expected = (self.points_per_axis,) * self.dim
        if vals.shape != expected:
            raise InvalidArgumentError(f"values shape {vals.shape} != {expected}")
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def meshgrid(self):
        ax = self.axis()
        return np.meshgrid(*([ax] * self.dim), indexing="ij")

    def integrate(self, integrand=None):
        """Trapezoid-rule integral of the field (or of integrand(values))."""
        vals = self.values if integrand is None else integrand(self.values)
        w = _trapezoid_weights(self.points_per_axis)
        for axis_idx in range(self.dim):
            shape = [1] * vals.ndim
            shape[axis_idx] = self.points_per_axis
            vals = vals * w.reshape(shape)
        total = np.add.reduce(vals.ravel())
        return total * self.spacing ** self.dim


@dataclass(frozen=True)
class SliceMeasureSpec:
    """The slice measure delta(xi.omega - t) dsigma(xi).

    t may be a 1-D array: one slice measure per offset, all with the same
    omega.
    """

    omega: np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_unit(self.omega, "omega"))
        if not np.all(np.abs(self.t) < 1.0):
            raise InvalidArgumentError("slice offset t must satisfy |t| < 1")


def _nufft1(coeff, thetas, n_modes):
    """Type-1 NUFFT: F[k] = sum_j coeff_j exp(i k . theta_j) on a uniform grid.

    ``thetas`` holds one (J,) array of node phases per axis (1 or 2 axes);
    k runs over k_d = -(n_modes // 2) ... n_modes - 1 - n_modes // 2 on each
    axis, so output index a stands for k = a - n_modes // 2.  The nodes are
    spread with a Gaussian onto a periodic grid of nf >= 2 n_modes cells:
    per axis a dense kernel matrix over the active window of the grid,
    contracted with the coefficients and folded onto the grid with
    ``np.add.at``.  One inverse FFT and a division by the kernel's Fourier
    transform then give the modes.
    """
    m = _NUFFT_HALF_WIDTH
    nf = next_fast_len(max(2 * n_modes, 2 * m))
    ratio = nf / n_modes
    # Gaussian exp(-x^2 / (4 tau)); tau from the actual oversampling ratio
    tau = np.pi * m / (n_modes ** 2 * ratio * (ratio - 0.5))
    h = 2.0 * np.pi / nf
    axes = []
    for theta in thetas:
        # exp(i k theta) is 2 pi periodic in theta for integer k
        theta = theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
        lo = int(np.floor(theta.min() / h)) - m
        hi = int(np.ceil(theta.max() / h)) + m
        axes.append((theta, np.arange(lo, hi + 1)))
    step = max(1, _SPREAD_BLOCK // max(cells.size for _, cells in axes))
    window = 0.0
    for start in range(0, coeff.size, step):
        block = slice(start, start + step)
        kern = [np.exp(-(h * cells[None, :] - theta[block, None]) ** 2 / (4.0 * tau))
                for theta, cells in axes]
        rhs = coeff[block, None] * (kern[1] if len(kern) == 2 else 1.0)
        # real kernel times complex values, as one real product on (re, im) pairs
        window = window + (kern[0].T @ rhs.view(float)).view(complex)
    fine = np.zeros((nf,) * len(axes), dtype=complex)
    np.add.at(fine, np.ix_(*[cells % nf for _, cells in axes]),
              window.reshape([cells.size for _, cells in axes]))
    k = np.arange(n_modes) - n_modes // 2
    modes = np.fft.ifftn(fine)[np.ix_(*[k % nf] * len(axes))]
    deconv = np.sqrt(np.pi / tau) * np.exp(k.astype(float) ** 2 * tau)
    return modes * functools.reduce(np.multiply.outer, [deconv] * len(axes))


def _direct_sum(g, pts, chunk=None):
    """sum_j w_j g_j exp(i x.xi_j) at each row of pts, one phase per pair."""
    coeff = g.grid.weights * g.values
    if chunk is None:
        # keep each phase matrix block at ~256 MB
        chunk = max(1, 2 ** 24 // g.grid.node_count)
    out = np.empty(pts.shape[0], dtype=complex)
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        out[start:start + chunk] = np.exp(1j * (block @ g.grid.nodes.T)) @ coeff
    return out


def _uniform_step(pts):
    """The step d when the M >= 2 rows are x0 + k d up to rounding, else None.

    d is taken from the endpoints, (x_{M-1} - x_0) / (M - 1).
    """
    M = pts.shape[0]
    if M < 2:
        return None
    d = (pts[-1] - pts[0]) / (M - 1)
    model = pts[0] + np.arange(M)[:, None] * d
    tol = _LINE_ULPS * np.finfo(float).eps * np.abs(pts).max()
    return d if np.abs(pts - model).max() <= tol else None


def _nufft_extend(g, center, steps, n_modes):
    """Extension at center + sum_d (a_d - n_modes // 2) steps[d] on a uniform grid."""
    nodes = g.grid.nodes
    coeff = g.grid.weights * g.values * np.exp(1j * (nodes @ center))
    return _nufft1(coeff, [nodes @ step for step in steps], n_modes)


def extend(g, x, chunk=None):
    """Evaluate the extension operator at one point or a batch of points.

    Parameters
    ----------
    g : Density
    x : (n,) or (M, n) array of evaluation points.
    chunk : rows per phase block of the direct sum (default ~256 MB).

    A batch of M >= 2 uniformly spaced collinear points, x_k = x_0 + k d
    to within a few ulps of max |x|, is evaluated by a type-1 NUFFT whose
    error is below 1e-12 times sum |w_j g_j|; any other input
    takes the direct sum.  ``chunk`` bounds only the direct sum's phase
    block.

    Returns
    -------
    complex scalar for a single point, (M,) complex array for a batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("evaluation points must be finite")
    d = _uniform_step(pts)
    if d is None:
        out = _direct_sum(g, pts, chunk)
    else:
        M = pts.shape[0]
        out = _nufft_extend(g, pts[0] + (M // 2) * d, [d], M)
    return out[0] if single else out


def extend_field(g, half_width, points_per_axis):
    """Evaluate the extension operator on the uniform box [-L, L]^2 (n = 2).

    The box is one 2-D uniform grid, evaluated by a type-1 NUFFT (error
    below 1e-12 times sum |w_j g_j|).  Returns a SampledField whose
    values[a, b] sits at (axis[a], axis[b]).
    """
    if g.grid.dim != 2:
        raise InvalidArgumentError("extend_field requires dim 2")
    M = int(points_per_axis)
    if M < 2:
        raise InvalidArgumentError("points_per_axis must be >= 2")
    du = 2.0 * half_width / (M - 1)
    mid = -half_width + (M // 2) * du
    values = _nufft_extend(g, np.array([mid, mid]),
                           [np.array([du, 0.0]), np.array([0.0, du])], M)
    return SampledField(dim=2, half_width=float(half_width),
                        points_per_axis=M, values=values)


def extend_plane_field(g, omega, t, truncation, n_samples):
    """Extension values on a uniform patch of the hyperplane {x.omega = t}.

    n = 3 only.  The patch is a 2-D uniform grid, evaluated by a type-1
    NUFFT (error below 1e-12 times sum |w_j g_j|).  Returns (values, u)
    with values indexed by the two in-plane coordinates u x u along the
    axes of ``perp_basis(omega)``.
    """
    omega = _as_unit(omega, "omega")
    if omega.size != 3:
        raise InvalidArgumentError("extend_plane_field requires dim 3")
    e1, e2 = perp_basis(omega)
    u = np.linspace(-truncation, truncation, n_samples)
    du = (u[-1] - u[0]) / max(n_samples - 1, 1)
    mid = u[0] + (n_samples // 2) * du
    values = _nufft_extend(g, t * omega + mid * (e1 + e2), [du * e1, du * e2],
                           n_samples)
    return values, u


def slice_circle_points(omega, t, n_slice):
    """Equispaced points on the slice circle {xi.omega = t} of S^2.

    t may be a 1-D array: the frame is built once and the points come back
    as an (n_t, n_slice, 3) stack, (n_slice, 3) for a scalar t.
    """
    # both normalise the given omega once, so the frame matches omega exactly
    e1, e2 = perp_basis(omega)
    omega = _as_unit(omega, "omega")
    t = np.asarray(t, dtype=float)[..., None, None]
    rho = np.sqrt(1.0 - t * t)
    phi = 2.0 * np.pi * np.arange(n_slice) / n_slice
    return (t * omega[None, :]
            + rho * (np.cos(phi)[:, None] * e1[None, :]
                     + np.sin(phi)[:, None] * e2[None, :]))


def _slice_pair_points(omega, t):
    """The two points of the n = 2 slice {xi.omega = t} and (1 - t^2)^(1/2).

    Points are (..., 2, 2): t omega + root perp, then t omega - root perp.
    """
    perp = np.array([-omega[1], omega[0]])
    t = np.asarray(t, dtype=float)[..., None]
    root = np.sqrt(1.0 - t * t)
    pts = np.stack([t * omega + root * perp, t * omega - root * perp], axis=-2)
    return pts, root[..., 0]


def extend_slice(g, spec, v, n_slice=256):
    """Fourier transform of the slice measure g dsigma_{omega,t} at v.

    ``v`` must lie in the hyperplane orthogonal to omega.  For n = 3 the
    slice is a circle integrated with an equispaced rule (the coarea
    weight cancels against the circle radius, leaving plain d(phi)); for
    n = 2 it is the sum of the two point masses with weight
    (1 - t^2)^(-1/2) each.  An array ``spec.t`` gives one value per offset.
    """
    omega, t = spec.omega, spec.t
    v = np.asarray(v, dtype=float)
    if abs(v @ omega) > 1e-10:
        raise InvalidArgumentError("v must be orthogonal to omega")
    if g.grid.dim == 2:
        pts, root = _slice_pair_points(omega, t)
    else:
        pts = slice_circle_points(omega, t, n_slice)
    gv = g.evaluate(pts.reshape(-1, g.grid.dim)).reshape(pts.shape[:-1])
    phases = np.exp(1j * pts @ v)
    if g.grid.dim == 2:
        # one length-2 dot per offset, the same BLAS dot as gv @ phases
        return (gv[..., None, :] @ phases[..., None])[..., 0, 0] / root
    return np.add.reduce(gv * phases, axis=-1) * (2.0 * np.pi / n_slice)


def sigma_hat_closed_form(n, r):
    """|sigma-hat(x)| for the full sphere measure, |x| = r (oracle)."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        from scipy.special import j0
        return 2.0 * np.pi * np.abs(j0(r))
    with np.errstate(divide="ignore", invalid="ignore"):
        val = np.where(r == 0, 4.0 * np.pi, 4.0 * np.pi * np.abs(np.sin(r)) / np.where(r == 0, 1.0, r))
    return val
