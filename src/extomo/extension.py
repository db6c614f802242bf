"""The Fourier extension operator on the sphere and its slice transforms.

``extend`` evaluates g |-> integral of exp(i x.xi) g(xi) dsigma(xi) by
quadrature on the density's grid; ``extend_slice`` does the same for the
slice measures delta(xi.omega - t) dsigma, whose one quadrature rule,
coarea weight included, is ``slice_rule``.

The quadrature sum over nodes is evaluated one of two ways, chosen by the
shape of the point set alone; either way the nodes where w_j g_j = 0 are
dropped first.  Every uniform grid goes through one type-1 non-uniform
FFT (Gaussian gridding at 2x oversampling, Greengard & Lee 2004, each
node's kernel evaluated on its 2m + 1 nearest fine-grid cells per axis,
and the fine grid transformed only on its live rows and returned modes, a
pruned FFT, Markel 1971) with error below 1e-12 times sum |w_j g_j|:
uniformly spaced collinear points (the samples of a line, as ``xray``
passes them), the n = 2 boxes of ``extend_field`` and the uniform
hyperplane patches of ``extend_plane_field`` (n = 2 and 3); those two
grids come back as a ``tomography.SampledField``.  Every other point
set takes the direct sum, one exp(i x.xi) per (point, node) pair.  The
offset grids of slice line profiles take ``_slice_phase_tables``, the
same for every omega.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .sphere import _as_unit, _gauss_legendre, _perp_frames, perp_basis
from .tomography import SampledField

__all__ = [
    "SliceMeasureSpec",
    "extend",
    "extend_field",
    "extend_plane_field",
    "extend_slice",
    "sigma_hat_closed_form",
]

# type-1 NUFFT accuracy, relative to sum |w_j g_j|: at 2x oversampling, m cells on
# each side make the aliasing exp(-2 pi m / 3) <= eps; a cell past the 2m + 1 kept
# per node is >= (m + 1/2) h away, where exp(-pi (m+1/2)^2 (R-1/2) / (R m)) = 4e-16
_NUFFT_EPS = 1e-12
_NUFFT_HALF_WIDTH = int(np.ceil(-1.5 * np.log(_NUFFT_EPS) / np.pi))
# entries per block of a spreading or phase matrix (16 MB of float64)
_SPREAD_BLOCK = 2 ** 21
# uniform-line test: deviation from x0 + k d allowed, in ulps of max |x|
_LINE_ULPS = 8


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


def _next_fast_len(n):
    """The least 2^a 3^b 5^c 7^d 11^e >= n: scipy.fft's complex FFT length."""
    while True:
        k = n
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _spread(coeff, thetas, n_modes):
    """``_nufft1``'s Gaussian gridding: nf, tau, the window, its grid cells per
    axis.  Each node's Gaussian is evaluated on its 2m + 1 nearest cells only."""
    m = _NUFFT_HALF_WIDTH
    nf = _next_fast_len(max(2 * n_modes, 2 * m))
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
    band = np.arange(-m, m + 1)
    step = max(1, _SPREAD_BLOCK // max(cells.size for _, cells in axes))
    window = 0.0
    for start in range(0, coeff.size, step):
        block = slice(start, start + step)
        kern = []
        for theta, cells in axes:
            near = np.rint(theta[block, None] / h) + band
            at = near - cells[0] + cells.size * np.arange(near.shape[0])[:, None]
            kern.append(np.zeros((near.shape[0], cells.size)))
            kern[-1].reshape(-1)[at.astype(int)] = np.exp(
                -(h * near - theta[block, None]) ** 2 / (4.0 * tau))
        rhs = coeff[block, None] * (kern[1] if len(kern) == 2 else 1.0)
        # real kernel times complex values, as one real product on (re, im) pairs
        window = window + (kern[0].T @ rhs.view(float)).view(complex)
    return nf, tau, window.reshape([c.size for _, c in axes]), [c for _, c in axes]


def _nufft1(coeff, thetas, n_modes):
    """Type-1 NUFFT: F[k] = sum_j coeff_j exp(i k . theta_j) on a uniform grid.

    ``thetas`` holds one (J,) array of node phases per axis (1 or 2 axes);
    k runs over k_d = -(n_modes // 2) ... n_modes - 1 - n_modes // 2 on each
    axis, so output index a stands for k = a - n_modes // 2.  The nodes are
    spread with a Gaussian onto a periodic grid of nf >= 2 n_modes cells
    (``_spread``) and folded onto it with ``np.add.at``.  The inverse FFT
    is pruned: in 2-D only the rows the window folds onto are transformed,
    along the last axis, and only the n_modes kept columns go through the
    second pass; every 1-D transform gets the input of the full nf^d
    ``ifftn``, so the result is that transform's bit for bit.  Both passes
    run in place (``out=``) on the grids allocated here, and the division by
    the kernel's Fourier transform scales the gathered modes in place; the
    modes are a fresh C-contiguous array on every call.
    """
    nf, tau, window, cells = _spread(coeff, thetas, n_modes)
    folds = [np.unique(c % nf, return_inverse=True) for c in cells[:-1]]
    fine = np.zeros([rows.size for rows, _ in folds] + [nf], dtype=complex)
    np.add.at(fine, np.ix_(*[fold for _, fold in folds], cells[-1] % nf), window)
    k = np.arange(n_modes) - n_modes // 2
    modes = np.fft.ifft(fine, out=fine)[..., k % nf]
    if folds:
        # columns as rows, so the second pass also runs on contiguous memory
        cols = np.zeros((n_modes, nf), dtype=complex)
        cols[:, folds[0][0]] = modes.T
        modes = np.fft.ifft(cols, out=cols).T[k % nf]
    deconv = np.sqrt(np.pi / tau) * np.exp(k.astype(float) ** 2 * tau)
    modes *= functools.reduce(np.multiply.outer, [deconv] * len(cells))
    return modes


def _nonzero(g):
    """The nodes of g and the coefficients w_j g_j where w_j g_j != 0."""
    coeff = g.grid.weights * g.values
    keep = coeff != 0
    return g.grid.nodes[keep], coeff[keep]


def _direct_sum(g, pts):
    """sum_j w_j g_j exp(i x.xi_j) at each row of pts, one phase per w_j g_j != 0."""
    nodes, coeff = _nonzero(g)
    chunk = max(1, _SPREAD_BLOCK // max(coeff.size, 1))
    out = np.empty(pts.shape[0], dtype=complex)
    for start in range(0, pts.shape[0], chunk):
        block = pts[start:start + chunk]
        out[start:start + chunk] = np.exp(1j * (block @ nodes.T)) @ coeff
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
    """sum_j w_j g_j exp(i x.xi_j) over w_j g_j != 0, on the uniform grid
    x = center + sum_d (a_d - n_modes // 2) steps[d]."""
    nodes, coeff = _nonzero(g)
    if coeff.size == 0:
        return np.zeros((n_modes,) * len(steps), dtype=complex)
    coeff = coeff * np.exp(1j * (nodes @ center))
    return _nufft1(coeff, [nodes @ step for step in steps], n_modes)


def extend(g, x):
    """Evaluate the extension operator at one point or a batch of points.

    Parameters
    ----------
    g : Density
    x : (n,) or (M, n) array of evaluation points.

    A batch of M >= 2 uniformly spaced collinear points, x_k = x_0 + k d
    to within a few ulps of max |x|, is evaluated by a type-1 NUFFT whose
    error is below 1e-12 times sum |w_j g_j|; any other input
    takes the direct sum, in phase blocks of about 32 MB.

    Returns
    -------
    complex scalar for a single point, (M,) complex array for a batch.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[-1] != g.grid.dim or not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("evaluation points must be finite and of "
                                   f"dimension {g.grid.dim}")
    d = _uniform_step(pts)
    if d is None:
        out = _direct_sum(g, pts)
    else:
        M = pts.shape[0]
        out = _nufft_extend(g, pts[0] + (M // 2) * d, [d], M)
    return out[0] if single else out


def _extend_square(g, center, axes, half_width, points_per_axis):
    """One NUFFT: the extension of g at center + sum_d u_d axes[d], u in [-L, L]."""
    M = int(points_per_axis)
    if M < 2:
        raise InvalidArgumentError("points_per_axis must be >= 2")
    du = 2.0 * half_width / (M - 1)
    mid = -half_width + (M // 2) * du
    values = _nufft_extend(g, center + mid * np.sum(axes, axis=0),
                           [du * e for e in axes], M)
    return SampledField(float(half_width), values)


def extend_field(g, half_width, points_per_axis):
    """Evaluate the extension operator on the uniform box [-L, L]^2 (n = 2).

    The box is one 2-D uniform grid, evaluated by a type-1 NUFFT (error
    below 1e-12 times sum |w_j g_j|).  Returns a SampledField whose
    values[a, b] sits at (axis[a], axis[b]).
    """
    if g.grid.dim != 2:
        raise InvalidArgumentError("extend_field requires dim 2")
    return _extend_square(g, np.zeros(2), np.eye(2), half_width, points_per_axis)


def extend_plane_field(g, omega, t, truncation, n_samples):
    """Extension values on a uniform patch of the hyperplane {x.omega = t}.

    n = 2 or 3, the dimension of the density's grid.  The patch is a
    uniform grid of dimension n - 1 (a line for n = 2), evaluated by one
    type-1 NUFFT (error below 1e-12 times sum |w_j g_j|).  Returns a
    SampledField over [-truncation, truncation]^(n-1) whose values[a, ...]
    sits at t omega + axis[a] e1 + ..., with (e1, ...) = ``perp_basis(omega)``;
    ``integrate`` of it is the truncated hyperplane integral.
    """
    omega = _as_unit(omega, "omega")
    if omega.size != g.grid.dim:
        raise InvalidArgumentError(f"omega must have dimension {g.grid.dim}")
    return _extend_square(g, t * omega, perp_basis(omega), truncation, n_samples)


def slice_rule(omega, t, n_slice):
    """Points and weight of the slice measure delta(xi.omega - t) dsigma.

    n = 3: m = n_slice equispaced points of the circle in the ``perp_basis``
    frame, weight 2 pi / n_slice.  n = 2: m = 2 points, t omega + root e1
    then t omega - root e1, root = (1 - t^2)^(1/2), weight 1 / root.  For
    even m, point k + m/2 of a slice is -R_omega of point k (a half-turn).
    A slice integral is ``np.add.reduce(f(points), -1) * weight``; an array
    t gives points (n_t, m, n) and weights (n_t,).  omega may be one unit
    vector or a (K, n) stack of unit rows, each checked against UNIT_TOL;
    a stack gives points (K, *t.shape, m, n), row k those of omega[k] alone
    bit for bit, and the weight, which depends on t only, once.
    """
    # normalised once, so the frames match the rows exactly
    omega = _as_unit(omega, "omega")
    rows = np.atleast_2d(omega)
    K, n = rows.shape
    t = np.asarray(t, dtype=float)[..., None, None]
    root = np.sqrt(1.0 - t * t)
    if n == 2:
        e1 = np.stack([-rows[:, 1], rows[:, 0]], axis=-1)
        circle = np.array([[1.0], [-1.0]]) * e1[:, None]
        weight = 1.0 / root[..., 0, 0]
    else:
        e1, e2 = _perp_frames(rows)
        phi = 2.0 * np.pi * np.arange(n_slice) / n_slice
        circle = np.cos(phi)[:, None] * e1[:, None] + np.sin(phi)[:, None] * e2[:, None]
        weight = np.full(t.shape[:-2], 2.0 * np.pi / n_slice)
    lead = (K,) + (1,) * (t.ndim - 2)
    pts = root * circle.reshape(lead + circle.shape[1:])
    pts += t * rows.reshape(lead + (1, n))
    return pts.reshape(omega.shape[:-1] + pts.shape[1:]), weight


def extend_slice(g, spec, v, n_slice=256):
    """Fourier transform of the slice measure g dsigma_{omega,t} at v.

    ``v`` must lie in the hyperplane orthogonal to omega; the slice is
    integrated by ``slice_rule``.  An array ``spec.t`` gives one value per
    offset.
    """
    v = np.asarray(v, dtype=float)
    if abs(v @ spec.omega) > 1e-10:
        raise InvalidArgumentError("v must be orthogonal to omega")
    pts, weight = slice_rule(spec.omega, spec.t, n_slice)
    gv = g.evaluate(pts.reshape(-1, g.grid.dim)).reshape(pts.shape[:-1])
    return np.add.reduce(gv * np.exp(1j * pts @ v), axis=-1) * weight


@functools.lru_cache(maxsize=4)
def _slice_phase_tables(n_t, n_slice, half_width, n_v):
    """exp(i x.xi) = exp(i r_t u cos phi_j) exp(i r_t v sin phi_j) at x = u e1
    + v e2 (``perp_basis``) on every omega's ``slice_rule`` circles at the t of
    ``_gauss_legendre(n_t)``, as E1 (n_t, n_v, n_slice), E2 (n_t, n_slice, n_v),
    cached and read-only; slice values c extend to ``(E1 * c[:, None, :]) @ E2``.
    32 n_t n_v n_slice bytes: 3.2 MB at (24, 33, 128); 101 MB at (24, 129, 1024)."""
    t = _gauss_legendre(n_t)[0]
    r = np.sqrt(1.0 - t * t)[:, None, None]
    u = np.linspace(-half_width, half_width, n_v)
    phi = 2.0 * np.pi * np.arange(n_slice) / n_slice
    E1 = np.exp(1j * r * (u[:, None] * np.cos(phi)))
    E2 = np.exp(1j * r * (np.sin(phi)[:, None] * u))
    E1.flags.writeable = E2.flags.writeable = False
    return E1, E2


def sigma_hat_closed_form(n, r):
    """|sigma-hat(x)| for the full sphere measure, |x| = r (oracle)."""
    r = np.asarray(r, dtype=float)
    if n == 2:
        from scipy.special import j0
        return 2.0 * np.pi * np.abs(j0(r))
    safe = np.where(r == 0, 1.0, r)
    return np.where(r == 0, 4.0 * np.pi, 4.0 * np.pi * np.abs(np.sin(r)) / safe)


def _constant_extension(g):
    """r -> |g dsigma hat(x)| at |x| = r, exactly |c| sigma-hat, when g is
    one c at every node of a grid whose weights sum to the whole sphere's
    measure; None otherwise, for a constant on a zonal band too."""
    c = g.values[0]
    sphere = 2.0 * np.pi if g.grid.dim == 2 else 4.0 * np.pi
    if np.any(g.values != c) or not np.isclose(
            g.grid.weights.sum(), sphere, rtol=1e-10, atol=0.0):
        return None
    return lambda r: abs(c) * sigma_hat_closed_form(g.grid.dim, r)
