"""Sphere-to-sphere averaging operators and their bilinearizations.

A_t averages a density over the slice {xi . omega = t} with the coarea
weight of the slice measure; T_delta integrates against the kernel
1/(|xi.omega| + delta); S is the L^2-in-t aggregate of A_t.  The
bilinear variants BA_t and BT_delta compose the second density with the
reflection R_omega(xi) = xi - 2 (xi.omega) omega and the involution
g~(xi) = conj(g(-xi)).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, PreconditionError
from .extension import (SliceMeasureSpec, _slice_pair_points, extend_slice,
                        slice_circle_points)
from .sphere import _as_unit

__all__ = [
    "funk_At",
    "T_delta",
    "t_delta_via_slices",
    "S_operator",
    "BA_t",
    "BT_delta",
    "bt_delta_circle_grid",
    "rotcurv",
    "phi_zero",
]

# complex entries per block of rows in bt_delta_circle_grid (2 MB)
_BT_BLOCK = 2 ** 17


def funk_At(f, omega, t, n_slice=256):
    """Slice average A_t f(omega): integral of f over {xi.omega = t}.

    A_0 is the Funk transform.  Carries the coarea weight of the slice
    measure, so f = 1 gives the slice mass (2 pi for n = 3,
    2 (1 - t^2)^(-1/2) for n = 2).  t may be a 1-D array, which gives
    an array of averages.
    """
    spec = SliceMeasureSpec(_as_unit(omega, "omega"), t)
    val = extend_slice(f, spec, np.zeros(spec.omega.size), n_slice=n_slice)
    real = np.isrealobj(f.values) or np.all(f.values.imag == 0)
    if np.ndim(t) == 0:
        return float(val.real) if real else complex(val)
    return val.real if real else val


def T_delta(f, omega, delta, support_margin=1e-8):
    """Integral of f(xi) / (|xi.omega| + delta) over the sphere.

    ``delta = 0`` is allowed only when f vanishes on a neighbourhood of
    the equator {xi.omega = 0}; the margin is checked on the grid nodes.
    """
    if delta < 0:
        raise InvalidArgumentError("delta must be >= 0")
    omega = _as_unit(omega, "omega")
    dots = np.abs(f.grid.nodes @ omega)
    if delta == 0:
        live = np.abs(f.values) > 1e-14 * max(np.abs(f.values).max(), 1e-300)
        if np.any(live) and dots[live].min() < support_margin:
            raise PreconditionError(
                "T_0 requires support separated from the equator {xi.omega = 0}")
        kern = np.zeros_like(dots)
        kern[live] = 1.0 / dots[live]
    else:
        kern = 1.0 / (dots + delta)
    val = f.grid.integrate(f.values * kern)
    if np.isrealobj(f.values) or np.all(f.values.imag == 0):
        return float(val.real)
    return complex(val)


def t_delta_via_slices(f, omega, delta, n_u=200, n_slice=256):
    """T_delta computed through the slice reduction.

    Writes T_delta f = integral over t in (-1,1) of A_t f / (|t| + delta),
    substitutes t = sin(theta) and then grades theta logarithmically
    toward the kernel peak at t = 0, so the mesh resolves widths down to
    delta with a node count independent of delta.
    """
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    omega = _as_unit(omega, "omega")
    U = np.log1p((np.pi / 2.0) / delta)
    u, wu = np.polynomial.legendre.leggauss(n_u)
    u = 0.5 * U * (u + 1.0)
    wu = 0.5 * U * wu
    theta = delta * np.expm1(u)
    total = 0.0
    for sign in (1.0, -1.0):
        t = sign * np.sin(theta)
        jac = np.cos(theta) * delta * np.exp(u) / (np.sin(theta) + delta)
        vals = funk_At(f, omega, t, n_slice=n_slice)
        total += np.add.reduce(wu * vals * jac)
    return complex(total) if np.iscomplexobj(total) else float(total)


def S_operator(f, omega, n_t=128, n_slice=256):
    """(integral over t in (-1,1) of A_t f(omega)^2)^(1/2) by Gauss-Legendre."""
    omega = _as_unit(omega, "omega")
    t, wt = np.polynomial.legendre.leggauss(n_t)
    vals = funk_At(f, omega, t, n_slice=n_slice)
    return float(np.sqrt(np.add.reduce(wt * np.abs(vals) ** 2)))


def _tilde_after_reflection(g, omega, pts):
    """Values of g~(R_omega(xi)) = conj(g(-xi + 2 (xi.omega) omega)) at xi = pts."""
    reflected = pts - 2.0 * (pts @ omega)[:, None] * omega[None, :]
    return np.conj(g.evaluate(-reflected))


def BA_t(g1, g2, omega, t, n_slice=256, method="auto"):
    """Bilinear slice form: slice integral of g1(xi) g2~(R_omega(xi)).

    ``method`` selects the generic slice path ("slice"), the n = 2
    closed two-point form ("closed"), or the fast path when available
    ("auto").  The two paths agree to quadrature accuracy.  t may be a
    1-D array: the slices of all offsets are evaluated together and an
    array comes back; a scalar t gives a complex.
    """
    spec = SliceMeasureSpec(omega, t)
    omega = spec.omega
    n = omega.size
    if method not in ("auto", "slice", "closed"):
        raise InvalidArgumentError(f"unknown method {method!r}")
    if method == "closed" and n != 2:
        raise InvalidArgumentError("closed form is n = 2 only")
    if n == 2:
        pts, root = _slice_pair_points(omega, t)
    else:
        pts = slice_circle_points(omega, t, n_slice)
    shape = pts.shape[:-1]
    flat = pts.reshape(-1, n)
    if n == 2 and method in ("auto", "closed"):
        # g1 at (p+, p-) against conj g2 at (p-, p+)
        va = g1.evaluate(flat).reshape(shape)
        vb = np.conj(g2.evaluate(pts[..., ::-1, :].reshape(-1, n))).reshape(shape)
        out = (va[..., 0] * vb[..., 0] + va[..., 1] * vb[..., 1]) / root
    else:
        vals = g1.evaluate(flat) * _tilde_after_reflection(g2, omega, flat)
        out = np.add.reduce(vals.reshape(shape), axis=-1)
        out = out / root if n == 2 else out * (2.0 * np.pi / n_slice)
    return complex(out) if np.ndim(t) == 0 else out


def BT_delta(g1, g2, omega, delta):
    """Bilinear T: integral of g1(xi) g2~(R_omega(xi)) / (|xi.omega| + delta)."""
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    omega = _as_unit(omega, "omega")
    pts = g1.grid.nodes
    kern = 1.0 / (np.abs(pts @ omega) + delta)
    vals = g1.values * _tilde_after_reflection(g2, omega, pts)
    return complex(g1.grid.integrate(vals * kern))


def bt_delta_circle_grid(g1, g2, delta):
    """BT_delta(g1, g2) at every node of a shared equispaced circle grid.

    Exploits the n = 2 angle structure: for omega at grid angle phi_k and
    xi at theta_j, the reflected argument -R_omega(xi) sits at the grid
    angle 2 phi_k - theta_j, and the kernel depends only on theta_j - phi_k.
    Matches :func:`BT_delta` evaluated node-by-node.
    """
    if delta <= 0:
        raise InvalidArgumentError("delta must be positive")
    grid = g1.grid
    if grid.dim != 2 or grid.angles is None or g2.grid is not grid:
        raise InvalidArgumentError("both densities must share one circle grid")
    N = grid.node_count
    a = grid.weights * g1.values
    b = np.conj(g2.values)
    # index m = j - k mod N; cast to complex once rather than in every block
    kern = (1.0 / (np.abs(np.cos(grid.angles)) + delta)).astype(complex)
    # out[k] = sum_m kern[m] a[(k + m) % N] b[(k - m) % N]; both factors
    # are strided views, A[k, m] = a[(k + m) % N] and B[k, m] = b[(k - m) % N]
    A = sliding_window_view(np.concatenate([a, a[:-1]]), N)
    B = sliding_window_view(np.concatenate([b[1:], b]), N)[:, ::-1]
    out = np.empty(N, dtype=complex)
    step = max(1, _BT_BLOCK // N)
    for start in range(0, N, step):
        rows = slice(start, start + step)
        out[rows] = (A[rows] * B[rows]) @ kern
    return out


def rotcurv(phi, x, y, step=1e-4):
    """Rotational curvature: the bordered Hessian determinant of phi.

    |det [[phi, grad_x phi], [grad_y phi, d2_{xy} phi]]| assembled from
    central finite differences with the given step.
    """
    if not 1e-6 <= step <= 1e-2:
        raise InvalidArgumentError("step must lie in [1e-6, 1e-2]")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size
    if y.size != d:
        raise InvalidArgumentError("x and y must have equal dimension")
    h = step
    M = np.empty((d + 1, d + 1))
    M[0, 0] = phi(x, y)
    eye = np.eye(d)
    for j in range(d):
        M[0, j + 1] = (phi(x + h * eye[j], y) - phi(x - h * eye[j], y)) / (2 * h)
    for i in range(d):
        M[i + 1, 0] = (phi(x, y + h * eye[i]) - phi(x, y - h * eye[i])) / (2 * h)
        for j in range(d):
            M[i + 1, j + 1] = (phi(x + h * eye[j], y + h * eye[i])
                               - phi(x + h * eye[j], y - h * eye[i])
                               - phi(x - h * eye[j], y + h * eye[i])
                               + phi(x - h * eye[j], y - h * eye[i])) / (4 * h * h)
    return float(abs(np.linalg.det(M)))


def phi_zero(n, shift=0.0):
    """The model incidence function whose rotational curvature is 1 at the origin.

    phi(x, y) = sum_{j<n-1} x_j y_j + x_{n-1} sqrt(1-|y|^2)
                + y_{n-1} sqrt(1-|x|^2) - shift, for x, y in R^(n-1).
    """

    def phi(x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        head = np.add.reduce(x[:-1] * y[:-1]) if x.size > 1 else 0.0
        return (head + x[-1] * np.sqrt(1.0 - y @ y)
                + y[-1] * np.sqrt(1.0 - x @ x) - shift)

    return phi
