"""X-ray, Radon and Kakeya-type transforms of fields on R^n.

Fields enter as vectorized callables mapping an (M, n) array of points to
an (M,) array of values.  All improper integrals over R are truncated at
an explicit parameter; callers are expected to choose truncations so the
tail is negligible at their tolerance (compact support or known decay).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .extension import SampledField
from .sphere import _as_unit, perp_basis

__all__ = [
    "Line",
    "Hyperplane",
    "LineProfile",
    "TubeFamily",
    "perp_basis",
    "xray",
    "radon",
    "x0",
    "xray_profile",
    "frac_laplacian",
    "xray_isometry_ratio",
    "radon_invert_2d",
    "kakeya_max",
    "sup_xray",
    "kakeya_max_segments",
    "lorentz_norm",
    "tube_sum_field",
    "kakeya_dual_functional",
]


@dataclass(frozen=True)
class Line:
    """Line {v + s omega} with offset v orthogonal to the direction."""

    omega: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_unit(self.omega, "omega"))
        v = np.asarray(self.v, dtype=float)
        if abs(v @ self.omega) > 1e-10:
            raise InvalidArgumentError("line offset v must be orthogonal to omega")
        object.__setattr__(self, "v", v)


@dataclass(frozen=True)
class Hyperplane:
    """Hyperplane {x . omega = t}."""

    omega: np.ndarray
    t: float

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_unit(self.omega, "omega"))


@dataclass(frozen=True)
class LineProfile:
    """Samples of v -> h(omega, v) on a uniform grid of the offset plane.

    ``values`` is 1-D for n = 2 and 2-D for n = 3; ``basis`` holds the
    orthonormal axes of the offset plane, so the sample at index (i, j)
    sits at axis[i] * basis[0] + axis[j] * basis[1].
    """

    omega: np.ndarray
    half_width: float
    values: np.ndarray
    basis: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_unit(self.omega, "omega"))
        vals = np.asarray(self.values)
        object.__setattr__(self, "values", vals)
        if self.basis is None:
            object.__setattr__(self, "basis", perp_basis(self.omega))
        M = vals.shape[0]
        if vals.shape != (M,) * vals.ndim:
            raise InvalidArgumentError("profile grid must be square")

    @property
    def samples_per_axis(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.samples_per_axis - 1)

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.samples_per_axis)

    def l2_norm(self):
        """L^2 norm over the offset plane (trapezoid rule)."""
        w = np.ones(self.samples_per_axis)
        w[0] = w[-1] = 0.5
        vals = np.abs(self.values) ** 2
        for axis_idx in range(vals.ndim):
            shape = [1] * vals.ndim
            shape[axis_idx] = self.samples_per_axis
            vals = vals * w.reshape(shape)
        return float(np.sqrt(np.add.reduce(vals.ravel()) * self.spacing ** self.values.ndim))

    def lp_norm(self, p):
        if np.isinf(p):
            return float(np.abs(self.values).max())
        w = np.ones(self.samples_per_axis)
        w[0] = w[-1] = 0.5
        vals = np.abs(self.values) ** p
        for axis_idx in range(vals.ndim):
            shape = [1] * vals.ndim
            shape[axis_idx] = self.samples_per_axis
            vals = vals * w.reshape(shape)
        return float((np.add.reduce(vals.ravel()) * self.spacing ** self.values.ndim) ** (1.0 / p))


@dataclass(frozen=True)
class TubeFamily:
    """A family of delta-tubes: (direction, center) pairs with common width."""

    delta: float
    directions: np.ndarray
    centers: np.ndarray
    length: float = 1.0

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        ctrs = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if dirs.shape != ctrs.shape:
            raise InvalidArgumentError("directions and centers must have equal shape")
        nrm = np.linalg.norm(dirs, axis=1)
        dirs = dirs / nrm[:, None]
        # geodesic separation of directions must be >= delta
        if dirs.shape[0] > 1:
            dots = np.clip(dirs @ dirs.T, -1.0, 1.0)
            ang = np.arccos(dots)
            np.fill_diagonal(ang, np.inf)
            if ang.min() < self.delta * (1.0 - 1e-9):
                raise InvalidArgumentError(
                    f"tube directions must be delta-separated (min {ang.min():.3g} < {self.delta:.3g})")
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "centers", ctrs)

    @property
    def count(self):
        return self.directions.shape[0]

    def to_csv(self, path):
        data = np.column_stack([self.directions, self.centers])
        np.savetxt(path, data, delimiter=",",
                   header=f"delta={self.delta},length={self.length}")


def _line_points(line, truncation, n_samples):
    s = np.linspace(-truncation, truncation, n_samples)
    return line.v[None, :] + s[:, None] * line.omega[None, :], s


def xray(f, line, truncation, n_samples=1024):
    """X-ray transform: integral of f along a doubly-infinite line (truncated)."""
    if n_samples < 16:
        raise InvalidArgumentError("n_samples must be >= 16")
    pts, s = _line_points(line, truncation, n_samples)
    vals = np.asarray(f(pts))
    return float(np.trapezoid(vals.real, s)) if np.isrealobj(vals) \
        else complex(np.trapezoid(vals, s))


def x0(f, omega, truncation, n_samples=1024):
    """Restricted X-ray transform: line through the origin in direction omega."""
    omega = _as_unit(omega, "omega")
    return xray(f, Line(omega, np.zeros_like(omega)), truncation, n_samples)


def radon(f, plane, truncation, n_samples_per_axis=1024):
    """Radon transform: integral of f over the hyperplane {x.omega = t}."""
    if n_samples_per_axis < 16:
        raise InvalidArgumentError("n_samples_per_axis must be >= 16")
    omega, t = plane.omega, plane.t
    basis = perp_basis(omega)
    if omega.size == 2:
        return xray(f, Line(basis[0], t * omega), truncation, n_samples_per_axis)
    u = np.linspace(-truncation, truncation, n_samples_per_axis)
    w = np.ones(n_samples_per_axis)
    w[0] = w[-1] = 0.5
    du = u[1] - u[0]
    total = 0.0
    base = t * omega
    for i, u1 in enumerate(u):
        pts = base[None, :] + u1 * basis[0][None, :] + u[:, None] * basis[1][None, :]
        row = np.asarray(f(pts)).real
        total += w[i] * np.add.reduce(row * w)
    return float(total * du * du)


def xray_profile(f, omega, half_width, samples_per_axis, truncation,
                 n_samples=1024):
    """Sample v -> Xf(omega, v) on a uniform grid of the offset plane."""
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    u = np.linspace(-half_width, half_width, samples_per_axis)
    s = np.linspace(-truncation, truncation, n_samples)
    if omega.size == 2:
        pts = (u[:, None, None] * basis[0][None, None, :]
               + s[None, :, None] * omega[None, None, :])
        vals = np.asarray(f(pts.reshape(-1, 2))).real.reshape(samples_per_axis, n_samples)
        prof = np.trapezoid(vals, s, axis=1)
    else:
        prof = np.empty((samples_per_axis, samples_per_axis))
        for i, u1 in enumerate(u):
            pts = (u1 * basis[0][None, None, :]
                   + u[:, None, None] * basis[1][None, None, :]
                   + s[None, :, None] * omega[None, None, :])
            vals = np.asarray(f(pts.reshape(-1, 3))).real.reshape(samples_per_axis, n_samples)
            prof[i] = np.trapezoid(vals, s, axis=1)
    return LineProfile(omega=omega, half_width=half_width, values=prof, basis=basis)


def _taper_window(M, fraction=0.1):
    """Raised-cosine taper equal to 1 on the interior, rolling to 0 at the edges."""
    w = np.ones(M)
    edge = max(int(np.ceil(M * fraction)), 2)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    return w


def frac_laplacian(profile, alpha, taper=False, boundary_tol=1e-6):
    """Fractional Laplacian (-Delta_v)^alpha as the Fourier multiplier |eta|^(2 alpha).

    The profile is treated as periodic; ``taper`` applies a raised-cosine
    window on the outer 10 percent before transforming.  The zero
    frequency is annihilated for alpha > 0; for alpha < 0 the input must
    be mean-zero (the multiplier is non-integrable at zero frequency).
    """
    vals = np.asarray(profile.values, dtype=complex)
    M = profile.samples_per_axis
    peak = np.abs(vals).max()
    if peak > 0 and not taper:
        if vals.ndim == 1:
            boundary = max(abs(vals[0]), abs(vals[-1]))
        else:
            boundary = max(np.abs(vals[0]).max(), np.abs(vals[-1]).max(),
                           np.abs(vals[:, 0]).max(), np.abs(vals[:, -1]).max())
        if boundary > boundary_tol * peak:
            raise PreconditionError(
                "profile does not decay at the grid boundary; pass taper=True")
    if taper:
        w = _taper_window(M)
        for axis_idx in range(vals.ndim):
            shape = [1] * vals.ndim
            shape[axis_idx] = M
            vals = vals * w.reshape(shape)
    if alpha < 0:
        mean = np.abs(vals.mean())
        if peak > 0 and mean > 1e-8 * peak:
            raise PreconditionError("alpha < 0 requires a mean-zero profile")
    eta1 = 2.0 * np.pi * np.fft.fftfreq(M, d=profile.spacing)
    if vals.ndim == 1:
        eta2 = eta1 ** 2
    else:
        eta2 = eta1[:, None] ** 2 + eta1[None, :] ** 2
    mult = np.zeros_like(eta2)
    nz = eta2 > 0
    mult[nz] = eta2[nz] ** alpha
    out = np.fft.ifftn(np.fft.fftn(vals) * mult)
    if np.isrealobj(profile.values):
        out = out.real
    return LineProfile(omega=profile.omega, half_width=profile.half_width,
                       values=out, basis=profile.basis)


def xray_isometry_ratio(f, n, f_l2, sphere_grid, half_width=24.0,
                        samples_per_axis=257, truncation=24.0, n_samples=1024,
                        taper=True):
    """Ratio ||(-Delta_v)^(1/4) X f||_{L^2(lines)} / ||f||_{L^2(R^n)}.

    ``f_l2`` is the caller-supplied L^2 norm of f (closed form or an
    independent quadrature); the direction integral runs over the given
    sphere grid.
    """
    total = 0.0
    for node, weight in zip(sphere_grid.nodes, sphere_grid.weights):
        prof = xray_profile(f, node, half_width, samples_per_axis, truncation, n_samples)
        half = frac_laplacian(prof, 0.25, taper=taper)
        total += weight * half.l2_norm() ** 2
    return float(np.sqrt(total) / f_l2)


def radon_invert_2d(sinogram, angles, offsets, half_width, points_per_axis):
    """Filtered backprojection (ramp filter |eta|) for the 2-D Radon transform.

    ``sinogram`` has shape (len(angles), len(offsets)); angles are the
    direction angles of omega, offsets the signed distances t.
    """
    sino = np.asarray(sinogram, dtype=float)
    angles = np.asarray(angles, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    if sino.shape != (angles.size, offsets.size):
        raise InvalidArgumentError("sinogram shape must be (n_angles, n_offsets)")
    warn_undersampled = angles.size < 32
    dt = offsets[1] - offsets[0]
    # ramp filter in the offset variable, zero-padded to soften wraparound
    n_pad = 2 * offsets.size
    eta = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=dt)
    filt = np.abs(eta)
    filtered = np.fft.ifft(np.fft.fft(sino, n=n_pad, axis=1) * filt[None, :], axis=1).real
    filtered = filtered[:, :offsets.size]
    ax = np.linspace(-half_width, half_width, points_per_axis)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    recon = np.zeros_like(X)
    for k, th in enumerate(angles):
        t = X * np.cos(th) + Y * np.sin(th)
        idx = (t - offsets[0]) / dt
        i0 = np.clip(np.floor(idx).astype(int), 0, offsets.size - 2)
        frac = np.clip(idx - i0, 0.0, 1.0)
        recon += (1 - frac) * filtered[k, i0] + frac * filtered[k, i0 + 1]
    # angle integral over [0, pi) and the 1/(4 pi) inversion constant for n=2
    dtheta = np.pi / angles.size
    recon *= dtheta / (2.0 * np.pi)
    fieldobj = SampledField(dim=2, half_width=float(half_width),
                            points_per_axis=points_per_axis,
                            values=recon.astype(complex))
    return fieldobj, warn_undersampled


def _tube_average(f, omega, center, radius, length, n_long=64, n_cross=8):
    """Average of |f| over the radius-neighbourhood of a segment."""
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    s = (np.arange(n_long) + 0.5) / n_long * length - length / 2.0
    if omega.size == 2:
        u = (np.arange(n_cross) + 0.5) / n_cross * 2 * radius - radius
        pts = (center[None, None, :] + s[:, None, None] * omega[None, None, :]
               + u[None, :, None] * basis[0][None, None, :])
        vals = np.abs(np.asarray(f(pts.reshape(-1, 2))))
        return float(vals.mean())
    # n = 3: midpoint grid on the disc cross-section in polar coordinates
    rr = np.sqrt((np.arange(n_cross) + 0.5) / n_cross) * radius
    ph = 2 * np.pi * (np.arange(n_cross) + 0.5) / n_cross
    R, P = np.meshgrid(rr, ph, indexing="ij")
    disc = (R * np.cos(P))[..., None] * basis[0] + (R * np.sin(P))[..., None] * basis[1]
    pts = (center[None, None, None, :] + s[:, None, None, None] * omega
           + disc[None, :, :, :])
    vals = np.abs(np.asarray(f(pts.reshape(-1, 3))))
    return float(vals.mean())


def kakeya_max(f, delta, omega, support_half_width=1.5, n_long=64, n_cross=8):
    """Kakeya maximal function: max tube-average of |f| over translated delta-tubes.

    The supremum is a lattice search (pitch delta/2) over tube centers
    inside the declared support box, so the result is a lower bound for
    the true supremum.
    """
    if not 0.0 < delta < 1.0:
        raise InvalidArgumentError("delta must lie in (0, 1)")
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    pitch = delta / 2.0
    m = int(np.floor(support_half_width / pitch))
    offsets = np.arange(-m, m + 1) * pitch
    best = 0.0
    if omega.size == 2:
        centers = offsets[:, None] * basis[0][None, :]
    else:
        A, B = np.meshgrid(offsets, offsets, indexing="ij")
        centers = A.ravel()[:, None] * basis[0] + B.ravel()[:, None] * basis[1]
    for center in centers:
        best = max(best, _tube_average(f, omega, center, delta, 1.0, n_long, n_cross))
    return best


def sup_xray(f, omega, pitch, v_extent, truncation, n_samples=1024):
    """Lattice supremum over offsets v of X|f|(omega, v)."""
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    m = int(np.floor(v_extent / pitch))
    offsets = np.arange(-m, m + 1) * pitch
    best = 0.0
    absf = lambda pts: np.abs(np.asarray(f(pts)))
    if omega.size == 2:
        vs = offsets[:, None] * basis[0][None, :]
    else:
        A, B = np.meshgrid(offsets, offsets, indexing="ij")
        vs = A.ravel()[:, None] * basis[0] + B.ravel()[:, None] * basis[1]
    for v in vs:
        best = max(best, xray(absf, Line(omega, v), truncation, n_samples))
    return best


def kakeya_max_segments(f, R, omega, center_extent=None, pitch=0.5,
                        n_long=128, n_cross=8):
    """sup over 1-neighbourhoods of length-R segments parallel to omega of the integral of |f|."""
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    if center_extent is None:
        center_extent = R / 2.0
    m = int(np.floor(center_extent / pitch))
    offsets = np.arange(-m, m + 1) * pitch
    volume = 2.0 * R if omega.size == 2 else np.pi * R
    best = 0.0
    if omega.size == 2:
        centers = offsets[:, None] * basis[0][None, :]
    else:
        A, B = np.meshgrid(offsets, offsets, indexing="ij")
        centers = A.ravel()[:, None] * basis[0] + B.ravel()[:, None] * basis[1]
    for center in centers:
        avg = _tube_average(f, omega, center, 1.0, R, n_long, n_cross)
        best = max(best, avg * volume)
    return best


def lorentz_norm(values, weights, q, r):
    """Discrete Lorentz L^{q,r} quasinorm of a weighted step function.

    Uses the normalisation for which L^{q,q} equals the weighted L^q norm
    and a single atom (a, w) has norm a * w^(1/q) for every r.
    """
    if q < 1:
        raise InvalidArgumentError("q must be >= 1")
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if np.any(values < 0) or np.any(weights <= 0):
        raise InvalidArgumentError("values must be >= 0 and weights > 0")
    order = np.argsort(values)[::-1]
    v = values[order]
    keep = v > 0
    v = v[keep]
    if v.size == 0:
        return 0.0
    T = np.cumsum(weights[order][keep])
    if np.isinf(r):
        return float(np.max(v * T ** (1.0 / q)))
    Tprev = np.concatenate([[0.0], T[:-1]])
    terms = v ** r * (T ** (r / q) - Tprev ** (r / q))
    return float(np.add.reduce(terms) ** (1.0 / r))


def tube_sum_field(family):
    """Callable x -> number of tubes of the family containing x."""
    dirs = family.directions
    ctrs = family.centers
    half_len = family.length / 2.0
    radius = family.delta

    def field_fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rel = pts[:, None, :] - ctrs[None, :, :]
        along = np.einsum("mtn,tn->mt", rel, dirs)
        perp = rel - along[:, :, None] * dirs[None, :, :]
        dist = np.linalg.norm(perp, axis=2)
        inside = (np.abs(along) <= half_len) & (dist <= radius)
        return inside.sum(axis=1).astype(float)

    return field_fn


def kakeya_dual_functional(family, box_half_width=1.5, points_per_axis=None):
    """||sum of tube indicators||_{L^{n/(n-1)}} and the dual Kakeya scale.

    Returns (lhs, rhs) with rhs = (R^{-(n-1)/2} #T)^{(n-1)/n}, where the
    tube width delta is identified with R^{-1/2}.
    """
    if family.count == 0:
        raise InvalidArgumentError("tube family is empty")
    n = family.directions.shape[1]
    if points_per_axis is None:
        # resolve the tube width with ~8 samples
        points_per_axis = min(int(16 * box_half_width / family.delta) + 1, 1025 if n == 2 else 161)
    f = tube_sum_field(family)
    ax = np.linspace(-box_half_width, box_half_width, points_per_axis)
    h = ax[1] - ax[0]
    p = n / (n - 1.0)
    total = 0.0
    if n == 2:
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        vals = f(np.column_stack([X.ravel(), Y.ravel()]))
        total = np.add.reduce(vals ** p) * h * h
    else:
        for x1 in ax:
            X2, X3 = np.meshgrid(ax, ax, indexing="ij")
            pts = np.column_stack([np.full(X2.size, x1), X2.ravel(), X3.ravel()])
            total += np.add.reduce(f(pts) ** p) * h ** 3
    lhs = total ** (1.0 / p)
    R = family.delta ** -2.0
    rhs = (R ** (-(n - 1) / 2.0) * family.count) ** ((n - 1.0) / n)
    return float(lhs), float(rhs)
