"""X-ray and Radon transforms of fields on R^n, Lorentz norms and tube sums.

Uniform grids of samples (line profiles, and the boxes and hyperplane
patches of ``extension``) are ``SampledField``s, integrated by one
trapezoid rule, ``SampledField.integrate``.

Fields enter as vectorized callables mapping an (M, n) array of points,
not always C-contiguous, to an (M,) array of values; ``xray_profile``
calls a field once per block of lines, ``radial_xray_profile`` a radial
F(|x|) once per block of radii s >= u >= 0 of its square (u, s) grid.  A
field may declare ``support = (center, radius)``, a closed ball outside
which it is exactly 0; ``xray_profile`` then samples it only in the ball's
bounding box.  Improper integrals over R are truncated at an explicit
parameter, chosen so the tail is negligible (compact support or decay).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, PreconditionError
from .sphere import _as_unit, _trapezoid_weights, perp_basis

__all__ = [
    "Line",
    "Hyperplane",
    "SampledField",
    "TubeFamily",
    "xray",
    "radon",
    "xray_profile",
    "radial_xray_profile",
    "frac_laplacian",
    "xray_isometry_ratio",
    "lorentz_norm",
    "tube_sum_field",
    "kakeya_dual_functional",
]

_XRAY_BLOCK = 2 ** 15  # points per field call of xray_profile, n * 256 KB


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


def _per_axis(vals, w):
    """vals[a, b, ...] * w[a] * w[b] * ...: one weight vector on every axis."""
    for axis_idx in range(vals.ndim):
        shape = [1] * vals.ndim
        shape[axis_idx] = w.size
        vals = vals * w.reshape(shape)
    return vals


@dataclass(frozen=True)
class SampledField:
    """Uniform samples of a function on the cube [-L, L]^dim.

    ``values`` has shape (M,) * dim with M >= 2; the sample at index
    (a, b, ...) sits at axis[a] e_1 + axis[b] e_2 + ..., where the e_d are
    the coordinate axes for a box (``extend_field``) and the rows of
    ``perp_basis(omega)`` for a hyperplane patch (``extend_plane_field``)
    or a line profile (``xray_profile``).  Values keep their dtype.
    """

    half_width: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        M = vals.shape[0] if vals.ndim else 0
        if M < 2 or vals.shape != (M,) * vals.ndim:
            raise InvalidArgumentError("values must be a square grid with >= 2 "
                                       f"points per axis, not {vals.shape}")
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    @property
    def dim(self):
        return self.values.ndim

    @property
    def points_per_axis(self):
        return self.values.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.half_width / (self.points_per_axis - 1)

    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.points_per_axis)

    def meshgrid(self):
        return np.meshgrid(*[self.axis()] * self.dim, indexing="ij")

    def integrate(self, integrand=None):
        """Trapezoid-rule integral of the field (or of integrand(values))."""
        vals = self.values if integrand is None else integrand(self.values)
        vals = _per_axis(vals, _trapezoid_weights(self.points_per_axis))
        return np.add.reduce(vals.ravel()) * self.spacing ** self.dim

    def lp_norm(self, p):
        """L^p norm by the trapezoid rule; the largest |value| for p = inf."""
        if np.isinf(p):
            return float(np.abs(self.values).max())
        return float(self.integrate(lambda v: np.abs(v) ** p) ** (1.0 / p))


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


def xray(f, line, truncation, n_samples=1024):
    """X-ray transform: integral of f along a doubly-infinite line (truncated)."""
    if n_samples < 16:
        raise InvalidArgumentError("n_samples must be >= 16")
    s = np.linspace(-truncation, truncation, n_samples)
    vals = np.asarray(f(line.v[None, :] + s[:, None] * line.omega[None, :]))
    return float(np.trapezoid(vals.real, s)) if np.isrealobj(vals) \
        else complex(np.trapezoid(vals, s))


def radon(f, plane, truncation, n_samples_per_axis=1024):
    """Radon transform for n = 2: the ``xray`` of f along the line
    {x.omega = t}, in the direction ``perp_basis(omega)[0]``.

    A hyperplane integral of |g dsigma hat|^2, for n = 2 or 3, is instead
    ``extension.extend_plane_field(...).integrate``: one NUFFT per plane.
    """
    omega, t = plane.omega, plane.t
    if omega.size != 2:
        raise InvalidArgumentError("radon is the n = 2 line sweep; integrate an "
                                   "extend_plane_field patch for n = 3")
    return xray(f, Line(perp_basis(omega)[0], t * omega), truncation,
                n_samples_per_axis)


def xray_profile(f, omega, half_width, samples_per_axis, truncation,
                 n_samples=1024):
    """Sample v -> Xf(omega, v) on a uniform grid of the offset plane: a
    SampledField whose axes are the rows of ``perp_basis(omega)``.

    ``f`` gets one (m, n) column-major view of a reused buffer per block of
    whole lines, of at most _XRAY_BLOCK points or one line.  A one-line
    block (each block once n_samples >= _XRAY_BLOCK) is a uniform line, on
    which an ``extend`` field takes its NUFFT path (error below 1e-12).

    A field with ``support = (center, radius)`` is sampled only in the ball's
    bounding box in the (``perp_basis(omega)``, omega) frame, with the full
    grid's trapezoid weights; the other entries are 0, and a box that misses
    the grid never calls ``f``.
    """
    omega = _as_unit(omega, "omega")
    basis = perp_basis(omega)
    u = np.linspace(-half_width, half_width, samples_per_axis)
    s = np.linspace(-truncation, truncation, n_samples)
    w = _trapezoid_weights(n_samples) * (2.0 * truncation / (n_samples - 1))
    box = [slice(None)] * omega.size  # index ranges: offset axes, then s
    if getattr(f, "support", None) is not None:
        center, radius = f.support
        box = [slice(np.searchsorted(a, m - radius),
                     np.searchsorted(a, m + radius, "right")) for a, m in
               zip([u] * len(basis) + [s], np.vstack([basis, omega]) @ center)]
        if any(k.start >= k.stop for k in box):
            box = [slice(0, 0)] * omega.size
    s, w = s[box[-1]], w[box[-1]]
    grid = np.meshgrid(*[u[k] for k in box[:-1]], indexing="ij")
    # line offsets u1 e1 (+ u2 e2), row-major over the offset grid
    offsets = functools.reduce(np.add, [a.reshape(-1, 1) * e
                                        for a, e in zip(grid, basis)])
    along = omega[:, None, None] * s
    rows = max(_XRAY_BLOCK // max(s.size, 1), 1)
    buf = np.empty((omega.size, rows, s.size))
    lines = np.empty(len(offsets))
    for r0 in range(0, len(offsets), rows):
        block = offsets[r0:r0 + rows].T
        pts = np.add(block[:, :, None], along, out=buf[:, :block.shape[1]])
        vals = np.asarray(f(pts.reshape(omega.size, -1).T)).real
        lines[r0:r0 + rows] = np.add.reduce(vals.reshape(-1, s.size) * w, axis=1)
    prof = np.zeros((samples_per_axis,) * len(basis))
    prof[tuple(box[:-1])] = lines.reshape(grid[0].shape)
    return SampledField(half_width, prof)


def radial_xray_profile(F, half_width, samples_per_axis):
    """``xray_profile`` (n = 2) of x -> F(|x|), with the offsets as line samples.

    F is evaluated for s >= u >= 0 only, in row blocks of at most _XRAY_BLOCK
    radii (or one row) adding row sums and mirrored column sums.  A half line
    takes twice its trapezoid weights, a middle s = 0 once; u < 0 mirrors u > 0.
    """
    M = samples_per_axis
    if M < 2:
        raise InvalidArgumentError("samples_per_axis must be >= 2")
    x = np.linspace(-half_width, half_width, M)[M // 2:]
    w = _trapezoid_weights(M)[M // 2:] * (4.0 * half_width / (M - 1))
    w[0] /= 1 + M % 2
    rows = max(_XRAY_BLOCK // x.size, 1)
    half = np.zeros(x.size)
    for r0 in range(0, x.size, rows):
        block = F(np.hypot(x[r0:r0 + rows, None], x[r0:]))
        half[r0 + rows:] += w[r0:r0 + rows] @ block[:, rows:]
        half[r0:r0 + rows] += block @ w[r0:]
    return SampledField(half_width, np.concatenate([half[M % 2:][::-1], half]))


@functools.lru_cache(maxsize=8)
def _taper_window(M):
    """Raised-cosine taper equal to 1 on the interior, rolling to 0 on the
    outer 10 percent at each edge; cached per M and read-only."""
    w = np.ones(M)
    edge = max(int(np.ceil(M * 0.1)), 2)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
    w[:edge] = ramp
    w[-edge:] = ramp[::-1]
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=8)
def _fourier_multiplier(M, ndim, spacing, alpha):
    """|eta|^(2 alpha) on the FFT frequencies of M samples per axis (ndim
    axes) at the given spacing, zero at eta = 0; cached and read-only, at most
    8 M^ndim bytes each: 0.5 MB for a 257^2 profile."""
    eta1 = 2.0 * np.pi * np.fft.fftfreq(M, d=spacing)
    eta2 = functools.reduce(np.add.outer, [eta1 ** 2] * ndim)
    mult = np.power(eta2, alpha, out=np.zeros_like(eta2), where=eta2 > 0)
    mult.flags.writeable = False
    return mult


def _laplacian_power(vals, spacing, alpha):
    """(-Delta_v)^alpha of periodic samples: the FFT multiplier |eta|^(2 alpha),
    zero at eta = 0."""
    spectrum = np.fft.fftn(vals)
    spectrum *= _fourier_multiplier(vals.shape[0], vals.ndim, spacing, alpha)
    return np.fft.ifftn(spectrum, out=spectrum)


def frac_laplacian(profile, alpha):
    """Fractional Laplacian (-Delta_v)^alpha as the Fourier multiplier |eta|^(2 alpha).

    The profile is tapered by a raised-cosine window on the outer 10
    percent and then treated as periodic.  The zero frequency is
    annihilated for alpha > 0; for alpha < 0 the tapered input must be
    mean-zero (the multiplier is non-integrable at zero frequency).  The
    window and the multiplier are tables cached per (points per axis,
    spacing, alpha) and read-only, so a sweep of equal-sized profiles
    builds each once.
    """
    vals = np.asarray(profile.values, dtype=complex)
    peak = np.abs(vals).max()
    vals = _per_axis(vals, _taper_window(profile.points_per_axis))
    if alpha < 0 and peak > 0 and np.abs(vals.mean()) > 1e-8 * peak:
        raise PreconditionError("alpha < 0 requires a mean-zero profile")
    out = _laplacian_power(vals, profile.spacing, alpha)
    return SampledField(profile.half_width,
                        out.real if np.isrealobj(profile.values) else out)


def xray_isometry_ratio(f, f_l2, sphere_grid):
    """Ratio ||(-Delta_v)^(1/4) X f||_{L^2(lines)} / ||f||_{L^2(R^n)}.

    ``f_l2`` is the caller-supplied L^2 norm of f (closed form or an
    independent quadrature).  omega and -omega give the same lines, so the
    direction integral runs over ``sphere_grid.line_directions()``.  Each
    direction's profile has 257 offsets per axis in [-24, 24] and 1024
    samples per line truncated at 24, tapered before the half derivative;
    f is sampled only inside a declared ``support`` (see ``xray_profile``).
    """
    total = 0.0
    for node, weight in zip(*sphere_grid.line_directions()):
        prof = xray_profile(f, node, 24.0, 257, 24.0, 1024)
        half = frac_laplacian(prof, 0.25)
        total += weight * half.lp_norm(2) ** 2
    return float(np.sqrt(total) / f_l2)


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


def kakeya_dual_functional(family):
    """||sum of tube indicators||_{L^2} and the dual Kakeya scale (n = 2).

    The norm is the trapezoid rule over the box [-1.5, 1.5]^2.  Returns
    (lhs, rhs) with rhs = (R^{-1/2} #T)^{1/2}, where the tube width delta
    is identified with R^{-1/2}.
    """
    if family.count == 0:
        raise InvalidArgumentError("tube family is empty")
    if family.directions.shape[1] != 2:
        raise InvalidArgumentError("kakeya_dual_functional requires 2-D directions")
    box_half_width = 1.5
    # resolve the tube width with ~8 samples
    points_per_axis = min(int(16 * box_half_width / family.delta) + 1, 1025)
    ax = np.linspace(-box_half_width, box_half_width, points_per_axis)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    vals = tube_sum_field(family)(np.column_stack([X.ravel(), Y.ravel()]))
    lhs = SampledField(box_half_width, vals.reshape(X.shape)).lp_norm(2)
    R = family.delta ** -2.0
    rhs = (R ** -0.5 * family.count) ** 0.5
    return float(lhs), float(rhs)
