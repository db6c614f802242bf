"""Quadrature grids, geometry and mollifiers on the unit sphere.

This module is the discrete carrier of the surface measure: everything
downstream (extension operator, slice transforms, bilinear operators)
integrates against a :class:`SphereGrid`.  Grids are equispaced on the
circle and Gauss-Legendre x uniform-azimuth on the 2-sphere, so smooth
integrands converge spectrally / at the stated polynomial exactness.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

UNIT_TOL = 1e-12

__all__ = [
    "SphereGrid",
    "Density",
    "CapSpec",
    "make_circle_grid",
    "make_sphere_grid",
    "perp_basis",
    "poisson_kernel_circle",
    "poisson_mollify_circle",
    "knapp_cap_density",
    "bump_cap_density",
]


def _as_unit(v, name="vector"):
    """Return v renormalised to unit length; reject if off by more than UNIT_TOL."""
    v = np.asarray(v, dtype=float)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > UNIT_TOL:
        raise InvalidArgumentError(f"{name} must be a unit vector (|{name}| = {nrm:.3g})")
    return v / nrm


def perp_basis(omega):
    """Deterministic orthonormal basis of the hyperplane orthogonal to omega."""
    omega = _as_unit(omega, "omega")
    n = omega.size
    if n == 2:
        return np.array([[-omega[1], omega[0]]])
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(omega))] = 1.0
    e1 = e1 - (e1 @ omega) * omega
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(omega, e1)
    return np.array([e1, e2])


def _trapezoid_weights(M):
    """Trapezoid-rule weights of M equispaced samples, without the spacing."""
    w = np.ones(M)
    w[0] = w[-1] = 0.5
    return w


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes and weights on S^(n-1), n = 2 or 3.

    Attributes
    ----------
    dim : int
        Ambient dimension n.
    nodes : (K, n) ndarray
        Unit vectors.
    weights : (K,) ndarray
        Positive quadrature weights summing to the total surface measure.
    exactness_degree : int
        Spherical polynomials up to this degree integrate exactly.
    """

    dim: int
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int
    angles: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def node_count(self):
        return self.nodes.shape[0]

    def integrate(self, values):
        """Quadrature sum of per-node values against the surface measure."""
        values = np.asarray(values)
        return np.add.reduce(self.weights * values)


@dataclass(frozen=True)
class Density:
    """Complex-valued samples of a density g on a SphereGrid.

    ``evaluator``, when given, is a callable mapping an (M, n) array of
    unit vectors to values; it is used for off-node evaluation (smooth
    densities).  Without it, off-node lookups fall back to the nearest
    grid node (appropriate for sharp indicator inputs).
    """

    grid: SphereGrid
    values: np.ndarray
    evaluator: object = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.node_count,):
            raise InvalidArgumentError(
                f"values length {vals.shape} does not match node count {self.grid.node_count}")
        object.__setattr__(self, "values", vals)
        self.values.setflags(write=False)

    def evaluate(self, points):
        """Evaluate the density at arbitrary unit vectors."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if self.evaluator is not None:
            return np.asarray(self.evaluator(points), dtype=complex)
        idx = np.argmax(points @ self.grid.nodes.T, axis=1)
        return self.values[idx]

    def norm(self, p):
        """Weighted L^p norm on the grid (p may be np.inf)."""
        absv = np.abs(self.values)
        if np.isinf(p):
            return absv.max()
        return float(np.add.reduce(self.grid.weights * absv ** p)) ** (1.0 / p)

    def map(self, fn, evaluator=None):
        return Density(self.grid, fn(self.values), evaluator=evaluator)


@dataclass(frozen=True)
class CapSpec:
    """Geodesic cap with an optional linear phase modulation exp(i a.xi)."""

    center: np.ndarray
    radius: float
    modulation_frequency: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "center", _as_unit(self.center, "center"))
        if not 0 < self.radius <= np.pi:
            raise InvalidArgumentError("cap radius must lie in (0, pi]")
        if self.modulation_frequency is None:
            object.__setattr__(self, "modulation_frequency",
                               np.zeros_like(self.center))
        else:
            object.__setattr__(self, "modulation_frequency",
                               np.asarray(self.modulation_frequency, dtype=float))


def make_circle_grid(N):
    """Equispaced trapezoid-rule grid on S^1.

    Nodes (cos(2 pi k/N), sin(2 pi k/N)), weights 2 pi/N; exact for
    trigonometric polynomials of degree <= N-1.
    """
    if N < 4:
        raise InvalidArgumentError("circle grid needs N >= 4")
    theta = 2.0 * np.pi * np.arange(N) / N
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    weights = np.full(N, 2.0 * np.pi / N)
    return SphereGrid(dim=2, nodes=nodes, weights=weights,
                      exactness_degree=N - 1, angles=theta)


def make_sphere_grid(N_polar, N_azimuthal):
    """Gauss-Legendre (polar cosine) x equispaced (azimuth) grid on S^2.

    Exactness degree min(2*N_polar - 1, N_azimuthal - 1).
    """
    if N_polar < 4 or N_azimuthal < 8:
        raise InvalidArgumentError("sphere grid needs N_polar >= 4 and N_azimuthal >= 8")
    mu, wmu = np.polynomial.legendre.leggauss(N_polar)  # mu = cos(polar)
    phi = 2.0 * np.pi * np.arange(N_azimuthal) / N_azimuthal
    wphi = 2.0 * np.pi / N_azimuthal
    sin_polar = np.sqrt(1.0 - mu ** 2)
    nodes = np.empty((N_polar * N_azimuthal, 3))
    weights = np.empty(N_polar * N_azimuthal)
    for i in range(N_polar):
        sl = slice(i * N_azimuthal, (i + 1) * N_azimuthal)
        nodes[sl, 0] = sin_polar[i] * np.cos(phi)
        nodes[sl, 1] = sin_polar[i] * np.sin(phi)
        nodes[sl, 2] = mu[i]
        weights[sl] = wmu[i] * wphi
    return SphereGrid(dim=3, nodes=nodes, weights=weights,
                      exactness_degree=min(2 * N_polar - 1, N_azimuthal - 1))


def poisson_kernel_circle(r, theta):
    """Poisson kernel p_r(theta) = (1 - r^2) / (1 - 2 r cos(theta) + r^2)."""
    return (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(theta) + r * r)


def poisson_mollify_circle(g, scale):
    """Mollify a circle density by the Poisson kernel at parameter r = 1 - scale.

    The discrete kernel is renormalised to unit mass on the grid, so the
    operation preserves the mean exactly, preserves nonnegativity, and is
    an L^1 / L^inf contraction.
    """
    if g.grid.dim != 2 or g.grid.angles is None:
        raise InvalidArgumentError("poisson_mollify_circle needs a circle grid")
    if not 0.0 < scale < 1.0:
        raise InvalidArgumentError("scale must lie in (0, 1)")
    r = 1.0 - scale
    kern = poisson_kernel_circle(r, g.grid.angles)
    khat = np.fft.fft(kern)
    out = np.fft.ifft(np.fft.fft(g.values) * khat) / khat[0].real
    if np.all(np.isreal(g.values)):
        if np.all(g.values.real >= 0):
            out = np.maximum(out.real, 0.0).astype(complex)
        else:
            out = out.real.astype(complex)
    return Density(g.grid, out)


def knapp_cap_density(grid, cap):
    """Indicator of a geodesic cap times the modulation exp(i a.xi)."""
    if cap.radius >= np.pi / 2:
        raise InvalidArgumentError("knapp cap radius must be < pi/2")
    cosdist = np.clip(grid.nodes @ cap.center, -1.0, 1.0)
    inside = np.arccos(cosdist) <= cap.radius
    phase = np.exp(1j * grid.nodes @ cap.modulation_frequency)
    return Density(grid, inside * phase)


def bump_cap_density(grid, center, radius, amplitude=1.0):
    """Smooth bump supported in the geodesic cap of the given radius.

    Uses the standard C^infinity cutoff exp(1 - 1/(1 - (theta/radius)^2)),
    so the density vanishes identically outside the cap (useful when a
    strict support margin is required).
    """
    center = _as_unit(center, "center")
    if not 0 < radius < np.pi:
        raise InvalidArgumentError("cap radius must lie in (0, pi)")

    def evaluator(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        theta = np.arccos(np.clip(pts @ center, -1.0, 1.0))
        s = (theta / radius) ** 2
        out = np.zeros(pts.shape[0])
        inside = s < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out

    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)
