"""Quadrature grids, geometry and mollifiers on the unit sphere.

This module is the discrete carrier of the surface measure: everything
downstream (extension operator, slice transforms, bilinear operators)
integrates against a :class:`SphereGrid`.  Grids are equispaced on the
circle and Gauss-Legendre x uniform-azimuth on the 2-sphere, so smooth
integrands converge spectrally / at the stated polynomial exactness.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

UNIT_TOL = 1e-12
# entries per block of rows of the points x nodes product in nearest_node
_NEAREST_BLOCK = 2 ** 21

__all__ = [
    "SphereGrid",
    "Density",
    "make_circle_grid",
    "make_sphere_grid",
    "make_zonal_grid",
    "perp_basis",
    "poisson_kernel_circle",
    "poisson_mollify_circle",
    "knapp_cap_density",
    "bump_cap_density",
    "PRESETS",
    "preset_density",
]


def _as_unit(v, name="vector"):
    """Return v, or each row of a (K, n) stack v, renormalised to unit length;
    reject if any is off by more than UNIT_TOL.  The norm is np.linalg.norm's
    own dot, so a row comes out as it does alone, bit for bit."""
    v = np.asarray(v, dtype=float)
    nrm = np.sqrt(np.vecdot(v, v))[..., None]
    if (off := np.abs(nrm - 1.0) > UNIT_TOL).any():
        raise InvalidArgumentError(
            f"{name} must be a unit vector (|{name}| = {nrm[off][0]:.3g})")
    return v / nrm


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n):
    """``np.polynomial.legendre.leggauss(n)``, built once per n: (nodes,
    weights) on [-1, 1], both read-only since every caller shares them."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _perp_frames(omegas):
    """(e1, e2) of omega-perp for each unit row of (K, 3) omegas: e1 is e_1
    projected off omega (e_2 if omega = +-e_1), normalised, e2 = omega x e1.
    The frame is continuous in omega away from +-e_1."""
    e1 = np.eye(3)[0] - omegas[:, :1] * omegas
    # row norms by np.linalg.norm's own dot, so each frame is bit-stable
    sq = np.vecdot(e1, e1)
    if (flat := sq < 1e-16).any():
        e1[flat] = np.eye(3)[1] - omegas[flat, 1:2] * omegas[flat]
        sq = np.vecdot(e1, e1)
    e1 /= np.sqrt(sq)[:, None]
    return e1, np.cross(omegas, e1)


def perp_basis(omega):
    """Orthonormal basis of the hyperplane orthogonal to omega: (-w_2, w_1)
    for n = 2, the ``_perp_frames`` rows for n = 3."""
    omega = _as_unit(omega, "omega")
    if omega.size == 2:
        return np.array([[-omega[1], omega[0]]])
    return np.concatenate(_perp_frames(omega[None]))


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
        Positive quadrature weights summing to the measure of the grid's
        zones: the whole sphere for ``make_sphere_grid`` and ``make_circle_grid``.
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

    def nearest_node(self, points):
        """Index of the node with the largest dot product with each row of
        (M, n) ``points``, the first on a tie: ``np.argmax(points @ nodes.T,
        axis=1)`` bit for bit, in blocks of about 2^21 products."""
        points = np.asarray(points, dtype=float)
        step = max(2, _NEAREST_BLOCK // self.node_count)
        # a lone last row would take BLAS's matrix-vector path, which rounds
        # otherwise, so it joins the block before it
        blocks = np.split(points, range(step, len(points) - 1, step))
        return np.concatenate([np.argmax(b @ self.nodes.T, axis=1) for b in blocks])

    def line_directions(self):
        """(nodes, weights): one node of each antipodal pair {xi, -xi}, the
        first in node order, at the pair's summed weight; a node with no
        antipode keeps its own, so an even integrand swept over these equals
        ``integrate``.  Pairs are mutual first matches of coordinates rounded
        to 1e-9 against negations, with |xi_i + xi_j|_inf <= UNIT_TOL."""
        K = self.node_count
        keys = np.rint(self.nodes * 1e9).astype(np.int64)
        ids = np.unique(np.concatenate([keys, -keys]), axis=0,
                        return_inverse=True)[1].reshape(-1)
        first = np.full(2 * K, K)  # the first node with each key; K if none
        np.minimum.at(first, ids[:K], np.arange(K))
        j, i = first[ids[K:]], np.arange(K)  # j: the match of -xi_i
        paired = (np.append(j, K)[j] == i) & (np.abs(
            self.nodes + self.nodes[j % K]).max(axis=1) <= UNIT_TOL)
        weights = self.weights + np.where(paired, self.weights[j % K], 0.0)
        keep = ~paired | (i < j)
        return self.nodes[keep], weights[keep]


@dataclass(frozen=True)
class Density:
    """Complex-valued samples of a density g on a SphereGrid.

    ``evaluator``, when given, is a callable mapping an (M, n) float array
    of unit vectors to values; it is used for off-node evaluation (smooth
    densities).  Without it, an off-node point reads its nearest grid node
    (``SphereGrid.nearest_node``, a blocked lookup; for sharp indicators).
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
        return self.values[self.grid.nearest_node(points)]

    def norm(self, p):
        """Weighted L^p norm on the grid (p may be np.inf)."""
        absv = np.abs(self.values)
        if np.isinf(p):
            return absv.max()
        return float(np.add.reduce(self.grid.weights * absv ** p)) ** (1.0 / p)

    def map(self, fn):
        """fn applied to the values, and to the evaluator's output if any."""
        ev = self.evaluator
        return Density(self.grid, fn(self.values),
                       evaluator=None if ev is None else lambda pts: fn(ev(pts)))


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


def make_zonal_grid(axis, zones, n_z, n_phi):
    """Gauss-Legendre in z = xi.axis on each zone (lo, hi) x n_phi azimuths in
    the ``perp_basis(axis)`` frame, at the z weight times 2 pi / n_phi: dsigma
    is dz dphi about any axis (Archimedes' hat-box theorem).  Exactness degree
    min(2*n_z - 1, n_phi - 1)."""
    axis = _as_unit(axis, "axis")
    if n_z < 4 or n_phi < 8 or not all(-1.0 <= lo < hi <= 1.0 for lo, hi in zones):
        raise InvalidArgumentError("a zonal grid needs n_z >= 4, n_phi >= 8 and "
                                   "zones -1 <= lo < hi <= 1")
    mu, wmu = _gauss_legendre(n_z)
    z = np.concatenate([0.5 * (hi + lo) + 0.5 * (hi - lo) * mu for lo, hi in zones])
    wz = np.concatenate([0.5 * (hi - lo) * wmu for lo, hi in zones])
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    s = np.sqrt(1.0 - z ** 2)[:, None]
    e1, e2 = perp_basis(axis)
    nodes = z[:, None, None] * axis + (s * np.cos(phi))[..., None] * e1
    nodes += (s * np.sin(phi))[..., None] * e2
    return SphereGrid(dim=3, nodes=nodes.reshape(-1, 3),
                      weights=np.repeat(wz * (2.0 * np.pi / n_phi), n_phi),
                      exactness_degree=min(2 * n_z - 1, n_phi - 1))


def make_sphere_grid(N_polar, N_azimuthal):
    """Gauss-Legendre (polar cosine) x equispaced (azimuth) grid on S^2: the
    zonal grid of the one zone [-1, 1] about e_3."""
    return make_zonal_grid(np.eye(3)[2], [(-1.0, 1.0)], N_polar, N_azimuthal)


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


def knapp_cap_density(grid, center, radius):
    """Indicator of the geodesic cap of the given radius in (0, pi/2)."""
    center = _as_unit(center, "center")
    if not 0 < radius < np.pi / 2:
        raise InvalidArgumentError("knapp cap radius must lie in (0, pi/2)")
    cosdist = np.clip(grid.nodes @ center, -1.0, 1.0)
    inside = np.arccos(cosdist) <= radius
    return Density(grid, inside)


def bump_cap_density(grid, center, radius):
    """Smooth bump supported in the geodesic cap of the given radius.

    Uses the standard C^infinity cutoff exp(1 - 1/(1 - (theta/radius)^2)),
    so the density vanishes identically outside the cap (useful when a
    strict support margin is required).
    """
    center = _as_unit(center, "center")
    if not 0 < radius < np.pi:
        raise InvalidArgumentError("cap radius must lie in (0, pi)")

    def evaluator(pts):
        theta = np.arccos(np.clip(pts @ center, -1.0, 1.0))
        s = (theta / radius) ** 2
        out = np.zeros(pts.shape[0])
        inside = s < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside]))
        return out

    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)


PRESETS = ("constant", "cap", "band", "smooth", "modulated", "knapp")


def preset_density(grid, name, rng, k=None):
    """The named test density of PRESETS on the grid, pole e_n.

    - ``constant``: g = 1;
    - ``cap``: the bump of radius 0.7 around the pole;
    - ``band``: the indicator of |xi_1| <= 0.3;
    - ``smooth``: 1 + 0.5 tanh(a.xi) + 0.3 (b.xi)^2, with a and b drawn
      from ``rng`` (the only preset that draws);
    - ``modulated``: the cap times exp(i k.xi), k = (1, ..., n) by default;
    - ``knapp``: the indicator of the cap of radius 0.1 around the pole.

    Every preset but ``knapp`` carries an evaluator for off-node points;
    ``knapp`` reads the nearest node there, by a blocked lookup.
    """
    n = grid.dim
    pole = np.zeros(n)
    pole[-1] = 1.0
    if name == "cap":
        return bump_cap_density(grid, pole, 0.7)
    if name == "knapp":
        return knapp_cap_density(grid, pole, 0.1)
    if name == "constant":
        def evaluator(pts):
            return np.ones(np.atleast_2d(pts).shape[0])
    elif name == "band":
        def evaluator(pts):
            return (np.abs(pts[:, 0]) <= 0.3).astype(float)
    elif name == "smooth":
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)

        def evaluator(pts):
            return 1.0 + 0.5 * np.tanh(pts @ a) + 0.3 * (pts @ b) ** 2
    elif name == "modulated":
        base = bump_cap_density(grid, pole, 0.7)
        k = np.arange(1.0, n + 1) if k is None else np.asarray(k, dtype=float)

        def evaluator(pts):
            return base.evaluate(pts) * np.exp(1j * pts @ k)
    else:
        raise InvalidArgumentError(
            f"unknown preset {name!r} (choose from {PRESETS})")
    return Density(grid, evaluator(grid.nodes), evaluator=evaluator)
