"""Grids, densities, caps and mollifiers on the sphere."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extomo import sphere
from extomo.errors import InvalidArgumentError
from extomo.sphere import (PRESETS, Density, SphereGrid,
                           bump_cap_density, knapp_cap_density,
                           make_circle_grid, make_sphere_grid,
                           make_zonal_grid, perp_basis,
                           poisson_mollify_circle, preset_density)


class TestGrids:
    def test_circle_total_measure(self, circle_grid):
        assert circle_grid.weights.sum() == pytest.approx(2.0 * np.pi)

    def test_sphere_total_measure(self, sphere_grid):
        assert sphere_grid.weights.sum() == pytest.approx(4.0 * np.pi)

    def test_sphere_second_moment(self, sphere_grid):
        # integral of xi_3^2 over S^2 is 4 pi / 3
        val = sphere_grid.integrate(sphere_grid.nodes[:, 2] ** 2)
        assert val == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)

    def test_circle_second_moment(self, circle_grid):
        # integral of cos^2(theta) over S^1 is pi
        val = circle_grid.integrate(circle_grid.nodes[:, 0] ** 2)
        assert val == pytest.approx(np.pi, rel=1e-12)

    def test_nodes_are_unit(self, sphere_grid):
        nrm = np.linalg.norm(sphere_grid.nodes, axis=1)
        assert np.allclose(nrm, 1.0, atol=1e-14)

    def test_too_small_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_circle_grid(3)
        with pytest.raises(InvalidArgumentError):
            make_sphere_grid(3, 8)

    @pytest.mark.parametrize("n", [1, 2, 24, 200])
    def test_gauss_legendre_is_leggauss_built_once(self, n):
        # the cached rule is leggauss bit for bit, one shared read-only pair
        nodes, weights = sphere._gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)
        again = sphere._gauss_legendre(n)
        assert again[0] is nodes and again[1] is weights
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_polynomial_exactness(self):
        # degree-6 spherical polynomial integrates exactly on an
        # exactness-degree >= 6 grid: xi_1^2 xi_2^2 xi_3^2 over S^2 has
        # integral 4 pi / 105
        grid = make_sphere_grid(8, 16)
        assert grid.exactness_degree >= 6
        val = grid.integrate(np.prod(grid.nodes ** 2, axis=1))
        assert val == pytest.approx(4.0 * np.pi / 105.0, rel=1e-12)


def _row_loop_sphere_grid(N_polar, N_azimuthal):
    """make_sphere_grid as it was built before zonal grids, one row at a
    time: (nodes, weights, exactness degree)."""
    mu, wmu = np.polynomial.legendre.leggauss(N_polar)
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
    return nodes, weights, min(2 * N_polar - 1, N_azimuthal - 1)


class TestZonalGrid:
    @pytest.mark.parametrize("size", [(96, 192), (24, 48), (32, 64), (8, 16),
                                      (5, 9), (4, 8)])
    def test_sphere_grid_is_the_row_loop_bit_for_bit(self, size):
        nodes, weights, degree = _row_loop_sphere_grid(*size)
        grid = make_sphere_grid(*size)
        assert grid.nodes.tobytes() == nodes.tobytes()
        assert grid.weights.tobytes() == weights.tobytes()
        assert grid.exactness_degree == degree

    def test_polynomial_exactness_on_zones(self):
        # dsigma = dz dphi about any axis: z^7 cos^2(phi) + z^2 sin^6(phi),
        # of degree 7 in z and in phi, integrates to
        # pi (hi^8 - lo^8)/8 + (5 pi/8) (hi^3 - lo^3)/3 per zone
        axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
        zones = [(-0.9, -0.4), (0.1, 0.7)]
        grid = make_zonal_grid(axis, zones, 4, 8)
        assert grid.exactness_degree == 7
        e1, e2 = perp_basis(axis)
        z = grid.nodes @ axis
        s = np.sqrt(1.0 - z ** 2)
        cos, sin = grid.nodes @ e1 / s, grid.nodes @ e2 / s
        assert np.allclose(cos ** 2 + sin ** 2, 1.0, atol=1e-14)
        exact = sum(np.pi * (hi ** 8 - lo ** 8) / 8
                    + 5 * np.pi * (hi ** 3 - lo ** 3) / 24 for lo, hi in zones)
        val = grid.integrate(z ** 7 * cos ** 2 + z ** 2 * sin ** 6)
        assert val == pytest.approx(exact, rel=1e-13)
        assert grid.weights.sum() == pytest.approx(2 * np.pi * 1.1, rel=1e-14)

    @pytest.mark.parametrize("zones, n_z, n_phi", [
        ([(0.5, 0.2)], 4, 8), ([(-1.5, 0.0)], 4, 8),
        ([(0.0, 0.5), (0.3, 0.3)], 4, 8), ([(0.0, 0.5)], 3, 8),
        ([(0.0, 0.5)], 4, 7)])
    def test_bad_zonal_grid_rejected(self, zones, n_z, n_phi):
        with pytest.raises(InvalidArgumentError):
            make_zonal_grid(np.array([0.0, 0.0, 1.0]), zones, n_z, n_phi)


class TestPerpBasis:
    def test_frame_is_continuous_through_a_coordinate_tie(self):
        # |w_1| = |w_2| is the smallest |coordinate|; one ulp more on w_1
        # must not turn the frame (an argmin rule turns it by 1.15)
        omega = np.array([0.5, 0.5, np.sqrt(0.5)])
        nudged = omega.copy()
        nudged[0] = np.nextafter(0.5, 1.0)
        assert np.abs(perp_basis(nudged) - perp_basis(omega)).max() <= 1e-15

    @pytest.mark.parametrize("axis, frame", [
        (0, [[0, 1, 0], [0, 0, 1]]), (1, [[1, 0, 0], [0, 0, -1]]),
        (2, [[1, 0, 0], [0, 1, 0]])])
    def test_axis_frames(self, axis, frame):
        # e_1 projected off omega, e_2 for omega = +-e_1; e2 = omega x e1
        omega = np.eye(3)[axis]
        assert np.array_equal(perp_basis(omega), frame)
        assert np.array_equal(perp_basis(-omega)[0], frame[0])


class TestDensity:
    def test_shape_mismatch_rejected(self, circle_grid):
        with pytest.raises(InvalidArgumentError):
            Density(circle_grid, np.ones(circle_grid.node_count + 1))

    def test_nearest_node_fallback(self, circle_grid):
        vals = np.arange(circle_grid.node_count, dtype=float)
        g = Density(circle_grid, vals)
        # a point slightly rotated off node 3 still reads node 3
        theta = circle_grid.angles[3] + 0.3 * (2 * np.pi / circle_grid.node_count)
        out = g.evaluate(np.array([np.cos(theta), np.sin(theta)]))
        assert out[0] == pytest.approx(3.0)

    def test_off_node_lookup_is_blocked(self):
        # 2048 points x 18432 nodes would be a 302 MB product in one go
        grid = make_sphere_grid(96, 192)
        g = Density(grid, np.arange(grid.node_count, dtype=float))
        pts = np.random.default_rng(3).standard_normal((2048, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        tracemalloc.start()
        try:
            g.evaluate(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_norms(self, one_circle):
        assert one_circle.norm(1) == pytest.approx(2.0 * np.pi)
        assert one_circle.norm(2) == pytest.approx(np.sqrt(2.0 * np.pi))
        assert one_circle.norm(np.inf) == pytest.approx(1.0)


class TestMollifiers:
    def test_poisson_preserves_mean(self, circle_grid, rng):
        g = Density(circle_grid, rng.uniform(0, 1, circle_grid.node_count))
        h = poisson_mollify_circle(g, 0.1)
        assert circle_grid.integrate(h.values.real) == pytest.approx(
            circle_grid.integrate(g.values.real), rel=1e-10)

    def test_poisson_preserves_positivity(self, circle_grid, rng):
        g = Density(circle_grid, rng.uniform(0, 1, circle_grid.node_count))
        h = poisson_mollify_circle(g, 0.05)
        assert np.all(h.values.real >= 0)

    def test_poisson_sup_contraction(self, circle_grid, rng):
        g = Density(circle_grid, rng.uniform(0, 1, circle_grid.node_count))
        h = poisson_mollify_circle(g, 0.2)
        assert np.abs(h.values).max() <= np.abs(g.values).max() + 1e-12

    def test_poisson_scale_domain(self, one_circle):
        with pytest.raises(InvalidArgumentError):
            poisson_mollify_circle(one_circle, 0.0)
        with pytest.raises(InvalidArgumentError):
            poisson_mollify_circle(one_circle, 1.0)


class TestCapDensities:
    def test_knapp_cap_mass(self):
        # on the circle the cap |theta| <= delta has measure 2 delta
        grid = make_circle_grid(4096)
        delta = 0.3
        g = knapp_cap_density(grid, np.array([1.0, 0.0]), delta)
        assert g.norm(1) == pytest.approx(2.0 * delta, rel=1e-2)

    def test_knapp_cap_mass_sphere(self):
        # geodesic cap of radius r on S^2 has measure 2 pi (1 - cos r)
        grid = make_sphere_grid(64, 128)
        r = 0.4
        g = knapp_cap_density(grid, np.array([0.0, 0.0, 1.0]), r)
        assert g.norm(1) == pytest.approx(2 * np.pi * (1 - np.cos(r)), rel=1e-2)

    def test_knapp_wide_cap_rejected(self, sphere_grid):
        with pytest.raises(InvalidArgumentError):
            knapp_cap_density(sphere_grid, np.array([0.0, 0.0, 1.0]), np.pi / 2)

    def test_bump_vanishes_outside_cap(self, sphere_grid):
        g = bump_cap_density(sphere_grid, np.array([0.0, 0.0, 1.0]), 0.3)
        outside = np.arccos(np.clip(sphere_grid.nodes[:, 2], -1, 1)) > 0.3
        assert np.all(g.values[outside] == 0)

    def test_bump_peak_at_center(self, sphere_grid):
        g = bump_cap_density(sphere_grid, np.array([0.0, 0.0, 1.0]), 0.5)
        val = g.evaluate(np.array([0.0, 0.0, 1.0]))
        assert val[0].real == pytest.approx(1.0)


class TestPresets:
    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_evaluator_matches_node_values(self, name, n, circle_grid,
                                           sphere_grid):
        # knapp carries no evaluator: its nearest-node lookup is exact on nodes
        grid = circle_grid if n == 2 else sphere_grid
        g = preset_density(grid, name, np.random.default_rng(0))
        assert np.array_equal(g.evaluate(grid.nodes), g.values)

    def test_unknown_name_rejected(self, sphere_grid):
        with pytest.raises(InvalidArgumentError):
            preset_density(sphere_grid, "nope", np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.01, 0.9))
def test_poisson_l1_contraction_property(scale):
    grid = make_circle_grid(64)
    rng = np.random.default_rng(7)
    g = Density(grid, rng.standard_normal(grid.node_count))
    h = poisson_mollify_circle(g, scale)
    assert h.norm(1) <= g.norm(1) * (1 + 1e-10)


_circle_or_sphere = st.one_of(
    st.builds(make_circle_grid, st.integers(4, 64)),
    st.builds(make_sphere_grid, st.integers(4, 12), st.integers(8, 24)))


class TestLineDirections:
    @settings(max_examples=30, deadline=None)
    @given(grid=_circle_or_sphere)
    def test_weights_sum_to_the_total(self, grid):
        _, weights = grid.line_directions()
        assert weights.sum() == pytest.approx(grid.weights.sum(), rel=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(grid=_circle_or_sphere)
    def test_no_antipode_is_returned_twice(self, grid):
        nodes, _ = grid.line_directions()
        sums = np.abs(nodes[:, None, :] + nodes[None, :, :]).max(axis=2)
        assert sums.min() > 1e-12

    @settings(max_examples=30, deadline=None)
    @given(grid=st.one_of(
        st.builds(make_circle_grid, st.integers(2, 32).map(lambda k: 2 * k)),
        st.builds(make_sphere_grid, st.integers(4, 12),
                  st.integers(4, 12).map(lambda k: 2 * k))))
    def test_even_grids_halve(self, grid):
        nodes, weights = grid.line_directions()
        assert len(nodes) == len(weights) == grid.node_count // 2
        # the kept nodes, in grid order; each antipode has the same weight
        idx = np.argmax((nodes[:, None, :] == grid.nodes[None, :, :]).all(2),
                        axis=1)
        assert np.array_equal(grid.nodes[idx], nodes)
        assert np.all(np.diff(idx) > 0)
        np.testing.assert_allclose(weights, 2.0 * grid.weights[idx],
                                   rtol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(grid=st.builds(make_circle_grid,
                          st.integers(2, 32).map(lambda k: 2 * k + 1)))
    def test_odd_circle_grid_comes_back_whole(self, grid):
        nodes, weights = grid.line_directions()
        assert np.array_equal(nodes, grid.nodes)
        assert np.array_equal(weights, grid.weights)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           K=st.integers(1, 200))
    def test_random_unit_vectors_come_back_whole(self, seed, n, K):
        rng = np.random.default_rng(seed)
        nodes = rng.standard_normal((K, n))
        nodes /= np.linalg.norm(nodes, axis=1)[:, None]
        grid = SphereGrid(dim=n, nodes=nodes, weights=rng.uniform(0.1, 1.0, K),
                          exactness_degree=0)
        got_nodes, got_weights = grid.line_directions()
        assert np.array_equal(got_nodes, grid.nodes)
        assert np.array_equal(got_weights, grid.weights)

    def test_near_antipodes_are_not_paired(self):
        # within the 1e-9 rounding of the match, but 1e-10 from an antipode
        nodes = np.array([[1.0, 0.0], [-np.sqrt(1.0 - 1e-20), 1e-10]])
        grid = SphereGrid(dim=2, nodes=nodes, weights=np.ones(2),
                          exactness_degree=0)
        got_nodes, got_weights = grid.line_directions()
        assert np.array_equal(got_nodes, nodes)
        assert np.array_equal(got_weights, np.ones(2))

    def test_duplicate_node_is_paired_once(self):
        # a repeated node: only its first copy pairs with the antipode
        nodes = np.array([[0.6, 0.8], [0.6, 0.8], [-0.6, -0.8]])
        grid = SphereGrid(dim=2, nodes=nodes, weights=np.array([1.0, 2.0, 4.0]),
                          exactness_degree=0)
        got_nodes, got_weights = grid.line_directions()
        assert np.array_equal(got_nodes, nodes[:2])
        assert np.array_equal(got_weights, [5.0, 2.0])


_NEAREST_GRIDS = {
    "circle": make_circle_grid(37),
    "sphere": make_sphere_grid(12, 24),
    "zonal": make_zonal_grid(np.array([0.6, 0.0, 0.8]),
                             [(-0.3, 0.1), (0.9, 1.0)], 6, 16),
}


class TestNearestNode:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(_NEAREST_GRIDS)),
           seed=st.integers(0, 2 ** 32 - 1), M=st.integers(0, 300),
           block_rows=st.integers(1, 40))
    def test_equals_the_dense_argmax(self, name, seed, M, block_rows):
        # random points, the nodes themselves, midpoints of neighbouring
        # nodes and the poles, in blocks of block_rows rows (at least 2)
        grid = _NEAREST_GRIDS[name]
        K, n = grid.node_count, grid.dim
        rng = np.random.default_rng(seed)
        i = rng.integers(K, size=M)
        pole = np.eye(n)[-1] * rng.choice([-1.0, 1.0], size=(M, 1))
        candidates = np.stack([rng.standard_normal((M, n)), grid.nodes[i],
                               grid.nodes[i] + grid.nodes[(i + 1) % K], pole])
        pts = candidates[rng.integers(4, size=M), np.arange(M)]
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        with mock.patch.object(sphere, "_NEAREST_BLOCK", block_rows * K):
            idx = grid.nearest_node(pts)
        assert idx.shape == (M,)
        np.testing.assert_array_equal(
            idx, np.argmax(pts @ grid.nodes.T, axis=1))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_tie_goes_to_the_first_node(self, sign):
        # every node of the ring nearest a pole has the same z, and the
        # pole's dot product with each is that z exactly
        grid = _NEAREST_GRIDS["sphere"]
        pts = np.tile([0.0, 0.0, sign], (5, 1))
        dots = pts[0] @ grid.nodes.T
        ring = np.flatnonzero(dots == dots.max())
        assert ring.size == 24
        with mock.patch.object(sphere, "_NEAREST_BLOCK", 2 * grid.node_count):
            np.testing.assert_array_equal(grid.nearest_node(pts), ring[0])

    @pytest.mark.parametrize("name", sorted(_NEAREST_GRIDS))
    def test_no_row_is_looked_up_alone(self, name):
        # a lone row takes BLAS's matrix-vector path, which rounds the dot
        # products otherwise; midpoints of neighbouring nodes are near ties,
        # so the prefixes of odd length must still match the dense argmax
        grid = _NEAREST_GRIDS[name]
        i = np.arange(grid.node_count)
        mid = grid.nodes[i] + grid.nodes[(i + 1) % grid.node_count]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        dense = np.argmax(mid @ grid.nodes.T, axis=1)
        with mock.patch.object(sphere, "_NEAREST_BLOCK", 2 * grid.node_count):
            for M in range(2, grid.node_count + 1):
                np.testing.assert_array_equal(grid.nearest_node(mid[:M]),
                                              dense[:M])

    def test_grid_nodes_are_their_own_nearest(self):
        grid = _NEAREST_GRIDS["zonal"]
        np.testing.assert_array_equal(grid.nearest_node(grid.nodes),
                                      np.arange(grid.node_count))
