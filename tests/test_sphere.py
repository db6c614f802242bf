"""Grids, densities, caps and mollifiers on the sphere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError
from extomo.sphere import (CapSpec, Density, bump_cap_density,
                           knapp_cap_density, make_circle_grid,
                           make_sphere_grid, poisson_mollify_circle)


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

    def test_polynomial_exactness(self):
        # degree-6 spherical polynomial integrates exactly on an
        # exactness-degree >= 6 grid: xi_1^2 xi_2^2 xi_3^2 over S^2 has
        # integral 4 pi / 105
        grid = make_sphere_grid(8, 16)
        assert grid.exactness_degree >= 6
        val = grid.integrate(np.prod(grid.nodes ** 2, axis=1))
        assert val == pytest.approx(4.0 * np.pi / 105.0, rel=1e-12)


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
        g = knapp_cap_density(grid, CapSpec(np.array([1.0, 0.0]), delta))
        assert g.norm(1) == pytest.approx(2.0 * delta, rel=1e-2)

    def test_knapp_cap_mass_sphere(self):
        # geodesic cap of radius r on S^2 has measure 2 pi (1 - cos r)
        grid = make_sphere_grid(64, 128)
        r = 0.4
        g = knapp_cap_density(grid, CapSpec(np.array([0.0, 0.0, 1.0]), r))
        assert g.norm(1) == pytest.approx(2 * np.pi * (1 - np.cos(r)), rel=1e-2)

    def test_knapp_modulation_unimodular(self, sphere_grid):
        cap = CapSpec(np.array([0.0, 0.0, 1.0]), 0.5,
                      modulation_frequency=np.array([3.0, -1.0, 2.0]))
        g = knapp_cap_density(sphere_grid, cap)
        inside = np.abs(g.values) > 0
        assert np.allclose(np.abs(g.values[inside]), 1.0)

    def test_knapp_wide_cap_rejected(self, sphere_grid):
        with pytest.raises(InvalidArgumentError):
            knapp_cap_density(sphere_grid,
                              CapSpec(np.array([0.0, 0.0, 1.0]), np.pi / 2))

    def test_bump_vanishes_outside_cap(self, sphere_grid):
        g = bump_cap_density(sphere_grid, np.array([0.0, 0.0, 1.0]), 0.3)
        outside = np.arccos(np.clip(sphere_grid.nodes[:, 2], -1, 1)) > 0.3
        assert np.all(g.values[outside] == 0)

    def test_bump_peak_at_center(self, sphere_grid):
        g = bump_cap_density(sphere_grid, np.array([0.0, 0.0, 1.0]), 0.5,
                             amplitude=2.0)
        val = g.evaluate(np.array([0.0, 0.0, 1.0]))
        assert val[0].real == pytest.approx(2.0)


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(0.01, 0.9))
def test_poisson_l1_contraction_property(scale):
    grid = make_circle_grid(64)
    rng = np.random.default_rng(7)
    g = Density(grid, rng.standard_normal(grid.node_count))
    h = poisson_mollify_circle(g, scale)
    assert h.norm(1) <= g.norm(1) * (1 + 1e-10)
