"""The extension operator, sampled fields and slice measures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError
from extomo.experiments.reductions import _slice_xray_profile
from extomo.extension import (SampledField, SliceMeasureSpec, _direct_sum,
                              _uniform_step, extend, extend_field,
                              extend_plane_field, extend_slice,
                              sigma_hat_closed_form)
from extomo.sphere import (Density, bump_cap_density, make_circle_grid,
                           make_sphere_grid, perp_basis)


class TestExtend:
    def test_value_at_origin_is_total_mass(self, one_sphere):
        # extension at x = 0 is the plain surface integral of g
        val = extend(one_sphere, np.zeros(3))
        assert val == pytest.approx(4.0 * np.pi, rel=1e-12)

    def test_closed_form_circle(self, one_circle):
        # full circle measure extends to 2 pi J_0(|x|)
        r = np.array([0.0, 0.7, 2.4, 5.5, 11.0])
        pts = np.column_stack([r, np.zeros_like(r)])
        vals = np.abs(extend(one_circle, pts))
        assert np.allclose(vals, sigma_hat_closed_form(2, r), atol=1e-8)

    def test_closed_form_sphere(self, one_sphere):
        # full sphere measure extends to 4 pi sin(|x|)/|x|
        r = np.array([0.5, 1.0, 3.0, 7.0])
        pts = np.column_stack([np.zeros_like(r), r, np.zeros_like(r)])
        vals = np.abs(extend(one_sphere, pts))
        assert np.allclose(vals, sigma_hat_closed_form(3, r), rtol=1e-8)

    def test_linearity(self, sphere_grid, rng):
        a = Density(sphere_grid, rng.standard_normal(sphere_grid.node_count))
        b = Density(sphere_grid, rng.standard_normal(sphere_grid.node_count))
        combo = Density(sphere_grid, 2.0 * a.values - 3.0 * b.values)
        x = np.array([0.4, -1.1, 0.8])
        assert extend(combo, x) == pytest.approx(
            2.0 * extend(a, x) - 3.0 * extend(b, x))

    def test_modulation_is_translation(self, sphere_grid, rng):
        # g(xi) e^{i a.xi} extends to the translate by a
        g = Density(sphere_grid, rng.standard_normal(sphere_grid.node_count))
        a = np.array([0.3, 1.2, -0.7])
        mod = Density(sphere_grid, g.values * np.exp(1j * sphere_grid.nodes @ a))
        x = np.array([-0.5, 0.2, 1.4])
        assert extend(mod, x) == pytest.approx(extend(g, x + a))

    def test_l1_bound(self, sphere_grid, rng):
        g = Density(sphere_grid, rng.standard_normal(sphere_grid.node_count))
        pts = rng.uniform(-20, 20, (50, 3))
        assert np.abs(extend(g, pts)).max() <= g.norm(1) + 1e-10

    def test_nonfinite_point_rejected(self, one_sphere):
        with pytest.raises(InvalidArgumentError):
            extend(one_sphere, np.array([np.nan, 0.0, 0.0]))

    def test_chunked_matches_unchunked(self, one_sphere, rng):
        pts = rng.uniform(-5, 5, (37, 3))
        assert np.allclose(extend(one_sphere, pts, chunk=5),
                           extend(one_sphere, pts), rtol=1e-13)


class TestExtendField:
    def test_box_needs_dim_2(self, one_sphere):
        with pytest.raises(InvalidArgumentError):
            extend_field(one_sphere, 3.0, 9)

    def test_plane_field_matches_pointwise(self, rng):
        grid = make_sphere_grid(8, 16)
        g = Density(grid, rng.standard_normal(grid.node_count))
        omega = np.array([0.0, 0.0, 1.0])
        t = 0.7
        vals, u = extend_plane_field(g, omega, t, 2.0, 5)
        # middle sample sits at x = t omega + u[2] e1 + u[2] e2 for the
        # deterministic in-plane basis; check the center point directly
        assert vals[2, 2] == pytest.approx(extend(g, t * omega), rel=1e-12)


def _random_density(n, rng):
    grid = make_circle_grid(64) if n == 2 else make_sphere_grid(8, 16)
    vals = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)
    return Density(grid, vals)


def _mass(g):
    return np.abs(g.grid.weights * g.values).sum()


def _dense_slice_profile(g, omega, half_width, n_v, n_t, n_slice):
    """The slice line transform by two separable phase matrices per slice."""
    basis = perp_basis(omega)
    u = np.linspace(-half_width, half_width, n_v)
    phi = 2.0 * np.pi * np.arange(n_slice) / n_slice
    t_nodes, t_weights = np.polynomial.legendre.leggauss(n_t)
    prof = np.zeros((n_v, n_v))
    for t, wt in zip(t_nodes, t_weights):
        rho = np.sqrt(1.0 - t * t)
        pts = (t * omega[None, :]
               + rho * (np.cos(phi)[:, None] * basis[0][None, :]
                        + np.sin(phi)[:, None] * basis[1][None, :]))
        coeff = g.evaluate(pts) * (2.0 * np.pi / n_slice)
        P1 = np.exp(1j * np.outer(u, rho * np.cos(phi)))
        P2 = np.exp(1j * np.outer(u, rho * np.sin(phi)))
        prof += wt * np.abs((P1 * coeff) @ P2.T) ** 2
    return 2.0 * np.pi * prof


def _uniform_line(n, M, spacing, offset, rng):
    """x_k = x_0 + k d with |d| = spacing, a random direction and offset."""
    d = rng.standard_normal(n)
    d *= spacing / np.linalg.norm(d)
    x0 = offset * rng.uniform(-1.0, 1.0, n)
    return x0 + np.arange(M)[:, None] * d


class TestFastPaths:
    """The NUFFT paths against the direct sum, the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), M=st.integers(2, 3000),
           spacing=st.floats(1e-3, 16.0), offset=st.floats(0.0, 50.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3, M=2401, spacing=0.1, offset=0.0, seed=0)
    @example(n=2, M=2400, spacing=0.25, offset=40.0, seed=1)
    @example(n=3, M=3000, spacing=10.0, offset=3.0, seed=2)
    @example(n=2, M=2, spacing=5.0, offset=1.0, seed=3)
    @example(n=3, M=3, spacing=np.pi, offset=0.0, seed=4)
    def test_uniform_line_matches_direct(self, n, M, spacing, offset, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(n, rng)
        pts = _uniform_line(n, M, spacing, offset, rng)
        assert _uniform_step(pts) is not None
        err = np.abs(extend(g, pts) - _direct_sum(g, pts)).max()
        assert err <= 1e-11 * _mass(g)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([2, 3]), M=st.integers(3, 500),
           spacing=st.floats(1e-2, 16.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_perturbed_line_takes_direct_path(self, n, M, spacing, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(n, rng)
        pts = _uniform_line(n, M, spacing, 5.0, rng)
        pts[rng.integers(1, M - 1)] += 1e-9 * spacing * rng.standard_normal(n)
        assert _uniform_step(pts) is None
        assert np.array_equal(extend(g, pts), _direct_sum(g, pts))

    @settings(max_examples=30, deadline=None)
    @given(n_samples=st.integers(2, 64), truncation=st.floats(0.5, 80.0),
           t=st.floats(-3.0, 3.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(n_samples=5, truncation=2.0, t=0.7, seed=0)
    @example(n_samples=6, truncation=60.0, t=0.5, seed=1)
    def test_plane_field_matches_extend(self, n_samples, truncation, t, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(3, rng)
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        vals, u = extend_plane_field(g, omega, t, truncation, n_samples)
        e1, e2 = perp_basis(omega)
        a, b = np.meshgrid(u, u, indexing="ij")
        pts = t * omega + a.reshape(-1, 1) * e1 + b.reshape(-1, 1) * e2
        ref = extend(g, pts).reshape(n_samples, n_samples)
        assert np.abs(vals - ref).max() <= 1e-11 * _mass(g)


    @settings(max_examples=30, deadline=None)
    @given(N=st.sampled_from([16, 64, 512]), points_per_axis=st.integers(2, 64),
           half_width=st.floats(0.5, 80.0), seed=st.integers(0, 2 ** 32 - 1))
    @example(N=512, points_per_axis=33, half_width=8.0, seed=0)
    @example(N=512, points_per_axis=64, half_width=80.0, seed=1)
    @example(N=64, points_per_axis=2, half_width=0.5, seed=2)
    def test_box_field_matches_direct(self, N, points_per_axis, half_width, seed):
        rng = np.random.default_rng(seed)
        grid = make_circle_grid(N)
        g = Density(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        field = extend_field(g, half_width, points_per_axis)
        a, b = field.meshgrid()
        ref = _direct_sum(g, np.column_stack([a.ravel(), b.ravel()]))
        assert field.values.shape == (points_per_axis, points_per_axis)
        assert np.abs(field.values - ref.reshape(a.shape)).max() <= 1e-11 * _mass(g)

    @settings(max_examples=20, deadline=None)
    @given(n_v=st.integers(2, 40), half_width=st.floats(0.5, 40.0),
           n_t=st.integers(1, 6), n_slice=st.integers(3, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_v=33, half_width=12.0, n_t=24, n_slice=128, seed=0)
    @example(n_v=32, half_width=12.0, n_t=4, n_slice=128, seed=1)
    def test_slice_profile_matches_dense(self, n_v, half_width, n_t, n_slice, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(3, rng)
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        prof = _slice_xray_profile(g, omega, half_width, n_v, n_t, n_slice)
        ref = _dense_slice_profile(g, omega, half_width, n_v, n_t, n_slice)
        # each slice sum errs by at most 1e-12 of C = 2 pi max |g|; squared,
        # weighted by t-weights summing to 2 and scaled by 2 pi
        C = 2.0 * np.pi * np.abs(g.values).max()
        assert np.abs(prof.values - ref).max() <= 1e-11 * 4.0 * np.pi * C ** 2


class TestSampledField:
    def test_integrate_constant(self):
        f = SampledField(dim=2, half_width=1.0, points_per_axis=11,
                         values=np.ones((11, 11), dtype=complex))
        assert f.integrate().real == pytest.approx(4.0)


class TestSliceMeasures:
    def test_slice_mass_sphere_is_2pi(self, one_sphere):
        # the coarea weight makes the n = 3 slice mass independent of t
        t = np.array([0.0, 0.3, 0.8, 0.99])
        spec = SliceMeasureSpec(np.array([0.0, 0.0, 1.0]), t)
        mass = extend_slice(one_sphere, spec, np.zeros(3))
        assert mass.shape == t.shape
        assert mass.real == pytest.approx(np.full(t.size, 2.0 * np.pi),
                                          rel=1e-12)

    def test_slice_mass_circle(self, one_circle):
        t = np.array([0.0, 0.5, 0.9])
        spec = SliceMeasureSpec(np.array([0.0, 1.0]), t)
        mass = extend_slice(one_circle, spec, np.zeros(2))
        assert mass.shape == t.shape
        assert mass.real == pytest.approx(2.0 / np.sqrt(1.0 - t * t),
                                          rel=1e-12)

    def test_fubini_over_slices(self, one_sphere):
        # integrating the slice masses against dt recovers the sphere area
        t, w = np.polynomial.legendre.leggauss(32)
        omega = np.array([0.0, 0.0, 1.0])
        vals = [extend_slice(one_sphere, SliceMeasureSpec(omega, tk),
                             np.zeros(3)).real for tk in t]
        assert np.add.reduce(w * np.asarray(vals)) == pytest.approx(
            4.0 * np.pi, rel=1e-12)

    def test_circle_slice_two_points(self, one_circle):
        spec = SliceMeasureSpec(np.array([1.0, 0.0]), 0.6)
        val = extend_slice(one_circle, spec, np.zeros(2))
        assert val.real == pytest.approx(2.0 / np.sqrt(1.0 - 0.36), rel=1e-12)

    def test_offset_must_be_perpendicular(self, one_sphere):
        spec = SliceMeasureSpec(np.array([0.0, 0.0, 1.0]), 0.5)
        with pytest.raises(InvalidArgumentError):
            extend_slice(one_sphere, spec, np.array([0.0, 0.0, 1.0]))

    def test_slice_offset_domain(self):
        with pytest.raises(InvalidArgumentError):
            SliceMeasureSpec(np.array([0.0, 0.0, 1.0]), 1.0)

    def test_smooth_density_slice_oracle(self):
        # for g(xi) = xi_3 the slice at height t is g = t times the mass
        grid = make_sphere_grid(16, 32)
        g = Density(grid, grid.nodes[:, 2],
                    evaluator=lambda pts: np.atleast_2d(pts)[:, 2])
        spec = SliceMeasureSpec(np.array([0.0, 0.0, 1.0]), 0.4)
        val = extend_slice(g, spec, np.zeros(3))
        assert val.real == pytest.approx(0.4 * 2.0 * np.pi, rel=1e-12)


def test_bump_cap_extension_continuity():
    # refining the grid does not move the extension of a smooth density
    omega = np.array([0.0, 0.0, 1.0])
    x = np.array([1.3, -0.4, 2.2])
    vals = []
    for npolar in (32, 64):
        grid = make_sphere_grid(npolar, 2 * npolar)
        g = bump_cap_density(grid, omega, 0.6)
        vals.append(extend(g, x))
    assert abs(vals[0] - vals[1]) < 1e-3 * abs(vals[1])
