"""The extension operator, sampled fields and slice measures."""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError
from extomo.experiments.reductions import _slice_xray_profiles
from extomo.extension import (_NUFFT_HALF_WIDTH, _SPREAD_BLOCK, SliceMeasureSpec,
                              _constant_extension, _direct_sum, _next_fast_len,
                              _nufft1, _spread, _uniform_step, extend, extend_field,
                              extend_plane_field, extend_slice,
                              sigma_hat_closed_form, slice_rule)
from extomo.sphere import (Density, bump_cap_density, make_circle_grid,
                           make_sphere_grid, make_zonal_grid, perp_basis)
from extomo.tomography import SampledField


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

    @pytest.mark.parametrize("grid", [make_circle_grid(64), make_sphere_grid(8, 16)],
                             ids=["circle", "sphere"])
    def test_constant_extension_only_for_constant_values(self, grid):
        # a constant c extends to |c| sigma-hat exactly; one node off by an
        # ulp makes the density non-constant
        c = 0.6 - 0.8j
        r = np.array([0.0, 0.7, 2.4, 5.5, 11.0])
        profile = _constant_extension(Density(grid, np.full(grid.node_count, c)))
        assert np.array_equal(profile(r), abs(c) * sigma_hat_closed_form(grid.dim, r))
        values = np.full(grid.node_count, c)
        values[grid.node_count // 3] = np.nextafter(c.real, 1.0) + 1j * c.imag
        assert _constant_extension(Density(grid, values)) is None

    def test_constant_extension_needs_the_whole_sphere(self):
        # a constant on a zonal band is not the full surface measure
        band = make_zonal_grid(np.eye(3)[0], [(-0.1, 0.1)], 4, 8)
        assert _constant_extension(Density(band, np.ones(band.node_count))) is None

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

    def test_point_dimension_must_match_grid(self, one_sphere):
        with pytest.raises(InvalidArgumentError):
            extend(one_sphere, np.zeros((4, 2)))

    def test_chunked_matches_unchunked(self, rng):
        # 113 rows per phase block on this grid: two full blocks and a
        # partial last one, each row against its own one-point sum
        grid = make_sphere_grid(96, 192)
        g = Density(grid, rng.standard_normal(grid.node_count))
        pts = rng.uniform(-5, 5, (300, 3))
        single = np.array([extend(g, x) for x in pts])
        assert np.allclose(extend(g, pts), single, rtol=1e-13, atol=0)


class TestExtendField:
    def test_box_needs_dim_2(self, one_sphere):
        with pytest.raises(InvalidArgumentError):
            extend_field(one_sphere, 3.0, 9)

    def test_plane_omega_dimension_must_match_grid(self):
        g = Density(make_circle_grid(16), np.ones(16))
        with pytest.raises(InvalidArgumentError):
            extend_plane_field(g, np.array([0.0, 0.0, 1.0]), 0.5, 4.0, 9)

    def test_plane_field_matches_pointwise(self, rng):
        grid = make_sphere_grid(8, 16)
        g = Density(grid, rng.standard_normal(grid.node_count))
        omega = np.array([0.0, 0.0, 1.0])
        t = 0.7
        plane = extend_plane_field(g, omega, t, 2.0, 5)
        # middle sample sits at x = t omega + axis[2] (e1 + e2) for the
        # deterministic in-plane basis; check the center point directly
        assert plane.values[2, 2] == pytest.approx(extend(g, t * omega),
                                                   rel=1e-12)

    def test_plane_field_axis(self, rng):
        for omega in (np.array([0.6, 0.8]), np.array([0.6, 0.0, 0.8])):
            g = _random_density(omega.size, rng)
            plane = extend_plane_field(g, omega, 0.3, 7.5, 12)
            assert plane.dim == omega.size - 1 and plane.points_per_axis == 12
            np.testing.assert_array_equal(plane.axis(), np.linspace(-7.5, 7.5, 12))


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


def _slice_directions(n):
    """+-e1, rows one ulp off them, then the nodes of a grid (n = 2 or 3)."""
    e1 = np.eye(n)[0]
    ulp = np.spacing(1.0)
    near = [np.nextafter(e1, 2.0), -np.nextafter(e1, 2.0), e1 + ulp * np.eye(n)[1],
            -e1 - ulp * np.eye(n)[-1]]
    grid = make_circle_grid(64) if n == 2 else make_sphere_grid(8, 16)
    return np.vstack([e1, -e1, *near, grid.nodes])


_SLICE_ROWS = {n: _slice_directions(n) for n in (2, 3)}


def _uniform_line(n, M, spacing, offset, rng):
    """x_k = x_0 + k d with |d| = spacing, a random direction and offset."""
    d = rng.standard_normal(n)
    d *= spacing / np.linalg.norm(d)
    x0 = offset * rng.uniform(-1.0, 1.0, n)
    return x0 + np.arange(M)[:, None] * d


def _full_grid_nufft1(coeff, thetas, n_modes):
    """``_nufft1`` with the whole nf^d fine grid stored and ``np.fft.ifftn``."""
    nf, tau, window, cells = _spread(coeff, thetas, n_modes)
    fine = np.zeros((nf,) * len(cells), dtype=complex)
    np.add.at(fine, np.ix_(*[c % nf for c in cells]), window)
    k = np.arange(n_modes) - n_modes // 2
    modes = np.fft.ifftn(fine)[np.ix_(*[k % nf] * len(cells))]
    deconv = np.sqrt(np.pi / tau) * np.exp(k.astype(float) ** 2 * tau)
    return modes * functools.reduce(np.multiply.outer, [deconv] * len(cells))


def _dense_spread(coeff, thetas, n_modes):
    """``_spread`` with each node's Gaussian evaluated on every window cell."""
    m = _NUFFT_HALF_WIDTH
    nf = _next_fast_len(max(2 * n_modes, 2 * m))
    ratio = nf / n_modes
    tau = np.pi * m / (n_modes ** 2 * ratio * (ratio - 0.5))
    h = 2.0 * np.pi / nf
    axes = []
    for theta in thetas:
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
        window = window + (kern[0].T @ rhs.view(float)).view(complex)
    return nf, tau, window.reshape([c.size for _, c in axes]), [c for _, c in axes]


class TestFastPaths:
    """The NUFFT paths against the direct sum, the oracle."""

    def test_next_fast_len_matches_scipy(self):
        # the NUFFT grid length, and so every output, is scipy.fft's
        from scipy.fft import next_fast_len
        assert all(_next_fast_len(n) == next_fast_len(n)
                   for n in range(1, 20001))

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n_modes=st.integers(2, 600),
           step=st.floats(1e-3, np.pi), J=st.integers(1, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dim=2, n_modes=481, step=0.25, J=200, seed=0)
    @example(dim=2, n_modes=257, step=0.25, J=128, seed=1)
    @example(dim=2, n_modes=2, step=np.pi, J=1, seed=2)
    @example(dim=1, n_modes=600, step=np.pi, J=200, seed=3)
    def test_nufft1_matches_full_grid(self, dim, n_modes, step, J, seed):
        # the pruned transform is the full-grid one bit for bit; at steps
        # near pi the window is wider than nf and its rows fold
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((J, 3))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        coeff = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        thetas = [step * xi[:, d] for d in range(dim)]
        assert np.array_equal(_nufft1(coeff, thetas, n_modes),
                              _full_grid_nufft1(coeff, thetas, n_modes))

    @pytest.mark.parametrize("dim, n_modes", [(1, 2401), (2, 257), (2, 79)])
    def test_nufft1_returns_a_fresh_array(self, dim, n_modes, rng):
        # the transforms run in place on grids each call allocates: the
        # modes are new on every call, so a caller may write to them
        xi = rng.standard_normal((128, 3))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        coeff = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        thetas = [0.25 * xi[:, d] for d in range(dim)]
        first = _nufft1(coeff, thetas, n_modes)
        kept = first.copy()
        second = _nufft1(coeff, thetas, n_modes)
        assert first.flags.owndata and first.flags.writeable
        assert first.flags.c_contiguous and not np.shares_memory(first, second)
        second[...] = 0.0
        assert np.array_equal(first, kept)
        assert np.array_equal(_nufft1(coeff, thetas, n_modes), kept)
        assert np.array_equal(kept, _full_grid_nufft1(coeff, thetas, n_modes))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n_modes", [481, 2401])
    def test_spread_band_is_2m_plus_1_nearest_cells(self, dim, n_modes, rng):
        # one node's kernel is non-zero on exactly rint(theta / h) + (-m ... m)
        # per axis, and exactly 0 on the rest of the window
        m = _NUFFT_HALF_WIDTH
        for _ in range(20):
            thetas = [rng.uniform(-np.pi, np.pi, 1) for _ in range(dim)]
            nf, _, window, cells = _spread(np.ones(1, dtype=complex), thetas, n_modes)
            live = np.nonzero(window)
            assert live[0].size == (2 * m + 1) ** dim
            for theta, c, idx in zip(thetas, cells, live):
                band = np.rint(theta[0] / (2.0 * np.pi / nf)) + np.arange(-m, m + 1)
                np.testing.assert_array_equal(np.unique(c[idx]), band)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.sampled_from([1, 2]), n_modes=st.integers(2, 600),
           step=st.floats(1e-3, np.pi), J=st.integers(1, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(dim=1, n_modes=600, step=np.pi, J=200, seed=0)
    @example(dim=2, n_modes=481, step=0.25, J=200, seed=1)
    @example(dim=2, n_modes=2, step=np.pi, J=1, seed=2)
    def test_nufft1_matches_dense_kernel(self, dim, n_modes, step, J, seed):
        # the band drops only kernel values below 4.3e-16 of the peak
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((J, 3))
        xi /= np.linalg.norm(xi, axis=1)[:, None]
        coeff = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        thetas = [step * xi[:, d] for d in range(dim)]
        mass = np.abs(coeff).sum()
        window = _spread(coeff, thetas, n_modes)[2]
        assert np.abs(window - _dense_spread(coeff, thetas, n_modes)[2]).max() \
            <= 1e-14 * mass
        modes = _nufft1(coeff, thetas, n_modes)
        with mock.patch("extomo.extension._spread", _dense_spread):
            dense = _nufft1(coeff, thetas, n_modes)
        assert np.abs(modes - dense).max() <= 1e-13 * mass

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
    @given(n=st.sampled_from([2, 3]), n_samples=st.integers(2, 64),
           truncation=st.floats(0.5, 80.0), t=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=3, n_samples=5, truncation=2.0, t=0.7, seed=0)
    @example(n=3, n_samples=6, truncation=60.0, t=0.5, seed=1)
    @example(n=2, n_samples=64, truncation=80.0, t=-3.0, seed=2)
    @example(n=2, n_samples=2, truncation=0.5, t=0.0, seed=3)
    def test_plane_field_matches_extend(self, n, n_samples, truncation, t, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(n, rng)
        omega = rng.standard_normal(n)
        omega /= np.linalg.norm(omega)
        plane = extend_plane_field(g, omega, t, truncation, n_samples)
        assert plane.dim == n - 1
        pts = t * omega + sum(u.reshape(-1, 1) * e for u, e in
                              zip(plane.meshgrid(), perp_basis(omega)))
        ref = _direct_sum(g, pts).reshape(plane.values.shape)
        assert np.abs(plane.values - ref).max() <= 1e-11 * _mass(g)

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["points", "line", "plane", "box"]),
           n=st.sampled_from([2, 3]), zero_frac=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(kind="points", n=3, zero_frac=1.0, seed=0)
    @example(kind="line", n=2, zero_frac=1.0, seed=1)
    @example(kind="plane", n=3, zero_frac=1.0, seed=2)
    @example(kind="plane", n=2, zero_frac=0.9, seed=3)
    @example(kind="box", n=2, zero_frac=1.0, seed=4)
    def test_zero_nodes_skipped(self, kind, n, zero_frac, seed):
        # the sums over the nodes with w g != 0 against the same sums over
        # every node, zeros included, for a random zero pattern
        rng = np.random.default_rng(seed)
        n = 2 if kind == "box" else n
        g = _random_density(n, rng)
        g = Density(g.grid, np.where(rng.random(g.grid.node_count) < zero_frac,
                                     0.0, g.values))
        nodes, coeff = g.grid.nodes, g.grid.weights * g.values
        if kind == "points":
            pts = rng.uniform(-30.0, 30.0, (50, n))
            got, full = extend(g, pts), np.exp(1j * pts @ nodes.T) @ coeff
        elif kind == "line":
            pts = _uniform_line(n, 40, 0.7, 20.0, rng)
            d = _uniform_step(pts)
            got = extend(g, pts)
            full = _nufft1(coeff * np.exp(1j * nodes @ (pts[0] + 20 * d)),
                           [nodes @ d], 40)
        else:
            omega = rng.standard_normal(n)
            omega /= np.linalg.norm(omega)
            if kind == "plane":
                field = extend_plane_field(g, omega, 0.4, 9.0, 17)
                axes, base = perp_basis(omega), 0.4 * omega
            else:
                field = extend_field(g, 9.0, 17)
                axes, base = np.eye(2), np.zeros(2)
            center = base + field.axis()[8] * axes.sum(axis=0)
            got = field.values
            full = _nufft1(coeff * np.exp(1j * nodes @ center),
                           [nodes @ (field.spacing * e) for e in axes], 17)
        assert np.abs(got - full).max() <= 1e-13 * _mass(g)


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
    @example(n_v=65, half_width=12.0, n_t=24, n_slice=256, seed=2)
    def test_slice_profile_matches_dense(self, n_v, half_width, n_t, n_slice, seed):
        rng = np.random.default_rng(seed)
        g = _random_density(3, rng)
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        prof, = _slice_xray_profiles(g, [omega], half_width, n_v, n_t, n_slice)
        ref = _dense_slice_profile(g, omega, half_width, n_v, n_t, n_slice)
        # each slice sum errs by at most 1e-12 of C = 2 pi max |g|; squared,
        # weighted by t-weights summing to 2 and scaled by 2 pi
        C = 2.0 * np.pi * np.abs(g.values).max()
        assert np.abs(prof.values - ref).max() <= 1e-11 * 4.0 * np.pi * C ** 2

    @settings(max_examples=10, deadline=None)
    @given(n_dir=st.integers(1, 5), n_v=st.integers(2, 20),
           n_t=st.integers(1, 6), n_slice=st.integers(3, 64),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_slice_profiles_match_one_direction_each(self, n_dir, n_v, n_t,
                                                     n_slice, seed):
        # the phase tables are shared across directions; each profile is
        # the one that direction gives alone, bit for bit
        rng = np.random.default_rng(seed)
        g = _random_density(3, rng)
        omegas = rng.standard_normal((n_dir, 3))
        omegas /= np.linalg.norm(omegas, axis=1)[:, None]
        profs = _slice_xray_profiles(g, omegas, 12.0, n_v, n_t, n_slice)
        assert len(profs) == n_dir
        for omega, prof in zip(omegas, profs):
            alone, = _slice_xray_profiles(g, [omega], 12.0, n_v, n_t, n_slice)
            assert prof.half_width == alone.half_width
            np.testing.assert_array_equal(prof.values, alone.values)


    def test_slice_profiles_at_the_workload_shape(self, rng):
        # the reduce-lemma sizes with 9 directions: two full blocks and one
        # padded; each profile is its direction's alone, bit for bit, and the
        # dense oracle's to test_slice_profile_matches_dense's bound
        n_v, n_t, n_slice = 33, 24, 128
        g = _random_density(3, rng)
        omegas = rng.standard_normal((9, 3))
        omegas /= np.linalg.norm(omegas, axis=1)[:, None]
        profs = _slice_xray_profiles(g, omegas, 12.0, n_v, n_t, n_slice)
        C = 2.0 * np.pi * np.abs(g.values).max()
        for omega, prof in zip(omegas, profs, strict=True):
            alone, = _slice_xray_profiles(g, [omega], 12.0, n_v, n_t, n_slice)
            np.testing.assert_array_equal(prof.values, alone.values)
            ref = _dense_slice_profile(g, omega, 12.0, n_v, n_t, n_slice)
            assert np.abs(prof.values - ref).max() <= 1e-11 * 4.0 * np.pi * C ** 2


class TestSampledField:
    def test_integrate_constant(self):
        f = SampledField(half_width=1.0, values=np.ones((11, 11), dtype=complex))
        assert f.dim == 2 and f.points_per_axis == 11
        assert f.integrate().real == pytest.approx(4.0)

    @settings(max_examples=60, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), M=st.integers(2, 24),
           half_width=st.floats(0.1, 10.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_integrate_exact_on_multiaffine(self, dim, M, half_width, seed):
        # the trapezoid rule is exact for c + prod_d (a_d + b_d x_d)
        rng = np.random.default_rng(seed)
        a, b = rng.uniform(-1.0, 1.0, (2, dim))
        c = rng.uniform(-1.0, 1.0)
        ax = np.linspace(-half_width, half_width, M)
        coords = np.meshgrid(*[ax] * dim, indexing="ij")
        vals = c + np.prod([a[d] + b[d] * coords[d] for d in range(dim)], axis=0)
        got = SampledField(half_width, vals).integrate()
        exact = (2.0 * half_width) ** dim * (c + np.prod(a))
        scale = (2.0 * half_width) ** dim * (
            abs(c) + np.prod(np.abs(a) + np.abs(b) * half_width))
        assert abs(got - exact) <= 1e-12 * scale

    def test_lp_norms(self, rng):
        vals = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        f = SampledField(3.0, vals)
        assert f.lp_norm(2) ** 2 == pytest.approx(
            f.integrate(lambda v: np.abs(v) ** 2), rel=1e-14)
        assert f.lp_norm(np.inf) == np.abs(vals).max()

    def test_values_keep_dtype_and_are_read_only(self):
        f = SampledField(1.0, np.linspace(0.0, 1.0, 5))
        assert f.values.dtype == float
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (4, 5), (3, 3, 2)])
    def test_non_square_or_one_point_grid_rejected(self, shape):
        with pytest.raises(InvalidArgumentError):
            SampledField(1.0, np.zeros(shape))


class TestSliceMeasures:
    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), n_slice=st.integers(3, 64),
           t=st.lists(st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                      min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n=2, n_slice=3, t=[0.0, -0.5, 0.999999], seed=0)
    @example(n=3, n_slice=64, t=[0.0, 0.6, -0.999999], seed=1)
    def test_slice_rule(self, n, n_slice, t, seed):
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal(n)
        omega /= np.linalg.norm(omega)
        t = np.array(t)
        pts, weight = slice_rule(omega, t, n_slice)
        m = 2 if n == 2 else n_slice
        assert pts.shape == (t.size, m, n) and weight.shape == (t.size,)
        # every point is a unit vector on the slice {xi.omega = t}
        assert np.abs(np.linalg.norm(pts, axis=-1) - 1.0).max() <= 1e-14
        assert np.abs(pts @ omega - t[:, None]).max() <= 1e-14
        # the weights integrate 1 to the slice mass
        mass = 2.0 * np.pi if n == 3 else 2.0 / np.sqrt(1.0 - t * t)
        assert weight * m == pytest.approx(mass, rel=1e-14)
        # each row of the batch is the scalar-t rule, bit for bit
        for k, tk in enumerate(t):
            pts_k, weight_k = slice_rule(omega, tk, n_slice)
            np.testing.assert_array_equal(pts_k, pts[k])
            assert weight_k == weight[k]
        if n == 2:
            # t omega + root e1 first
            e1 = perp_basis(omega)[0]
            assert np.all((pts[:, 0] - pts[:, 1]) @ e1 > 0)
        if m % 2 == 0:
            # -R_omega is the half-turn of the slice (for n = 2 it swaps
            # the pair), which is where BA_t reads g2 off the slice
            reflected = pts - 2.0 * (pts @ omega)[..., None] * omega
            assert np.abs(np.roll(pts, m // 2, axis=-2) + reflected).max() <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), picks=st.lists(st.integers(0, 10 ** 6),
                                                     min_size=1, max_size=40),
           n_slice=st.integers(2, 300),
           t=st.one_of(st.floats(-0.999, 0.999),
                       st.lists(st.floats(-0.999, 0.999), min_size=1, max_size=5)))
    @example(n=3, picks=list(range(6)), n_slice=2, t=0.0)
    @example(n=2, picks=list(range(6)), n_slice=300, t=[0.5, -0.25])
    def test_stacked_slice_rule_is_one_row_at_a_time(self, n, picks, n_slice, t):
        # row k of a stack of directions is slice_rule(rows[k]) bit for bit,
        # at grid nodes, at +-e1 and one ulp off them (_perp_frames' flat
        # branch); a stack with a non-unit row is rejected
        rows = _SLICE_ROWS[n][np.array(picks) % len(_SLICE_ROWS[n])]
        pts, weight = slice_rule(rows, t, n_slice)
        m = 2 if n == 2 else n_slice
        assert pts.shape == (len(rows),) + np.shape(t) + (m, n)
        for row, row_pts in zip(rows, pts, strict=True):
            alone, alone_weight = slice_rule(row, t, n_slice)
            assert np.array_equal(row_pts, alone)
            assert np.array_equal(weight, alone_weight)
        rows[-1] *= 1.0 + 1e-9
        with pytest.raises(InvalidArgumentError, match="unit"):
            slice_rule(rows, t, n_slice)

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
