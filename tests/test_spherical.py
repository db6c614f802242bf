"""Slice-averaging operators, bilinear forms, curvature."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError, PreconditionError
from extomo.sphere import Density, bump_cap_density, make_circle_grid, \
    make_sphere_grid, preset_density
from extomo.spherical import (BA_t, BT_delta, S_operator, T_delta,
                              bt_delta_circle_grid, funk_At, phi_zero, rotcurv,
                              t_delta_via_slices)


class TestFunkAt:
    def test_constant_sphere(self, one_sphere):
        omega = np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)
        for t in (0.0, 0.4, 0.9):
            assert funk_At(one_sphere, omega, t) == pytest.approx(
                2.0 * np.pi, rel=1e-12)

    def test_constant_circle(self, one_circle):
        omega = np.array([0.6, 0.8])
        assert funk_At(one_circle, omega, 0.5) == pytest.approx(
            2.0 / np.sqrt(0.75), rel=1e-12)

    def test_odd_density_vanishes(self):
        grid = make_sphere_grid(16, 32)
        g = Density(grid, grid.nodes[:, 0],
                    evaluator=lambda pts: np.atleast_2d(pts)[:, 0])
        # the slice {xi_3 = t} is symmetric under xi_1 -> -xi_1
        assert abs(funk_At(g, np.array([0.0, 0.0, 1.0]), 0.3)) < 1e-12


class TestTDelta:
    def test_quadrature_vs_1d_oracle(self):
        # integral over S^1 of 1/(|cos theta| + delta) dtheta against an
        # independent adaptive 1-D quadrature
        from scipy.integrate import quad
        delta = 0.05
        grid = make_circle_grid(8192)
        one = Density(grid, np.ones(grid.node_count))
        val = T_delta(one, np.array([1.0, 0.0]), delta)
        oracle = 4.0 * quad(lambda th: 1.0 / (np.cos(th) + delta),
                            0.0, np.pi / 2)[0]
        assert val == pytest.approx(oracle, rel=1e-3)

    def test_log_law_magnitude(self, one_circle):
        # the graded slice path resolves delta = 1e-3: 4 log(2/delta) + o(1)
        delta = 1e-3
        val = t_delta_via_slices(one_circle, np.array([1.0, 0.0]), delta)
        expected = 4.0 * np.log(2.0 / delta)
        assert abs(val - expected) / expected < 0.01

    def test_monotone_in_delta(self, one_circle):
        omega = np.array([1.0, 0.0])
        vals = [T_delta(one_circle, omega, d) for d in (0.1, 0.01, 0.001)]
        assert vals[0] < vals[1] < vals[2]

    def test_t0_needs_support_margin(self, one_sphere):
        with pytest.raises(PreconditionError):
            T_delta(one_sphere, np.array([0.0, 0.0, 1.0]), 0.0,
                    support_margin=0.1)

    def test_t0_separated_support(self):
        grid = make_sphere_grid(24, 48)
        g = bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), 0.5)
        val = T_delta(g, np.array([0.0, 0.0, 1.0]), 0.0, support_margin=0.1)
        assert np.isfinite(val) and val > 0

    def test_negative_delta_rejected(self, one_circle):
        with pytest.raises(InvalidArgumentError):
            T_delta(one_circle, np.array([1.0, 0.0]), -0.1)

    def test_slice_path_matches_node_path(self):
        # graded slice quadrature vs direct node quadrature on the sphere
        grid = make_sphere_grid(32, 64)
        g = bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), 1.2)
        omega = np.array([0.0, 1.0, 0.0])
        direct = T_delta(g, omega, 0.2)
        sliced = t_delta_via_slices(g, omega, 0.2)
        assert sliced == pytest.approx(direct, rel=2e-2)

    @pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
    def test_slice_path_complex_density(self, rng):
        # T_delta is linear, so a complex density gives the complex sum of
        # the slice paths of its real and imaginary parts
        grid = make_circle_grid(128)
        g = Density(grid, rng.standard_normal(128)
                    + 1j * rng.standard_normal(128))
        omega = np.array([0.6, 0.8])
        val = t_delta_via_slices(g, omega, 0.05)
        re = t_delta_via_slices(g.map(np.real), omega, 0.05)
        im = t_delta_via_slices(g.map(np.imag), omega, 0.05)
        assert type(val) is complex
        assert type(re) is float and type(im) is float
        assert val == pytest.approx(complex(re, im), rel=1e-13)

    def test_self_adjoint_kernel(self, circle_grid, rng):
        # <T_delta f, h> = <f, T_delta h> for the multiplication kernel
        omega = np.array([0.6, 0.8])
        kern = 1.0 / (np.abs(circle_grid.nodes @ omega) + 0.1)
        f = rng.standard_normal(circle_grid.node_count)
        h = rng.standard_normal(circle_grid.node_count)
        lhs = circle_grid.integrate(f * kern * h)
        rhs = circle_grid.integrate(h * kern * f)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_s_operator_constant(one_sphere):
    # S(1)(omega)^2 = integral of (2 pi)^2 over t in (-1, 1) = 8 pi^2
    val = S_operator(one_sphere, np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(2.0 * np.pi * np.sqrt(2.0), rel=1e-12)


class TestBilinear:
    def test_closed_vs_slice_100_random(self, rng):
        # the acceptance-grade agreement check lives in test_acceptance;
        # here a quick 10-sample version guards the code path
        grid = make_circle_grid(128)
        vals1 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        vals2 = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        g1 = Density(grid, vals1)
        g2 = Density(grid, vals2)
        for _ in range(10):
            th = rng.uniform(0, 2 * np.pi)
            omega = np.array([np.cos(th), np.sin(th)])
            t = rng.uniform(-0.9, 0.9)
            closed = BA_t(g1, g2, omega, t)
            generic = BA_t(g1, g2, omega, t, method="slice")
            assert abs(closed - generic) <= 1e-8 * max(1.0, abs(generic))

    @pytest.mark.parametrize("n_slice", [2, 4, 64, 3, 65])
    @pytest.mark.parametrize("t", [0.3, np.array([-0.95, -0.4, 0.0, 0.77])])
    @pytest.mark.parametrize("same", [True, False])
    def test_half_turn_matches_reflection(self, n_slice, t, same):
        # "auto" reads g2 off the half-turn of an even slice; "slice"
        # evaluates g2 at the reflected points and is the oracle
        grid = make_sphere_grid(16, 32)
        g1, g2 = (Density(grid, f(grid.nodes), evaluator=f) for f in (
            lambda p: np.exp(1j * p @ [1.0, -2.0, 0.5]) * (1.0 + p[:, 0] ** 2),
            lambda p: np.exp(1j * p @ [0.3, 0.7, -1.5]) * (2.0 - p[:, 2])))
        g2 = g1 if same else g2
        omega = np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)
        fast = BA_t(g1, g2, omega, t, n_slice=n_slice)
        oracle = BA_t(g1, g2, omega, t, n_slice=n_slice, method="slice")
        if n_slice % 2:
            # no half-turn pairing: both methods take the oracle path
            np.testing.assert_array_equal(fast, oracle)
        else:
            # slice sum of |g1(xi) g2(-R_omega xi)|
            scale = BA_t(g1.map(np.abs), g2.map(np.abs), omega, t,
                         n_slice=n_slice, method="slice").real
            assert np.all(np.abs(fast - oracle) <= 1e-12 * scale)

    def test_ba_reduces_to_funk(self, one_sphere):
        # with g2 = 1 the reflected factor is 1 and BA_t = A_t(g1)
        grid = one_sphere.grid
        g1 = bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), 1.0)
        omega = np.array([0.0, 1.0, 0.0])
        assert BA_t(g1, one_sphere, omega, 0.3).real == pytest.approx(
            funk_At(g1, omega, 0.3), rel=1e-10)

    def test_bt_bilinearity(self, circle_grid, rng):
        g = Density(circle_grid, rng.standard_normal(circle_grid.node_count))
        h = Density(circle_grid, rng.standard_normal(circle_grid.node_count))
        combo = Density(circle_grid, 2.0 * g.values + h.values)
        omega = np.array([1.0, 0.0])
        lhs = BT_delta(combo, g, omega, 0.1)
        rhs = 2.0 * BT_delta(g, g, omega, 0.1) + BT_delta(h, g, omega, 0.1)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_bt_reduces_to_t_delta(self, circle_grid):
        # for g2 = 1 (reflection-invariant, real) BT_delta(g, 1) = T_delta(g)
        one = Density(circle_grid, np.ones(circle_grid.node_count),
                      evaluator=lambda pts: np.ones(np.atleast_2d(pts).shape[0]))
        g = Density(circle_grid, circle_grid.nodes[:, 0] ** 2)
        omega = np.array([0.0, 1.0])
        assert BT_delta(g, one, omega, 0.2).real == pytest.approx(
            T_delta(g, omega, 0.2), rel=1e-10)

    def test_bt_grid_fast_path(self, rng):
        grid = make_circle_grid(64)
        g1 = Density(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        g2 = Density(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
        fast = bt_delta_circle_grid(g1, g2, 0.05)
        for k in (0, 7, 33):
            direct = BT_delta(g1, g2, grid.nodes[k], 0.05)
            assert fast[k] == pytest.approx(direct, rel=1e-10)

    # a block holds 2^17 // N rows, so N > 362 gives several blocks, most
    # often with a partial last one
    @settings(max_examples=20, deadline=None)
    @given(N=st.integers(4, 700), delta=st.floats(1e-3, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(N=700, delta=1e-3, seed=0)
    @example(N=699, delta=1.0, seed=1)
    @example(N=4, delta=0.1, seed=2)
    @example(N=5, delta=0.1, seed=3)
    def test_bt_grid_matches_every_node(self, N, delta, seed):
        rng = np.random.default_rng(seed)
        grid = make_circle_grid(N)
        g1 = Density(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        g2 = Density(grid, rng.standard_normal(N) + 1j * rng.standard_normal(N))
        fast = bt_delta_circle_grid(g1, g2, delta)
        direct = np.array([BT_delta(g1, g2, node, delta) for node in grid.nodes])
        assert np.abs(fast - direct).max() <= 1e-12 * np.abs(fast).max()

    @staticmethod
    def _bt_family(N, family, delta):
        """The input pair of ``bt_bounds_sweep``'s families on N nodes, or
        a complex pair that is constant, nearly or on one side only."""
        grid = make_circle_grid(N)
        if family == "constant":
            return (Density(grid, np.ones(N)),) * 2
        # complex pairs take the complex path; a pair that is constant on
        # one side only, or one ulp off at one node, takes the dense product
        c1, c2 = np.full(N, 0.3 - 1.2j), np.full(N, -0.7 + 0.4j)
        ulp = c2.copy()
        ulp[N // 3] = complex(np.nextafter(-0.7, 0.0), 0.4)
        pairs = {"complex_constant": (c1, c2),
                 "constant_but_one_ulp": (c1, ulp),
                 "only_g1_constant": (c1, c2 + np.cos(grid.angles)),
                 "only_g2_constant": (c1 + np.cos(grid.angles), c2)}
        if family in pairs:
            return tuple(Density(grid, v) for v in pairs[family])
        if family == "cap":
            return tuple(Density(grid, (np.abs((grid.angles - c + np.pi)
                                               % (2 * np.pi) - np.pi)
                                        <= delta).astype(complex))
                         for c in (0.7, 2.3))
        rng = np.random.default_rng(N)
        return tuple(Density(grid, sum(c * np.exp(1j * k * grid.angles)
                                       for k, c in enumerate(
                                           rng.standard_normal(5)
                                           + 1j * rng.standard_normal(5))))
                     for _ in range(2))

    # at N = 4096 a block holds 64 rows of the real path, 32 of the
    # complex one, so the half sweep takes several blocks
    @pytest.mark.parametrize("N", [4, 64, 700, 4096])
    @pytest.mark.parametrize("family", ["constant", "complex_constant", "cap",
                                        "random"])
    def test_bt_grid_even_n_copies_the_antipodal_row(self, N, family):
        # BT_delta is even in omega and node k + N/2 is -omega_k
        fast = bt_delta_circle_grid(*self._bt_family(N, family, 0.01), 0.01)
        np.testing.assert_array_equal(fast[N // 2:], fast[:N // 2])

    @pytest.mark.parametrize("N, family", [(255, "constant"),
                                           (255, "complex_constant"),
                                           (255, "constant_but_one_ulp"),
                                           (255, "only_g1_constant"),
                                           (255, "only_g2_constant"),
                                           (255, "cap"),
                                           (255, "random"), (256, "random"),
                                           (701, "random")])
    def test_bt_grid_family_matches_every_node(self, N, family):
        # odd N has no antipodal node, so every row is summed; "random" is
        # a genuinely complex pair and takes the complex path.  A constant
        # pair is one kernel sum; a pair constant on one side only, or one
        # ulp off, takes the dense product
        g1, g2 = self._bt_family(N, family, 0.05)
        fast = bt_delta_circle_grid(g1, g2, 0.05)
        direct = np.array([BT_delta(g1, g2, node, 0.05)
                           for node in g1.grid.nodes])
        assert np.abs(fast - direct).max() <= 1e-12 * np.abs(fast).max()

    @pytest.mark.parametrize("N, delta", [(1024, 0.1), (4096, 1e-3),
                                          (4097, 1e-3)])
    @pytest.mark.parametrize("family", ["constant", "cap"])
    def test_bt_grid_real_inputs_match_complex_kernel_sum(self, N, delta,
                                                          family):
        # real values stored as complex take the real path; the complex
        # sliding sum over every row, written out, is the reference
        g1, g2 = self._bt_family(N, family, delta)
        a = g1.grid.weights * g1.values
        b = np.conj(g2.values)
        kern = (1.0 / (np.abs(np.cos(g1.grid.angles)) + delta)).astype(complex)
        m = np.arange(N)
        ref = np.empty(N, dtype=complex)
        for start in range(0, N, 256):
            k = np.arange(start, min(start + 256, N))[:, None]
            ref[k[:, 0]] = (a[(k + m) % N] * b[(k - m) % N]) @ kern
        fast = bt_delta_circle_grid(g1, g2, delta)
        assert np.abs(fast - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_cauchy_schwarz_diagonal(self, circle_grid, rng):
        # |BT_delta(g, h)| <= BT(g,g)^(1/2) BT(h,h)^(1/2) for densities
        # symmetric under theta -> -theta (so the reflected factor in the
        # diagonal terms reduces to |g|^2 and Cauchy-Schwarz applies)
        N = circle_grid.node_count
        vals_g = rng.uniform(0, 1, N)
        vals_h = rng.uniform(0, 1, N)
        sym = lambda v: v + v[(N - np.arange(N)) % N]
        g = Density(circle_grid, sym(vals_g))
        h = Density(circle_grid, sym(vals_h))
        omega = np.array([1.0, 0.0])
        cross = abs(BT_delta(g, h, omega, 0.1))
        diag = np.sqrt(abs(BT_delta(g, g, omega, 0.1))
                       * abs(BT_delta(h, h, omega, 0.1)))
        assert cross <= diag * (1 + 1e-9)


class TestArrayOffsets:
    """An array of offsets t gives, bit for bit, the scalar-t calls."""

    T = np.array([-0.95, -0.4, 0.0, 0.3, 0.77])

    @staticmethod
    def _densities(n, rng):
        if n == 2:
            grid = make_circle_grid(128)
            vals = [rng.standard_normal(128) + 1j * rng.standard_normal(128)
                    for _ in range(2)]
            return [Density(grid, v) for v in vals], np.array([0.6, 0.8])
        grid = make_sphere_grid(16, 32)
        caps = [bump_cap_density(grid, np.array([0.0, 0.6, 0.8]), 1.2),
                bump_cap_density(grid, np.array([0.0, 0.0, 1.0]), 0.9)]
        return caps, np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)

    @pytest.mark.parametrize("n, method", [(3, "auto"), (3, "slice"),
                                           (2, "auto"), (2, "slice")])
    def test_ba_t(self, n, method, rng):
        (g1, g2), omega = self._densities(n, rng)
        scalar = [BA_t(g1, g2, omega, t, n_slice=64, method=method)
                  for t in self.T]
        assert all(type(v) is complex for v in scalar)
        batched = BA_t(g1, g2, omega, self.T, n_slice=64, method=method)
        np.testing.assert_array_equal(batched, scalar)

    @pytest.mark.parametrize("n", [2, 3])
    def test_funk_at(self, n, rng):
        (g, _), omega = self._densities(n, rng)
        rotated = g.map(lambda v: (1 + 2j) * v)
        modulus = g.map(np.abs)
        for f, kind in ((rotated, complex), (modulus, float)):
            scalar = [funk_At(f, omega, t, n_slice=64) for t in self.T]
            assert all(type(v) is kind for v in scalar)
            np.testing.assert_array_equal(
                funk_At(f, omega, self.T, n_slice=64), scalar)

    def test_offset_out_of_range_rejected(self, one_sphere, one_circle):
        for g in (one_sphere, one_circle):
            omega = np.eye(g.grid.dim)[-1]
            with pytest.raises(InvalidArgumentError):
                BA_t(g, g, omega, np.array([0.2, -1.0]))
            with pytest.raises(InvalidArgumentError):
                funk_At(g, omega, np.array([1.5, 0.1]))


# per dimension: a real density and a complex one, both with evaluators
_STACK_DENSITIES = {
    n: (preset_density(grid, "smooth", np.random.default_rng(n)),
        preset_density(grid, "modulated", None))
    for n, grid in ((2, make_circle_grid(64)), (3, make_sphere_grid(8, 16)))}


class TestStackedDirections:
    """A (K, n) stack of directions gives, row by row, the one-row calls."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3]), K=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1), n_slice=st.integers(2, 65),
           method=st.sampled_from(["auto", "slice"]), same=st.booleans(),
           t=st.one_of(st.floats(-0.999, 0.999),
                       st.lists(st.floats(-0.999, 0.999), min_size=1,
                                max_size=5)))
    @example(n=3, K=8, seed=0, n_slice=128, method="auto", same=True,
             t=[0.1, 0.5, 0.9])
    @example(n=3, K=20, seed=1, n_slice=33, method="auto", same=False, t=-0.4)
    @example(n=2, K=3, seed=2, n_slice=2, method="slice", same=True, t=0.0)
    def test_each_row_is_its_direction_alone(self, n, K, seed, n_slice,
                                             method, same, t):
        g1, other = _STACK_DENSITIES[n]
        g2 = g1 if same else other
        rows = np.random.default_rng(seed).standard_normal((K, n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        stacked = BA_t(g1, g2, rows, t, n_slice=n_slice, method=method)
        assert stacked.shape == (K,) + np.shape(t)
        for row, got in zip(rows, stacked, strict=True):
            alone = BA_t(g1, g2, row, t, n_slice=n_slice, method=method)
            assert type(alone) is (complex if np.ndim(t) == 0 else np.ndarray)
            # bit for bit
            assert np.asarray(alone).tobytes() == got.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_rejects_non_unit_row_and_offset_out_of_range(self, n):
        g, _ = _STACK_DENSITIES[n]
        for t in (1.0, np.array([0.2, -1.0]), np.array([1.5, 0.1])):
            with pytest.raises(InvalidArgumentError):
                BA_t(g, g, np.eye(n), t)
        rows = np.eye(n)
        rows[-1] *= 1.0 + 1e-9
        with pytest.raises(InvalidArgumentError, match="unit"):
            BA_t(g, g, rows, 0.3)


class TestRotationalCurvature:
    def test_bilinear_phase_hand_value(self):
        # phi(x, y) = x y - 1 at (1, 1): bordered matrix [[0, 1], [1, 1]],
        # determinant -1, so the curvature is 1
        phi = lambda x, y: float(x[0] * y[0] - 1.0)
        assert rotcurv(phi, 1.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_phi_zero_shift_only_changes_entry(self):
        p0 = phi_zero(3)
        ps = phi_zero(3, shift=0.5)
        x = np.array([0.1, 0.2])
        y = np.array([-0.05, 0.15])
        assert ps(x, y) == pytest.approx(p0(x, y) - 0.5)
