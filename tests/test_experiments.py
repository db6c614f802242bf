"""Edge cases and small smoke runs of the experiment entry points.

The full-size default runs, with the stated tolerances, live in
test_acceptance; here the concern is argument validation, degenerate
inputs and the cheap invariants of each entry point.
"""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extomo.errors import (InvalidArgumentError, NonFiniteObjectiveError,
                           PreconditionError)
from extomo.experiments import (bt_bounds_sweep, extremize,
                                knapp_radon_lower_bounds,
                                lemma_X_reduction_check,
                                necessity_band_example,
                                randomized_tube_experiment,
                                radon_growth_sweep, t_delta_log_law,
                                verify_mollified_radon,
                                verify_radon_identity, verify_reduce_lemma,
                                verify_xray_identity,
                                xray_multiscale_lower_bound)
from extomo.experiments.extremal import (_build_functional,
                                        _xray_sup_functional)
from extomo.experiments.growth import (_band_square_integrals,
                                      _great_circle_heights, _knapp_band,
                                      _polar_band_density, _polar_radius,
                                      _slab_cylinder_section_area)
from extomo.experiments.reductions import (_ba_square_integral, _s_rule,
                                           _slice_xray_profiles)
from extomo.experiments.tubes import (_cap_wavepacket_extension,
                                      _tube_direction_angles)
from extomo.experiments.weighted import (_ball_quadrature_2d,
                                         _gaussian_test_functions,
                                         default_wstein_family)
from extomo.extension import (SliceMeasureSpec, extend, extend_field,
                              slice_rule)
from extomo.reports import experiment_rng
from extomo.sphere import (Density, bump_cap_density, make_circle_grid,
                           make_sphere_grid, preset_density)
from extomo.spherical import S_operator
from extomo.tomography import SampledField, frac_laplacian

OMEGA_3 = np.array([0.3, -0.5, 0.8]) / np.sqrt(0.98)
OMEGA_2 = np.array([0.6, 0.8])


class TestIdentities:
    def test_zero_density_xray(self):
        grid = make_sphere_grid(8, 16)
        zero = Density(grid, np.zeros(grid.node_count))
        rep = verify_xray_identity(zero, np.array([0.0, 0.0, 1.0]),
                                   truncation=8.0, n_samples=101, n_t=8,
                                   n_slice=32)
        assert rep.pass_, rep.summary()

    def test_xray_unresolved_line_rejected(self):
        # degree 47 < radius 120: the line side would alias, not decay
        grid = make_sphere_grid(24, 48)
        one = Density(grid, np.ones(grid.node_count))
        with pytest.raises(PreconditionError, match="degree 47.*radius 120"):
            verify_xray_identity(one, np.array([0.0, 0.0, 1.0]),
                                 truncation=120.0)

    def test_radon_identity_margin_enforced(self):
        grid = make_circle_grid(64)
        # equator-touching support violates the hemisphere margin
        one = Density(grid, np.ones(grid.node_count))
        with pytest.raises(PreconditionError, match="spherical cap"):
            verify_radon_identity(one, np.array([1.0, 0.0]))

    def test_radon_identity_grid_must_resolve_patch_corner(self):
        # the n = 3 patch corner is at hypot(60 sqrt 2, 2) = 84.9: degree 79
        # cannot resolve it (rel_err reads 0.079 there), degree 87 can
        omega = np.array([0.0, 0.0, 1.0])
        coarse = bump_cap_density(make_sphere_grid(40, 80), omega, 0.7)
        with pytest.raises(PreconditionError, match="degree 79.*radius 84.8"):
            verify_radon_identity(coarse, omega)
        fine = bump_cap_density(make_sphere_grid(44, 88), omega, 0.7)
        assert verify_radon_identity(fine, omega).pass_

    def test_mollified_radon_small_R_rejected(self):
        grid = make_circle_grid(64)
        g = bump_cap_density(grid, np.array([1.0, 0.0]), 0.5)
        with pytest.raises(PreconditionError):
            verify_mollified_radon(g, np.array([1.0, 0.0]), R_list=(2,))

    def test_radon_defaults_pinned(self):
        # pinned by repr: the pruned NUFFT gives the full-grid values bit for
        # bit; the n = 3 values are those of the 2m + 1 cell kernel band
        rep = verify_radon_identity(
            bump_cap_density(make_sphere_grid(96, 192), OMEGA_3, 0.7), OMEGA_3)
        assert repr(rep.metrics) == repr({
            "rhs": 17.43325163053159, "rel_err_t0.5": 3.2705445821652934e-06,
            "rel_err_t1": 3.2785005082481296e-06,
            "rel_err_t2": 3.310405403540054e-06,
            "t_spread": 3.986095237712264e-08})
        assert repr(rep.raw_data["lhs"]) == repr([
            17.43319461430492, 17.43319447560726, 17.43319391940119])
        rep = verify_radon_identity(
            bump_cap_density(make_circle_grid(512), OMEGA_2, 0.7), OMEGA_2)
        assert repr(rep.metrics) == repr({
            "rhs": 4.453868704051444, "rel_err_t0.5": 3.725314363965228e-12,
            "rel_err_t1": 3.727308536848888e-12,
            "rel_err_t2": 3.7352852283835286e-12,
            "t_spread": 9.970864418262769e-15})
        assert repr(rep.raw_data["lhs"]) == repr([
            4.453868704068036, 4.453868704068045, 4.45386870406808])

    def test_xray_defaults_pinned(self):
        # pinned by repr for one positive and one signed density: the line
        # samples go through the 1-D NUFFT, whose path is unchanged
        grid = make_sphere_grid(96, 192)
        positive = preset_density(grid, "smooth", np.random.default_rng(0))
        assert repr(verify_xray_identity(positive, OMEGA_3).metrics) == repr({
            "lhs": 551.8235717508779, "rhs": 553.539858197714,
            "rel_err": 0.0031005652464199864, "lhs_sup": 551.8235717508779,
            "rhs_sup": 553.539858197714, "rel_err_sup": 0.0031005652464199864})
        signed = Density(grid, grid.nodes[:, 0] + 0.2,
                         evaluator=lambda pts: pts[:, 0] + 0.2)
        assert repr(verify_xray_identity(signed, OMEGA_3).metrics) == repr({
            "lhs": 34.85754164421895, "rhs": 35.03076483717133,
            "rel_err": 0.004944887551201189, "lhs_sup": 139.9812031715498,
            "rhs_sup": 140.1526715793367, "rel_err_sup": 0.001223440166032369})


class TestGrowth:
    def test_coarse_grid_rejects_non_constant_density(self):
        cap = preset_density(make_circle_grid(64), "cap", None)
        with pytest.raises(PreconditionError):
            radon_growth_sweep(cap, 2.0, R_list=(16, 64, 256))

    def test_constant_density_needs_no_fine_grid(self):
        # a constant density takes its exact extension, whatever its grid
        R_list = (16, 32, 64, 128, 256, 512, 1024)
        coarse, fine = (radon_growth_sweep(
            preset_density(make_circle_grid(N), "constant", None), 2.0, R_list)
            for N in (64, 2560))
        assert coarse.to_json() == fine.to_json()

    def test_t_delta_log_law_small(self):
        fit, rep = t_delta_log_law(delta_list=(1e-1, 1e-2, 1e-3), n_u=96)
        assert 3.0 < fit.slope < 5.0
        assert fit.r_squared > 0.99

    def test_bt_bounds_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            bt_bounds_sweep(family="nope")

    def test_bt_bounds_constant_family_defaults(self):
        # the fit of the CLI default `sweep bt-bounds`; g1 = g2 = 1 is one
        # kernel sum at every node, so it runs in milliseconds
        fit_half, fit_one = bt_bounds_sweep()
        pins = [(fit_one.slope, 3.999444756798484),
                (fit_one.intercept, 2.8100082406985605),
                (fit_one.r_squared, 0.9999960366989722),
                (fit_half.slope, 0.4245783773859559),
                (fit_half.r_squared, 0.9791274013162393)]
        for got, want in pins:
            assert got == pytest.approx(want, rel=1e-13)

    def test_bt_bounds_random_family_is_one_log_law(self):
        # one pair of functions over the whole sweep; fresh draws per delta
        # failed r^2 >= 0.9 at half of these seeds
        for seed in range(12):
            _, fit_one = bt_bounds_sweep(delta_list=(1e-1, 3e-2, 1e-2),
                                         family="random", seed=seed,
                                         max_nodes=1024)
            assert fit_one.r_squared >= 0.9, seed

    def test_multiscale_chord_integral_matches_quadrature(self):
        # the closed form against the adaptive quadrature it replaced, with
        # the breakpoint at the spike edge a* = arctan(radius/half_length)
        from scipy.integrate import quad
        deltas = (0.2, 0.1, 0.05, 0.025, 1e-3)
        rep = xray_multiscale_lower_bound(delta_list=deltas)
        for delta, ordinate in zip(deltas, rep.raw_data["ordinate"]):
            radius, half_length = 1.0 / delta, 1.0 / delta ** 2

            def chord_sq_times_sin(alpha):
                chord = 2.0 * min(radius / max(np.sin(alpha), 1e-300),
                                  half_length / max(np.cos(alpha), 1e-300))
                return chord ** 2 * np.sin(alpha)

            oracle, _ = quad(chord_sq_times_sin, 0.0, np.pi / 2, limit=200,
                             points=[np.arctan2(radius, half_length)])
            # ordinate = (value delta)^2 with value^2 = 4 pi integral
            integral = ordinate / (4.0 * np.pi * delta ** 2)
            assert integral == pytest.approx(oracle, rel=1e-12), delta

    def test_slab_section_area_closed_form(self):
        # the closed form against the integral it solves: the chord
        # 2 (r^2 - (u c)^2)^(1/2) over |u| <= min(r/c, h/s), for both dual
        # sets (m = 1: r = 1/delta, h = 1/delta^2; m = 2 swaps them) and
        # angles on both sides of the binding switch at tan(alpha) = h/r
        from scipy.integrate import quad
        for r, h in [(10.0, 100.0), (100.0, 10.0), (40.0, 1600.0)]:
            assert _slab_cylinder_section_area(1.0, r, h) == pytest.approx(
                np.pi * r * r, rel=1e-15)
            assert _slab_cylinder_section_area(0.0, r, h) == 4.0 * r * h
            for alpha in np.linspace(0.02, np.pi / 2 - 0.02, 9):
                c, s = np.cos(alpha), np.sin(alpha)
                lim = min(r / c, h / s)
                oracle, _ = quad(
                    lambda u: 2.0 * np.sqrt(max(0.0, r * r - (u * c) ** 2)),
                    -lim, lim, epsabs=0.0, epsrel=1e-13, limit=200)
                assert _slab_cylinder_section_area(c, r, h) == pytest.approx(
                    oracle, rel=1e-12), (r, h, alpha)

    def test_wrong_dimension_rejected(self):
        grid = make_sphere_grid(8, 16)
        one = Density(grid, np.ones(grid.node_count))
        with pytest.raises(InvalidArgumentError):
            radon_growth_sweep(one, 2.0, R_list=(16,))

    @staticmethod
    def _knapp_oracle(m, delta, x):
        """The extension of the band g_m at x as one 1-D quadrature: the
        azimuth integral about the band's axis is 2 pi J0(rho s), and the
        band is symmetric under xi -> -xi.  m = 1 runs over z = xi_1 in
        [0, delta]; m = 2 over s = |(xi_1, xi_2)| in [0, delta], where
        dz = s ds / z spares the oracle the cancellation in 1 - z^2."""
        from scipy.integrate import quad
        from scipy.special import j0
        if m == 1:
            a, rho = x[0], np.hypot(x[1], x[2])

            def f(z):
                return 4 * np.pi * j0(rho * np.sqrt(1 - z * z)) * np.cos(a * z)
            scale = delta
        else:
            a, rho = x[2], np.hypot(x[0], x[1])

            def f(s):
                z = np.sqrt(1 - s * s)
                return 4 * np.pi * j0(rho * s) * np.cos(a * z) * s / z
            scale = delta ** 2
        return quad(f, 0.0, delta, epsabs=1e-14 * scale, epsrel=1e-12,
                    limit=200)[0]

    @pytest.mark.parametrize("m", [1, 2])
    def test_knapp_extension_matches_quadrature(self, m):
        # at the experiment's own points: its default deltas drawn from its
        # keyed stream, then delta = 0.01 from the same stream
        rng = experiment_rng(0, "knapp_radon_lower_bounds")
        defaults = inspect.signature(
            knapp_radon_lower_bounds).parameters["delta_list"].default
        for delta, tol in [*((d, 1e-12) for d in defaults), (0.01, 1e-10)]:
            g, pts = _knapp_band(m, delta, rng)
            vals = extend(g, pts)
            ref = np.array([self._knapp_oracle(m, delta, x) for x in pts])
            assert np.abs(vals - ref).max() <= tol * np.abs(ref).max(), delta

    @pytest.mark.parametrize("delta", [0.2, 0.025, 0.01])
    def test_knapp_band_mass(self, delta):
        # |{|xi_1| <= delta}| = 4 pi delta; |{|(xi_1, xi_2)| <= delta}| =
        # 4 pi (1 - (1 - delta^2)^(1/2)), written free of cancellation
        for m, mass in [(1, 4 * np.pi * delta),
                        (2, 4 * np.pi * delta ** 2 / (1 + np.sqrt(1 - delta ** 2)))]:
            g, _ = _knapp_band(m, delta, np.random.default_rng(0))
            assert g.grid.integrate(g.values).real == pytest.approx(
                mass, rel=1e-10), m

    @pytest.mark.parametrize("m", [1, 2])
    def test_knapp_defaults_pass(self, m):
        rep = knapp_radon_lower_bounds(m)
        assert rep.pass_, rep.summary()
        if m == 1:
            # the extension at the origin is the band mass 4 pi delta
            assert rep.metrics["center_value_err"] <= 1e-12


class TestNecessity:
    def test_defaults_pinned(self):
        # the values of the per-delta BA_t pipeline, pinned by repr
        rep, _ = necessity_band_example(seed=0)
        assert repr(rep.metrics) == repr({
            "fitted_exponent": 1.7508664634580144, "target_exponent": 1.75,
            "exponent_gap": 0.0008664634580144437,
            "plateau_exponent_gap": 0.020929261495526097,
            "band_measure_ratio": 4.295146206079795})
        assert repr(rep.raw_data["Q"]) == repr([
            0.5341098758397775, 0.14946836861316212, 0.04460379121274149,
            0.013989817056761236])
        assert rep.pass_, rep.summary()

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0.0, np.pi / 2), delta=st.floats(0.01, 0.5),
           half=st.integers(1, 256), n_s=st.integers(1, 24),
           eps=st.floats(0.05, 0.5), tie=st.integers(0, 2 ** 20))
    def test_band_counts_are_ba_t(self, theta, delta, half, n_s, eps, tie):
        # bit for bit against BA_t of the band density; the second delta is
        # max(h_k, h_(k+m/2)) at one point BA_t evaluates, a tie on "<="
        n_slice = 2 * half
        u = np.array([np.sin(theta), 0.0, np.cos(theta)])
        t_nodes, _ = _s_rule(eps, n_s)
        pts, _ = slice_rule(SliceMeasureSpec(u, t_nodes).omega, t_nodes, n_slice)
        h = _polar_radius(pts)
        rho = np.maximum(h, np.roll(h, half, axis=-1))
        deltas = (delta, float(rho.flat[tie % rho.size]))
        grid = make_sphere_grid(4, 8)
        oracle = [_ba_square_integral(_polar_band_density(grid, d), eps, n_s,
                                      n_slice)(u) for d in deltas]
        F = _band_square_integrals(deltas, [theta], eps, n_s, n_slice)
        assert np.array_equal(F[:, 0], oracle)

    def test_great_circle_heights_are_slice_rule_heights(self, rng):
        # necessity's great circles are the t = 0 slices in the one
        # perp_basis frame, for grid nodes and for random directions
        om = rng.standard_normal((20, 3))
        rows = np.vstack([make_sphere_grid(16, 32).nodes,
                          om / np.linalg.norm(om, axis=1)[:, None]])
        heights = _great_circle_heights(rows, 64)
        for row, h in zip(rows, heights):
            pts, _ = slice_rule(row, 0.0, 64)
            np.testing.assert_allclose(h, np.abs(pts[:, 2]), rtol=0, atol=1e-15)

    def test_odd_slice_count_rejected(self):
        # the count form pairs point k with k + m/2; an odd slice has no pair
        with pytest.raises(InvalidArgumentError, match="even"):
            necessity_band_example(n_slice=511)


class TestReductions:
    def test_q_gt_1_needs_constant_density(self):
        grid = make_sphere_grid(8, 16)
        g = Density(grid, grid.nodes[:, 2] + 2.0)
        with pytest.raises(InvalidArgumentError):
            lemma_X_reduction_check(g, q=2.0)

    def test_dimension_enforced(self):
        grid = make_circle_grid(64)
        one = Density(grid, np.ones(grid.node_count))
        with pytest.raises(InvalidArgumentError):
            lemma_X_reduction_check(one, q=1.0)

    @pytest.mark.parametrize("q, metrics", [
        (2.0, {"lhs": 26053719.132681996, "rhs": 17431.25541079605,
               "ratio": 1494.6553486070557}),
        (3.0, {"lhs": 37524123844.43298, "rhs": 650419.3056657687,
               "ratio": 57692.20488623615})])
    def test_reduce_lemma_defaults_pinned(self, q, metrics):
        # both sides at the defaults for reduce_lemma_family's smooth
        # density, pinned by repr: the right side's blocks of directions
        # keep every bit, and the great-circle sum keeps its order
        g = preset_density(make_sphere_grid(24, 48), "smooth",
                           experiment_rng(0, "reduce_lemma_family"))
        assert repr(verify_reduce_lemma(g, q=q).metrics) == repr(metrics)

    # the direct path: every omega of the grid, for the LHS and, at q != 2,
    # for the great-circle RHS; the benchmark's tiny sizes.  The perp_basis
    # frame is continuous in omega, so a circle point rounded two ways
    # takes the same slice points to round-off, and both cases run at 32
    @pytest.mark.parametrize("q, n_slice", [(2.0, 32), (3.0, 32)])
    def test_reduce_lemma_matches_full_direction_sweep(self, q, n_slice):
        grid = make_sphere_grid(8, 16)
        g = preset_density(grid, "smooth", np.random.default_rng(3))
        omega_grid = make_sphere_grid(4, 8)
        eps, n_v, n_t, n_s = 0.25, 9, 6, 6
        rep = verify_reduce_lemma(g, eps=eps, q=q, omega_grid=omega_grid,
                                  n_v=n_v, n_t=n_t, n_slice=n_slice, n_s=n_s)
        lhs = rhs = 0.0
        t_integral = _ba_square_integral(g, eps, n_s, n_slice)
        profs = _slice_xray_profiles(g, omega_grid.nodes, 12.0, n_v, n_t,
                                     n_slice)
        for om, w, prof in zip(omega_grid.nodes, omega_grid.weights, profs):
            lhs += w * frac_laplacian(prof, eps).lp_norm(2) ** q
            if q != 2.0:
                circle, w_u = slice_rule(om, 0.0, 32)
                inner = sum(t_integral(u) * w_u for u in circle)
                rhs += w * inner ** (q / 2.0)
        assert rep.metrics["lhs"] == pytest.approx(lhs, rel=1e-12)
        if q != 2.0:
            assert rep.metrics["rhs"] == pytest.approx(rhs, rel=1e-12)

    def test_x_reduction_matches_full_direction_sweep(self):
        grid = make_sphere_grid(8, 16)
        g = preset_density(grid, "cap", None)
        omega_grid = make_sphere_grid(12, 24)
        x0 = np.array([2.0 * np.pi * S_operator(g, om, n_t=48,
                                                n_slice=256) ** 2
                       for om in omega_grid.nodes])
        rep = lemma_X_reduction_check(g, q=1.0)
        assert rep.metrics["lhs"] == pytest.approx(omega_grid.integrate(x0),
                                                   rel=1e-12)


class TestWeighted:
    def test_quadratic_form_gaussian_matches_rotated_form(self):
        funcs = _gaussian_test_functions(5, experiment_rng(4, "gaussians"))
        rng = experiment_rng(4, "gaussians")
        # out to where exp underflows to 0
        pts = np.random.default_rng(9).uniform(-30.0, 30.0, (4096, 2))
        for f, _ in funcs:
            a, b = rng.uniform(0.5, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
            theta = rng.uniform(0, np.pi)
            c, s = np.cos(theta), np.sin(theta)
            y = (pts - b) @ np.array([[c, -s], [s, c]]).T
            rotated = np.exp(-(a[0] * y[:, 0]) ** 2 - (a[1] * y[:, 1]) ** 2)
            np.testing.assert_allclose(f(pts), rotated, rtol=0, atol=1e-14)

    def test_declared_supports_are_true(self):
        fields = [f for f, _ in _gaussian_test_functions(
            10, experiment_rng(0, "isometry_constancy"))]
        fields += [w for _, _, w in default_wstein_family()]
        rng = np.random.default_rng(5)
        angle = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        ring = np.column_stack([np.cos(angle), np.sin(angle)])
        for f in fields:
            center, radius = f.support
            # just outside the ball, and anywhere beyond it
            for scale in (1.0 + 1e-12, 1.0 + rng.uniform(0.0, 3.0, (4096, 1))):
                assert not f(center + radius * scale * ring).any()

    @pytest.mark.parametrize("R", [8.0, 10, 12.5])
    def test_ball_quadrature_over_a_list_is_the_per_density_one(self, R):
        # one masked weight built from the box axis serves every density,
        # bit for bit the weight built from each density's own field grid
        grid = make_circle_grid(128)
        rng = np.random.default_rng(11)
        gs = [Density(grid, rng.standard_normal(128)
                      + 1j * rng.standard_normal(128)) for _ in range(3)]
        gs.append(default_wstein_family()[1][1])  # the 512-node cap pair

        def w_rad(pts):
            return 1.0 / np.sqrt(1.0 + np.sum(np.atleast_2d(pts) ** 2, axis=1))

        for weight in [w_rad] + [w for _, _, w in default_wstein_family()[1:]]:
            masses = _ball_quadrature_2d(gs, weight, R)
            assert len(masses) == len(gs)
            for g, mass in zip(gs, masses):
                field = extend_field(g, R, int(2 * R / 0.25) + 1)
                xx, yy = field.meshgrid()
                w = weight(np.column_stack([xx.ravel(), yy.ravel()]))
                w = np.where(xx ** 2 + yy ** 2 <= R * R,
                             w.reshape(xx.shape), 0.0)
                assert mass == float(field.integrate(
                    lambda values: np.abs(values) ** 2 * w))

    def test_truncated_gaussians_keep_closed_form_l2(self):
        for f, l2 in _gaussian_test_functions(
                10, experiment_rng(0, "isometry_constancy")):
            center, radius = f.support
            ax = np.linspace(-radius, radius, 513)
            xx, yy = np.meshgrid(ax, ax, indexing="ij")
            vals = f(np.column_stack([xx.ravel(), yy.ravel()]) + center)
            quad = SampledField(radius, vals.reshape(xx.shape)).lp_norm(2)
            assert quad == pytest.approx(l2, rel=1e-12)


class TestTubes:
    def test_direction_angles_spacing(self):
        angles = _tube_direction_angles(64)
        assert np.allclose(np.diff(angles), 64 ** -0.5)
        assert angles.max() < np.pi

    def test_small_R_rejected(self):
        with pytest.raises(InvalidArgumentError):
            _tube_direction_angles(2)

    def test_wavepacket_center_value_is_arc_length(self):
        # at z = -a the phase vanishes identically on the arc
        half_width = 0.1
        a = np.array([3.0, -2.0])
        packet = _cap_wavepacket_extension(0.7, half_width, a)
        val = packet(-a[None, :])
        assert abs(val[0]) == pytest.approx(2.0 * half_width, rel=1e-12)

    def test_small_family_runs(self):
        # pinned by repr: one tube per direction of _tube_direction_angles
        # and 32 Khintchine points
        rep = randomized_tube_experiment(R=16, n_trials=50)
        assert rep.params["n_tubes"] == len(_tube_direction_angles(16))
        assert repr(rep.metrics) == repr({
            "c_min": 0.9895100841398489,
            "center_arc_err": 1.1102230246251565e-16,
            "khintchine_ratio": 0.9891968815595723,
            "khintchine_se_rel": 0.022486923527498384,
            "khintchine_dev_in_se": 0.48041780491746366,
            "kakeya_lhs": 5.458114658469534,
            "kakeya_rhs": 1.7320508075688772,
            "kakeya_ratio": 3.151243967335228})
        assert rep.pass_, rep.summary()


class TestExtremal:
    def test_unknown_functional(self):
        with pytest.raises(InvalidArgumentError):
            _build_functional("no_such_thing(1,2)")

    def test_xray_sup_matrix_is_the_row_by_row_build(self):
        # one lookup and one np.add.at for all 512 (direction, slice) rows
        # against one dense argmax and one np.add.at per row
        grid = make_sphere_grid(8, 16)
        A = inspect.getclosurevars(
            _xray_sup_functional(grid, np.inf)).nonlocals["A"]
        t_nodes = np.polynomial.legendre.leggauss(16)[0]
        rows = []
        for om in make_sphere_grid(4, 8).nodes:
            for pts, w in zip(*slice_rule(om, t_nodes, 64)):
                row = np.zeros(grid.node_count)
                np.add.at(row, np.argmax(pts @ grid.nodes.T, axis=1),
                          np.full(64, w))
                rows.append(row)
        np.testing.assert_array_equal(A.reshape(len(rows), -1), rows)

    def test_unparseable_functional(self):
        with pytest.raises(InvalidArgumentError):
            _build_functional("1+1=(")

    def test_wrong_arity(self):
        with pytest.raises(InvalidArgumentError):
            _build_functional("T_delta_norm(2,2)")

    def test_zero_steps_returns_normalized_init(self):
        # the start is the seeded draw on the 64-node circle, at unit norm
        rep = extremize("MT_radial_constant", steps=0, seed=3)
        assert rep.metrics["objective_init"] == rep.metrics["objective_final"]
        density = Density(make_circle_grid(64), rep.raw_data["density_values"])
        assert density.norm(2) == pytest.approx(1.0, abs=1e-12)
        draw = experiment_rng(3, "extremize:MT_radial_constant").uniform(
            0.5, 1.5, size=64)
        np.testing.assert_allclose(
            density.values, draw / Density(density.grid, draw).norm(2),
            rtol=1e-14)

    def test_objective_trace_monotone(self):
        # pinned by repr on the default 32-node circle
        rep = extremize("T_delta_norm(2,2,0.1)", steps=5)
        trace = rep.raw_data["ordinate"]
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert "objective" not in rep.raw_data
        assert rep.raw_data["abscissa"] == list(range(len(trace)))
        assert repr(rep.metrics) == repr({
            "objective_init": 4.758358141876144,
            "objective_final": 7.1681501431574155,
            "accepted_steps": 5.0, "unit_norm_err": 0.0,
            "monotone": 0.4546253701162799})
        assert rep.pass_, rep.summary()

    def test_non_finite_objective_aborts(self, monkeypatch):
        import extomo.experiments.extremal as ex
        monkeypatch.setattr(ex, "_build_functional", lambda fid: (
            lambda x: np.inf, make_circle_grid(8), 2.0))
        with pytest.raises(NonFiniteObjectiveError):
            ex.extremize("anything", steps=1)
