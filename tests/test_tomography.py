"""Line and hyperplane transforms, the fractional Laplacian, Lorentz norms."""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError, PreconditionError
from extomo.experiments.weighted import (_gamma_R_weight,
                                         _gaussian_test_functions)
from extomo.extension import sigma_hat_closed_form
from extomo.reports import experiment_rng
from extomo.sphere import _trapezoid_weights, make_circle_grid, perp_basis
from extomo.tomography import (_XRAY_BLOCK, Hyperplane, Line, SampledField,
                               TubeFamily, _laplacian_power, frac_laplacian,
                               kakeya_dual_functional, lorentz_norm,
                               radial_xray_profile, radon, tube_sum_field,
                               xray, xray_isometry_ratio, xray_profile)


def gaussian_2d(pts):
    pts = np.atleast_2d(pts)
    return np.exp(-np.sum(pts ** 2, axis=1))


def ball_indicator(radius):
    def f(pts):
        pts = np.atleast_2d(pts)
        return (np.linalg.norm(pts, axis=1) <= radius).astype(float)
    return f


class TestGeometryTypes:
    def test_perp_basis_orthonormal(self, rng):
        omega = rng.standard_normal(3)
        omega /= np.linalg.norm(omega)
        basis = perp_basis(omega)
        assert np.allclose(basis @ basis.T, np.eye(2), atol=1e-12)
        assert np.allclose(basis @ omega, 0.0, atol=1e-12)

    def test_line_offset_must_be_perpendicular(self):
        with pytest.raises(InvalidArgumentError):
            Line(np.array([1.0, 0.0]), np.array([1.0, 0.0]))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hyperplane(np.array([1.0, 1.0]), 0.0)


class TestXray:
    def test_gaussian_line_integral(self):
        # integral of e^{-x^2-y^2} along any line through the origin
        line = Line(np.array([0.6, 0.8]), np.zeros(2))
        assert xray(gaussian_2d, line, 12.0) == pytest.approx(
            np.sqrt(np.pi), rel=1e-10)

    def test_offset_gaussian(self):
        # offset v shrinks the integral by e^{-|v|^2}
        omega = np.array([1.0, 0.0])
        v = np.array([0.0, 0.7])
        assert xray(gaussian_2d, Line(omega, v), 12.0) == pytest.approx(
            np.sqrt(np.pi) * np.exp(-0.49), rel=1e-10)

    def test_ball_chord(self):
        # a central chord of the unit disc has length 2
        f = ball_indicator(1.0)
        val = xray(f, Line(np.array([0.0, 1.0]), np.zeros(2)), 2.0,
                   n_samples=100001)
        assert val == pytest.approx(2.0, rel=1e-4)

    def test_disjoint_line(self):
        f = ball_indicator(1.0)
        val = xray(f, Line(np.array([1.0, 0.0]), np.array([0.0, 2.0])), 5.0)
        assert val == 0.0


class TestRadon:
    def test_radon_3d_rejected(self):
        # n = 3 hyperplane integrals are extend_plane_field patches
        omega = np.array([0.0, 0.0, 1.0])
        with pytest.raises(InvalidArgumentError, match="extend_plane_field"):
            radon(gaussian_2d, Hyperplane(omega, 0.5), 8.0, 321)

    def test_radon_2d_reduces_to_xray(self):
        omega = np.array([0.6, 0.8])
        val = radon(gaussian_2d, Hyperplane(omega, 0.3), 12.0)
        assert val == pytest.approx(np.sqrt(np.pi) * np.exp(-0.09), rel=1e-9)


class TestFracLaplacian:
    # the multiplier tests take periodic inputs, which the taper would cut
    def test_single_mode_multiplier(self):
        # a pure Fourier mode is an eigenfunction with eigenvalue |eta|^(2a)
        M, L = 257, 16.0
        v = np.linspace(-L, L, M)
        k = 8
        eta = 2.0 * np.pi * k / (v[-1] - v[0] + (v[1] - v[0]))
        prof_vals = np.cos(eta * v)
        out = _laplacian_power(prof_vals, 2 * L / (M - 1), 0.25)
        assert np.allclose(out, np.sqrt(eta) * prof_vals, atol=1e-8)

    def test_composition(self):
        M, L = 129, 10.0
        v = np.linspace(-L, L, M)
        vals = np.exp(-v ** 2)
        dv = 2 * L / (M - 1)
        once = _laplacian_power(_laplacian_power(vals, dv, 0.25), dv, 0.25)
        twice = _laplacian_power(vals, dv, 0.5)
        assert np.allclose(once, twice, atol=1e-10)

    def test_negative_order_needs_mean_zero(self):
        v = np.linspace(-8, 8, 129)
        prof = SampledField(8.0, np.exp(-v ** 2))
        with pytest.raises(PreconditionError):
            frac_laplacian(prof, -0.25)

    @settings(max_examples=60, deadline=None)
    @given(ndim=st.sampled_from([1, 2]), M=st.integers(2, 300),
           half_width=st.floats(0.5, 64.0),
           alpha=st.sampled_from([-0.25, 0.25, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(ndim=2, M=257, half_width=24.0, alpha=0.25, seed=0)
    @example(ndim=2, M=2, half_width=1.0, alpha=-0.25, seed=1)
    def test_cached_tables_match_an_uncached_multiplier(self, ndim, M,
                                                        half_width, alpha,
                                                        seed):
        # the cached taper and multiplier give the result of tables built
        # afresh bit for bit, on a first call and on a repeat
        rng = np.random.default_rng(seed)
        taper = np.ones(M)
        edge = max(int(np.ceil(M * 0.1)), 2)
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
        taper[:edge], taper[-edge:] = ramp, ramp[::-1]
        window = functools.reduce(np.multiply.outer, [taper] * ndim)
        vals = rng.standard_normal((M,) * ndim)
        if alpha < 0:  # mean-zero once tapered
            vals -= (vals * window).mean() / (window * window).mean() * window
        tapered = vals.astype(complex)
        for axis in range(ndim):
            tapered = tapered * taper.reshape([-1 if a == axis else 1
                                               for a in range(ndim)])
        prof = SampledField(half_width, vals)
        eta1 = 2.0 * np.pi * np.fft.fftfreq(M, d=prof.spacing)
        eta2 = functools.reduce(np.add.outer, [eta1 ** 2] * ndim)
        mult = np.power(eta2, alpha, out=np.zeros_like(eta2), where=eta2 > 0)
        expected = np.fft.ifftn(np.fft.fftn(tapered) * mult).real
        for _ in range(2):
            assert np.array_equal(frac_laplacian(prof, alpha).values, expected)

    def test_self_adjoint(self, rng):
        M = 64
        a = rng.standard_normal(M)
        b = rng.standard_normal(M)
        dv = 16.0 / (M - 1)
        La = _laplacian_power(a, dv, 0.25).real
        Lb = _laplacian_power(b, dv, 0.25).real
        assert np.dot(La, b) == pytest.approx(np.dot(a, Lb), rel=1e-10)


def _line_rule(truncation, n_samples):
    """The trapezoid weights, spacing included, that xray_profile sums a
    line with."""
    return _trapezoid_weights(n_samples) * (2.0 * truncation / (n_samples - 1))


def _one_shot_profile(f, omega, half_width, M, truncation, n_samples):
    """xray_profile as one C-ordered (lines * n_samples, n) evaluation of f,
    each line summed with the trapezoid weights."""
    n = omega.size
    omega = omega / np.linalg.norm(omega)
    basis = perp_basis(omega)
    u = np.linspace(-half_width, half_width, M)
    s = np.linspace(-truncation, truncation, n_samples)
    grid = np.meshgrid(*[u] * (n - 1), indexing="ij")
    offsets = grid[0].reshape(-1, 1) * basis[0]
    if n == 3:
        offsets = offsets + grid[1].reshape(-1, 1) * basis[1]
    pts = offsets[:, None, :] + s[None, :, None] * omega[None, None, :]
    vals = np.asarray(f(pts.reshape(-1, n))).real.reshape(-1, n_samples)
    w = _line_rule(truncation, n_samples)
    return np.add.reduce(vals * w, axis=1).reshape((M,) * (n - 1))


@st.composite
def _profile_shapes(draw):
    """(n, samples_per_axis, n_samples): one block, a partial last block,
    or one line per block."""
    n = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["one", "partial", "line"]))
    if kind == "line":
        return n, draw(st.integers(2, 3)), draw(
            st.integers(_XRAY_BLOCK + 1, _XRAY_BLOCK + 2000))
    n_samples = draw(st.integers(16, 2000))
    rows = _XRAY_BLOCK // n_samples
    if kind == "one":
        M = draw(st.integers(2, int(rows ** (1.0 / (n - 1)))))
        assert M ** (n - 1) <= rows
    else:
        M = draw(st.integers(int(rows ** (1.0 / (n - 1))) + 1,
                             int((3 * rows) ** (1.0 / (n - 1))) + 2))
        assume(M ** (n - 1) % rows != 0)
        assert M ** (n - 1) > rows
    return n, M, n_samples


class TestXrayProfile:
    def test_profile_matches_pointwise_xray(self):
        omega = np.array([0.0, 1.0])
        prof = xray_profile(gaussian_2d, omega, 2.0, 9, 12.0)
        basis = perp_basis(omega)
        for i, u in enumerate(prof.axis()):
            direct = xray(gaussian_2d, Line(omega, u * basis[0]), 12.0)
            assert prof.values[i] == pytest.approx(direct, rel=1e-10)

    def test_profile_matches_pointwise_xray_3d(self):
        omega = np.array([0.36, 0.48, 0.8])
        prof = xray_profile(gaussian_2d, omega, 2.0, 9, 12.0)
        basis = perp_basis(omega)
        u = prof.axis()
        for i, j in np.ndindex(prof.values.shape):
            line = Line(omega, u[i] * basis[0] + u[j] * basis[1])
            direct = xray(gaussian_2d, line, 12.0)
            assert prof.values[i, j] == pytest.approx(direct, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(shape=_profile_shapes(), field=st.sampled_from(
        ["gauss", "norm", "coord0", "coord1", "coord2"]), seed=st.integers(0, 99))
    def test_blocks_match_one_shot_evaluation(self, shape, field, seed):
        n, M, n_samples = shape
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal(n)
        omega /= np.linalg.norm(omega)
        b = rng.standard_normal(n)
        f = {"gauss": lambda pts: np.exp(-np.sum((pts - b) ** 2, axis=1)),
             "norm": lambda pts: np.linalg.norm(pts, axis=1),
             "coord0": lambda pts: pts[:, 0],
             "coord1": lambda pts: pts[:, 1],
             "coord2": lambda pts: pts[:, n - 1]}[field]
        np.testing.assert_array_equal(
            xray_profile(f, omega, 1.5, M, 4.0, n_samples).values,
            _one_shot_profile(f, omega, 1.5, M, 4.0, n_samples))

    @settings(max_examples=20, deadline=None)
    @given(shape=_profile_shapes())
    def test_field_sees_bounded_blocks(self, shape):
        n, M, n_samples = shape
        calls = []

        def recording(pts):
            assert pts.ndim == 2 and pts.shape[1] == n
            assert pts.shape[0] <= max(_XRAY_BLOCK, n_samples)
            assert pts.shape[0] % n_samples == 0
            calls.append(pts.shape[0])
            return gaussian_2d(pts)

        omega = np.eye(n)[-1]
        xray_profile(recording, omega, 1.5, M, 4.0, n_samples)
        assert sum(calls) == M ** (n - 1) * n_samples
        assert len(calls) == -(-M ** (n - 1) // max(_XRAY_BLOCK // n_samples, 1))

    def test_l2_norm_gaussian(self):
        # ||X f||_{L^2(v)} for f = e^{-|x|^2}: profile sqrt(pi) e^{-v^2}
        prof = xray_profile(gaussian_2d, np.array([1.0, 0.0]), 10.0, 401, 10.0)
        expected = np.sqrt(np.pi * np.sqrt(np.pi / 2.0))
        assert prof.lp_norm(2) == pytest.approx(expected, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(n_samples=st.integers(2, 3000), truncation=st.floats(0.5, 100.0),
           seed=st.integers(0, 99))
    def test_line_rule_is_the_trapezoid_rule(self, n_samples, truncation, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((4, n_samples)) + 0.5
        s = np.linspace(-truncation, truncation, n_samples)
        w = _line_rule(truncation, n_samples)
        direct = np.trapezoid(vals, s, axis=1)
        ruled = np.add.reduce(vals * w, axis=1)
        # relative to the line's L^1 mass, which bounds either sum
        assert np.all(np.abs(ruled - direct) <= 1e-14 * (np.abs(vals) @ w))


def _bump(center, radius):
    """(radius^2 - |x - center|^2)_+^2: continuous, 0 outside the closed ball."""
    return lambda pts: np.maximum(
        radius ** 2 - np.sum((pts - center) ** 2, axis=1), 0.0) ** 2


class TestDeclaredSupport:
    H, T = 1.5, 4.0  # the window: offsets in [-H, H]^(n-1), s in [-T, T]

    @settings(max_examples=60, deadline=None)
    @given(shape=_profile_shapes(), place=st.sampled_from(
        ["inside", "straddling", "outside"]), seed=st.integers(0, 999))
    def test_crop_matches_direct_path(self, shape, place, seed):
        n, M, n_samples = shape
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal(n)
        omega /= np.linalg.norm(omega)
        frame = np.vstack([perp_basis(omega), omega])
        lim = np.array([self.H] * (n - 1) + [self.T])
        radius = rng.uniform(0.1, 1.0)
        # the center's coordinates in the (perp_basis, omega) frame
        coords = rng.uniform(-1.0, 1.0, n) * (lim - radius)
        axis, side = rng.integers(n), rng.choice([-1.0, 1.0])
        if place == "straddling":
            coords[axis] = side * (lim[axis] + rng.uniform(-radius, radius))
        elif place == "outside":
            coords[axis] = side * (lim[axis] + radius + rng.uniform(0.01, 1.0))
        center = coords @ frame
        bump = _bump(center, radius)
        seen = []

        def supported(pts):
            seen.append(np.abs((pts - center) @ frame.T).max())
            return bump(pts)

        supported.support = (center, radius)
        cropped = xray_profile(supported, omega, self.H, M, self.T,
                               n_samples).values
        direct = xray_profile(bump, omega, self.H, M, self.T, n_samples).values
        assert np.all(np.abs(cropped - direct) <= 1e-14 * np.abs(direct).max())
        # lines whose offsets leave the box are exactly 0
        u = np.linspace(-self.H, self.H, M)
        gaps = [np.abs(a - c) for a, c in zip(np.meshgrid(
            *[u] * (n - 1), indexing="ij"), coords[:-1])]
        assert np.all(cropped[np.maximum.reduce(gaps) > radius] == 0.0)
        assert max(seen, default=0.0) <= radius * (1.0 + 1e-12)
        if place == "outside":
            assert not seen and not cropped.any()


def _wmiztak_field(R):
    """verify_wmiztak's radial field gamma_R (2 pi J_0)^2 as a function of r."""
    gamma = _gamma_R_weight(R)
    return lambda r: gamma(r) * sigma_hat_closed_form(2, r) ** 2


RADIAL_FIELDS = {"gauss": lambda r: np.exp(-(r / 3.0) ** 2),
                 "wmiztak R=2": _wmiztak_field(2.0),
                 "wmiztak R=4": _wmiztak_field(4.0)}


class TestRadialXrayProfile:
    @settings(max_examples=40, deadline=None)
    @given(M=st.integers(2, 400), n_samples=st.integers(16, 600),
           field=st.sampled_from(sorted(RADIAL_FIELDS)), seed=st.integers(0, 99))
    @example(M=601, n_samples=600, field="wmiztak R=4", seed=0)  # 3 blocks
    @example(M=600, n_samples=601, field="wmiztak R=4", seed=1)
    def test_matches_xray_profile(self, M, n_samples, field, seed):
        # the oracle samples the whole offset grid in a random direction
        F = RADIAL_FIELDS[field]
        rng = np.random.default_rng(seed)
        omega = rng.standard_normal(2)
        omega /= np.linalg.norm(omega)
        width = rng.uniform(4.0, 16.0, 2)
        radial = radial_xray_profile(F, width[0], M, width[1], n_samples)
        direct = xray_profile(lambda p: F(np.hypot(p[:, 0], p[:, 1])), omega,
                              width[0], M, width[1], n_samples)
        assert radial.half_width == direct.half_width
        np.testing.assert_allclose(radial.values, direct.values, rtol=0,
                                   atol=1e-13 * np.abs(direct.values).max())

    @pytest.mark.parametrize("M", [64, 65])
    @pytest.mark.parametrize("n_samples", [96, 97])
    def test_profile_is_even(self, M, n_samples):
        prof = radial_xray_profile(_wmiztak_field(2.0), 6.0, M, 6.0, n_samples)
        assert prof.values.shape == (M,)
        np.testing.assert_array_equal(prof.values, prof.values[::-1])

    @pytest.mark.parametrize("M, n_samples", [
        (64, 96), (65, 97), (601, 600), (600, 601),
        (3, 2 * _XRAY_BLOCK + 1), (2, 2 * _XRAY_BLOCK + 2)])
    def test_each_orbit_is_evaluated_once_in_bounded_blocks(self, M, n_samples):
        sizes = []

        def recording(r):
            assert r.size <= max(_XRAY_BLOCK, n_samples // 2 + 1)
            sizes.append(r.size)
            return np.exp(-r ** 2)

        radial_xray_profile(recording, 2.0, M, 4.0, n_samples)
        assert sum(sizes) == (M - M // 2) * (n_samples - n_samples // 2)

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # verify_wmiztak's sizes at R = 256: an unblocked quadrant would
        # hold 2.36M radii, 18 MB per temporary
        F = _wmiztak_field(256.0)
        F(np.ones(4))  # load scipy outside the measurement
        tracemalloc.start()
        try:
            radial_xray_profile(F, 768.0, 3073, 768.0, 3072)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


def _isometry_ratio_full_sweep(f, f_l2, grid):
    """xray_isometry_ratio over every node of the grid: the direct path."""
    total = 0.0
    for node, weight in zip(grid.nodes, grid.weights):
        prof = xray_profile(f, node, 24.0, 257, 24.0, 1024)
        total += weight * frac_laplacian(prof, 0.25).lp_norm(2) ** 2
    return float(np.sqrt(total) / f_l2)


class TestIsometryRatio:
    @staticmethod
    def shifted_gaussian(pts):
        pts = np.atleast_2d(pts)
        return np.exp(-(pts[:, 0] - 0.7) ** 2 - 3.0 * (pts[:, 1] + 0.4) ** 2)

    @pytest.mark.parametrize("N", [8, 9])
    def test_paired_sweep_matches_full_sweep(self, N):
        # an odd circle grid has no antipodal pairs: the sweep is unchanged
        grid = make_circle_grid(N)
        l2 = np.sqrt(np.pi / 2.0 / np.sqrt(3.0))
        paired = xray_isometry_ratio(self.shifted_gaussian, l2, grid)
        full = _isometry_ratio_full_sweep(self.shifted_gaussian, l2, grid)
        if N % 2:
            assert paired == full
        else:
            assert paired == pytest.approx(full, rel=1e-12)

    def test_declared_support_matches_direct_path(self):
        f, l2 = _gaussian_test_functions(1, experiment_rng(3, "isometry"))[0]
        grid = make_circle_grid(8)
        assert f.support is not None
        cropped = xray_isometry_ratio(f, l2, grid)
        full = _isometry_ratio_full_sweep(lambda pts: f(pts), l2, grid)
        assert cropped == pytest.approx(full, rel=1e-12)


class TestLorentzNorm:
    def test_single_atom(self):
        for r in (1.0, 2.0, np.inf):
            assert lorentz_norm([3.0], [0.25], 2.0, r) == pytest.approx(
                3.0 * 0.25 ** 0.5)

    def test_qq_is_lq(self, rng):
        vals = rng.uniform(0, 5, 40)
        w = rng.uniform(0.1, 1.0, 40)
        lq = (np.sum(w * vals ** 3)) ** (1 / 3)
        assert lorentz_norm(vals, w, 3.0, 3.0) == pytest.approx(lq, rel=1e-12)

    def test_zero_input(self):
        assert lorentz_norm(np.zeros(5), np.ones(5), 2.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(InvalidArgumentError):
            lorentz_norm([1.0], [1.0], 0.5, 2.0)
        with pytest.raises(InvalidArgumentError):
            lorentz_norm([-1.0], [1.0], 2.0, 2.0)


@settings(max_examples=30, deadline=None)
@given(c=st.floats(0.1, 10.0), r=st.sampled_from([1.0, 2.0, np.inf]))
def test_lorentz_homogeneous(c, r):
    rng = np.random.default_rng(3)
    vals = rng.uniform(0, 2, 20)
    w = rng.uniform(0.5, 1.5, 20)
    base = lorentz_norm(vals, w, 2.0, r)
    assert lorentz_norm(c * vals, w, 2.0, r) == pytest.approx(c * base,
                                                              rel=1e-10)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_lorentz_monotone_in_values(seed):
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0, 2, 15)
    w = rng.uniform(0.5, 1.5, 15)
    bigger = vals + rng.uniform(0, 1, 15)
    assert lorentz_norm(bigger, w, 2.0, 2.0) >= lorentz_norm(vals, w, 2.0, 2.0)


class TestTubes:
    def test_separation_enforced(self):
        with pytest.raises(InvalidArgumentError):
            TubeFamily(delta=0.5,
                       directions=np.array([[1.0, 0.0], [0.999, 0.04]]),
                       centers=np.zeros((2, 2)))

    def test_tube_sum_counts(self):
        fam = TubeFamily(delta=0.1,
                         directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         centers=np.zeros((2, 2)))
        f = tube_sum_field(fam)
        assert f(np.zeros((1, 2)))[0] == 2.0
        assert f(np.array([[0.4, 0.0]]))[0] == 1.0
        assert f(np.array([[0.8, 0.8]]))[0] == 0.0

    def test_dual_functional_positive(self):
        fam = TubeFamily(delta=0.125,
                         directions=np.array([[1.0, 0.0], [0.0, 1.0]]),
                         centers=np.zeros((2, 2)))
        lhs, rhs = kakeya_dual_functional(fam)
        assert lhs > 0 and rhs > 0

    def test_dual_functional_single_tube_area(self):
        # one tube of width 2 delta and length 1: ||1_T||_2 = (2 delta)^(1/2)
        fam = TubeFamily(delta=0.125, directions=np.array([[1.0, 0.0]]),
                         centers=np.zeros((1, 2)))
        lhs, _ = kakeya_dual_functional(fam)
        assert lhs == pytest.approx(np.sqrt(2 * 0.125), rel=0.1)

    def test_dual_functional_needs_2d_family(self):
        fam = TubeFamily(delta=0.125, directions=np.eye(3),
                         centers=np.zeros((3, 3)))
        with pytest.raises(InvalidArgumentError):
            kakeya_dual_functional(fam)
