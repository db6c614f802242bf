"""Line and hyperplane transforms, the fractional Laplacian, Lorentz norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extomo.errors import InvalidArgumentError, PreconditionError
from extomo.tomography import (Hyperplane, Line, TubeFamily, frac_laplacian,
                               kakeya_dual_functional, lorentz_norm, perp_basis,
                               radon, tube_sum_field, xray, xray_profile)


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
    def test_gaussian_plane_integral_3d(self):
        def f(pts):
            pts = np.atleast_2d(pts)
            return np.exp(-np.sum(pts ** 2, axis=1))
        omega = np.array([0.0, 0.0, 1.0])
        val = radon(f, Hyperplane(omega, 0.5), 8.0, 321)
        assert val == pytest.approx(np.pi * np.exp(-0.25), rel=1e-6)

    def test_radon_2d_reduces_to_xray(self):
        omega = np.array([0.6, 0.8])
        val = radon(gaussian_2d, Hyperplane(omega, 0.3), 12.0)
        assert val == pytest.approx(np.sqrt(np.pi) * np.exp(-0.09), rel=1e-9)


class TestFracLaplacian:
    def test_single_mode_multiplier(self):
        # a pure Fourier mode is an eigenfunction with eigenvalue |eta|^(2a)
        M, L = 257, 16.0
        v = np.linspace(-L, L, M)
        k = 8
        eta = 2.0 * np.pi * k / (v[-1] - v[0] + (v[1] - v[0]))
        prof_vals = np.cos(eta * v)
        from extomo.tomography import LineProfile
        prof = LineProfile(omega=np.array([1.0, 0.0]), half_width=L,
                           values=prof_vals)
        out = frac_laplacian(prof, 0.25, taper=False, boundary_tol=10.0)
        assert np.allclose(out.values, np.sqrt(eta) * prof_vals, atol=1e-8)

    def test_composition(self):
        M, L = 129, 10.0
        v = np.linspace(-L, L, M)
        vals = np.exp(-v ** 2)
        from extomo.tomography import LineProfile
        prof = LineProfile(omega=np.array([1.0, 0.0]), half_width=L,
                           values=vals)
        once = frac_laplacian(frac_laplacian(prof, 0.25), 0.25,
                              boundary_tol=1.0)
        twice = frac_laplacian(prof, 0.5)
        assert np.allclose(once.values, twice.values, atol=1e-10)

    def test_boundary_decay_enforced(self):
        from extomo.tomography import LineProfile
        prof = LineProfile(omega=np.array([1.0, 0.0]), half_width=4.0,
                           values=np.ones(65))
        with pytest.raises(PreconditionError):
            frac_laplacian(prof, 0.25)

    def test_negative_order_needs_mean_zero(self):
        from extomo.tomography import LineProfile
        v = np.linspace(-8, 8, 129)
        prof = LineProfile(omega=np.array([1.0, 0.0]), half_width=8.0,
                           values=np.exp(-v ** 2))
        with pytest.raises(PreconditionError):
            frac_laplacian(prof, -0.25)

    def test_self_adjoint(self, rng):
        from extomo.tomography import LineProfile
        M = 64
        a = rng.standard_normal(M)
        b = rng.standard_normal(M)
        mk = lambda vals: LineProfile(omega=np.array([1.0, 0.0]),
                                      half_width=8.0, values=vals)
        La = frac_laplacian(mk(a), 0.25, boundary_tol=np.inf).values
        Lb = frac_laplacian(mk(b), 0.25, boundary_tol=np.inf).values
        assert np.dot(La, b) == pytest.approx(np.dot(a, Lb), rel=1e-10)


class TestXrayProfile:
    def test_profile_matches_pointwise_xray(self):
        omega = np.array([0.0, 1.0])
        prof = xray_profile(gaussian_2d, omega, 2.0, 9, 12.0)
        basis = perp_basis(omega)
        for i, u in enumerate(prof.axis()):
            direct = xray(gaussian_2d, Line(omega, u * basis[0]), 12.0)
            assert prof.values[i] == pytest.approx(direct, rel=1e-10)

    def test_l2_norm_gaussian(self):
        # ||X f||_{L^2(v)} for f = e^{-|x|^2}: profile sqrt(pi) e^{-v^2}
        prof = xray_profile(gaussian_2d, np.array([1.0, 0.0]), 10.0, 401, 10.0)
        expected = np.sqrt(np.pi * np.sqrt(np.pi / 2.0))
        assert prof.lp_norm(2) == pytest.approx(expected, rel=1e-6)


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
