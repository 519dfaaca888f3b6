"""Certificate arithmetic, drift checks, overlap and minorization."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate, stats

from sldsim import (
    ClassificationConflict,
    DriftViolation,
    MinorizationViolation,
    NotCertifiable,
    Policy,
    Region,
    SldsModel,
    UncoveredExterior,
    beta_lower_bound,
    certify,
    classify_regions,
    closed_loop,
    drift_check,
    gaussian_overlap,
    log_ball_volume,
    log_gaussian_overlap,
    minorization_check,
    polyhedron,
    radial_shell,
    region_of,
    sample_in_ball,
)
from sldsim.ergodicity import GAMMA_FLOOR

from conftest import CASE_RHO, build_system, poly4, zero_system


class TestClassifyRegions:
    def test_two_shell_split(self):
        sys = build_system(1)
        cls_ = classify_regions(sys.model, CASE_RHO)
        assert cls_.unbounded_set == (0,)
        assert cls_.bounded_set == (1,)

    def test_whole_space_single_region(self):
        sys = zero_system(2)
        cls_ = classify_regions(sys.model, 1.0)
        assert cls_.unbounded_set == (0,)
        assert cls_.bounded_set == ()

    def test_radial_declaration_conflict(self):
        bad = SldsModel(
            n=1, p=1,
            regions=(radial_shell(5.0, math.inf),
                     Region(kind="radial", r_lo=0.0, r_hi=5.0,
                            declared_unbounded=True)),
            dynamics=((np.eye(1) * 0.5, np.zeros((1, 1))),) * 2)
        with pytest.raises(ClassificationConflict):
            classify_regions(bad, 10.0)

    def test_polyhedral_probe_catches_false_bounded_claim(self):
        # A half space reaches outside any ball; declaring it bounded
        # must trip the directional probe.
        model = SldsModel(
            n=2, p=1,
            regions=(polyhedron([[1.0, 0.0]], [0.0],
                                declared_unbounded=False),
                     polyhedron([[-1.0, 0.0]], [0.0],
                                declared_unbounded=True)),
            dynamics=((np.eye(2) * 0.5, np.zeros((2, 1))),) * 2)
        with pytest.raises(ClassificationConflict):
            classify_regions(model, 1.0)

    def test_polyhedral_probe_catches_false_unbounded_claim(self):
        box = polyhedron([[1.0], [-1.0]], [1.0, 1.0],
                         declared_unbounded=True)
        model = SldsModel(
            n=1, p=1,
            regions=(box, radial_shell(0.0, math.inf)),
            dynamics=((np.eye(1) * 0.5, np.zeros((1, 1))),) * 2)
        with pytest.raises(ClassificationConflict):
            classify_regions(model, 5.0)

    def test_uncovered_exterior(self):
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, 10.0),),
                          dynamics=((np.eye(1), np.zeros((1, 1))),))
        with pytest.raises(UncoveredExterior):
            classify_regions(model, 10.0)

    def test_rho_must_be_positive(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            classify_regions(sys.model, 0.0)


class TestCertify:
    def test_benchmark_constants(self):
        cert = build_system(1).cert
        assert cert.gamma == pytest.approx(0.81, rel=1e-12)
        assert cert.c == pytest.approx(4.0, rel=1e-12)
        assert cert.k == pytest.approx(401.0, rel=1e-12)
        assert cert.r_hat == pytest.approx(2.0 * 401.0 / (0.81 * 0.19),
                                           rel=1e-12)
        assert cert.s_radius == pytest.approx(math.sqrt(804.0), rel=1e-12)
        assert cert.lam == pytest.approx(0.905, rel=1e-12)
        assert cert.k2 == pytest.approx(1609.5, rel=1e-12)
        assert cert.max_gain == pytest.approx(2.0, rel=1e-12)
        # D = s (1 + max gain) = 3 s, so D^2 / 2 = 9 * 804 / 2 = 3618.
        assert cert.log_beta == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 3618.0, rel=1e-12)

    def test_offset_scales_with_ball_area(self):
        k10 = build_system(3, rho=10.0).cert.k
        k20 = build_system(3, rho=20.0).cert.k
        assert (k20 - 3.0) == 4.0 * (k10 - 3.0)

    def test_zero_dynamics_uses_gamma_floor(self):
        cert = zero_system(1).cert
        assert cert.gamma == 0.0
        assert cert.c == 0.0
        assert cert.k == 1.0
        # r_hat divides by gamma; a zero rate falls back to the floor.
        assert cert.r_hat == pytest.approx(
            2.0 / (GAMMA_FLOOR * (1.0 - GAMMA_FLOOR)), rel=1e-12)

    def test_expanding_exterior_not_certifiable(self):
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, math.inf),),
                          dynamics=((np.eye(1) * 1.1, np.zeros((1, 1))),))
        policy = Policy(pi=np.zeros((1, 1)))
        cl = closed_loop(model, policy)
        cls_ = classify_regions(model, 1.0)
        with pytest.raises(NotCertifiable) as info:
            certify(cl, cls_, 1.0, 1)
        assert info.value.gamma == pytest.approx(1.21)
        assert info.value.region_index == 0

    def test_dimension_must_match_closed_loop(self):
        # A wrong n would silently enter K = n + c rho^2.
        sys = build_system(1)
        cls_ = classify_regions(sys.model, CASE_RHO)
        with pytest.raises(ValueError, match="dimension 1"):
            certify(sys.cl, cls_, CASE_RHO, 5)

    def test_lambda_choice_validated(self):
        sys = build_system(1)
        cls_ = classify_regions(sys.model, CASE_RHO)
        with pytest.raises(ValueError):
            certify(sys.cl, cls_, CASE_RHO, 1, lambda_choice=0.5)
        cert = certify(sys.cl, cls_, CASE_RHO, 1, lambda_choice=0.99)
        assert cert.lam == 0.99


class TestBetaLowerBound:
    def test_closed_form(self):
        sys = build_system(1)
        s = sys.cert.s_radius
        d = s * (1.0 + 2.0)
        expected = -0.5 * math.log(2 * math.pi) - 0.5 * d * d
        assert beta_lower_bound(sys.cl, s, 1) == pytest.approx(
            expected, rel=1e-15)

    def test_monotone_in_radius(self):
        sys = build_system(2)
        assert beta_lower_bound(sys.cl, 2.0, 2) > \
            beta_lower_bound(sys.cl, 3.0, 2)

    def test_negative_radius_rejected(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            beta_lower_bound(sys.cl, -1.0, 1)

    def test_worst_displacement_attained_for_uniform_gain(self):
        # Single global gain: the displacement bound s (1 + ||Ahat||) is
        # attained exactly at antipodal boundary points.
        model = SldsModel(n=2, p=1, regions=(radial_shell(0.0, math.inf),),
                          dynamics=((0.9 * np.eye(2), np.zeros((2, 1))),))
        cl = closed_loop(model, Policy(pi=np.zeros((1, 2))))
        s = 5.0
        x = np.array([s, 0.0])
        y = -x
        attained = float(np.linalg.norm(y - cl.ahat[0] @ x))
        assert attained == pytest.approx(s * 1.9, rel=1e-12)

        rng = np.random.default_rng(1)
        worst = max(
            float(np.linalg.norm(sample_in_ball(2, s, rng)
                                 - cl.ahat[0] @ sample_in_ball(2, s, rng)))
            for _ in range(4000))
        assert worst <= s * 1.9 + 1e-9

    def test_displacement_bound_valid_for_region_dependent_gains(self):
        # With region-dependent gains the closed form is conservative:
        # every realizable displacement stays below D = s (1 + max gain).
        sys = build_system(1)
        s = sys.cert.s_radius
        d_cap = s * (1.0 + sys.cert.max_gain)
        rng = np.random.default_rng(2)
        for _ in range(4000):
            x = sample_in_ball(1, s, rng)
            y = sample_in_ball(1, s, rng)
            j = region_of(sys.model, x)
            assert float(np.linalg.norm(y - sys.cl.ahat[j] @ x)) <= d_cap


class TestDriftCheck:
    @pytest.mark.parametrize("n", [1, 2, 10])
    def test_both_inequalities_hold_on_benchmark(self, n):
        sys = build_system(n)
        rng = np.random.default_rng(100 + n)
        xs = rng.standard_normal((2000, n)) * (2.0 * CASE_RHO)
        report = drift_check(sys.cl, sys.model, sys.cert, xs)
        assert report.ok
        assert report.worst_quadratic_margin <= 0.0
        assert report.worst_scaled_margin <= 0.0
        assert report.num_samples == 2000

    def test_scaled_inequality_fails_in_high_dimension(self):
        # For 2n > (1 - gamma)(n + c rho^2 + 1) there is a shell just
        # outside S on which the scaled form is violated; the quadratic
        # form still holds everywhere.
        n = 50
        sys = build_system(n)
        lim = math.sqrt(4.0 * n / (1.0 - sys.cert.gamma))
        assert sys.cert.s_radius < lim
        rng = np.random.default_rng(8)
        radius = 0.5 * (sys.cert.s_radius + lim)
        dirs = rng.standard_normal((200, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        report = drift_check(sys.cl, sys.model, sys.cert, radius * dirs,
                             raise_on_violation=False)
        assert not report.quadratic_violations
        assert len(report.scaled_violations) == 200

    def test_violation_raises_with_samples_attached(self):
        sys = build_system(1)
        doctored = dataclasses.replace(sys.cert, gamma=0.5, k=1.0)
        with pytest.raises(DriftViolation) as info:
            drift_check(sys.cl, sys.model, doctored,
                        np.array([[50.0]]))
        assert len(info.value.violations) >= 1

    @staticmethod
    def rotated_poly4():
        """The four-quadrant model with its worst-gain region an
        isometry scaled to that gain, 0.7 R(0.3): the quadratic drift
        holds there with equality in exact arithmetic."""
        c, s = math.cos(0.3), math.sin(0.3)
        model, cl, _ = poly4(worst=0.7 * np.array([[c, -s], [s, c]]))
        cert = certify(cl, classify_regions(model, 1.0), 1.0, 2)
        rng = np.random.default_rng(9)
        xs = np.array([sample_in_ball(2, 2.0 * cert.s_radius, rng)
                       for _ in range(1000)])
        return model, cl, cert, xs

    def test_rounding_at_equality_is_no_violation(self):
        model, cl, cert, xs = self.rotated_poly4()
        report = drift_check(cl, model, cert, xs, raise_on_violation=False)
        assert not report.quadratic_violations
        # Rounding does put the attained side above the bound, by ulps.
        assert 0.0 < report.worst_quadratic_margin < 1e-13

    def test_relative_violation_of_1e9_is_reported(self):
        model, cl, cert, xs = self.rotated_poly4()
        shrunk = dataclasses.replace(cert, gamma=cert.gamma * (1 - 1e-9),
                                     k=cert.k * (1 - 1e-9))
        report = drift_check(cl, model, shrunk, xs, raise_on_violation=False)
        in_worst = sum(region_of(model, x) == 3 for x in xs)
        assert len(report.quadratic_violations) == in_worst > 0

    def test_exactness_against_manual_expectation(self):
        sys = build_system(2)
        x = np.array([3.0, -4.0])
        report = drift_check(sys.cl, sys.model, sys.cert, x,
                             raise_on_violation=False)
        j = region_of(sys.model, x)
        pv = float(np.dot(sys.cl.ahat[j] @ x, sys.cl.ahat[j] @ x)) + 2
        bound = sys.cert.gamma * 25.0 + sys.cert.k
        assert report.worst_quadratic_margin == pytest.approx(pv - bound)


class TestGaussianOverlap:
    def test_identical_means(self):
        assert gaussian_overlap(np.zeros(3), np.zeros(3)) == 1.0

    def test_known_separation(self):
        # Means two apart: overlap is 2 Phi(-1).
        v = gaussian_overlap(np.array([0.0]), np.array([2.0]))
        assert v == pytest.approx(0.31731050786291415, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_overlap(np.zeros(2), np.zeros(3))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = float(rng.uniform(0.1, 6.0))
            oracle, err = integrate.quad(
                lambda t: min(stats.norm.pdf(t), stats.norm.pdf(t - d)),
                -40.0, 40.0, points=[d / 2.0], limit=200)
            assert err < 1e-9
            got = gaussian_overlap(np.zeros(1), np.array([d]))
            assert got == pytest.approx(oracle, abs=1e-8)

    def test_log_form_survives_large_separation(self):
        lo = log_gaussian_overlap(np.zeros(1), np.array([100.0]))
        assert math.isfinite(lo)
        assert lo < -1000.0
        mid = log_gaussian_overlap(np.zeros(1), np.array([3.0]))
        assert math.exp(mid) == pytest.approx(
            gaussian_overlap(np.zeros(1), np.array([3.0])), rel=1e-12)

    def test_equals_scipy_stats_norm_forms_bitwise(self):
        # The overlap calls scipy.special directly, so that scipy.stats
        # stays unloaded; the doubles are those of the stats.norm forms.
        for d in np.linspace(0.0, 80.0, 801):
            mu = np.array([d])
            assert gaussian_overlap(np.zeros(1), mu) == \
                2.0 * float(stats.norm.cdf(-d / 2.0))
            assert log_gaussian_overlap(np.zeros(1), mu) == \
                math.log(2.0) + float(stats.norm.logcdf(-d / 2.0))


class TestBallVolume:
    def test_low_dimensional_formulas(self):
        assert log_ball_volume(1, 3.0) == pytest.approx(math.log(6.0))
        assert log_ball_volume(2, 2.0) == pytest.approx(
            math.log(math.pi * 4.0))
        assert log_ball_volume(3, 1.5) == pytest.approx(
            math.log(4.0 / 3.0 * math.pi * 1.5 ** 3))
        assert log_ball_volume(2, 0.0) == -math.inf


class TestSampleInBall:
    def test_support_and_radial_law(self):
        rng = np.random.default_rng(6)
        r = 2.5
        xs = np.array([sample_in_ball(3, r, rng) for _ in range(10_000)])
        norms = np.linalg.norm(xs, axis=1)
        assert norms.max() <= r
        # E||x||^2 = n r^2 / (n + 2) under the uniform ball law.
        target = 3.0 * r * r / 5.0
        se = float(np.std(norms ** 2, ddof=1)) / 100.0
        assert abs(float(np.mean(norms ** 2)) - target) < 4 * se

    def test_one_dimensional_is_uniform(self):
        rng = np.random.default_rng(7)
        r = 4.0
        xs = np.array([sample_in_ball(1, r, rng)[0] for _ in range(4000)])
        p = stats.kstest(xs, stats.uniform(loc=-r, scale=2 * r).cdf).pvalue
        assert p > 0.01


class TestMinorizationCheck:
    def test_benchmark_boxes_hold(self):
        sys = build_system(1)
        report = minorization_check(
            sys.cl, sys.model, sys.cert,
            boxes=[(np.array([-1.0]), np.array([1.0])),
                   (np.array([2.0]), np.array([5.0]))],
            points=[np.array([0.0]), np.array([9.0]), np.array([20.0])])
        assert report.ok
        assert len(report.cases) == 6

    def test_center_box_mass_is_exact(self):
        sys = build_system(1)
        report = minorization_check(
            sys.cl, sys.model, sys.cert,
            boxes=[(np.array([-1.0]), np.array([1.0]))],
            points=[np.array([0.0])])
        # From the origin the next state is standard normal.
        assert report.cases[0].log_p == pytest.approx(
            math.log(2 * stats.norm.cdf(1.0) - 1.0), rel=1e-12)

    def test_box_outside_support_is_vacuous(self):
        sys = build_system(1)
        s = sys.cert.s_radius
        report = minorization_check(
            sys.cl, sys.model, sys.cert,
            boxes=[(np.array([s + 1.0]), np.array([s + 2.0]))],
            points=[np.array([0.0])])
        assert report.cases[0].log_rhs == -math.inf
        assert report.ok

    def test_forged_constant_detected(self):
        sys = build_system(1)
        forged = dataclasses.replace(sys.cert, log_beta=0.0)
        with pytest.raises(MinorizationViolation):
            minorization_check(
                sys.cl, sys.model, forged,
                boxes=[(np.array([-1.0]), np.array([1.0]))],
                points=[np.array([sys.cert.s_radius])])

    def test_input_validation(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            minorization_check(sys.cl, sys.model, sys.cert, boxes=[],
                               points=[np.array([100.0])])
        sys4 = build_system(4)
        with pytest.raises(ValueError):
            minorization_check(sys4.cl, sys4.model, sys4.cert, boxes=[],
                               points=[])
