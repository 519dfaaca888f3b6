"""Tail-bound evaluation, required-sample formulas, empirical validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from sldsim import (
    BoundConstants,
    Certificate,
    ClosedLoop,
    DivergenceError,
    bound_terms,
    build_case_study,
    certify,
    classify_regions,
    closed_loop,
    required_samples,
    simulate,
    validate_bound,
)
import sldsim.model as model_mod
from sldsim.model import lockstep

from conftest import build_system, contracting_system, dense_shells, quadrants

# Benchmark chain: n = 1, gamma = 0.81, c = 4, rho = 10, and the
# operational constant for a worst gain of 2.
BETA_OP = 0.053990966513188056


def toy_certificate(n=1, gamma=0.5, log_beta=math.log(0.5)):
    """A certificate with hand-picked headline constants.

    Only ``n``, ``gamma``, ``c``, ``rho_ball``, and ``log_beta`` feed the
    bound formulas; the remaining fields are carried verbatim.
    """
    return Certificate(n=n, rho_ball=1.0, gamma=gamma, c=0.0, k=float(n),
                       r_hat=1.0, s_radius=1.0, lam=(1 + gamma) / 2,
                       k2=1.0, log_beta=log_beta, max_gain=1.0)


class TestBoundConstants:
    def test_defaults_are_unit(self):
        c = BoundConstants()
        assert c.o1 == c.o2 == c.o3 == 1.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            BoundConstants(o1=0.0)
        with pytest.raises(ValueError):
            BoundConstants(c_1_sq=-2.0)
        with pytest.raises(ValueError):
            BoundConstants(c_2as0=math.nan)

    def test_o3_zero_allowed(self):
        assert BoundConstants(o3=0.0).o3 == 0.0
        with pytest.raises(ValueError):
            BoundConstants(o3=-1.0)


class TestRequiredSamples:
    def test_benchmark_defaults(self):
        sys = build_system(1)
        req = required_samples(sys.cert, eps=0.5, delta=0.2)
        assert req.raw_operational == pytest.approx(
            3899.2877769293077, rel=1e-12)
        assert req.n_operational == 3900
        assert req.n_certified == math.inf
        assert req.raw_certified_log == pytest.approx(
            3624.2685491941403, rel=1e-12)

    def test_beta_op_default_matches_operational_constant(self):
        sys = build_system(1)
        a = required_samples(sys.cert, 0.5, 0.2)
        b = required_samples(sys.cert, 0.5, 0.2, beta_op=BETA_OP)
        assert a.raw_operational == pytest.approx(b.raw_operational,
                                                  rel=1e-13)

    def test_argument_validation(self):
        sys = build_system(1)
        for bad in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                required_samples(sys.cert, bad, 0.2)
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                required_samples(sys.cert, 0.5, bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="x0_norm_sq"):
                required_samples(sys.cert, 0.5, 0.2, x0_norm_sq=bad)
        for bad in (0.0, 1.5):
            with pytest.raises(ValueError):
                required_samples(sys.cert, 0.5, 0.2, beta_op=bad)

    def test_start_state_enters_numerator(self):
        sys = build_system(1)
        base = required_samples(sys.cert, 0.5, 0.2)
        moved = required_samples(sys.cert, 0.5, 0.2, x0_norm_sq=4.0)
        # numerator grows from 2 to 2 + gamma * 4
        expect = (2.0 + 0.81 * 4.0) / 2.0
        assert moved.raw_operational / base.raw_operational == (
            pytest.approx(expect, rel=1e-13))


class TestExactScaling:
    """Dyadic parameters make every rescaling exact in floating point."""

    CONSTS = BoundConstants(o3=0.0)

    def base(self, **kw):
        cert = toy_certificate(n=kw.pop("n", 1),
                               gamma=kw.pop("gamma", 0.5))
        args = dict(eps=0.5, delta=0.25, beta_op=0.5, consts=self.CONSTS)
        args.update(kw)
        return required_samples(cert, **args)

    def test_base_point_is_exact(self):
        req = self.base()
        assert req.raw_operational == 64.0
        assert req.n_operational == 64

    def test_dimension_doubles_count(self):
        assert self.base(n=2).raw_operational == 128.0

    def test_eps_scaling_is_inverse_square(self):
        assert self.base(eps=0.25).raw_operational == 256.0

    def test_delta_scaling_is_inverse(self):
        assert self.base(delta=0.125).raw_operational == 128.0

    def test_beta_scaling_is_inverse(self):
        assert self.base(beta_op=0.25).raw_operational == 128.0

    def test_gamma_enters_through_one_minus(self):
        assert self.base(gamma=0.75).raw_operational == 128.0

    def test_start_state_term_is_additive(self):
        req = required_samples(toy_certificate(), eps=0.5, delta=0.25,
                               beta_op=0.5, consts=self.CONSTS,
                               x0_norm_sq=4.0)
        # numerator 1 + 0.5 * 4 = 3, three times the base point
        assert req.raw_operational == 192.0

    def test_nondyadic_delta_still_scales_exactly(self):
        a = self.base(delta=0.2).raw_operational
        b = self.base(delta=0.1).raw_operational
        assert b / a == 2.0


class TestBoundTerms:
    def test_benchmark_values_at_required_n(self):
        sys = build_system(1)
        rep = bound_terms(sys.cert, n_steps=3900)
        assert rep.pi_vhat_bound == pytest.approx(201.5, rel=1e-14)
        assert rep.rbar_vhat_norm_sq_bound == pytest.approx(
            2.0 / 0.19, rel=1e-14)
        assert rep.e_x_vhat_bound == pytest.approx(201.5, rel=1e-14)
        assert rep.term_cross == pytest.approx(
            4.350877192982457, rel=1e-12)
        assert rep.term_c1_sq == pytest.approx(
            0.0005578047683310844, rel=1e-12)
        assert rep.term_sigma2_c0 == pytest.approx(
            0.055782033980414564, rel=1e-12)
        assert rep.term_sigma2_c0_sq == pytest.approx(
            3.583716852947623e-05, rel=1e-12)
        assert rep.term_leading_operational == pytest.approx(
            1880.0988545706603, rel=1e-12)
        assert rep.log_term_leading_certified == pytest.approx(
            3623.53907963666, rel=1e-12)
        assert rep.total_operational == pytest.approx(
            1884.5061074395599, rel=1e-12)
        assert rep.total_operational == pytest.approx(
            rep.term_leading_operational + rep.term_cross + rep.term_c1_sq
            + rep.term_sigma2_c0 + rep.term_sigma2_c0_sq, rel=1e-15)

    def test_start_state_shifts_moment_bound(self):
        sys = build_system(1)
        rep = bound_terms(sys.cert, n_steps=100, x0_norm_sq=4.0)
        assert rep.e_x_vhat_bound == pytest.approx(
            201.5 + 0.19 * 0.81 * 4.0 / 2.0, rel=1e-14)

    def test_decay_rates(self):
        sys = build_system(1)
        lo = bound_terms(sys.cert, n_steps=1024)
        hi = bound_terms(sys.cert, n_steps=2048)
        # Power-of-two N makes each decay factor exact.
        assert hi.term_leading_operational == (
            lo.term_leading_operational / 2.0)
        assert hi.term_cross == lo.term_cross / 2.0
        assert hi.term_c1_sq == lo.term_c1_sq / 4.0
        assert hi.term_sigma2_c0 == lo.term_sigma2_c0 / 4.0
        assert hi.term_sigma2_c0_sq == lo.term_sigma2_c0_sq / 8.0
        assert hi.log_term_leading_certified == pytest.approx(
            lo.log_term_leading_certified - math.log(2.0), rel=1e-12)

    def test_argument_validation(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            bound_terms(sys.cert, n_steps=0)
        for bad in (-0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="x0_norm_sq"):
                bound_terms(sys.cert, n_steps=100, x0_norm_sq=bad)

    def test_term_past_the_double_range_is_refused(self):
        # rho**4 overflows above rho = 1.2e77: the variance terms are
        # inf, or inf / inf once N**2 overflows too, never a NaN.
        cert = dataclasses.replace(build_system(1).cert, rho_ball=1e80)
        for n_steps in (100, 10**200):
            with pytest.raises(ValueError, match="term_sigma2_c0 overflows"):
                bound_terms(cert, n_steps, beta_op=BETA_OP)
        # At rho = 1e70 only the powers of N overflow: those terms read 0.
        cert = dataclasses.replace(cert, rho_ball=1e70)
        rep = bound_terms(cert, 10**200, beta_op=BETA_OP)
        assert rep.term_sigma2_c0 == rep.term_sigma2_c0_sq == 0.0
        assert 0 < rep.term_cross < math.inf

    def test_beta_op_outside_unit_interval_is_refused(self):
        # Both functions check a passed-in beta_op the same way: zero used
        # to divide by zero in bound_terms, and 2, -1 or NaN gave a total.
        sys = build_system(1)
        for bad in (0.0, 2.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="beta_op"):
                bound_terms(sys.cert, 100, beta_op=bad)
            with pytest.raises(ValueError, match="beta_op"):
                required_samples(sys.cert, 0.5, 0.2, beta_op=bad)
        assert bound_terms(sys.cert, 100, beta_op=1.0).total_operational > 0
        assert bound_terms(sys.cert, 100).total_operational == \
            bound_terms(sys.cert, 100, beta_op=BETA_OP).total_operational


class TestValidateBound:
    def test_loose_epsilon_passes(self):
        sys = build_system(1)
        val = validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                             eps=5.0, delta=0.2, trials=3, rho_star=12.0)
        assert val.n_used == 39
        assert val.trials == 3
        assert val.passed
        assert val.threshold == pytest.approx(
            0.2 + 2 * math.sqrt(0.2 * 0.8 / 3), rel=1e-12)
        assert val.failure_rate == val.failures / 3

    def test_deterministic_given_master_seed(self):
        sys = build_system(1)
        kw = dict(eps=5.0, delta=0.2, trials=4, rho_star=12.0,
                  master_seed=7)
        a = validate_bound(sys.cl, sys.model, sys.spec, sys.cert, **kw)
        b = validate_bound(sys.cl, sys.model, sys.spec, sys.cert, **kw)
        assert a == b

    def test_impossible_target_fails(self):
        sys = build_system(1)
        val = validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                             eps=0.5, delta=0.2, trials=2, rho_star=1e6,
                             beta_op=0.5)
        assert val.failures == 2
        assert not val.passed

    def test_trials_validated(self):
        sys = build_system(1)
        with pytest.raises(ValueError):
            validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                           eps=1.0, delta=0.2, trials=0, rho_star=0.0)

    @pytest.mark.parametrize("rho_star", [math.nan, math.inf])
    def test_rho_star_must_be_finite(self, rho_star):
        # Every comparison with NaN is False: 0 failures would pass.
        sys = build_system(1)
        with pytest.raises(ValueError, match="rho_star"):
            validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                           eps=1.0, delta=0.2, trials=20, rho_star=rho_star)

    def test_unfinishable_count_is_refused(self, monkeypatch):
        # Just under the divergence guard, the README model asks for a
        # 302-digit count; lockstep refuses it before any step.
        sys = contracting_system(1)
        x0 = np.array([1e149])
        assert required_samples(sys.cert, 0.5, 0.2,
                                x0_norm_sq=1e298).n_operational > 10**300

        def unreachable(*args):
            raise AssertionError("validate_bound stepped its trials")

        for stepper in ("_lockstep", "_float_chain"):
            monkeypatch.setattr(model_mod, stepper, unreachable)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            validate_bound(sys.cl, sys.model, sys.spec, sys.cert, eps=0.5,
                           delta=0.2, trials=1, rho_star=1.0, x0=x0)

    def test_start_state_may_be_a_list(self):
        sys = build_system(1)
        kw = dict(eps=5.0, delta=0.2, trials=3, rho_star=12.0)
        assert validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                              x0=[1.0], **kw) == \
            validate_bound(sys.cl, sys.model, sys.spec, sys.cert,
                           x0=np.array([1.0]), **kw)


def per_trial_validation(cl, model, spec, n_used, trials, x0,
                         master_seed=0):
    """The per-trial loop that ran ``validate_bound``'s trials before the
    lockstep kernel, kept as its oracle: each trial's reward average over
    ``x_1 .. x_{n_used}`` of its own :func:`simulate` trajectory."""
    averages = []
    for trial in range(trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(7, trial)))
        traj = simulate(cl, model, spec, x0, n_used + 1, rng)
        averages.append(float(np.mean(traj.rewards[1:])))
    return np.array(averages)


def with_certificate(system, rho):
    model, cl, spec = system
    cert = certify(cl, classify_regions(model, rho), rho, model.n)
    return model, cl, spec, cert


class TestValidateBoundOracle:
    """``validate_bound`` runs its trials in lockstep; the per-trial loop
    decides the same failures, with averages equal to 1e-12."""

    @pytest.mark.parametrize("name, trials, eps, x0", [
        ("case1", 140, 0.5, None),          # two lockstep groups
        ("case3", 30, 2.0, [12.0, 0.0, -3.0]),
        ("dense2", 30, 0.4, None),          # dense shells, quadratic reward
        ("quadrants", 30, 1.0, [3.0, -1.0]),
    ])
    def test_matches_per_trial_loop(self, name, trials, eps, x0):
        if name.startswith("case"):
            s = build_system(int(name[-1]))
            model, cl, spec, cert = s.model, s.cl, s.spec, s.cert
        elif name == "dense2":
            model, cl, spec, cert = with_certificate(dense_shells(2),
                                                     2.5 * math.sqrt(2))
        else:
            model, cl, spec, cert = with_certificate(quadrants(), 1.0)
        x0 = None if x0 is None else np.array(x0)
        n_used = validate_bound(cl, model, spec, cert, eps=eps, delta=0.2,
                                trials=1, rho_star=0.0, beta_op=0.5,
                                x0=x0).n_used
        assert 50 < n_used < 2000
        want = per_trial_validation(cl, model, spec, n_used, trials,
                                    np.zeros(model.n) if x0 is None else x0)
        rngs = [np.random.default_rng(np.random.SeedSequence(0,
                                                             spawn_key=(7, t)))
                for t in range(trials)]
        _, totals = lockstep(cl, model, spec, rngs, n_used, x0)
        np.testing.assert_allclose(totals / n_used, want, rtol=1e-12, atol=0)
        # rho_star an eps above the median average fails the lower half;
        # an eps below it, the upper half.
        for shift in (eps, -eps):
            rho_star = float(np.median(want)) + shift
            val = validate_bound(cl, model, spec, cert, eps=eps, delta=0.2,
                                 trials=trials, rho_star=rho_star,
                                 beta_op=0.5, x0=x0)
            assert val.n_used == n_used
            assert val.failures == int(np.sum(np.abs(want - rho_star) > eps))
            assert 0 < val.failures < trials

    def test_divergence_raises(self):
        s = build_system(1)
        model, policy, spec = build_case_study(1, 3.0, 3.0, 10.0)
        with pytest.raises(DivergenceError) as info:
            validate_bound(closed_loop(model, policy), model, spec, s.cert,
                           eps=0.5, delta=0.2, trials=3, rho_star=0.0)
        assert info.value.norm > 1e150

    def test_nan_state_raises(self):
        # A NaN gain makes every norm NaN, which no ``>`` comparison flags.
        s = build_system(1)
        cl = ClosedLoop(ahat=(np.full((1, 1), np.nan),) * 2,
                        ahat_norms=s.cl.ahat_norms)
        with pytest.raises(DivergenceError) as info:
            validate_bound(cl, s.model, s.spec, s.cert, eps=0.5, delta=0.2,
                           trials=3, rho_star=0.0)
        assert math.isnan(info.value.norm)
        assert info.value.step_index == 1
