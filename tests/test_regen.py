"""Split-chain mechanics, regeneration bookkeeping, and block estimators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from sldsim import (
    DivergenceError,
    InsufficientBlocks,
    Minorization,
    MinorizationViolation,
    NoRegeneration,
    Policy,
    RegenerationLog,
    RewardSpec,
    SldsModel,
    check_minorization_pointwise,
    closed_loop,
    decompose_sum,
    estimate_all,
    estimate_invariant_prob,
    estimate_reward,
    estimate_sigma2_as,
    iid_debug_minorization,
    log_ball_volume,
    operational_minorization,
    radial_shell,
    rewards_of,
    simulate,
    simulate_regenerative,
    split_step,
)

from sldsim.regen import _log_volume_below_one

from conftest import build_system, contracting_system, zero_system


class TestMinorization:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            Minorization(n=1, s_radius=1.0, log_beta=-1.0, kind="box")

    def test_from_certificate(self):
        sys = build_system(1)
        minor = Minorization.from_certificate(sys.cert)
        assert minor.s_radius == sys.cert.s_radius
        assert minor.log_beta == sys.cert.log_beta
        assert minor.kind == "ball"

    def test_ball_density_and_support(self):
        minor = Minorization(n=1, s_radius=2.0, log_beta=-1.0)
        assert minor.contains(np.array([1.5]))
        assert not minor.contains(np.array([2.5]))
        # Uniform density 1 / (2 r) inside, zero outside.
        assert minor.log_density(np.array([0.5])) == pytest.approx(
            -math.log(4.0))
        assert minor.log_density(np.array([3.0])) == -math.inf

    def test_gaussian_density(self):
        minor = iid_debug_minorization(2)
        assert minor.contains(np.array([1e6, 0.0]))
        assert minor.beta() == 1.0
        y = np.array([1.0, -2.0])
        expected = -math.log(2 * math.pi) - 0.5 * 5.0
        assert minor.log_density(y) == pytest.approx(expected, rel=1e-12)

    def test_sample_stays_in_support(self):
        minor = Minorization(n=3, s_radius=1.5, log_beta=-1.0)
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert np.linalg.norm(minor.sample(rng)) <= 1.5


class TestOperationalMinorization:
    def test_benchmark_values(self):
        sys = build_system(1)
        op = operational_minorization(sys.cert)
        # Worst gain 2 gives default radius 2/3 and displacement 2.
        assert op.s_radius == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert op.log_beta == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 2.0, rel=1e-15)
        assert math.exp(op.log_beta) == pytest.approx(
            0.053990966513188056, rel=1e-13)

    def test_radius_override(self):
        sys = build_system(1)
        op = operational_minorization(sys.cert, radius=0.5)
        d = 0.5 * 3.0
        # One-dimensional ball volume at radius 1/2 is exactly 1, the
        # clamp boundary.
        assert op.log_beta == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 0.5 * d * d, rel=1e-15)
        with pytest.raises(ValueError):
            operational_minorization(sys.cert, radius=0.0)

    def test_volume_discount_only_when_small(self):
        sys = build_system(2)
        big = operational_minorization(sys.cert, radius=10.0)
        base = -1.0 * math.log(2 * math.pi) - 0.5 * 30.0 ** 2
        assert big.log_beta == pytest.approx(base, rel=1e-12)
        tiny = operational_minorization(sys.cert, radius=1e-3)
        vol = math.log(math.pi * 1e-6)
        base_t = -math.log(2 * math.pi) - 0.5 * (3e-3) ** 2
        assert tiny.log_beta == pytest.approx(base_t + vol, rel=1e-12)

    def test_volume_clamp_is_the_gammaln_form(self):
        # Balls clearly above volume 1 skip scipy.special; the clamp is
        # min(0, log_ball_volume) bit for bit either way.
        for n in (1, 2, 3, 10, 50, 200, 1000):
            unit = math.exp((math.lgamma(n / 2.0 + 1.0)
                             - (n / 2.0) * math.log(math.pi)) / n)
            for f in (1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, 1e3):
                r = unit * f
                assert _log_volume_below_one(n, r) == \
                    min(0.0, log_ball_volume(n, r))
        assert _log_volume_below_one(1, 0.5) == 0.0   # volume exactly 1

    def test_zero_dynamics_radius(self):
        sys = zero_system(1)
        op = operational_minorization(sys.cert)
        assert op.s_radius == pytest.approx(2.0)
        assert op.log_beta == pytest.approx(
            -0.5 * math.log(2 * math.pi) - 2.0, rel=1e-15)


class TestPointwiseCheck:
    def test_valid_pair_has_nonnegative_margin(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        margin = check_minorization_pointwise(
            sys.cl, sys.model, op, np.random.default_rng(1))
        assert margin >= 0.0

    def test_inflated_constant_detected(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        forged = Minorization(n=1, s_radius=op.s_radius,
                              log_beta=op.log_beta + 3.0)
        with pytest.raises(MinorizationViolation):
            check_minorization_pointwise(sys.cl, sys.model, forged,
                                         np.random.default_rng(1))


class TestSampleNuHat:
    def test_accepts_certificate_or_minorization(self):
        # The certified pair and the operational pair.
        sys = build_system(1)
        rng = np.random.default_rng(2)
        x = Minorization.from_certificate(sys.cert).sample(rng)
        assert abs(x[0]) <= sys.cert.s_radius
        op = operational_minorization(sys.cert)
        y = op.sample(rng)
        assert abs(y[0]) <= op.s_radius


class TestSplitStep:
    def test_beta_op_validated(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        rng = np.random.default_rng(3)
        x = np.zeros(1)
        with pytest.raises(ValueError):
            split_step(x, sys.cl, sys.model, op, 0.0, rng)
        with pytest.raises(ValueError):
            split_step(x, sys.cl, sys.model, op, 1.5, rng)
        # Larger than the certified constant: the residual kernel would
        # be signed.
        with pytest.raises(ValueError):
            split_step(x, sys.cl, sys.model, op, 0.1, rng)

    def test_outside_small_set_never_regenerates(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        beta = math.exp(op.log_beta)
        rng = np.random.default_rng(4)
        x = np.array([30.0])
        outs = []
        for _ in range(2000):
            theta, nxt = split_step(x, sys.cl, sys.model, op, beta, rng)
            assert theta == 0
            outs.append(nxt[0])
        # Plain Gaussian step around 0.9 * 30.
        assert np.mean(outs) == pytest.approx(27.0,
                                              abs=4.0 / math.sqrt(2000))

    def test_marginal_kernel_preserved_inside_small_set(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        beta = math.exp(op.log_beta)
        rng = np.random.default_rng(5)
        x = np.array([0.3])
        draws = np.array([
            split_step(x, sys.cl, sys.model, op, beta, rng)[1][0]
            for _ in range(20_000)])
        # Exact one-step law is N(0.15, 1): inner gain 0.5.
        assert draws.mean() == pytest.approx(
            0.15, abs=4.0 / math.sqrt(draws.size))
        assert draws.std(ddof=1) ** 2 == pytest.approx(1.0, abs=0.06)

    def test_regeneration_frequency(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        beta = math.exp(op.log_beta)
        rng = np.random.default_rng(6)
        x = np.array([0.3])
        fired = sum(
            split_step(x, sys.cl, sys.model, op, beta, rng)[0]
            for _ in range(20_000))
        expect = 20_000 * beta
        assert abs(fired - expect) < 4 * math.sqrt(expect * (1 - beta))

    def test_tiny_beta_behaves_like_plain_chain(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        rng = np.random.default_rng(7)
        x = np.zeros(1)
        for _ in range(10_000):
            theta, x = split_step(x, sys.cl, sys.model, op, 1e-300, rng)
            assert theta == 0

    def test_minorization_violation_detected(self):
        # On the zero system the kernel is N(0, 1), but 0.5 times the
        # uniform density on [-5, 5] exceeds it wherever |y| > 1.85.
        sys = zero_system(1)
        minor = Minorization(n=1, s_radius=5.0, log_beta=math.log(0.5))
        with pytest.raises(MinorizationViolation):
            simulate_regenerative(sys.cl, sys.model, minor, 100,
                                  np.random.default_rng(27))
        rng = np.random.default_rng(28)
        with pytest.raises(MinorizationViolation):
            for _ in range(200):
                split_step(np.zeros(1), sys.cl, sys.model, minor, 0.5, rng)


def hand_log():
    states = np.arange(12.0)
    thetas = np.array([0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0], dtype=np.uint8)
    return states, thetas


class TestRegenerationLog:
    def test_bookkeeping_from_bits(self):
        states, thetas = hand_log()
        log = RegenerationLog.from_raw(states, thetas, horizon=6)
        assert log.taus == (3, 5, 9)
        assert log.blocks == ((3, 5), (5, 9))
        assert log.block_count == 2
        assert log.overshoot == 3
        assert log.states.shape[0] == 9

    def test_regeneration_at_horizon_is_not_closure(self):
        states, thetas = hand_log()
        log = RegenerationLog.from_raw(states, thetas, horizon=9)
        # tau = 9 equals the horizon, so the log runs to tau = 11.
        assert log.taus == (3, 5, 9, 11)
        assert log.overshoot == 2
        assert log.states.shape[0] == 11

    def test_open_log_when_nothing_fires_after_horizon(self):
        states, thetas = hand_log()
        log = RegenerationLog.from_raw(states, thetas, horizon=11)
        assert log.taus == (3, 5, 9, 11)
        assert log.overshoot is None
        assert log.states.shape[0] == 12

    def test_blocks_partition_the_span(self):
        states, thetas = hand_log()
        log = RegenerationLog.from_raw(states, thetas, horizon=6)
        assert sum(b - a for a, b in log.blocks) == (log.taus[-1]
                                                    - log.taus[0])
        for (a, b), (c, _) in zip(log.blocks[:-1], log.blocks[1:]):
            assert b == c

    def test_validation(self):
        states, thetas = hand_log()
        with pytest.raises(ValueError):
            RegenerationLog.from_raw(states, thetas, horizon=0)
        with pytest.raises(ValueError):
            RegenerationLog.from_raw(states, thetas[:-1], horizon=5)


class TestSimulateRegenerative:
    def test_closed_log_invariants(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        log = simulate_regenerative(sys.cl, sys.model, op, 2000,
                                    np.random.default_rng(8))
        assert log.overshoot is not None and log.overshoot >= 1
        assert log.states.shape[0] == 2000 + log.overshoot
        assert log.taus[-1] == log.states.shape[0]
        assert list(log.taus) == sorted(set(log.taus))
        assert sum(t > 2000 for t in log.taus) == 1

    def test_theta_zero_outside_small_set(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        log = simulate_regenerative(sys.cl, sys.model, op, 5000,
                                    np.random.default_rng(9))
        # A regeneration at tau is a bit on the step out of x_{tau - 1}.
        assert log.taus
        before = log.states[np.asarray(log.taus) - 1]
        assert np.all(np.linalg.norm(before, axis=1) <= op.s_radius)

    def test_regen_count_tracks_conditional_rate(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        beta = math.exp(op.log_beta)
        log = simulate_regenerative(sys.cl, sys.model, op, 20_000,
                                    np.random.default_rng(10))
        hits = int(np.sum(np.linalg.norm(log.states, axis=1)
                          <= op.s_radius))
        expect = beta * hits
        assert abs(len(log.taus) - expect) < 5 * math.sqrt(expect)

    def test_state_after_regeneration_is_nu_hat(self):
        # Given theta_t = 1, x_{t+1} is a draw from nu_hat: uniform on
        # the ball S, whatever x_t was.
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        log = simulate_regenerative(sys.cl, sys.model, op, 20_000,
                                    np.random.default_rng(31))
        fresh = log.states[np.asarray(log.taus[:-1]), 0]
        assert fresh.size >= 300
        assert np.all(np.abs(fresh) <= op.s_radius)
        uniform = stats.uniform(loc=-op.s_radius, scale=2 * op.s_radius)
        assert stats.kstest(fresh, uniform.cdf).pvalue > 0.01

    def test_iid_debug_regenerates_every_step(self):
        sys = zero_system(1)
        minor = iid_debug_minorization(1)
        log = simulate_regenerative(sys.cl, sys.model, minor, 50,
                                    np.random.default_rng(11))
        assert log.taus == tuple(range(1, 52))
        assert set(b - a for a, b in log.blocks) == {1}

    def test_open_log_fallback_when_chain_never_visits(self):
        # The benchmark chain orbits the rho ball and never reaches an
        # origin-centered operational set, so no regeneration occurs.
        sys = build_system(1)
        op = operational_minorization(sys.cert)
        log = simulate_regenerative(sys.cl, sys.model, op, 200,
                                    np.random.default_rng(12),
                                    x0=np.array([15.0]), max_extension=200)
        assert log.taus == ()
        assert log.overshoot is None
        with pytest.warns(UserWarning):
            est = estimate_reward(log, sys.spec)
        assert est.block_count == 0
        assert est.standard_error is None

    @pytest.mark.parametrize("make, x0", [
        (lambda: contracting_system(2), [1.0, 0.0]),
        (lambda: build_system(1), [15.0]),
        (lambda: build_system(10), [0.1] * 10),
    ], ids=["contracting-n2", "never-in-S-n1", "case-n10"])
    def test_states_are_the_plain_chain(self, make, x0):
        # The split chain's states are simulate's on the same generator.
        sys = make()
        op = operational_minorization(sys.cert)
        x0 = np.array(x0)
        log = simulate_regenerative(sys.cl, sys.model, op, 3000,
                                    np.random.default_rng(29),
                                    x0=x0, max_extension=100)
        plain = simulate(sys.cl, sys.model, sys.spec, x0, 3001,
                         np.random.default_rng(29)).states
        assert np.array_equal(log.states[:3001], plain)

    def test_divergence_raises(self):
        # Gain 2 everywhere: the chain overflows before any regeneration,
        # at the same step whether that lies in the first chunk or in an
        # extension chunk past a short horizon.
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0),),
                          dynamics=((np.array([[2.0]]), np.zeros((1, 1))),))
        cl = closed_loop(model, Policy(pi=np.zeros((1, 1))))
        minor = Minorization(n=1, s_radius=0.5, log_beta=-5.0)
        steps = []
        for horizon in (2000, 2):
            with pytest.raises(DivergenceError) as info:
                simulate_regenerative(cl, model, minor, horizon,
                                      np.random.default_rng(30),
                                      x0=np.array([1.0]),
                                      max_extension=2000)
            steps.append(info.value.step_index)
        assert steps[0] == steps[1] and 0 < steps[0] < 2000

    def test_argument_validation(self):
        sys = contracting_system(1)
        op = operational_minorization(sys.cert)
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            simulate_regenerative(sys.cl, sys.model, op, 1, rng)
        with pytest.raises(ValueError):
            simulate_regenerative(sys.cl, sys.model, op, 10, rng,
                                  x0=np.zeros(2))
        for log_beta in (0.5, math.nan):
            above_one = Minorization(n=1, s_radius=op.s_radius,
                                     log_beta=log_beta)
            with pytest.raises(ValueError, match=r"\(0, 1\]"):
                simulate_regenerative(sys.cl, sys.model, above_one, 10, rng)


def contracting_log(horizon=20_000, seed=14):
    sys = contracting_system(1)
    op = operational_minorization(sys.cert)
    log = simulate_regenerative(sys.cl, sys.model, op, horizon,
                                np.random.default_rng(seed))
    return sys, log


class TestEstimators:
    def test_constant_reward_is_exact(self):
        sys = zero_system(1)
        minor = iid_debug_minorization(1)
        log = simulate_regenerative(sys.cl, sys.model, minor, 500,
                                    np.random.default_rng(15))
        policy = Policy(pi=np.zeros((1, 1)))
        flat = RewardSpec.bind(Q=np.zeros((1, 1)), R=np.eye(1),
                               policy=policy)
        est = estimate_reward(log, flat)
        assert est.value == 0.0
        assert estimate_sigma2_as(log, flat, rho_hat=0.0) == 0.0

    def test_iid_half_normal_mean(self):
        sys = zero_system(1)
        minor = iid_debug_minorization(1)
        log = simulate_regenerative(sys.cl, sys.model, minor,
                                    100_000, np.random.default_rng(16))
        est = estimate_reward(log, sys.spec)
        target = math.sqrt(2.0 / math.pi)
        assert est.standard_error is not None
        assert abs(est.value - target) < 4 * est.standard_error
        # The bootstrap error bar must agree with the i.i.d. rate.
        iid_se = math.sqrt((1.0 - 2.0 / math.pi) / log.horizon)
        assert est.standard_error == pytest.approx(iid_se, rel=0.25)

    def test_two_seeds_agree_within_error(self):
        sys, log_a = contracting_log(seed=17)
        _, log_b = contracting_log(seed=18)
        a = estimate_reward(log_a, sys.spec, rng=np.random.default_rng(0))
        b = estimate_reward(log_b, sys.spec, rng=np.random.default_rng(0))
        gap = abs(a.value - b.value)
        assert gap < 4 * math.hypot(a.standard_error, b.standard_error)

    def test_invariant_prob_iid_oracle(self):
        sys = zero_system(1)
        minor = iid_debug_minorization(1)
        log = simulate_regenerative(sys.cl, sys.model, minor,
                                    40_000, np.random.default_rng(19))
        p = estimate_invariant_prob(log, lambda x: abs(x[0]) <= 1.0)
        target = 2 * stats.norm.cdf(1.0) - 1.0
        se = math.sqrt(target * (1 - target) / 40_000)
        assert abs(p - target) < 4 * se
        assert estimate_invariant_prob(log, lambda x: True) == 1.0
        assert estimate_invariant_prob(log, lambda x: False) == 0.0

    def test_invariant_prob_needs_two_blocks(self):
        states = np.zeros(10)
        thetas = np.zeros(10, dtype=np.uint8)
        thetas[4] = 1
        log = RegenerationLog.from_raw(states, thetas, horizon=3)
        with pytest.raises(InsufficientBlocks):
            estimate_invariant_prob(log, lambda x: True)

    def test_ratio_consistency_across_horizons(self):
        sys, log_short = contracting_log(horizon=5000, seed=20)
        _, log_long = contracting_log(horizon=20_000, seed=20)
        pred = lambda x: abs(x[0]) <= 2.0  # noqa: E731
        p_short = estimate_invariant_prob(log_short, pred)
        p_long = estimate_invariant_prob(log_long, pred)
        se = math.sqrt(0.25 / 5000) + math.sqrt(0.25 / 20_000)
        assert abs(p_short - p_long) < 5 * se

    def test_sigma2_matches_iid_variance(self):
        sys = zero_system(1)
        minor = iid_debug_minorization(1)
        log = simulate_regenerative(sys.cl, sys.model, minor,
                                    100_000, np.random.default_rng(21))
        rho = float(np.mean(rewards_of(log.states[:log.horizon],
                                       sys.spec)))
        s2 = estimate_sigma2_as(log, sys.spec, rho_hat=rho)
        target = 1.0 - 2.0 / math.pi
        assert abs(s2 - target) / target < 0.05

    def test_sigma2_needs_thirty_blocks(self):
        sys, log = contracting_log(horizon=2000, seed=22)
        bits = np.zeros(60, dtype=np.uint8)
        bits[[t - 1 for t in log.taus if t <= 60]] = 1
        small = RegenerationLog.from_raw(log.states[:60], bits, horizon=50)
        if small.block_count < 30:
            with pytest.raises(InsufficientBlocks):
                estimate_sigma2_as(small, sys.spec, rho_hat=1.0)

    def test_estimate_all_is_one_record(self):
        sys, log = contracting_log(horizon=5000, seed=32)
        est = estimate_all(log, sys.spec)
        plain = estimate_reward(log, sys.spec)
        assert est.value == plain.value
        assert est.standard_error == plain.standard_error
        assert est.block_count == log.block_count >= 30
        assert est.sigma2_as == estimate_sigma2_as(log, sys.spec, est.value)
        r = rewards_of(log.states, sys.spec)
        assert est.block_sums.tolist() == pytest.approx(
            [float(np.sum(r[a:b])) for a, b in log.blocks], rel=1e-12)
        assert plain.sigma2_as is None

    def test_estimate_all_without_blocks(self):
        sys = contracting_system(1)
        bits = np.zeros(50, dtype=np.uint8)
        bits[[9, 29]] = 1
        log = RegenerationLog.from_raw(np.zeros(50), bits, horizon=40)
        est = estimate_all(log, sys.spec)
        assert est.block_count == 1 and est.block_sums.shape == (1,)
        assert est.sigma2_as is None and est.standard_error is None

    def test_block_sums_are_exchangeable(self):
        sys, log = contracting_log(horizon=20_000, seed=23)
        r = rewards_of(log.states, sys.spec)
        sums = np.add.reduceat(r[: log.taus[-1]],
                               np.asarray(log.taus[:-1]))
        b = sums.size
        assert b >= 100
        lag1 = float(np.corrcoef(sums[:-1], sums[1:])[0, 1])
        assert abs(lag1) < 4.0 / math.sqrt(b)
        half = b // 2
        p = stats.ks_2samp(sums[:half], sums[half:]).pvalue
        assert p > 0.01


class TestDecomposeSum:
    def test_identity_on_simulated_log(self):
        sys, log = contracting_log(horizon=5000, seed=24)
        rho_hat = 0.9
        dec = decompose_sum(log, sys.spec, rho_hat)
        direct = float(np.sum(rewards_of(log.states[:5000], sys.spec)
                              - rho_hat))
        assert dec.head + dec.core - dec.tail == pytest.approx(
            direct, abs=1e-9 * 5000)

    def test_identity_at_reduced_horizon(self):
        sys, log = contracting_log(horizon=5000, seed=25)
        for n in (1, 100, 4999):
            dec = decompose_sum(log, sys.spec, 0.5, horizon=n)
            direct = float(np.sum(rewards_of(log.states[:n], sys.spec)
                                  - 0.5))
            assert dec.head + dec.core - dec.tail == pytest.approx(
                direct, abs=1e-9 * n)

    def test_errors(self):
        sys, log = contracting_log(horizon=2000, seed=26)
        with pytest.raises(ValueError):
            decompose_sum(log, sys.spec, 0.0, horizon=0)
        with pytest.raises(ValueError):
            decompose_sum(log, sys.spec, 0.0, horizon=log.horizon + 1)

        no_regen = RegenerationLog.from_raw(np.zeros(5),
                                            np.zeros(5, dtype=np.uint8),
                                            horizon=4)
        with pytest.raises(NoRegeneration):
            decompose_sum(no_regen, sys.spec, 0.0)

        bits = np.zeros(8, dtype=np.uint8)
        bits[2] = 1
        open_log = RegenerationLog.from_raw(np.zeros(8), bits, horizon=7)
        with pytest.raises(NoRegeneration):
            decompose_sum(open_log, sys.spec, 0.0)
