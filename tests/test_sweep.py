"""Stopping-rule experiments: config, fast paths, sweeps, pipeline."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from sldsim import (
    ConfigError,
    DivergenceError,
    MaxStepsExceeded,
    NoRegion,
    Policy,
    RewardSpec,
    SldsModel,
    SweepConfig,
    build_case_study,
    closed_loop,
    polyhedron,
    pseudo_sample_complexity,
    radial_shell,
    reference_reward_average,
    region_of,
    reward,
    run_pipeline,
    simulate,
    sweep_dimension,
    sweep_gamma,
    trial_seed_sequence,
)
import sldsim.sweep as sweep_mod
from sldsim.model import DIVERGENCE_LIMIT
from sldsim.sweep import (
    _fit_upper_half,
    sweep_config_from_dict,
    write_agg_csv,
    write_raw_csv,
)


def bench(n=1, gamma_root=0.9, c_root=2.0, rho=10.0):
    model, policy, spec = build_case_study(n, gamma_root, c_root, rho)
    return model, closed_loop(model, policy), spec


class TestSweepConfig:
    def test_desk_defaults(self):
        cfg = SweepConfig()
        assert cfg.dims == tuple(range(25, 201, 25))
        assert cfg.gammas == (0.5, 0.55, 0.6, 0.65, 0.7,
                              0.75, 0.8, 0.85, 0.9)
        assert cfg.gamma_dims == (10, 50)
        assert cfg.eps_stop == 1e-3
        assert cfg.trials == 100

    def test_validation(self):
        with pytest.raises(ConfigError):
            SweepConfig(dims=())
        with pytest.raises(ConfigError):
            SweepConfig(dims=(10, 5))
        with pytest.raises(ConfigError):
            SweepConfig(dims=(5, 5))
        with pytest.raises(ConfigError):
            SweepConfig(gammas=(0.5, 0.0))
        with pytest.raises(ConfigError):
            SweepConfig(gamma_root=0.0)
        with pytest.raises(ConfigError):
            SweepConfig(c_root=-1.0)
        with pytest.raises(ConfigError):
            SweepConfig(rho_ball=0.0)
        with pytest.raises(ConfigError):
            SweepConfig(eps_stop=0.0)
        with pytest.raises(ConfigError):
            SweepConfig(trials=0)
        with pytest.raises(ConfigError):
            SweepConfig(gamma_trials=0)
        with pytest.raises(ConfigError):
            SweepConfig(max_steps=0)

    def test_expanding_gains_are_configurable(self):
        # Certification owns the failure diagnostic, not the config.
        assert SweepConfig(gamma_root=1.2).gamma_root == 1.2
        assert SweepConfig(gammas=(0.5, 1.5)).gammas == (0.5, 1.5)

    def test_full_scale(self):
        cfg = SweepConfig.full_scale()
        assert cfg.dims[0] == 1 and cfg.dims[-1] == 1951
        assert cfg.eps_stop == 1e-10
        assert cfg.trials == 100_000
        assert cfg.gamma_trials == 10_000
        assert cfg.max_steps == 1_000_000_000
        small = SweepConfig.full_scale(trials=5)
        assert small.trials == 5 and small.eps_stop == 1e-10

    def test_from_dict(self):
        cfg = sweep_config_from_dict(
            {"dims": [1, 2], "trials": 7, "gammas": [0.5]})
        assert cfg.dims == (1, 2) and cfg.trials == 7
        with pytest.raises(ConfigError, match="bogus"):
            sweep_config_from_dict({"bogus": 3})
        with pytest.raises(ConfigError):
            sweep_config_from_dict({"trials": "ten"})


class TestBuildCaseStudy:
    def test_structure(self):
        model, policy, spec = build_case_study(3, 0.9, 2.0, 10.0)
        assert model.n == 3 and model.p == 1
        outer, inner = model.regions
        assert outer.r_lo == 10.0 and outer.r_hi == math.inf
        assert inner.r_lo == 0.0 and inner.r_hi == 10.0
        assert np.array_equal(model.dynamics[0][0], 0.9 * np.eye(3))
        assert np.array_equal(model.dynamics[1][0], 2.0 * np.eye(3))
        assert np.array_equal(policy.pi, np.zeros((1, 3)))
        assert spec.p_hat_is_identity

    def test_closed_loop_gains(self):
        model, cl, _ = bench(n=2)
        assert np.array_equal(cl.ahat[0], 0.9 * np.eye(2))
        assert np.array_equal(cl.ahat[1], 2.0 * np.eye(2))

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_case_study(1, 0.0, 2.0, 10.0)
        with pytest.raises(ConfigError):
            build_case_study(1, 0.9, -1.0, 10.0)


class TestPseudoSampleComplexity:
    def test_constant_zero_reward_stops_immediately(self):
        region = radial_shell(0.0, math.inf)
        model = SldsModel(n=1, p=1, regions=(region,),
                          dynamics=((np.zeros((1, 1)), np.zeros((1, 1))),))
        policy = Policy(pi=np.zeros((1, 1)))
        spec = RewardSpec.bind(Q=np.zeros((1, 1)), R=np.eye(1),
                               policy=policy)
        cl = closed_loop(model, policy)
        n = pseudo_sample_complexity(cl, model, spec, 1e-3,
                                     np.random.default_rng(0), 1000)
        assert n == 1

    def test_deterministic_given_seed(self):
        model, cl, spec = bench()
        a = pseudo_sample_complexity(cl, model, spec, 1e-3,
                                     np.random.default_rng(3), 10**6)
        b = pseudo_sample_complexity(cl, model, spec, 1e-3,
                                     np.random.default_rng(3), 10**6)
        assert a == b and a >= 1

    def test_scalar_and_generic_paths_agree(self, monkeypatch):
        # The case study's matrices are g * I: the kernel scales rows by
        # g unless its detection is disabled, forcing the dense products.
        systems = [bench(n) for n in (1, 10)]
        assert all(sweep_mod._scalar_gains(cl) is not None
                   for _, cl, _ in systems)

        def stopping_times():
            return [pseudo_sample_complexity(cl, model, spec, 1e-3,
                                             np.random.default_rng(4), 10**6)
                    for model, cl, spec in systems]
        fast = stopping_times()
        monkeypatch.setattr(sweep_mod, "_scalar_gains", lambda cl: None)
        assert stopping_times() == fast

    def test_start_state_matters(self):
        model, cl, spec = bench()
        far = pseudo_sample_complexity(cl, model, spec, 1e-3,
                                       np.random.default_rng(5), 10**6,
                                       x0=np.array([50.0]))
        assert far >= 1

    def test_cap_raises(self):
        model, cl, spec = bench()
        with pytest.raises(MaxStepsExceeded) as exc:
            pseudo_sample_complexity(cl, model, spec, 1e-15,
                                     np.random.default_rng(6), 50)
        assert exc.value.cap == 50

    def test_divergence_guard(self):
        model, cl, spec = bench(gamma_root=3.0, c_root=3.0)
        with pytest.raises(DivergenceError):
            pseudo_sample_complexity(cl, model, spec, 1e-15,
                                     np.random.default_rng(7), 10_000)

    def test_argument_validation(self):
        model, cl, spec = bench()
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            pseudo_sample_complexity(cl, model, spec, 0.0, rng, 100)
        with pytest.raises(ValueError):
            pseudo_sample_complexity(cl, model, spec, 1e-3, rng, 0)
        with pytest.raises(ValueError):
            pseudo_sample_complexity(cl, model, spec, 1e-3, rng, 100,
                                     x0=np.zeros(2))


def lockstep_stopping_times(n, gamma_root, c_root, rho, eps_stop, rngs):
    """Independent re-implementation of the documented stopping rule:
    all trials of the two-shell case study advance together from x = 0,
    gain ``gamma_root`` where ``|x| > rho`` and ``c_root`` elsewhere,
    each drawing its noise from its own generator in blocks of 256 steps
    (batched normal draws are prefix-stable, so the block size cannot
    change a result); trial k stops at the first N >= 1 with
    ``|S_N / N - |x_{N+1}|| / (N + 1) < eps_stop``."""
    block, max_steps = 256, 100_000
    k = len(rngs)
    x = np.zeros((k, n))
    total = np.zeros(k)
    stop = np.full(k, -1)
    for count in range(max_steps):
        if count % block == 0:
            noise = np.stack([rng.standard_normal((block, n))
                              for rng in rngs])
        gain = np.where(np.linalg.norm(x, axis=1) > rho, gamma_root, c_root)
        x = gain[:, None] * x + noise[:, count % block]
        r = np.linalg.norm(x, axis=1)
        if count >= 1:
            hit = (stop < 0) & (np.abs(total / count - r) / (count + 1)
                                < eps_stop)
            stop[hit] = count
            if (stop >= 0).all():
                return stop
        total += r
    raise AssertionError("oracle did not stop every trial")


class TestStoppingRuleOracle:
    """``pseudo_sample_complexity`` against the lockstep oracle on the
    criteria 7 and 8 sweep streams; the case-study expectations rest on
    this agreement."""

    @pytest.mark.parametrize("tag, n, gamma", [
        (sweep_mod._DIM_TAG, 25, 0.9),
        (sweep_mod._DIM_TAG, 200, 0.9),
        (sweep_mod._GAMMA_TAG, 10, 0.5),
        (sweep_mod._GAMMA_TAG, 50, 0.9),
    ])
    def test_matches_trial_for_trial(self, tag, n, gamma):
        cfg = SweepConfig()
        model, cl, spec = bench(n, gamma, cfg.c_root, cfg.rho_ball)

        def rngs():
            return [np.random.default_rng(trial_seed_sequence(
                cfg.master_seed, tag, n, gamma, t))
                for t in range(cfg.trials)]

        got = [pseudo_sample_complexity(cl, model, spec, cfg.eps_stop,
                                        rng, cfg.max_steps)
               for rng in rngs()]
        want = lockstep_stopping_times(n, gamma, cfg.c_root, cfg.rho_ball,
                                       cfg.eps_stop, rngs())
        assert got == want.tolist()


def per_trial_stopping_time(cl, model, spec, eps_stop, rng, max_steps,
                            x0=None):
    """The per-trial loop that computed the stopping rule before the
    lockstep kernel, kept as its oracle: ``(N, censored)`` for one chain.

    Both of its paths are here: a scalar loop for one-dimensional shell
    systems with norm reward, and the general loop over ``region_of``
    and ``reward``.  Noise chunks grow from 128 to 4096 rows."""
    x = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    eye = np.eye(model.n)
    shells = [(region.r_lo, region.r_hi, float(a[0, 0]))
              for region, a in zip(model.regions, cl.ahat)]
    scalar = (model.n == 1 and spec.p_hat_is_identity
              and all(region.kind == "radial"
                      and np.array_equal(a, a[0, 0] * eye)
                      for region, a in zip(model.regions, cl.ahat)))
    total = 0.0
    count = 0
    chunk = 128
    buf = np.empty((0, model.n))
    buf_i = 0

    if scalar:
        xs = float(x[0])
        while count < max_steps:
            if buf_i == len(buf):
                buf = rng.standard_normal((chunk, 1))
                buf_i = 0
                chunk = min(2 * chunk, 4096)
            r = abs(xs)
            g = next(g for r_lo, r_hi, g in shells
                     if ((r <= r_hi) if r_lo == 0.0 else (r_lo < r <= r_hi)))
            xs = g * xs + buf[buf_i, 0]
            buf_i += 1
            r = abs(xs)
            if r > DIVERGENCE_LIMIT:
                raise DivergenceError(step_index=count + 1, norm=r)
            if count >= 1 and abs(total / count - r) / (count + 1) < eps_stop:
                return count, False
            total += r
            count += 1
        return max_steps, True

    while count < max_steps:
        if buf_i == len(buf):
            buf = rng.standard_normal((chunk, model.n))
            buf_i = 0
            chunk = min(2 * chunk, 4096)
        j = region_of(model, x)
        x = cl.ahat[j] @ x + buf[buf_i]
        buf_i += 1
        nrm = float(np.linalg.norm(x))
        if nrm > DIVERGENCE_LIMIT:
            raise DivergenceError(step_index=count + 1, norm=nrm)
        r = nrm if spec.p_hat_is_identity else reward(x, spec)
        if count >= 1 and abs(total / count - r) / (count + 1) < eps_stop:
            return count, False
        total += r
        count += 1
    return max_steps, True


def _scaled(rng, n, norm):
    m = rng.standard_normal((n, n))
    return norm * m / np.linalg.norm(m, 2)


def dense_shells(n):
    """Three radial shells with dense dynamics (contracting outside,
    expanding in the middle), feedback and a non-identity reward; the
    radii grow with the noise norm, so chains visit every shell."""
    rng = np.random.default_rng(100 + n)
    r1, r2 = math.sqrt(n), 2.5 * math.sqrt(n)
    model = SldsModel(
        n=n, p=1,
        regions=(radial_shell(0.0, r1), radial_shell(r1, r2),
                 radial_shell(r2, math.inf)),
        dynamics=tuple((_scaled(rng, n, g), rng.standard_normal((n, 1)))
                       for g in (0.8, 1.3, 0.6)))
    policy = Policy(pi=0.05 * rng.standard_normal((1, n)))
    q = rng.standard_normal((n, n))
    spec = RewardSpec.bind(Q=q @ q.T + np.eye(n), R=np.eye(1),
                           policy=policy)
    return model, closed_loop(model, policy), spec


def quadrants():
    """Four polyhedral quadrants in 2-D, each with its own dense gain."""
    rng = np.random.default_rng(7)
    signs = ((-1, -1), (1, -1), (1, 1), (-1, 1))
    model = SldsModel(
        n=2, p=1,
        regions=tuple(polyhedron(np.diag(sg), np.zeros(2), True)
                      for sg in signs),
        dynamics=tuple((_scaled(rng, 2, g), np.zeros((2, 1)))
                       for g in (0.5, 0.7, 0.9, 0.6)))
    policy = Policy(pi=np.zeros((1, 2)))
    spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


class TestLockstepKernel:
    """The sweeps' lockstep kernel against the per-trial oracle: equal
    ``(N, censored)`` for every trial, whatever runs beside it."""

    @staticmethod
    def rngs(k, seed=0):
        return [np.random.default_rng([seed, t]) for t in range(k)]

    def check(self, system, eps_stop, max_steps, k, x0=None):
        model, cl, spec = system
        got = sweep_mod._stopping_times(cl, model, spec, eps_stop,
                                        self.rngs(k), max_steps, x0)
        want = [per_trial_stopping_time(cl, model, spec, eps_stop, rng,
                                        max_steps, x0)
                for rng in self.rngs(k)]
        assert [(int(m), m == max_steps) for m in got] == want
        return want

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_dense_shells(self, n):
        system = dense_shells(n)
        # Dense for n > 1; at n = 1 every matrix is some g * I.
        assert (sweep_mod._scalar_gains(system[1]) is None) == (n > 1)
        assert not system[2].p_hat_is_identity
        want = self.check(system, 3e-3, 10**5, 300)
        assert not any(c for _, c in want)

    def test_polyhedral_quadrants(self):
        want = self.check(quadrants(), 3e-3, 10**5, 200)
        assert not any(c for _, c in want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_case_study(self, n):
        # g * I matrices: the kernel scales rows; n = 1 is the oracle's
        # scalar loop.
        self.check(bench(n), 1e-3, 10**5, 100)

    def test_given_start_state(self):
        self.check(bench(3), 1e-3, 10**5, 50, x0=np.array([40.0, 0, -3]))
        self.check(dense_shells(5), 3e-3, 10**5, 50, x0=np.full(5, 4.0))

    def test_cap_censors(self):
        want = self.check(bench(2), 1e-3, 25, 100)
        censored = sum(c for _, c in want)
        assert 0 < censored < len(want)

    def test_batch_does_not_change_a_trial(self):
        model, cl, spec = bench(2)
        k = sweep_mod._GROUP + 20   # two lockstep groups

        def run(count):
            return sweep_mod._stopping_times(cl, model, spec, 1e-2,
                                             self.rngs(count), 10**5)
        whole = run(k).tolist()
        assert run(5).tolist() == whole[:5]
        assert run(sweep_mod._GROUP + 1).tolist() == whole[:sweep_mod._GROUP + 1]
        alone = [pseudo_sample_complexity(cl, model, spec, 1e-2, rng, 10**5)
                 for rng in self.rngs(k)]
        assert alone == whole

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 50, 200])
    def test_row_forms_equal_per_vector_forms(self, n):
        # Last-bit differences rarely move an N, so the row forms are
        # pinned directly; gathered rows stand in for live chains.
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        for k in (1, 7, 100):
            x = (5 * rng.standard_normal((k + 3, n)))[rng.permutation(k)]
            assert np.array_equal(sweep_mod._row_products(x, a),
                                  np.array([a @ v for v in x]))
            assert np.array_equal(sweep_mod._row_norms(x),
                                  np.array([np.linalg.norm(v) for v in x]))

    def test_row_regions_first_declared_wins(self):
        # Overlapping regions, so the declaration order decides.
        model = SldsModel(
            n=2, p=1,
            regions=(polyhedron([[1.0, 0.0]], [1.0], True),
                     radial_shell(0.0, 3.0),
                     radial_shell(2.0),
                     polyhedron([[0.0, 0.0]], [0.0], True)),
            dynamics=((np.eye(2), np.zeros((2, 1))),) * 4)
        x = 3 * np.random.default_rng(0).standard_normal((500, 2))
        got = sweep_mod._row_regions(model, x, sweep_mod._row_norms(x))
        assert got.tolist() == [region_of(model, v) for v in x]
        assert set(got.tolist()) == {0, 1, 2}

    def test_no_region_raises(self):
        model = SldsModel(n=2, p=1, regions=(radial_shell(1.0),),
                          dynamics=((np.eye(2), np.zeros((2, 1))),))
        cl = closed_loop(model, Policy(pi=np.zeros((1, 2))))
        spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1),
                               policy=Policy(pi=np.zeros((1, 2))))
        with pytest.raises(NoRegion):
            sweep_mod._stopping_times(cl, model, spec, 1e-3, self.rngs(3),
                                      100)

    def test_divergence_guard(self):
        model, cl, spec = bench(2, gamma_root=3.0, c_root=3.0)
        with pytest.raises(DivergenceError):
            sweep_mod._stopping_times(cl, model, spec, 1e-15, self.rngs(4),
                                      10_000)


class TestReferenceRewardAverage:
    def test_matches_stored_trajectory(self):
        model, cl, spec = bench()
        x0 = np.zeros(1)
        traj = simulate(cl, model, spec, x0, 2000,
                        np.random.default_rng(9))
        stream = reference_reward_average(cl, model, spec, 2000,
                                          np.random.default_rng(9))
        assert stream == pytest.approx(float(np.mean(traj.rewards)),
                                       rel=1e-12)

    def test_scalar_and_generic_paths_agree(self, monkeypatch):
        model, cl, spec = bench()
        fast = reference_reward_average(cl, model, spec, 5000,
                                        np.random.default_rng(10))
        monkeypatch.setattr(sweep_mod, "_radial_scalar_gains",
                            lambda cl, model: None)
        slow = reference_reward_average(cl, model, spec, 5000,
                                        np.random.default_rng(10))
        assert slow == pytest.approx(fast, rel=1e-13)

    def test_argument_validation(self):
        model, cl, spec = bench()
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            reference_reward_average(cl, model, spec, 0, rng)
        with pytest.raises(ValueError):
            reference_reward_average(cl, model, spec, 10, rng,
                                     x0=np.zeros(3))


class TestSeeding:
    def test_seed_derives_from_grid_values(self):
        ss = trial_seed_sequence(0, 2, 10, 0.55, 3)
        assert ss.entropy == 0
        assert ss.spawn_key == (2, 10, 550000, 3)

    def test_gamma_rounding_absorbs_float_noise(self):
        a = trial_seed_sequence(0, 2, 10, 0.55, 0)
        b = trial_seed_sequence(0, 2, 10, 0.55 + 1e-12, 0)
        assert a.spawn_key == b.spawn_key

    def test_trial_augmentation_preserves_prefix(self):
        small = SweepConfig(dims=(2,), trials=4, eps_stop=1e-3)
        large = SweepConfig(dims=(2,), trials=8, eps_stop=1e-3)
        ra = sweep_dimension(small).raw
        rb = sweep_dimension(large).raw
        assert ra == rb[:4]


class TestFitUpperHalf:
    def test_exact_line(self):
        fit = _fit_upper_half([(1, 10.0), (2, 20.0), (3, 30.0),
                               (4, 40.0)])
        assert fit.n_points == 2
        assert fit.slope == pytest.approx(10.0, rel=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_values_take_degenerate_branch(self):
        # Zero variance in y: the fit is flat and R^2 falls back to the
        # {0, 1} convention instead of dividing by zero.
        fit = _fit_upper_half([(1, 3.0), (2, 3.0), (3, 3.0), (4, 3.0)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared in (0.0, 1.0)

    def test_degenerate_inputs_give_none(self):
        assert _fit_upper_half([(1, 5.0)]) is None
        assert _fit_upper_half([(1, 1.0), (2, 2.0)]) is None
        assert _fit_upper_half([(4, 1.0), (4, 2.0), (4, 3.0),
                                (4, 4.0)]) is None

    def test_lower_half_is_ignored(self):
        # Garbage in the low cells cannot move the fit.
        base = [(5, 50.0), (6, 60.0), (7, 70.0), (8, 80.0)]
        junk = [(1, 9999.0), (2, -5.0), (3, 0.0), (4, 123.0)]
        fit = _fit_upper_half(junk + base)
        assert fit.slope == pytest.approx(10.0, rel=1e-12)
        assert fit.n_points == 4


class TestSweeps:
    def test_dimension_sweep_shape(self):
        cfg = SweepConfig(dims=(1, 2), trials=3, eps_stop=1e-2)
        res = sweep_dimension(cfg)
        assert res.kind == "dimension"
        assert len(res.raw) == 6
        assert [c.n for c in res.cells] == [1, 2]
        assert all(c.censored_frac == 0.0 for c in res.cells)
        # Two dims leave one upper-half point: no fit.
        assert res.fits == {}
        assert res.spearman == {}

    def test_gamma_sweep_shape(self):
        cfg = SweepConfig(dims=(1,), gammas=(0.5, 0.9), gamma_dims=(1,),
                          trials=2, gamma_trials=3, eps_stop=1e-2)
        res = sweep_gamma(cfg)
        assert res.kind == "gamma"
        assert len(res.raw) == 6  # gamma_trials wins over trials
        assert [(c.n, c.gamma) for c in res.cells] == [(1, 0.5), (1, 0.9)]
        assert set(res.spearman) == {1}
        assert abs(res.spearman[1]) == pytest.approx(1.0)
        assert res.fits == {}  # the gain sweep fits no line

    def test_single_gamma_has_no_rank_statistic(self):
        cfg = SweepConfig(gammas=(0.7,), gamma_dims=(1,), trials=2,
                          eps_stop=1e-2)
        res = sweep_gamma(cfg)
        assert res.spearman == {1: None}

    def test_rerun_is_identical(self):
        cfg = SweepConfig(dims=(1,), gammas=(0.5, 0.9), gamma_dims=(1,),
                          trials=3, eps_stop=1e-2)
        a = sweep_gamma(cfg)
        b = sweep_gamma(cfg)
        assert a.raw == b.raw
        assert [c.n_avg for c in a.cells] == [c.n_avg for c in b.cells]
        assert a.spearman == b.spearman

    def test_censoring_keeps_capped_rows_visible(self):
        cfg = SweepConfig(dims=(1,), trials=3, eps_stop=1e-15,
                          max_steps=5)
        res = sweep_dimension(cfg)
        cell = res.cells[0]
        assert cell.censored_frac == 1.0
        assert cell.n_avg == 5.0
        assert all(r.censored and r.n_pseudo == 5 for r in res.raw)

    def test_uncertifiable_cell_refused(self):
        from sldsim import NotCertifiable
        cfg = SweepConfig(dims=(1,), gamma_root=1.2, trials=1,
                          eps_stop=1e-2)
        with pytest.raises(NotCertifiable):
            sweep_dimension(cfg)


class TestCsvWriters:
    def test_raw_and_agg_content(self, tmp_path):
        cfg = SweepConfig(dims=(1,), trials=2, eps_stop=1e-2)
        res = sweep_dimension(cfg)
        raw_path = tmp_path / "raw.csv"
        agg_path = tmp_path / "agg.csv"
        write_raw_csv(res, raw_path)
        write_agg_csv(res, agg_path)

        raw_lines = raw_path.read_text().splitlines()
        assert raw_lines[0] == "n,gamma,trial,N_pseudo,censored,seed"
        assert len(raw_lines) == 3
        first = raw_lines[1].split(",")
        assert first[0] == "1" and first[1] == "0.9"
        assert first[2] == "0" and first[4] == "0"
        assert int(first[3]) >= 1 and int(first[5]) >= 0

        agg_lines = agg_path.read_text().splitlines()
        assert agg_lines[0] == "n,gamma,trials,N_avg,stderr,censored_frac"
        assert len(agg_lines) == 2
        assert agg_lines[1].startswith("1,0.9,2,")
        assert agg_lines[1].endswith(",0.0")


class TestRunPipeline:
    GOOD = {
        "sweep": {"dims": [1, 2], "gammas": [0.5], "gamma_dims": [1],
                  "trials": 2, "eps_stop": 0.01},
        "run": ["dimension", "gamma"],
    }

    def write(self, tmp_path, payload) -> str:
        p = tmp_path / "pipeline.json"
        p.write_text(payload if isinstance(payload, str)
                     else json.dumps(payload))
        return str(p)

    def test_success_writes_all_outputs(self, tmp_path):
        cfg = self.write(tmp_path, self.GOOD)
        out = tmp_path / "out"
        assert run_pipeline(cfg, out) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["dimension_agg.csv", "dimension_raw.csv",
                         "gamma_agg.csv", "gamma_raw.csv",
                         "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert len(manifest["config_sha256"]) == 64
        kinds = [b["kind"] for b in manifest["results"]]
        assert kinds == ["dimension", "gamma"]
        assert manifest["results"][1]["spearman"] == {"1": None}

    def test_rerun_outputs_are_byte_identical(self, tmp_path):
        cfg = self.write(tmp_path, self.GOOD)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_pipeline(cfg, out_a) == 0
        assert run_pipeline(cfg, out_b) == 0
        for name in ("dimension_raw.csv", "dimension_agg.csv",
                     "gamma_raw.csv", "gamma_agg.csv", "manifest.json"):
            assert (out_a / name).read_bytes() == (
                out_b / name).read_bytes()

    def test_config_errors_exit_2(self, tmp_path):
        bad_json = self.write(tmp_path, "{ not json")
        assert run_pipeline(bad_json, tmp_path / "o1") == 2
        unknown_top = self.write(tmp_path, {"swep": {}})
        assert run_pipeline(unknown_top, tmp_path / "o2") == 2
        unknown_kind = self.write(tmp_path, {"run": ["fourier"]})
        assert run_pipeline(unknown_kind, tmp_path / "o3") == 2
        bad_field = self.write(tmp_path, {"sweep": {"bogus": 1}})
        assert run_pipeline(bad_field, tmp_path / "o4") == 2
        removed_field = self.write(tmp_path, {"sweep": {"threads": 2}})
        assert run_pipeline(removed_field, tmp_path / "o5") == 2

    def test_uncertifiable_exits_3(self, tmp_path):
        cfg = self.write(tmp_path, {
            "sweep": {"dims": [1], "gamma_root": 1.5, "trials": 1},
            "run": ["dimension"]})
        assert run_pipeline(cfg, tmp_path / "out") == 3

    def test_io_failures_exit_4(self, tmp_path):
        assert run_pipeline(tmp_path / "missing.json",
                            tmp_path / "out") == 4
        cfg = self.write(tmp_path, self.GOOD)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert run_pipeline(cfg, blocker / "out") == 4
