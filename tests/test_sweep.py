"""Stopping-rule experiments: config, fast paths, sweeps, pipeline."""

from __future__ import annotations

import ast
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from sldsim import (
    ClosedLoop,
    ConfigError,
    DivergenceError,
    MaxStepsExceeded,
    Minorization,
    NoRegion,
    Policy,
    RewardSpec,
    SldsModel,
    SweepConfig,
    build_case_study,
    certify,
    classify_regions,
    closed_loop,
    polyhedron,
    pseudo_sample_complexity,
    radial_shell,
    reference_reward_average,
    region_of,
    reward,
    run_pipeline,
    simulate,
    simulate_regenerative,
    sweep_dimension,
    sweep_gamma,
    trial_seed_sequence,
    validate_bound,
)
import sldsim.model as model_mod
import sldsim.sweep as sweep_mod
from sldsim.model import DIVERGENCE_LIMIT, lockstep
from sldsim.sweep import (
    _fit_upper_half,
    _spearman,
    sweep_config_from_dict,
    write_agg_csv,
    write_raw_csv,
)

from conftest import dense_shells, quadrants, stepwise_path


GOLDEN_SHA256 = {
    "dimension_agg.csv":
        "ab5c4a6b9c3be20d61e04f96a3be6b87c1954fdd3bd0d916c49c3d928e5ff72f",
    "dimension_raw.csv":
        "e7d6e753dcb3a6ac1afb3c4c7e3e703da5d32934657e369913a2030a173eceba",
    "gamma_agg.csv":
        "8069308bf5753b031bec826b8e76b16b7a0147ce32121449d6ba066ea1076a8c",
    "gamma_raw.csv":
        "c8ebf2ce589b870c89b6a3c8c423eda3b329bd05fb8e3c44e6fe1550d9c42da1",
}


def bench(n=1, gamma_root=0.9, c_root=2.0, rho=10.0):
    model, policy, spec = build_case_study(n, gamma_root, c_root, rho)
    return model, closed_loop(model, policy), spec


class Undrawable:
    """A generator stand-in that fails at any use, so a call that must
    refuse its arguments before drawing cannot run a chain."""

    def __getattr__(self, name):
        raise AssertionError(f"the generator was used ({name})")


class ZeroNoise:
    """A generator stand-in whose every normal draw is 0.0."""

    def standard_normal(self, size=None, out=None):
        if out is None:
            return np.zeros(size)
        out[...] = 0.0
        return out


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
        with pytest.raises(ConfigError):
            SweepConfig(max_steps=2**53 + 1)
        assert SweepConfig(max_steps=2**53).max_steps == 2**53

    @pytest.mark.parametrize("fields", [
        dict(gamma_dims=(0,)), dict(gamma_dims=(10, 10)),
        dict(gamma_dims=()), dict(dims=(1.5,)), dict(dims=(True, 2)),
        dict(trials=1.5), dict(gamma_trials=2.0), dict(max_steps=True),
        dict(gammas=(0.5, math.inf)), dict(gammas=("0.5",)),
        dict(eps_stop=math.nan), dict(eps_stop=math.inf),
        dict(gamma_root=math.inf), dict(c_root=math.nan),
        dict(rho_ball="10"), dict(master_seed=-1), dict(master_seed=0.5),
    ])
    def test_types_and_ranges(self, fields):
        with pytest.raises(ConfigError):
            SweepConfig(**fields)

    @pytest.mark.parametrize("gammas, pair", [
        ((0.5, 0.5), "0.5 and 0.5"),
        ((0.5, 0.5000004), "0.5 and 0.5000004"),
        ((0.7, 0.5, 0.6, 0.7000001), "0.7 and 0.7000001"),
        ((1e303, 1e303), "1e+303 and 1e+303"),
    ])
    def test_gains_sharing_a_stream_key(self, gammas, pair):
        # trial_seed_sequence keys a gain by gamma * 1e6 rounded, so two
        # such cells would run on the same streams.
        with pytest.raises(ConfigError) as info:
            SweepConfig(gammas=gammas)
        assert str(info.value) == f"gammas {pair} share a stream key"

    def test_gains_with_their_own_stream_keys(self):
        assert SweepConfig(gammas=(0.5, 0.5000006)).gammas == (0.5, 0.5000006)
        # Past about 1.8e302 gamma * 1e6 is inf; the key is exact there,
        # so the config is refused at certification, not here.
        assert SweepConfig(gammas=(0.5, 1e303, 2e303)).gammas[1] == 1e303

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
        with pytest.raises(ConfigError, match="dims must be a list"):
            sweep_config_from_dict({"dims": 5})


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
        assert all(model_mod._scalar_gains(cl) is not None
                   for _, cl, _ in systems)

        def stopping_times():
            return [pseudo_sample_complexity(cl, model, spec, 1e-3,
                                             np.random.default_rng(4), 10**6)
                    for model, cl, spec in systems]
        fast = stopping_times()
        monkeypatch.setattr(model_mod, "_scalar_gains", lambda cl: None)
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
        with pytest.raises(ValueError, match="2\\*\\*53"):
            pseudo_sample_complexity(cl, model, spec, 1e-3, Undrawable(),
                                     2**53 + 1)
        # The largest count is accepted; the rule stops the chain early.
        assert pseudo_sample_complexity(cl, model, spec, 1e-2, rng,
                                        2**53) < 10**5


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


class TestLockstepKernel:
    """The sweeps' lockstep kernel against the per-trial oracle: equal
    ``(N, censored)`` for every trial, whatever runs beside it."""

    @staticmethod
    def rngs(k, seed=0):
        return [np.random.default_rng([seed, t]) for t in range(k)]

    @staticmethod
    def stopping_times(system, eps_stop, rngs, max_steps, x0=None):
        model, cl, spec = system
        return lockstep(cl, model, spec, rngs, max_steps, x0, eps_stop)[0]

    def check(self, system, eps_stop, max_steps, k, x0=None):
        model, cl, spec = system
        got = self.stopping_times(system, eps_stop, self.rngs(k), max_steps,
                                  x0)
        want = [per_trial_stopping_time(cl, model, spec, eps_stop, rng,
                                        max_steps, x0)
                for rng in self.rngs(k)]
        assert [(int(m), m == max_steps) for m in got] == want
        return want

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_dense_shells(self, n):
        system = dense_shells(n)
        # Dense for n > 1; at n = 1 every matrix is some g * I.
        assert (model_mod._scalar_gains(system[1]) is None) == (n > 1)
        assert not system[2].p_hat_is_identity
        want = self.check(system, 3e-3, 10**5, 300)
        assert not any(c for _, c in want)

    def test_polyhedral_quadrants(self):
        want = self.check(quadrants(), 3e-3, 10**5, 200)
        assert not any(c for _, c in want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_case_study(self, n):
        # g * I matrices: the kernel scales rows, at n = 1 too under a
        # rule; n = 1 is the oracle's scalar loop.
        self.check(bench(n), 1e-3, 10**5, 100)

    def test_given_start_state(self):
        self.check(bench(3), 1e-3, 10**5, 50, x0=np.array([40.0, 0, -3]))
        self.check(dense_shells(5), 3e-3, 10**5, 50, x0=np.full(5, 4.0))

    def test_cap_censors(self):
        want = self.check(bench(2), 1e-3, 25, 100)
        censored = sum(c for _, c in want)
        assert 0 < censored < len(want)

    @pytest.mark.parametrize("eps_stop", [None, 1e-3])
    @pytest.mark.parametrize("n", [1, 2])
    def test_no_generators(self, n, eps_stop):
        # Two empty arrays of a one-chain call's dtypes, on the float case
        # (n = 1, no rule) and the kernel, after the argument checks.
        model, cl, spec = bench(n)
        assert (model_mod._float_shells(cl, model, spec) is None) == (n > 1)
        steps, totals = lockstep(cl, model, spec, [], 10, eps_stop=eps_stop)
        one = lockstep(cl, model, spec, self.rngs(1), 10, eps_stop=eps_stop)
        assert steps.shape == totals.shape == (0,)
        assert (steps.dtype, totals.dtype) == (one[0].dtype, one[1].dtype)
        with pytest.raises(ValueError):
            lockstep(cl, model, spec, [], 0, eps_stop=eps_stop)
        with pytest.raises(ValueError):
            lockstep(cl, model, spec, [], 10, np.zeros(n + 1), eps_stop)
        with pytest.raises(DivergenceError):
            lockstep(cl, model, spec, [], 10, np.full(n, 1e200), eps_stop)

    def test_batch_does_not_change_a_trial(self):
        system = model, cl, spec = bench(2)
        group = model_mod._GROUP
        k = group + 20   # two lockstep groups

        def run(count):
            return self.stopping_times(system, 1e-2, self.rngs(count),
                                       10**5)
        whole = run(k).tolist()
        assert run(5).tolist() == whole[:5]
        assert run(group + 1).tolist() == whole[:group + 1]
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
            assert np.array_equal(model_mod._row_products(x, a),
                                  np.array([a @ v for v in x]))
            assert np.array_equal(model_mod._row_norms(x),
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
        got = model.table.find_rows(x, model_mod._row_norms(x))
        assert got.tolist() == [region_of(model, v) for v in x]
        assert set(got.tolist()) == {0, 1, 2}

    def test_no_region_raises(self):
        model = SldsModel(n=2, p=1, regions=(radial_shell(1.0),),
                          dynamics=((np.eye(2), np.zeros((2, 1))),))
        cl = closed_loop(model, Policy(pi=np.zeros((1, 2))))
        spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1),
                               policy=Policy(pi=np.zeros((1, 2))))
        with pytest.raises(NoRegion):
            self.stopping_times((model, cl, spec), 1e-3, self.rngs(3), 100)

    def test_divergence_guard(self):
        with pytest.raises(DivergenceError):
            self.stopping_times(bench(2, gamma_root=3.0, c_root=3.0), 1e-15,
                                self.rngs(4), 10_000)

    @pytest.mark.parametrize("dense", [False, True])
    def test_divergence_guard_catches_nan(self, dense):
        # Zero gain on an infinite start state gives 0 * inf = NaN, a
        # norm that no ``>`` comparison flags.  lockstep reports that start
        # state itself at step 0, so the kernel is called past its check.
        model = SldsModel(n=2, p=1, regions=(radial_shell(0.0),),
                          dynamics=((np.zeros((2, 2)), np.zeros((2, 1))),))
        policy = Policy(pi=np.zeros((1, 2)))
        spec = RewardSpec.bind(Q=np.eye(2), R=np.eye(1), policy=policy)
        cl = closed_loop(model, policy)
        gains = None if dense else model_mod._scalar_gains(cl)
        with pytest.raises(DivergenceError) as info, \
                np.errstate(invalid="ignore"):
            model_mod._lockstep(cl, model, spec, self.rngs(3), 10,
                                np.array([math.inf, 0.0]), None, gains)
        assert math.isnan(info.value.norm)
        assert info.value.step_index == 1

    @pytest.mark.parametrize("n_steps", [0, 2**53 + 1, 10**302],
                             ids=["zero", "2-to-53-plus-1", "10-to-302"])
    def test_step_count_range(self, n_steps):
        # Past 2**53 a count is not an exact double; refused before any
        # draw, with or without a stopping rule.
        model, cl, spec = bench()
        for eps_stop in (None, 1e-2):
            with pytest.raises(ValueError, match="n_steps"):
                lockstep(cl, model, spec, [Undrawable()], n_steps,
                         eps_stop=eps_stop)

    def test_runs_every_step_without_a_rule(self):
        # Totals are S_N over x_1 .. x_N of each chain's own trajectory.
        model, cl, spec = dense_shells(3)
        steps, totals = lockstep(cl, model, spec, self.rngs(5), 300)
        assert steps.tolist() == [300] * 5
        for total, rng in zip(totals, self.rngs(5)):
            traj = simulate(cl, model, spec, np.zeros(3), 301, rng)
            assert total == pytest.approx(traj.rewards[1:].sum(), rel=1e-13)


def shell_model(regions, gains, q=1.0):
    """A one-dimensional model of the shells ``regions``, gain ``gains[i]``
    on the ``i``-th, with reward ``sqrt(q) |x|``."""
    model = SldsModel(n=1, p=1, regions=tuple(regions),
                      dynamics=tuple((g * np.eye(1), np.zeros((1, 1)))
                                     for g in gains))
    policy = Policy(pi=np.zeros((1, 1)))
    spec = RewardSpec.bind(Q=q * np.eye(1), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def shell_chain(gains, cuts):
    """:func:`shell_model` of shells split at the radii ``cuts``, gain
    ``gains[i]`` on the ``i``-th shell from the origin."""
    edges = (0.0, *cuts, math.inf)
    return shell_model((radial_shell(lo, hi)
                        for lo, hi in zip(edges, edges[1:])), gains)


def three_shells():
    """Two breaks in ``(0, inf)``: too many for the float case."""
    return shell_chain((1.5, 0.7, 0.95), (2.0, 6.0))


FLOAT_MODELS = {
    "readme": lambda: bench(),
    "gains-0.9-0.5-rho-1": lambda: bench(1, 0.9, 0.5, 1.0),
    "gains-0.5-2-rho-3": lambda: bench(1, 0.5, 2.0, 3.0),
    "one-shell": lambda: one_shell(1, 0.8),
}

# Each model and what ``_float_shells`` selects for it: ``(b, g_in,
# g_out)``, or None for a model that leaves the float case.
SELECTIONS = {
    "readme": (lambda: bench(), (10.0, 2.0, 0.9)),
    "two-shells": (lambda: shell_chain((1.5, 0.7), (2.0,)),
                   (2.0, 1.5, 0.7)),
    "nested": (lambda: shell_model((radial_shell(0.0, 10.0),
                                    radial_shell(0.0)), (1.3, 0.6)),
               (10.0, 1.3, 0.6)),
    "outer-first": (lambda: shell_model((radial_shell(0.0),
                                         radial_shell(0.0, 10.0)),
                                        (0.6, 1.3)),
                    (10.0, 0.6, 0.6)),
    "one-shell": (lambda: one_shell(1, 0.8), (math.inf, 0.8, 0.8)),
    "n2": (lambda: bench(2), None),
    "polyhedral": (lambda: shadowed(bench()), None),
    "reward": (lambda: shell_model((radial_shell(10.0),
                                    radial_shell(0.0, 10.0)), (0.9, 2.0),
                                   q=4.0), None),
    "two-breaks": (three_shells, None),
    "gap": (lambda: shell_model((radial_shell(0.0, 1.0),
                                 radial_shell(2.0)), (0.5, 0.5)), None),
}

# Shell tables the tests build: the float models', the three-shell
# model's and ones with nested, overlapping and missing shells.
SHELL_TABLES = {
    **{name: (lambda make=make: make()[0].table)
       for name, make in {**FLOAT_MODELS,
                          "three-shells": three_shells}.items()},
    **{name: (lambda regions=regions: model_mod.RegionTable(regions))
       for name, regions in {
           "nested": (radial_shell(0.0, 10.0), radial_shell(0.0)),
           "overlapping": (radial_shell(0.0, 3.0), radial_shell(2.0)),
           "inner-only": (radial_shell(0.0, 1.0),),
           "outer-only": (radial_shell(5.0),),
           "gap": (radial_shell(0.0, 1.0), radial_shell(2.0)),
       }.items()},
}


class TestFloatLockstep:
    """``lockstep``'s float case, chains with no stopping rule on
    one-dimensional shell models with at most one break and norm reward
    stepped one at a time, against ``_lockstep``, its oracle, reached by
    patching the selection off: the same steps, totals, divergence and
    next draw of every generator."""

    @staticmethod
    def run(system, k, n_steps, x0=None, eps_stop=None, seed=3):
        """Steps, totals and each generator's next draw."""
        model, cl, spec = system
        rngs = [np.random.default_rng([seed, t]) for t in range(k)]
        steps, totals = lockstep(cl, model, spec, rngs, n_steps, x0,
                                 eps_stop)
        return steps, totals, [rng.standard_normal() for rng in rngs]

    @staticmethod
    def kernel(monkeypatch, call):
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "_float_shells", lambda *args: None)
            return call()

    def check(self, monkeypatch, *args):
        """:meth:`run` on the float case equals it on the kernel; returns
        the steps."""
        steps, totals, draws = self.run(*args)
        want = self.kernel(monkeypatch, lambda: self.run(*args))
        assert steps.dtype == want[0].dtype
        assert np.array_equal(steps, want[0])
        assert np.array_equal(totals, want[1])
        assert draws == want[2]
        return steps

    @pytest.mark.parametrize("x0", [None, 5.0, -40.0])
    @pytest.mark.parametrize("name", list(FLOAT_MODELS))
    def test_equals_kernel(self, monkeypatch, name, x0):
        system = model, cl, spec = FLOAT_MODELS[name]()
        assert model_mod._float_shells(cl, model, spec) is not None
        for n_steps, k in itertools.product((1, 2, 16, 17, 3901),
                                            (1, 50, 129)):
            steps = self.check(monkeypatch, system, k, n_steps,
                               None if x0 is None else [x0])
            assert (steps == n_steps).all()

    def test_rule_takes_the_kernel(self, monkeypatch):
        # A chain under a stopping rule never steps as Python floats.
        def unreachable(*args):
            raise AssertionError("a chain under a rule took the float case")

        monkeypatch.setattr(model_mod, "_float_chain", unreachable)
        model, cl, spec = bench()
        rngs = [np.random.default_rng([3, t]) for t in range(50)]
        steps, _ = lockstep(cl, model, spec, rngs, 10**5, eps_stop=1e-3)
        assert (steps < 10**5).all()

    @pytest.mark.parametrize("name", [name for name in FLOAT_MODELS
                                      if name != "one-shell"])
    def test_start_on_a_break(self, monkeypatch, name):
        # A norm exactly at a break b lies in the piece (., b], so the
        # first step takes the inner gain.
        system = model, _, _ = FLOAT_MODELS[name]()
        for b in model.table.breaks[1:-1]:
            for x0 in ([b], [-b]):
                self.check(monkeypatch, system, 3, 17, x0)

    @pytest.mark.parametrize("name", list(SELECTIONS))
    def test_selection(self, name):
        make, want = SELECTIONS[name]
        model, cl, spec = make()
        assert model_mod._float_shells(cl, model, spec) == want

    @pytest.mark.parametrize("name", list(SHELL_TABLES))
    def test_one_comparison_is_the_table_lookup(self, name):
        # The origin's owner is the owner of the first piece (0, b_1], so
        # with at most one break b in (0, inf) the float loops' lookup,
        # the last piece's owner if r > b else the first's, is the
        # table's own at 0, b, either neighbour of b, inf and NaN.
        table = SHELL_TABLES[name]()
        owners, breaks = table.owners, table.breaks
        assert owners[0] == owners[1]
        if len(breaks) <= 3:
            b = breaks[1]
            for r in (0.0, b, math.nextafter(b, -math.inf),
                      math.nextafter(b, math.inf), math.inf, math.nan):
                assert (owners[-2] if r > b else owners[1]) == \
                    owners[bisect_left(breaks, r)]

    LAYOUTS = ["first-group", "early-first", "second-group", "across-groups"]

    @staticmethod
    @functools.cache
    def alone(gains, n_steps, eps_stop):
        """Each of 300 chains of ``bench(1, *gains)`` run alone: its step
        count, or minus the step it diverges at."""
        outcomes = []
        for t in range(300):
            try:
                outcomes.append(int(TestFloatLockstep.run(
                    bench(1, *gains), 1, n_steps, None, eps_stop,
                    [5, t])[0][0]))
            except DivergenceError as exc:
                outcomes.append(-exc.step_index)
        return outcomes

    def check_group_earliest(self, monkeypatch, layout, gains, n_steps,
                             eps_stop):
        """Runs 300 chains alone, then a group layout of two that diverge
        and ones that finish: ``lockstep`` raises the earliest divergence
        of the first group that has one, and with no rule the float case
        raises the kernel's error."""
        system = bench(1, *gains)
        outcomes = self.alone(gains, n_steps, eps_stop)
        finished = [t for t, o in enumerate(outcomes) if o > 0]
        late, early = sorted((t for t, o in enumerate(outcomes) if o < 0),
                             key=lambda t: outcomes[t])[:2]
        assert outcomes[late] < outcomes[early] < 0
        group = model_mod._GROUP
        order, first = {
            "first-group": ([late, early], early),
            "early-first": ([early, late], early),
            "second-group": (finished[:group] + [late, early], early),
            "across-groups": ([late] + finished[:group - 1] + [early], late),
        }[layout]

        def report():
            model, cl, spec = system
            rngs = [np.random.default_rng([5, t]) for t in order]
            with pytest.raises(DivergenceError) as info:
                lockstep(cl, model, spec, rngs, n_steps, eps_stop=eps_stop)
            return info.value.step_index, info.value.norm
        got = report()
        if eps_stop is None:    # under a rule both would run the kernel
            assert got == self.kernel(monkeypatch, report)
        assert got[0] == -outcomes[first]

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_group_earliest_divergence(self, monkeypatch, layout):
        # Inner gain 2, outer 1.03: every chain that the rule does not
        # stop within a few steps diverges near step 11,600.  The kernel
        # alone checks its earliest step under a rule here.
        self.check_group_earliest(monkeypatch, layout, (1.03, 2.0, 10.0),
                                  20_000, 0.5)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_group_earliest_divergence_with_no_rule(self, monkeypatch,
                                                    layout):
        # Inner gain 0.5, outer 2 past 4.5: a chain diverges some 500
        # steps after it first leaves the ball, 87 of the 300 within
        # 5,000 steps.  Each diverging chunk fails its unchecked pass.
        self.check_group_earliest(monkeypatch, layout, (2.0, 0.5, 4.5),
                                  5_000, None)

    @pytest.mark.parametrize("name", list(FLOAT_MODELS))
    def test_run_of_several_chunks(self, monkeypatch, name):
        # 10,000 steps with no rule: two whole unchecked chunks and part
        # of a third.
        self.check(monkeypatch, FLOAT_MODELS[name](), 3, 10_000, [-40.0])

    def test_zero_draws_after_a_tiny_state(self, monkeypatch):
        # With every draw exactly 0.0 the state stays 1e-310, whose norm
        # is 0 as sqrt(y * y) but 1e-310 as abs(y): the unchecked chunk
        # must not be kept.
        model, cl, spec = one_shell(1, 1.0)

        def run():
            return lockstep(cl, model, spec, [ZeroNoise()], 100, [1e-310])
        steps, totals = run()
        want = self.kernel(monkeypatch, run)
        assert np.array_equal(steps, want[0]) and steps[0] == 100
        assert np.array_equal(totals, want[1]) and totals[0] == 0.0

    def test_abs_is_the_norm_from_2_to_the_minus_511_to_the_guard(self):
        # The unchecked pass takes abs(y) for sqrt(y * y); the two agree
        # wherever y * y is a normal double, so from 2**-511 up.
        rng = np.random.default_rng(14)
        y = np.ldexp(rng.uniform(1.0, 2.0, 10**6),
                     rng.integers(-511, 498, 10**6))
        y = np.concatenate([y, [2.0**-511, math.nextafter(2.0**-511, 1.0),
                                DIVERGENCE_LIMIT,
                                math.nextafter(DIVERGENCE_LIMIT, 0.0)]])
        for v in (y, -y):
            assert np.array_equal(np.abs(v), np.sqrt(v * v))
        for v in y[-4:]:
            assert abs(v) == math.sqrt(v * v) == abs(-v)


def reference_oracle(cl, model, spec, n_steps, rng):
    """The per-step loops that computed ``reference_reward_average``
    before it ran on the region table and on :func:`simulate`, kept as its
    oracle: a scalar loop over shells for one-dimensional shell models
    with norm reward, else the general loop over ``region_of``.  Both sum
    4096 states per chunk and combine the chunks exactly."""
    chunk = 4096
    shells = [(r.r_lo, r.r_hi, float(a[0, 0]))
              for r, a in zip(model.regions, cl.ahat)]
    scalar = (model.n == 1 and spec.p_hat_is_identity
              and all(r.kind == "radial" for r in model.regions))
    x = np.zeros(model.n)
    partials = []
    total = float(abs(x[0])) if scalar else reward(x, spec)
    count = 1
    buf = np.empty((0, model.n))
    buf_i = 0
    for _ in range(n_steps - 1):
        if buf_i == len(buf):
            buf = rng.standard_normal((chunk, model.n))
            buf_i = 0
        if scalar:
            r = abs(x[0])
            g = next(g for r_lo, r_hi, g in shells
                     if ((r <= r_hi) if r_lo == 0.0 else (r_lo < r <= r_hi)))
            x = np.array([g * x[0] + buf[buf_i, 0]])
            total += abs(x[0])
        else:
            x = cl.ahat[region_of(model, x)] @ x + buf[buf_i]
            total += reward(x, spec)
        buf_i += 1
        count += 1
        if count == chunk:
            partials.append(total)
            total, count = 0.0, 0
    if count:
        partials.append(total)
    return math.fsum(partials) / n_steps


def shadowed(system):
    """The same chain with a polyhedral region declared last, which the
    shells before it always win: the model is no longer a pure shell
    model, so it takes the general path."""
    model, cl, spec = system
    n = model.n
    model = SldsModel(n=n, p=model.p,
                      regions=model.regions + (polyhedron(np.zeros((1, n)),
                                                          [1.0], True),),
                      dynamics=model.dynamics + model.dynamics[:1])
    cl = ClosedLoop(ahat=cl.ahat + cl.ahat[:1],
                    ahat_norms=cl.ahat_norms + cl.ahat_norms[:1])
    return model, cl, spec


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

    @pytest.mark.parametrize("n_steps", [1, 2, 16, 17, 4096, 4097, 10**5])
    def test_scalar_path_equals_oracle(self, n_steps):
        # Exactly r(x_0) = 0 plus the total of lockstep's chain of N - 1
        # steps, summed in order; the oracle sums its chunks exactly.
        model, cl, spec = bench()
        got = reference_reward_average(cl, model, spec, n_steps,
                                       np.random.default_rng(10))
        total = 0.0
        if n_steps > 1:
            _, (total,) = lockstep(cl, model, spec,
                                   [np.random.default_rng(10)], n_steps - 1)
        assert got == (0.0 + total) / n_steps
        assert got == pytest.approx(
            reference_oracle(cl, model, spec, n_steps,
                             np.random.default_rng(10)), rel=1e-13)

    def test_scalar_and_generic_paths_agree(self):
        # The float case and the group kernel give the same average bit
        # for bit: from the origin, from a norm exactly at the break
        # b = 10, which lies in (0, b] and so first takes the inner gain,
        # and from a start whose reward underflows to 0.
        def average(system, x0):
            model, cl, spec = system
            return reference_reward_average(cl, model, spec, 5000,
                                            np.random.default_rng(10), x0)
        for x0 in (None, [10.0], [-10.0], [1e-300]):
            assert average(shadowed(bench()), x0) == average(bench(), x0)

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_start_reward_is_the_reward_of_x0(self, n_steps):
        # sqrt(x . x) underflows to 0 at 1e-300, where |x_0| does not.
        model, cl, spec = bench()
        x0 = np.array([1e-300])
        got = reference_reward_average(cl, model, spec, n_steps,
                                       np.random.default_rng(14), x0)
        traj = simulate(cl, model, spec, x0, n_steps,
                        np.random.default_rng(14))
        assert got == traj.rewards.sum() / n_steps

    @staticmethod
    def check_general_path(system, n_steps):
        """``(r(x_0) + S) / N`` exactly, ``S`` the total of ``lockstep``'s
        chain of ``N - 1`` steps on the same seed, with the generator left
        where that chain leaves it; the oracle's average up to its
        summation order, and the ``fsum`` of :func:`simulate`'s rewards up
        to the order of the sum."""
        model, cl, spec = system
        rng, kernel_rng = (np.random.default_rng(12),
                           np.random.default_rng(12))
        got = reference_reward_average(cl, model, spec, n_steps, rng)
        total = 0.0
        if n_steps > 1:
            _, (total,) = lockstep(cl, model, spec, [kernel_rng], n_steps - 1)
        assert got == (reward(np.zeros(model.n), spec) + total) / n_steps
        assert rng.standard_normal() == kernel_rng.standard_normal()
        want = reference_oracle(cl, model, spec, n_steps,
                                np.random.default_rng(12))
        assert got == pytest.approx(want, rel=1e-13)
        traj = simulate(cl, model, spec, np.zeros(model.n), n_steps,
                        np.random.default_rng(12))
        assert got == pytest.approx(math.fsum(traj.rewards) / n_steps,
                                    rel=1e-15)

    @pytest.mark.parametrize("n_steps", [1, 16, 17, 4096, 4097, 9000])
    def test_general_path_at_n2(self, n_steps):
        # Dense shells with a non-identity reward, and the n = 2 case
        # study, both off the scalar path.
        for system in (dense_shells(2), bench(2)):
            self.check_general_path(system, n_steps)

    @pytest.mark.parametrize("n_steps", [16, 17, 4096, 4097, 10**5])
    def test_general_path_with_two_breaks(self, n_steps):
        # A one-dimensional shell model with norm reward but two breaks
        # in (0, inf) is off the scalar path too.
        system = model, cl, spec = three_shells()
        assert model_mod._float_shells(cl, model, spec) is None
        self.check_general_path(system, n_steps)

    def test_uncovered_shell_raises(self):
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, 1.0),),
                          dynamics=((2.0 * np.eye(1), np.zeros((1, 1))),))
        policy = Policy(pi=np.zeros((1, 1)))
        spec = RewardSpec.bind(Q=np.eye(1), R=np.eye(1), policy=policy)
        with pytest.raises(NoRegion):
            reference_reward_average(closed_loop(model, policy), model, spec,
                                     10**4, np.random.default_rng(13))

    def test_argument_validation(self):
        model, cl, spec = bench()
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            reference_reward_average(cl, model, spec, 0, rng)
        with pytest.raises(ValueError):
            reference_reward_average(cl, model, spec, 10, rng,
                                     x0=np.zeros(3))
        with pytest.raises(ValueError, match="2\\*\\*53"):
            reference_reward_average(cl, model, spec, 2**53 + 1,
                                     Undrawable())


def one_shell(n, gain):
    """One radial shell with closed loop ``gain I`` and norm reward."""
    model = SldsModel(n=n, p=1, regions=(radial_shell(0.0),),
                      dynamics=((gain * np.eye(n), np.zeros((n, 1))),))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=np.eye(n), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def shell_certificate(n):
    """The certificate of :func:`one_shell` at gain 0.5, radius 1."""
    model, cl, _ = one_shell(n, 0.5)
    return certify(cl, classify_regions(model, 1.0), 1.0, n)


class TestDivergenceReport:
    """Every entry point that steps one chain reports a divergence as the
    per-step oracle does: the first state above the guard, at its
    absolute step, with its norm."""

    N_STEPS = 40_000

    @staticmethod
    def report(entry, n, x0, steps):
        """``(step_index, norm)`` of the divergence that ``entry`` raises
        on the one-shell model of gain 1.03 from ``x0``, seed 0."""
        model, cl, spec = one_shell(n, 1.03)
        run = {
            "stepwise": lambda rng: stepwise_path(cl, model, x0, steps, rng),
            "simulate": lambda rng: simulate(cl, model, spec, x0, steps,
                                             rng),
            # lockstep's float case at n = 1, its group kernel at n = 2.
            "reference": lambda rng: reference_reward_average(
                cl, model, spec, steps, rng, x0=x0),
            "lockstep": lambda rng: lockstep(cl, model, spec, [rng], steps,
                                             x0),
            "pseudo_sample_complexity": lambda rng: pseudo_sample_complexity(
                cl, model, spec, 0.01, rng, steps, x0=x0),
            "simulate_regenerative": lambda rng: simulate_regenerative(
                cl, model, Minorization(n=n, s_radius=1.0, log_beta=-10.0),
                steps, rng, x0=x0),
            # With a contracting shell's certificate; one trial.
            "validate_bound": lambda rng: validate_bound(
                cl, model, spec, shell_certificate(n), 0.5, 0.2, 1, 0.0,
                x0=x0),
        }[entry]
        with pytest.raises(DivergenceError) as info:
            run(np.random.default_rng(0))
        return info.value.step_index, info.value.norm

    @pytest.mark.parametrize("n, step_index, norm", [
        (1, 11_714, 1.0219e150), (2, 11_628, 1.0045e150)])
    @pytest.mark.parametrize("entry", ["simulate", "reference", "lockstep",
                                       "simulate_regenerative"])
    def test_matches_oracle(self, entry, n, step_index, norm):
        x0 = np.zeros(n)
        want = self.report("stepwise", n, x0, self.N_STEPS)
        assert want[0] == step_index
        assert want[1] == pytest.approx(norm, rel=1e-4)
        assert self.report(entry, n, x0, self.N_STEPS) == want

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("start", [math.nan, 1e200], ids=["nan", "1e200"])
    @pytest.mark.parametrize("entry", ["reference", "lockstep",
                                       "pseudo_sample_complexity",
                                       "simulate_regenerative",
                                       "validate_bound"])
    def test_bad_start_state(self, entry, start, n):
        # A start state past the guard is a divergence at step 0 whatever
        # the entry point; x0 . x0 overflows at 1e200 without a warning.
        x0 = np.full(n, start)
        want = self.report("simulate", n, x0, 100)
        assert want[0] == 0
        np.testing.assert_equal(self.report(entry, n, x0, 100), want)

    @staticmethod
    def check_float_reference(monkeypatch, system, n_steps, seed, x0):
        """The reference average of a chain whose running total passes the
        guard with no state above it, so a chunk fails its unchecked pass
        and is stepped again: ``r(x_0)`` plus the kernel's total, exactly;
        ``fsum`` of :func:`simulate`'s rewards up to summation order; and
        the generator left where the kernel leaves it."""
        model, cl, spec = system
        rng, kernel_rng = (np.random.default_rng(seed),
                           np.random.default_rng(seed))
        got = reference_reward_average(cl, model, spec, n_steps, rng, x0=x0)
        _, (total,) = TestFloatLockstep.kernel(
            monkeypatch, lambda: lockstep(cl, model, spec, [kernel_rng],
                                          n_steps - 1, x0))
        assert total > DIVERGENCE_LIMIT
        assert got == (reward(x0, spec) + total) / n_steps
        traj = simulate(cl, model, spec, x0, n_steps,
                        np.random.default_rng(seed))
        assert got == pytest.approx(math.fsum(traj.rewards) / n_steps,
                                    rel=1e-15)
        assert rng.standard_normal() == kernel_rng.standard_normal()

    def test_scalar_reference_goes_on_past_a_large_sum(self, monkeypatch):
        # From 5e149 at gain 0.9 the first chunk sums to about 5e150 with
        # every state below the guard: every chunk is stepped again, and
        # the chain goes on as the kernel's and simulate's do.
        self.check_float_reference(monkeypatch, bench(1, 0.9, 0.5, 1.0),
                                   10_000, 1, np.array([5e149]))

    def test_scalar_reference_falls_through_past_the_first_chunk(
            self, monkeypatch):
        # Gain 1.03 up to 1e149 and 0.5 beyond: the chain settles near
        # 1e149 with no state above the guard; the running total passes
        # 1e150 in the third chunk, and every chunk from there on is
        # stepped again.
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, 1e149),
                                             radial_shell(1e149)),
                          dynamics=((1.03 * np.eye(1), np.zeros((1, 1))),
                                    (0.5 * np.eye(1), np.zeros((1, 1)))))
        policy = Policy(pi=np.zeros((1, 1)))
        spec = RewardSpec.bind(Q=np.eye(1), R=np.eye(1), policy=policy)
        self.check_float_reference(
            monkeypatch, (model, closed_loop(model, policy), spec), 20_000,
            0, np.zeros(1))


class TestSeeding:
    def test_seed_derives_from_grid_values(self):
        ss = trial_seed_sequence(0, 2, 10, 0.55, 3)
        assert ss.entropy == 0
        assert ss.spawn_key == (2, 10, 550000, 3)

    def test_gain_keys_are_gamma_times_1e6_rounded(self):
        # No stream moves: where gamma * 1e6 is finite the key is that
        # product rounded; past it the exact product.
        gains = [*SweepConfig().gammas, 1e-9, 0.5000005, 1.5, 1e302,
                 *np.random.default_rng(0).uniform(0.0, 2.0, 1000)]
        for gamma in gains:
            ss = trial_seed_sequence(0, 2, 10, float(gamma), 0)
            assert ss.spawn_key[2] == round(gamma * 1e6)
        for gamma in (1.8e302, 1e303, 1.7e308):
            ss = trial_seed_sequence(0, 2, 10, gamma, 0)
            assert ss.spawn_key[2] == int(gamma) * 10**6

    def test_gamma_rounding_absorbs_float_noise(self):
        a = trial_seed_sequence(0, 2, 10, 0.55, 0)
        b = trial_seed_sequence(0, 2, 10, 0.55 + 1e-12, 0)
        assert a.spawn_key == b.spawn_key

    @pytest.mark.parametrize("row", [
        "25,0.9,0,34,0,13595829236325541747",
        "200,0.9,99,84,0,13106154105787468555",
    ], ids=["first", "last"])
    def test_raw_row_reruns_from_its_seed_sequence(self, row):
        # Rows of the golden dimension_raw.csv (GOLDEN_SHA256).  A trial
        # reruns on default_rng(trial_seed_sequence(...)); its seed column
        # is that sequence's first generate_state word, which names the
        # stream but does not seed it.
        n, gamma, trial, n_pseudo, _, seed = row.split(",")
        n, gamma, trial = int(n), float(gamma), int(trial)
        cfg = sweep_config_from_dict(
            json.loads(GOLDEN_CONFIG.read_text())["sweep"])
        ss = trial_seed_sequence(cfg.master_seed, sweep_mod._DIM_TAG, n,
                                 gamma, trial)
        model, cl, spec = bench(n, gamma, cfg.c_root, cfg.rho_ball)
        (got,), _ = lockstep(cl, model, spec, [np.random.default_rng(ss)],
                             cfg.max_steps, eps_stop=cfg.eps_stop)
        assert got == int(n_pseudo)
        assert int(ss.generate_state(1, np.uint64)[0]) == int(seed)
        assert (np.random.default_rng(int(seed)).standard_normal()
                != np.random.default_rng(ss).standard_normal())

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


GOLDEN_CONFIG = Path(__file__).parent / "data" / "golden_pipeline.json"
POLY4_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "poly4.json"


class TestSpearman:
    @staticmethod
    def scipy_statistic(x, y) -> float:
        return float(scipy.stats.spearmanr(x, y).statistic)

    def test_golden_gain_sweep_values_bitwise(self):
        cfg = sweep_config_from_dict(
            json.loads(GOLDEN_CONFIG.read_text())["sweep"])
        res = sweep_gamma(cfg)
        for n in cfg.gamma_dims:
            per_gamma = [c.n_avg for c in res.cells if c.n == n]
            expect = self.scipy_statistic(cfg.gammas, per_gamma)
            assert _spearman(cfg.gammas, per_gamma) == expect
            assert res.spearman[n] == expect

    def test_ties_and_two_points_bitwise(self):
        rng = np.random.default_rng(11)
        cases = [([1.0, 2.0], [5.0, 3.0]), ([0.0, 1.0], [0.0, 1.0]),
                 ([1.0, 2.0, 2.0, 3.0, 3.0, 3.0],
                  [4.0, 1.0, 1.0, 2.0, 9.0, 0.5]),
                 ([0.5, 0.5, 0.7, 0.9], [10.0, 12.0, 12.0, 11.0])]
        for _ in range(200):
            k = int(rng.integers(2, 12))
            cases.append((rng.integers(0, 4, k).astype(float),
                          rng.standard_normal(k)))
        for x, y in cases:
            if len(set(x)) > 1 and len(set(y)) > 1:
                assert _spearman(x, y) == self.scipy_statistic(x, y)

    def test_undefined_cases_are_none(self):
        assert _spearman([1.0, 2.0, 3.0], [4.0, 4.0, 4.0]) is None
        assert _spearman([2.0, 2.0], [1.0, 3.0]) is None
        assert _spearman([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]) is None
        assert _spearman([1.0], [2.0]) is None
        assert _spearman([], []) is None


class TestSweeps:
    def test_dimension_sweep_shape(self):
        cfg = SweepConfig(dims=(1, 2), trials=3, eps_stop=1e-2)
        res = sweep_dimension(cfg)
        assert res.kind == "dimension"
        assert len(res.raw) == 6
        assert [c.n for c in res.cells] == [1, 2]
        assert all(c.censored_frac == 0.0 for c in res.cells)
        # Two dims leave one upper-half point: no fit.
        assert res.fit is None
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
        assert res.fit is None  # the gain sweep fits no line

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

    def test_write_sweeps_calls_the_module_attribute(self, tmp_path,
                                                     monkeypatch):
        # A replaced sweep function (as a tracer installs) is the one run.
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return sweep_gamma(cfg)

        monkeypatch.setattr(sweep_mod, "sweep_gamma", counting)
        cfg = SweepConfig(gammas=(0.5, 0.9), gamma_dims=(1,), trials=2,
                          eps_stop=1e-2)
        sweep_mod.write_sweeps(cfg, ("gamma",), tmp_path)
        assert calls == [cfg]
        assert (tmp_path / "gamma_agg.csv").is_file()


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

    def test_manifest_holds_resolved_config(self, tmp_path):
        cfg = self.write(tmp_path, self.GOOD)
        assert run_pipeline(cfg, tmp_path / "out") == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        resolved = sweep_config_from_dict(self.GOOD["sweep"])
        assert manifest["sweep_config"] == json.loads(
            json.dumps(dataclasses.asdict(resolved)))
        assert manifest["config_sha256"] == hashlib.sha256(
            Path(cfg).read_bytes()).hexdigest()
        # Two dims leave no fitted line; the gain sweep never has one.
        assert [b["fit"] for b in manifest["results"]] == [None, None]

    def test_flat_config_runs_both_kinds(self, tmp_path):
        wrapped = self.write(tmp_path, self.GOOD)
        assert run_pipeline(wrapped, tmp_path / "a") == 0
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps(self.GOOD["sweep"]))
        assert run_pipeline(flat, tmp_path / "b") == 0
        for name in ("dimension_raw.csv", "dimension_agg.csv",
                     "gamma_raw.csv", "gamma_agg.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name).read_bytes()

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

    def test_golden_pipeline_bytes_are_pinned(self, tmp_path):
        # The golden pipeline's CSVs, byte for byte; the manifest records
        # the platform, so it is left out.
        config = Path(__file__).parent / "data" / "golden_pipeline.json"
        assert run_pipeline(config, tmp_path) == 0
        got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
        assert got == GOLDEN_SHA256

    def test_config_errors_exit_2(self, tmp_path, capsys):
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
        # ConfigError covers a missing config file as well.
        assert run_pipeline(tmp_path / "missing.json", tmp_path / "o6") == 2
        assert not (tmp_path / "o6").exists()
        not_text = tmp_path / "binary.json"
        not_text.write_bytes(b"\xff\xfe{}")
        assert run_pipeline(not_text, tmp_path / "o7") == 2
        # An empty run list would write a manifest of no results.
        capsys.readouterr()
        empty_run = self.write(tmp_path, {"sweep": self.GOOD["sweep"],
                                          "run": []})
        assert run_pipeline(empty_run, tmp_path / "o8") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: run must") and err.count("\n") == 1
        assert not (tmp_path / "o8").exists()

    def test_uncertifiable_exits_3(self, tmp_path):
        cfg = self.write(tmp_path, {
            "sweep": {"dims": [1], "gamma_root": 1.5, "trials": 1},
            "run": ["dimension"]})
        assert run_pipeline(cfg, tmp_path / "out") == 3
        # A later uncertifiable cell fails the run before any file is
        # written, including the CSVs of a sweep that did finish.
        cfg = self.write(tmp_path, {"dims": [1], "gammas": [0.5, 1.5],
                                    "gamma_dims": [1], "trials": 1})
        assert run_pipeline(cfg, tmp_path / "out") == 3
        assert not (tmp_path / "out").exists()

    def test_gain_past_the_key_overflow_exits_3(self, tmp_path):
        # 1e303 * 1e6 overflows; the gain reaches certification.
        cfg = self.write(tmp_path, {"dims": [1], "gammas": [0.5, 1e303],
                                    "gamma_dims": [1], "trials": 1})
        assert run_pipeline(cfg, tmp_path / "out") == 3

    def test_io_failures_exit_4(self, tmp_path):
        cfg = self.write(tmp_path, self.GOOD)
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        assert run_pipeline(cfg, blocker / "out") == 4


class TestImportPath:
    SCRIPT = """
import json, sys
import numpy as np
import sldsim, sldsim.cli
from sldsim import (build_case_study, certify, classify_regions,
                    closed_loop, reference_reward_average, run_pipeline,
                    validate_bound)
assert run_pipeline(sys.argv[1], sys.argv[2]) == 0
model, policy, spec = build_case_study(1, 0.9, 2.0, 10.0)
cl = closed_loop(model, policy)
cert = certify(cl, classify_regions(model, 10.0), 10.0, 1)
rho = reference_reward_average(cl, model, spec, 20_000,
                               np.random.default_rng(0))
validate_bound(cl, model, spec, cert, eps=0.5, delta=0.2, trials=20,
               rho_star=rho)
assert sldsim.cli.main(["estimate", "--config", sys.argv[3], "--seed", "3",
                        "--n-steps", "5000", "--out", sys.argv[4]]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

    def test_pipeline_and_reference_leave_scipy_stats_unloaded(self, tmp_path):
        # A cold process pays for scipy.stats and scipy.special only where
        # they are used: neither is on the golden pipeline, the reference
        # average, validate_bound or `sldsim estimate` on a polyhedral
        # model (whose ball volumes use math.lgamma).
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(GOLDEN_CONFIG),
             str(tmp_path), str(POLY4_JSON), str(tmp_path / "estimate")],
            env=env, capture_output=True, text=True, check=True)
        assert (tmp_path / "estimate" / "estimate.json").is_file()
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert "scipy.stats" not in loaded
        assert "scipy.special" not in loaded
        # Polyhedral reach is decided in numpy, with no LP and no qhull.
        for name in ("scipy.optimize", "scipy.linalg", "scipy.spatial"):
            assert name not in loaded

    def test_no_module_imports_scipy_stats(self):
        # The README's dependency claim: no sldsim code loads scipy.stats,
        # at module level or inside a function.
        pkg = Path(__file__).resolve().parents[1] / "src" / "sldsim"
        found = []
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name == "scipy.stats"
                          or name.startswith("scipy.stats.")]
        assert len(list(pkg.glob("*.py"))) >= 9
        assert found == []

    def test_private_steppers_stay_in_their_modules(self):
        # Two functions advance a chain: the float case and the group
        # kernel are reached through lockstep alone, and the loop of
        # simulate is shared only with the split chain.  A name counts
        # as used when it is imported or read as an attribute.
        owners = {"_float_shells": {"model.py"}, "_float_chain": {"model.py"},
                  "_lockstep": {"model.py"}, "_path": {"model.py", "regen.py"}}
        pkg = Path(__file__).resolve().parents[1] / "src" / "sldsim"
        found = []
        for path in sorted(pkg.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in names
                          if name in owners and path.name not in owners[name]]
        assert len(list(pkg.glob("*.py"))) >= 9
        assert found == []


class TestExportList:
    def test_all_is_the_imported_public_surface(self):
        # ``from sldsim import *`` breaks on a dangling entry, and a name
        # left out of ``__all__`` is missing from it silently.
        import sldsim

        init = Path(sldsim.__file__).read_text()
        imported = [a.asname or a.name for node in ast.walk(ast.parse(init))
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    for a in node.names]
        names = sldsim.__all__
        assert len(names) == len(set(names))
        assert all(hasattr(sldsim, name) for name in names)
        assert all(inspect.isfunction(getattr(sldsim, name))
                   or inspect.isclass(getattr(sldsim, name))
                   for name in imported)
        assert sorted(names) == sorted(imported + ["__version__"])
        namespace = {}
        exec("from sldsim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(names)
