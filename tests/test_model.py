"""Region resolution, closed-loop assembly, rewards, and simulation."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from sldsim import (
    DivergenceError,
    NoRegion,
    Policy,
    Region,
    RewardSpec,
    SldsModel,
    closed_loop,
    polyhedron,
    radial_shell,
    region_of,
    reward,
    rewards_of,
    simulate,
    spectral_norm,
)

from sldsim import regen
from sldsim.model import _CHECK_ROWS, DIVERGENCE_LIMIT, _path, _row_norms
from sldsim.regen import Minorization, simulate_regenerative

from conftest import (CASE_RHO, build_system, dense_shells, poly4,
                      region_contains, stepwise_path)


def one_region_system(gain: float, n: int = 1):
    model = SldsModel(n=n, p=1, regions=(radial_shell(0.0, math.inf),),
                      dynamics=((gain * np.eye(n), np.zeros((n, 1))),))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=np.eye(n), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def case_system(n):
    sys = build_system(n)
    return sys.model, sys.cl, sys.spec


def gained_system(regions, gains):
    """``regions`` with zero input; region ``j`` steps by the matrix
    ``gains[j]``, whose size is the dimension."""
    n = len(gains[0])
    model = SldsModel(n=n, p=1, regions=tuple(regions),
                      dynamics=tuple((np.asarray(g, dtype=float),
                                      np.zeros((n, 1))) for g in gains))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=np.eye(n), R=np.eye(1), policy=policy)
    return model, closed_loop(model, policy), spec


def rotation(gain, degrees):
    a = math.radians(degrees)
    return gain * np.array([[math.cos(a), -math.sin(a)],
                            [math.sin(a), math.cos(a)]])


def scaled_quadrants(*gains):
    """poly4's closed quadrants, region ``j`` scaled by ``gains[j]``."""
    signs = ((1, 1), (-1, 1), (-1, -1), (1, -1))
    return gained_system([polyhedron(-np.diag(sg), np.zeros(2), True)
                          for sg in signs], [g * np.eye(2) for g in gains])


def mixed_table(*gains):
    """Polyhedra and shells in one table: the half plane ``x_1 <= 1``,
    the disc ``r <= 3``, the exterior ``r > 2`` and the half plane ``x_2 <=
    0``, region ``j`` a 30 degree rotation scaled by ``gains[j]``."""
    return gained_system([polyhedron([[1.0, 0.0]], [1.0], True),
                          radial_shell(0.0, 3.0), radial_shell(2.0),
                          polyhedron([[0.0, 1.0]], [0.0], True)],
                         [rotation(g, 30.0) for g in gains])


def outcome(run):
    """How ``run()`` ended, with the values its error reports."""
    try:
        run()
    except DivergenceError as exc:
        return "diverged", exc.step_index, exc.norm
    except NoRegion as exc:
        return "no region", exc.x.tolist()
    return ("completed",)


class TestRegion:
    def test_radial_membership_boundaries(self):
        inner = radial_shell(0.0, 10.0)
        outer = radial_shell(10.0, math.inf)
        # r = 10 belongs to the inner shell (closed at its top), not the
        # outer one (open at its bottom).
        assert region_contains(inner, np.array([10.0]))
        assert not region_contains(outer, np.array([10.0]))
        assert region_contains(outer, np.array([10.0 + 1e-12]))
        assert region_contains(inner, np.zeros(1))
        model = unit_model(outer, inner)        # n = 2, outer first
        assert region_of(model, np.array([10.0, 0.0])) == 1
        assert region_of(model, np.array([10.0 + 1e-12, 0.0])) == 0
        assert region_of(model, np.zeros(2)) == 1

    def test_radial_validation(self):
        with pytest.raises(ValueError):
            Region(kind="radial", r_lo=-1.0, r_hi=2.0)
        with pytest.raises(ValueError):
            Region(kind="radial", r_lo=3.0, r_hi=3.0)
        with pytest.raises(ValueError):
            Region(kind="unknown")

    def test_polyhedral_membership(self):
        half = polyhedron(L=[[1.0, 0.0]], C=[0.0], declared_unbounded=True)
        assert region_contains(half, np.array([-1.0, 5.0]))
        assert region_contains(half, np.array([0.0, 0.0]))
        assert not region_contains(half, np.array([0.1, 0.0]))
        model = unit_model(half, radial_shell(0.0))
        assert region_of(model, np.array([-1.0, 5.0])) == 0
        assert region_of(model, np.array([0.0, 0.0])) == 0
        assert region_of(model, np.array([0.1, 0.0])) == 1

    def test_polyhedral_validation(self):
        # declared_unbounded is optional, as for a radial shell.
        assert polyhedron(np.eye(2), np.zeros(2)).declared_unbounded is None
        with pytest.raises(ValueError):
            Region(kind="polyhedral", L=np.eye(2), C=np.zeros(3),
                   declared_unbounded=True)
        with pytest.raises(ValueError):
            Region(kind="polyhedral", L=None, C=np.zeros(1))
        for L, C in (([[np.nan, 0.0]], [0.0]), ([[np.inf, 0.0]], [0.0]),
                     ([[1.0, 0.0]], [np.nan]), ([[1.0, 0.0]], [-np.inf])):
            with pytest.raises(ValueError, match="finite"):
                polyhedron(L, C, True)


class TestRegionOf:
    def test_two_shell_resolution(self):
        sys = build_system(1)
        assert region_of(sys.model, np.array([10.0])) == 1
        assert region_of(sys.model, np.array([10.0 + 1e-9])) == 0
        assert region_of(sys.model, np.array([0.0])) == 1
        assert region_of(sys.model, np.array([-50.0])) == 0

    def test_first_declared_wins_on_overlap(self):
        model = SldsModel(
            n=1, p=1,
            regions=(radial_shell(0.0, 10.0), radial_shell(0.0, math.inf)),
            dynamics=((np.eye(1) * 0.5, np.zeros((1, 1))),
                      (np.eye(1) * 0.9, np.zeros((1, 1)))))
        assert region_of(model, np.array([5.0])) == 0
        assert region_of(model, np.array([20.0])) == 1

    def test_no_region_raises(self):
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, 1.0),),
                          dynamics=((np.eye(1), np.zeros((1, 1))),))
        with pytest.raises(NoRegion):
            region_of(model, np.array([2.0]))

    def test_shape_mismatch(self):
        sys = build_system(2)
        with pytest.raises(ValueError):
            region_of(sys.model, np.zeros(3))

    def test_partition_total_on_gaussian_cloud(self):
        sys = build_system(2)
        rng = np.random.default_rng(7)
        xs = rng.standard_normal((10_000, 2)) * (5.0 * CASE_RHO)
        seen = {region_of(sys.model, x) for x in xs}
        assert seen <= {0, 1}


def region_of_oracle(model, x):
    """The loop over the regions' own membership tests that resolved
    regions before the region table, kept as its oracle; None where no
    region holds ``x``."""
    for j, region in enumerate(model.regions):
        if region_contains(region, x):
            return j
    return None


def unit_model(*regions):
    """Identity dynamics on the given regions, in dimension of the first
    polyhedron (else 2)."""
    n = next((r.L.shape[1] for r in regions if r.kind == "polyhedral"), 2)
    return SldsModel(n=n, p=1, regions=regions,
                     dynamics=((np.eye(n), np.zeros((n, 1))),) * len(regions))


def on_breakpoints(radii, n):
    """Points at, just inside and just outside each radius along the
    first axis (where the norm is the radius exactly), and along a
    second direction."""
    points = [np.zeros(n)]
    for r in radii:
        for s in (np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)):
            e = np.zeros(n)
            e[0] = s
            points.append(e)
            if n >= 2:
                d = np.zeros(n)
                d[:2] = (0.6 * s, -0.8 * s)
                points.append(d)
    return np.array(points)


@np.errstate(over="ignore", invalid="ignore")
def assert_lookups_match_oracle(model, xs):
    """One-vector and row lookups both equal the oracle on every row; the
    one-vector lookups run twice, with the polyhedral memo cold and then,
    in reverse order, warm."""
    want = [region_of_oracle(model, x) for x in xs]
    model = dataclasses.replace(model)      # a new table, its memo empty
    pairs = list(zip(xs, want))
    for x, j in pairs + pairs[::-1]:
        if j is None:
            with pytest.raises(NoRegion):
                region_of(model, x)
        else:
            assert region_of(model, x) == j
    covered = np.array([j is not None for j in want], dtype=bool)
    rows = xs[covered]
    if len(rows):
        assert model.table.find_rows(rows, _row_norms(rows)).tolist() == [
            j for j in want if j is not None]
    if not covered.all():
        with pytest.raises(NoRegion):
            model.table.find_rows(xs, _row_norms(xs))
    return want


class TestRegionTable:
    """The region table against the per-region oracle: same region for
    one state and for stacked rows, boundaries included."""

    def test_case_study_pieces(self):
        table = build_system(3).model.table
        assert table.breaks == (0.0, CASE_RHO, math.inf)
        # r == 0, (0, rho], (rho, inf], NaN
        assert table.owners == (1, 1, 0, table.none)
        assert table.L is None

    @pytest.mark.parametrize("n", [1, 10, 100])
    def test_radial_chain_states(self, n):
        sys = build_system(n)
        xs = simulate(sys.cl, sys.model, sys.spec, np.zeros(n), 512,
                      np.random.default_rng(n)).states
        edges = on_breakpoints([CASE_RHO], n)
        assert CASE_RHO in np.linalg.norm(edges, axis=1)
        want = assert_lookups_match_oracle(sys.model,
                                           np.vstack([xs, edges]))
        assert set(want) == {0, 1}

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_dense_shells(self, n):
        model, cl, spec = dense_shells(n)
        xs = simulate(cl, model, spec, np.zeros(n), 512,
                      np.random.default_rng(n)).states
        radii = [r.r_hi for r in model.regions[:2]]
        want = assert_lookups_match_oracle(
            model, np.vstack([xs, on_breakpoints(radii, n)]))
        assert set(want) == {0, 1, 2}

    def test_poly4_chain_states_and_faces(self):
        model, cl, spec = poly4()
        xs = simulate(cl, model, spec, np.zeros(2), 512,
                      np.random.default_rng(4)).states
        t = np.array([1e-300, 0.5, 3.0, 1e200])
        faces = np.vstack([np.zeros((1, 2)), np.c_[t, 0 * t],
                           np.c_[-t, 0 * t], np.c_[0 * t, t],
                           np.c_[0 * t, -t], [[-0.0, 1.0], [1.0, -0.0]]])
        want = assert_lookups_match_oracle(model, np.vstack([xs, faces]))
        assert set(want) == {0, 1, 2, 3}

    def test_slanted_faces(self):
        # Small integer rows and points: every product is exact, so
        # points on a face are on it for both lookups.
        model = unit_model(polyhedron([[1.0, 2.0], [-3.0, 1.0]], [4.0, 2.0],
                                      True),
                           polyhedron([[-1.0, -2.0]], [-4.0], True),
                           polyhedron([[3.0, -1.0]], [-2.0], True))
        grid = np.array([(a, b) for a in np.arange(-6.0, 6.5, 0.5)
                         for b in np.arange(-6.0, 6.5, 0.5)])
        want = assert_lookups_match_oracle(model, grid)
        assert set(want) == {0, 1, 2}

    def test_overlapping_shells(self):
        model = unit_model(radial_shell(0.0, 5.0), radial_shell(2.0, 8.0),
                           radial_shell(7.0, 9.0), radial_shell(0.0),
                           radial_shell(1.0, 3.0))
        xs = on_breakpoints([1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 9.0], 2)
        want = assert_lookups_match_oracle(model, xs)
        assert set(want) == {0, 1, 2, 3}

    def test_mixed_radial_and_polyhedral(self):
        model = unit_model(polyhedron([[1.0, 0.0]], [1.0], True),
                           radial_shell(0.0, 3.0),
                           radial_shell(2.0),
                           polyhedron([[0.0, 1.0]], [0.0], True))
        rng = np.random.default_rng(0)
        xs = np.vstack([3 * rng.standard_normal((500, 2)),
                        on_breakpoints([1.0, 2.0, 3.0], 2),
                        [[1.0, 5.0], [1.0, -5.0], [np.inf, 0.0]]])
        want = assert_lookups_match_oracle(model, xs)
        assert set(want) == {0, 1, 2}

    def test_uncovered_points(self):
        model = unit_model(radial_shell(1.0, 2.0),
                           polyhedron([[1.0, 0.0]], [-5.0], True))
        xs = np.vstack([on_breakpoints([1.0, 2.0], 2),
                        [[-6.0, 0.0], [3.0, 0.0], [np.nan, 0.0]]])
        want = assert_lookups_match_oracle(model, xs)
        assert None in want and set(want) - {None} == {0, 1}

    def test_nan_state_has_no_region(self):
        # A NaN norm lies on no shell, not even one closed at the origin.
        model = build_system(2).model
        want = assert_lookups_match_oracle(model, np.array([[np.nan, 0.0]]))
        assert want == [None]

    def test_partition_checks(self):
        with pytest.raises(ValueError, match="columns"):
            unit_model(polyhedron([[1.0, 0.0]], [0.0], True),
                       polyhedron([[1.0, 0.0, 0.0]], [0.0], True))
        with pytest.raises(ValueError, match="inequality"):
            polyhedron(np.zeros((0, 2)), np.zeros(0), True)


class TestVectorProducts:
    """One vector's products use ``ndarray.dot``, stacked rows and the
    oracles ``@``; both must reach the same BLAS call, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 100, 200])
    def test_dot_equals_matmul(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            a = rng.standard_normal((n, n))
            v = rng.standard_normal(n)
            assert a.dot(v).tobytes() == (a @ v).tobytes()
            assert v.dot(a).tobytes() == (v @ a).tobytes()
            assert v.dot(v) == v @ v

    def test_stacked_faces_on_chain_states(self):
        model, cl, spec = poly4()
        states = simulate(cl, model, spec, np.zeros(2), 10_000,
                          np.random.default_rng(3)).states
        L = model.table.L
        assert L.shape == (8, 2)
        assert all(L.dot(x).tobytes() == (L @ x).tobytes() for x in states)


class TestClosedLoop:
    def test_feedback_composition(self):
        model = SldsModel(n=1, p=1, regions=(radial_shell(0.0, math.inf),),
                          dynamics=((np.array([[0.5]]), np.array([[1.0]])),))
        cl = closed_loop(model, Policy(pi=np.array([[0.25]])))
        assert cl.ahat[0][0, 0] == 0.75
        assert cl.ahat_norms[0] == 0.75

    def test_policy_shape_checked(self):
        model = SldsModel(n=2, p=1, regions=(radial_shell(0.0, math.inf),),
                          dynamics=((np.eye(2), np.zeros((2, 1))),))
        with pytest.raises(ValueError):
            closed_loop(model, Policy(pi=np.zeros((2, 2))))

    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert spectral_norm(a) == pytest.approx(
                np.linalg.svd(a, compute_uv=False)[0], rel=1e-12)

    def test_spectral_norm_nonsymmetric(self):
        # Nilpotent with zero eigenvalues but nonzero gain.
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == 2.0

    def test_spectral_norm_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf]]))


class TestReward:
    def test_identity_norm(self):
        _, _, spec = one_region_system(0.5, n=2)
        assert spec.p_hat_is_identity
        assert reward(np.array([3.0, 4.0]), spec) == 5.0

    def test_identity_flag_follows_a_directly_built_p_hat(self):
        eye = np.eye(2)
        doubled = RewardSpec(q=eye, r=np.eye(1), p_hat=2.0 * eye)
        assert not doubled.p_hat_is_identity
        assert reward(np.array([3.0, 4.0]), doubled) == math.sqrt(50.0)
        assert RewardSpec(q=eye, r=np.eye(1), p_hat=eye).p_hat_is_identity
        with pytest.raises(TypeError):
            RewardSpec(q=eye, r=np.eye(1), p_hat=2.0 * eye,
                       p_hat_is_identity=True)

    def test_degenerate_quadratic(self):
        policy = Policy(pi=np.zeros((1, 2)))
        spec = RewardSpec.bind(Q=np.diag([4.0, 0.0]), R=np.eye(1),
                               policy=policy)
        assert reward(np.array([1.0, 7.0]), spec) == pytest.approx(2.0)

    def test_policy_term_enters(self):
        policy = Policy(pi=np.array([[1.0, 0.0]]))
        spec = RewardSpec.bind(Q=np.zeros((2, 2)), R=np.eye(1) * 9.0,
                               policy=policy)
        # p_hat = pi' R pi = diag(9, 0)
        assert reward(np.array([2.0, 5.0]), spec) == pytest.approx(6.0)

    def test_normalize_caps_spectral_norm(self):
        policy = Policy(pi=np.zeros((1, 1)))
        spec = RewardSpec.bind(Q=np.array([[4.0]]), R=np.eye(1),
                               policy=policy, normalize=True)
        assert spec.p_hat[0, 0] == pytest.approx(1.0)
        assert spec.p_hat_is_identity

    def test_validation(self):
        policy = Policy(pi=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            RewardSpec.bind(Q=np.array([[1.0, 2.0], [0.0, 1.0]]),
                            R=np.eye(1), policy=policy)
        with pytest.raises(ValueError):
            RewardSpec.bind(Q=np.eye(2), R=np.zeros((1, 1)), policy=policy)
        with pytest.raises(ValueError):
            RewardSpec.bind(Q=-np.eye(2), R=np.eye(1), policy=policy)
        with pytest.raises(ValueError):
            RewardSpec.bind(Q=np.eye(3), R=np.eye(1), policy=policy)


class TestStep:
    def test_conditional_moments(self):
        model, cl, spec = one_region_system(0.5, n=3)
        x = np.array([2.0, 0.0, 0.0])
        rng = np.random.default_rng(11)
        draws = np.array([simulate(cl, model, spec, x, 2, rng).states[1]
                          for _ in range(100_000)])
        se_mean = 1.0 / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - [1.0, 0.0, 0.0])
                      < 4 * se_mean)
        # E||x'||^2 = ||Ahat x||^2 + n = 1 + 3; Var||x'||^2 = 2n + 4||mu||^2.
        sq = np.sum(draws ** 2, axis=1)
        se_sq = math.sqrt((2 * 3 + 4 * 1.0) / draws.shape[0])
        assert abs(sq.mean() - 4.0) < 4 * se_sq

    def test_zero_noise_is_deterministic(self):
        model, cl, spec = one_region_system(0.9)
        rng = np.random.default_rng(0)
        out = simulate(cl, model, spec, np.array([10.0]), 2, rng,
                       zero_noise=True).states[1]
        assert out[0] == pytest.approx(9.0)


class TestSimulate:
    def test_single_step_is_start_state(self):
        model, cl, spec = one_region_system(0.9)
        traj = simulate(cl, model, spec, np.array([3.0]), 1,
                        np.random.default_rng(0))
        assert len(traj) == 1
        assert traj.states[0, 0] == 3.0
        assert traj.rewards[0] == 3.0

    def test_rejects_bad_args(self):
        model, cl, spec = one_region_system(0.9)
        with pytest.raises(ValueError):
            simulate(cl, model, spec, np.array([1.0]), 0,
                     np.random.default_rng(0))
        with pytest.raises(ValueError):
            simulate(cl, model, spec, np.zeros(2), 10,
                     np.random.default_rng(0))

    def test_seed_reproducibility(self):
        sys = build_system(2)
        args = (sys.cl, sys.model, sys.spec, np.zeros(2), 500)
        a = simulate(*args, np.random.default_rng(42))
        b = simulate(*args, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.rewards, b.rewards)

    @pytest.mark.parametrize("make, zero_noise", [
        (lambda: case_system(2), False),
        (lambda: case_system(1), False),
        (lambda: case_system(10), False),
        (lambda: case_system(100), False),
        (poly4, False),
        (lambda: mixed_table(0.6, 0.5, 0.8, 0.9), False),
        (lambda: case_system(2), True),
    ], ids=["case-n2", "case-n1", "case-n10", "case-n100", "poly4", "mixed",
            "case-n2-zero-noise"])
    def test_chunked_noise_matches_stepwise(self, make, zero_noise):
        # The path equals the per-step matmul loop, bit for bit.
        model, cl, spec = make()
        x0 = np.resize([1.0, -2.0], model.n)
        traj = simulate(cl, model, spec, x0, 5000, np.random.default_rng(5),
                        zero_noise)
        want = stepwise_path(cl, model, x0, 5000, np.random.default_rng(5),
                             zero_noise)
        assert traj.states.tobytes() == want.tobytes()

    # want: the step of the first divergence, or "no region", with noise
    # and without.
    @pytest.mark.parametrize("make, want", [
        (lambda: scaled_quadrants(2.0, 1.5, 1.9, 2.5), (498, 498)),
        (lambda: gained_system([radial_shell(0.0, 1.0), radial_shell(1.0)],
                               [0.5 * np.eye(2), 3.0 * np.eye(2)]),
         (314, 315)),
        (lambda: mixed_table(1.5, 0.5, 2.5, 1.0), (526, 525)),
        # {x_1 >= 0} alone: a 20 degree turn leaves it, a 0.1 degree turn
        # diverges first.
        (lambda: gained_system([polyhedron([[-1.0, 0.0]], [0.0], True)],
                               [rotation(1.2, 20.0)]),
         ("no region", "no region")),
        (lambda: gained_system([polyhedron([[-1.0, 0.0]], [0.0], True)],
                               [rotation(3.0, 0.1)]), (314, 315)),
    ], ids=["quadrants", "radial", "mixed", "half-plane-exit",
            "half-plane-diverges"])
    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_errors_match_stepwise(self, make, want, zero_noise):
        # The same error with the same values as a check after every
        # step: the step index and norm of the first divergence, or the
        # state with no region.
        model, cl, spec = make()

        def run(path):
            return outcome(lambda: path(
                cl, model, np.array([1.0, 1.0]), 2000,
                np.random.default_rng(1), zero_noise))

        got = run(_path)
        assert got == run(stepwise_path)
        assert (got[1] if got[0] == "diverged" else got[0]) == want[zero_noise]

    @pytest.mark.parametrize("x0, norm", [
        ([1e300, 1e300], math.inf),
        ([1e151, 0.0], 1e151),
        ([math.nan, 0.0], math.nan),
    ], ids=["overflowing", "above-limit", "nan"])
    @pytest.mark.parametrize("n_steps", [1, 50])
    def test_start_state_is_checked(self, x0, norm, n_steps):
        # x0 is reported at its own step index, t0, before any step.
        model, cl, spec = poly4()

        def run(path):
            return outcome(lambda: path(cl, model, np.array(x0), n_steps,
                                        np.random.default_rng(1), t0=7))

        got, want = run(_path), run(stepwise_path)
        assert got[:2] == want[:2] == ("diverged", 7)
        assert np.array_equal([got[2], want[2]], [norm, norm], equal_nan=True)

    def test_diverged_chain_stops_within_a_check_block(self, monkeypatch):
        # The norm check every 1,024 rows ends the loop, so a chain
        # that diverges at step 499 is not stepped on to its last row.
        model, cl, spec = one_region_system(2.0)
        calls = 0
        find = model.table.find

        def counted(x):
            nonlocal calls
            calls += 1
            return find(x)

        monkeypatch.setattr(model.table, "find", counted)

        def run(path):
            return outcome(lambda: path(cl, model, np.array([1.0]),
                                        1_000_000, np.random.default_rng(0)))

        got = run(_path)
        assert calls <= 499 + 1024
        assert got == run(stepwise_path)
        assert got[:2] == ("diverged", 499)

    def test_zero_noise_trajectory(self):
        model, cl, spec = one_region_system(0.9)
        traj = simulate(cl, model, spec, np.array([10.0]), 3,
                        np.random.default_rng(0), zero_noise=True)
        assert traj.states[:, 0] == pytest.approx([10.0, 9.0, 8.1])

    def test_rewards_match_states(self):
        # simulate and rewards_of give the per-vector reward bit for bit,
        # for the identity and a dense P_hat.
        rng = np.random.default_rng(9)
        for n in (1, 2, 10, 100):
            sys = build_system(n)
            q = rng.standard_normal((n, n))
            dense = RewardSpec.bind(Q=q @ q.T, R=np.eye(1),
                                    policy=sys.policy)
            for spec in (sys.spec, dense):
                traj = simulate(sys.cl, sys.model, spec, np.zeros(n), 300,
                                np.random.default_rng(n))
                again = np.array([reward(x, spec) for x in traj.states])
                assert np.array_equal(traj.rewards, again)
                assert np.array_equal(rewards_of(traj.states, spec), again)

    def test_time_average_respects_drift_ceiling(self):
        sys = build_system(1)
        traj = simulate(sys.cl, sys.model, sys.spec, np.zeros(1), 20_000,
                        np.random.default_rng(17))
        ceiling = sys.cert.k / (1.0 - sys.cert.gamma)
        assert np.mean(traj.states[:, 0] ** 2) <= 1.05 * ceiling

    def test_divergence_guard_fires(self):
        model, cl, spec = one_region_system(2.0)
        with pytest.raises(DivergenceError) as info:
            simulate(cl, model, spec, np.array([1.0]), 600,
                     np.random.default_rng(0), zero_noise=True)
        assert info.value.step_index > 0
        assert info.value.norm > 1e150


@np.errstate(all="ignore")
def two_phase_path(cl, model, x0, n_steps, rng, zero_noise=False, t0=0):
    """The oracle of ``_path``, with its signature: the loop that checked
    the newest state before each block of ``_CHECK_ROWS`` rows, then the
    norms of every row it wrote in one pass after the loop."""
    x = np.asarray(x0, dtype=float)
    states = np.empty((n_steps, model.n))
    states[0] = x
    if zero_noise:
        states[1:] = -0.0
    else:
        rng.standard_normal(out=states[1:])
    find, none = model.table.find, model.table.none
    end = n_steps
    for lo in range(1, n_steps, _CHECK_ROWS):
        if not math.sqrt(x.dot(x)) <= DIVERGENCE_LIMIT:
            end = lo
            break
        for t, row in enumerate(states[lo:lo + _CHECK_ROWS], lo):
            j = find(x)
            if j == none:
                end = t
                break
            row += cl.ahat[j].dot(x)
            x = row
        if end < n_steps:
            break
    norms = _row_norms(states[:end])
    bad = np.flatnonzero(~(norms <= DIVERGENCE_LIMIT))
    if bad.size:
        k = int(bad[0])
        raise DivergenceError(step_index=t0 + k, norm=float(norms[k]))
    if end < n_steps:
        raise NoRegion(x.copy())
    return states


def shell_chain(*pieces):
    """A 1-D chain on radial shells, one ``(r_lo, r_hi, gain)`` each;
    beyond the last ``r_hi`` no region holds the state."""
    return gained_system([radial_shell(lo, hi) for lo, hi, _ in pieces],
                         [[[g]] for _, _, g in pieces])


def diverging_at(k):
    """One shell of gain ``g`` from ``x0 = 1e6``: ``g^(k - 1/2) x0`` is
    the guard, so row ``k`` is the first above it, noise or none."""
    return shell_chain((0.0, math.inf, (DIVERGENCE_LIMIT / 1e6)
                        ** (1 / (k - 0.5))))


def path_outcome(path, make, x0, n_steps, zero_noise=False, t0=0):
    """How ``path`` ended on a fresh ``make()`` and ``default_rng(1)``: its
    states, error values or state with no region, as exact bytes, then
    the generator's next draw."""
    model, cl, _ = make()
    rng = np.random.default_rng(1)
    try:
        got = ("completed", path(cl, model, np.array(x0, dtype=float),
                                 n_steps, rng, zero_noise, t0).tobytes())
    except DivergenceError as exc:
        got = ("diverged", exc.step_index, float(exc.norm).hex())
    except NoRegion as exc:
        got = ("no region", exc.x.tobytes())
    return got + (rng.standard_normal(),)


class TestPathOracle:
    """``_path`` checks each block once, after writing it; every outcome
    equals the two-phase loop's bit for bit."""

    def check(self, make, x0, n_steps, zero_noise=False, t0=0):
        got = path_outcome(_path, make, x0, n_steps, zero_noise, t0)
        assert got == path_outcome(two_phase_path, make, x0, n_steps,
                                   zero_noise, t0)
        return got

    @pytest.mark.parametrize("make", [poly4, lambda: case_system(2)],
                             ids=["poly4", "shells"])
    @pytest.mark.parametrize("x0", [[1e151, 0.0], [1e300, 1e300]])
    @pytest.mark.parametrize("n_steps", [1, 2])
    def test_start_above_the_guard(self, make, x0, n_steps):
        assert self.check(make, x0, n_steps, t0=7)[:2] == ("diverged", 7)

    @pytest.mark.parametrize("k", [1, 1023, 1024, 1025, 2048])
    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_divergence_at_block_edges(self, k, zero_noise):
        got = self.check(lambda: diverging_at(k), [1e6], 3000, zero_noise)
        assert got[:2] == ("diverged", k)

    @pytest.mark.parametrize("n_steps", [3, 2000])
    def test_excursion_back_below_the_guard(self, n_steps):
        # Row 1 is 1e151 and row 2 back at 1e149: the last row written
        # can pass while an earlier one fails.
        def make():
            return shell_chain((0.0, 1e150, 100.0), (1e150, math.inf, 0.01))

        assert self.check(make, [1e149], n_steps)[:2] == ("diverged", 1)

    @pytest.mark.parametrize("gain, limit, x0, want", [
        (1.5, 1e10, 1.0, ("no region",)),
        # Above the guard at row 150, outside the shell at row 153.
        (10.0, 1e153, 1.0, ("diverged", 150)),
        # Above the guard at row 462, outside the shell at row 1,847.
        (1.005, 1e153, 1e149, ("diverged", 462)),
    ], ids=["alone", "same-block", "earlier-block"])
    def test_no_region(self, gain, limit, x0, want):
        got = self.check(lambda: shell_chain((0.0, limit, gain)), [x0], 3000)
        assert got[:len(want)] == want

    @pytest.mark.parametrize("n_steps", [1, 2, 2000])
    def test_nan_start(self, n_steps):
        got = self.check(poly4, [math.nan, 0.0], n_steps)
        assert got[:3] == ("diverged", 0, "nan")

    def test_nan_state_after_an_overflow(self):
        # Row 1 overflows to inf and row 2 is NaN (inf times 0), which
        # has no region; the divergence at row 1 is reported.
        def make():
            return gained_system([radial_shell(0.0)], [1e308 * np.eye(2)])

        got = self.check(make, [10.0, 10.0], 2000)
        assert got[:3] == ("diverged", 1, "inf")

    @pytest.mark.parametrize("make", [
        poly4, lambda: case_system(1), lambda: dense_shells(3)],
        ids=["poly4", "readme", "dense-shells"])
    @pytest.mark.parametrize("zero_noise", [False, True])
    def test_completed_paths(self, make, zero_noise):
        x0 = np.resize([3.0, -2.0, 1.0], make()[0].n)
        assert self.check(make, x0, 5000, zero_noise, t0=3)[0] == "completed"

    def test_extension_chunk_start(self, monkeypatch):
        # Zero dynamics inside radius 2.5 and gain 2 outside: the chain
        # regenerates, then overflows past a horizon of 300, in an
        # extension chunk whose t0 is at least 300.
        model, cl, _ = gained_system(
            [radial_shell(0.0, 2.5), radial_shell(2.5)], [[[0.0]], [[2.0]]])
        minor = Minorization(n=1, s_radius=0.5, log_beta=math.log(0.3))
        reports = []
        for path in (_path, two_phase_path):
            monkeypatch.setattr(regen, "_path", path)
            rng = np.random.default_rng(30)
            with pytest.raises(DivergenceError) as info:
                simulate_regenerative(cl, model, minor, 300, rng,
                                      x0=np.array([0.0]))
            reports.append((info.value.step_index, info.value.norm,
                            rng.standard_normal()))
        assert reports[0] == reports[1] and reports[0][0] > 300

    @pytest.mark.parametrize("make", [poly4, lambda: case_system(1)],
                             ids=["poly4", "readme"])
    def test_memory_beyond_the_states(self, make):
        # Each block's norms are its own: 200,000 states allocate at most
        # 64 KiB beyond their array, where one pass over the whole path
        # would take two path-length arrays.
        model, cl, _ = make()
        x0 = np.zeros(model.n)
        _path(cl, model, x0, 5000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            states = _path(cl, model, x0, 200_000, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - states.nbytes <= 64 * 1024


class TestModelValidation:
    def test_shape_mismatches(self):
        with pytest.raises(ValueError):
            SldsModel(n=2, p=1, regions=(radial_shell(0.0, math.inf),),
                      dynamics=((np.eye(3), np.zeros((2, 1))),))
        with pytest.raises(ValueError):
            SldsModel(n=2, p=1, regions=(radial_shell(0.0, math.inf),),
                      dynamics=((np.eye(2), np.zeros((3, 1))),))

    def test_region_dynamics_count_must_match(self):
        with pytest.raises(ValueError):
            SldsModel(n=1, p=1,
                      regions=(radial_shell(0.0, 1.0),
                               radial_shell(1.0, math.inf)),
                      dynamics=((np.eye(1), np.zeros((1, 1))),))

    def test_nonfinite_dynamics_rejected(self):
        with pytest.raises(ValueError):
            SldsModel(n=1, p=1, regions=(radial_shell(0.0, math.inf),),
                      dynamics=((np.array([[np.nan]]), np.zeros((1, 1))),))
