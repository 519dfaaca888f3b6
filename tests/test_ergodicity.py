"""Certificate arithmetic, drift checks, overlap and minorization."""

from __future__ import annotations

import dataclasses
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special, stats

from sldsim import (
    ClassificationConflict,
    NotCertifiable,
    Policy,
    Region,
    SldsModel,
    UncoveredExterior,
    beta_lower_bound,
    build_case_study,
    certify,
    classify_regions,
    closed_loop,
    drift_check,
    gaussian_overlap,
    load_model_config,
    log_ball_volume,
    log_gaussian_overlap,
    polyhedron,
    radial_shell,
    region_of,
    sample_in_ball,
)
import sldsim.ergodicity as ergodicity_mod
from sldsim.errors import ConfigError
from sldsim.ergodicity import (_DRIFT_SLACK, _MAX_SUBSETS, GAMMA_FLOOR,
                               RegionClassification, _reaches)

from conftest import CASE_RHO, build_system, poly4, zero_system

POLY4_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "poly4.json"


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
        # A half space reaches outside any ball; declaring it bounded is a
        # conflict.
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
        # A NaN or infinite radius is refused by name before the reach
        # tests, where NaN makes numpy's SVD fail on poly4.
        for model in (build_system(1).model, poly4()[0]):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(ValueError, match="rho_ball"):
                    classify_regions(model, bad)

    @pytest.mark.parametrize("n, half_width", [(1, 1.0), (2, 1.0),
                                               (2, 0.01)],
                             ids=["1", "2", "2-thin"])
    def test_box_outside_the_ball_is_not_bounded(self, n, half_width):
        # A sampled probe let such boxes pass as bounded: certify then
        # gave gamma = 0.25 and c = 25, and the drift inequality failed at
        # x = 11.5.  The thin box [11, 12] x [-0.01, 0.01] passed the
        # 1,000-direction ray probe (seed 0).
        with pytest.raises(ClassificationConflict) as info:
            classify_regions(exterior_box(n, False, half_width), 10.0)
        assert info.value.region_index == 0

    def test_box_outside_the_ball_declared_unbounded_is_not_certifiable(self):
        model = exterior_box(1, declared_unbounded=True)
        cls_ = classify_regions(model, 10.0)
        assert cls_.unbounded_set == (0, 1)
        cl = closed_loop(model, Policy(pi=np.zeros((1, 1))))
        with pytest.raises(NotCertifiable) as info:
            certify(cl, cls_, 10.0, 1)
        assert info.value.region_index == 0
        assert info.value.gamma == pytest.approx(25.0)

    def test_thin_cone_declared_unbounded_is_accepted(self):
        # The cone {x_1 >= 0, |x_2| <= 1e-4 x_1} is missed by a sampled
        # probe (a false conflict at seed 0 with 1,000 directions).
        cone = polyhedron([[-1.0, 0.0], [-1e-4, 1.0], [-1e-4, -1.0]],
                          np.zeros(3), True)
        model = SldsModel(n=2, p=1, regions=(cone, radial_shell(0.0)),
                          dynamics=((0.5 * np.eye(2), np.zeros((2, 1))),)
                          * 2)
        assert classify_regions(model, 10.0).unbounded_set == (0, 1)

    def test_undeclared_polyhedra_are_classified(self):
        eye = np.eye(2)
        box = np.vstack([eye, -eye])
        regions = (polyhedron(box, np.ones(4)),                 # inside
                   polyhedron(box, [12.0, 1.0, -11.0, 1.0]),    # outside
                   polyhedron([[1.0, 0.0]], [0.0]),             # half-plane
                   radial_shell(0.0))
        model = SldsModel(n=2, p=1, regions=regions,
                          dynamics=((0.5 * eye, np.zeros((2, 1))),) * 4)
        cls_ = classify_regions(model, 10.0)
        assert cls_ == RegionClassification(unbounded_set=(1, 2, 3),
                                            bounded_set=(0,))


def exterior_box(n, declared_unbounded, half_width=1.0):
    """The box ``[11, 12] x [-w, w]^(n - 1)`` with gain 5, wholly outside
    the ball of radius 10, then the whole space with gain 0.5."""
    L = np.vstack([np.eye(n), -np.eye(n)])
    w = half_width * np.ones(n - 1)
    C = np.r_[12.0, w, -11.0, w]
    return SldsModel(
        n=n, p=1,
        regions=(polyhedron(L, C, declared_unbounded), radial_shell(0.0)),
        dynamics=((5.0 * np.eye(n), np.zeros((n, 1))),
                  (0.5 * np.eye(n), np.zeros((n, 1)))))


def reach_oracle(L, C, r, dirs):
    """Whether ``{x : L x <= C}`` holds a point of norm above ``r (1 +
    1e-9) + 1e-9``, by brute force: some vertex (the solution of ``n``
    rows that meets the others) lies beyond it, or some direction ``u``
    of ``dirs`` has ``L u < 0``, so that ``t u`` lies in the polyhedron
    for every large ``t``.  Right for rows in general position whose
    recession cone, if not ``{0}``, some direction enters."""
    L, C = np.asarray(L, dtype=float), np.asarray(C, dtype=float)
    near = r * (1.0 + 1e-9) + 1e-9
    for rows in itertools.combinations(range(len(L)), L.shape[1]):
        sub = L[list(rows)]
        if np.linalg.cond(sub) > 1e9:
            continue
        x = np.linalg.solve(sub, C[list(rows)])
        if np.all(L @ x <= C + 1e-9 * (1.0 + np.abs(C))) and \
                np.linalg.norm(x) > near:
            return True
    return bool(((dirs @ L.T).max(axis=1) < 0.0).any())


def unit_directions(n, count=100_000, seed=0):
    d = np.random.default_rng(seed).standard_normal((count, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def classify_oracle(model, rho_ball):
    """:func:`classify_regions` by :func:`reach_oracle`: the
    classification, the index of the first conflicting region, or
    ``"uncovered"``."""
    dirs = unit_directions(model.n)
    unbounded, bounded = [], []
    for j, region in enumerate(model.regions):
        reaches = (region.r_hi > rho_ball if region.kind == "radial"
                   else reach_oracle(region.L, region.C, rho_ball, dirs))
        if region.declared_unbounded not in (None, reaches):
            return j
        (unbounded if reaches else bounded).append(j)
    if not unbounded:
        return "uncovered"
    return (tuple(unbounded), tuple(bounded))


def classify_outcome(model, rho_ball):
    """:func:`classify_regions` in the oracle's terms."""
    try:
        cls_ = classify_regions(model, rho_ball)
    except ClassificationConflict as exc:
        return exc.region_index
    except UncoveredExterior:
        return "uncovered"
    return (cls_.unbounded_set, cls_.bounded_set)


def with_flags(model, flags):
    """``model`` with its polyhedra's ``declared_unbounded`` replaced, in
    order, by ``flags``."""
    flags = iter(flags)
    regions = tuple(
        polyhedron(r.L, r.C, next(flags)) if r.kind == "polyhedral" else r
        for r in model.regions)
    return SldsModel(n=model.n, p=model.p, regions=regions,
                     dynamics=model.dynamics)


def probe_models(n):
    """Models whose polyhedra either stay inside radius 10 or reach
    infinity along a cone of directions, declared truthfully."""
    rng = np.random.default_rng(40 + n)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    eye = np.eye(n)
    box = np.vstack([eye, -eye])
    models = {
        "half-plane pair": (polyhedron([v], [0.0], True),
                            polyhedron([-v], [0.0], True)),
        "offset half-planes": (polyhedron([v], [-3.0], True),
                               polyhedron([-v], [3.0], True)),
        "orthant cone": (polyhedron(-eye, np.zeros(n), True),
                         radial_shell(0.0)),
        "random cone": (polyhedron(rng.standard_normal((n, n)),
                                   np.zeros(n), True),
                        polyhedron(v[None, :], [0.0], True),
                        radial_shell(0.0)),
        "boxes inside the ball": (polyhedron(box, np.ones(2 * n), False),
                                  polyhedron(box, np.r_[4.0 * np.ones(n),
                                                        -2.0 * np.ones(n)],
                                             False),
                                  radial_shell(0.0)),
        "overlapping polyhedra": (polyhedron(box, 2.0 * np.ones(2 * n),
                                             False),
                                  polyhedron([v], [1.0], True),
                                  polyhedron([-v], [1.0], True)),
    }
    if n == 2:
        models["poly4"] = poly4()[0].regions
        models["poly4.json"] = load_model_config(POLY4_JSON).model.regions
    return {name: SldsModel(n=n, p=1, regions=regions,
                            dynamics=((0.5 * eye, np.zeros((n, 1))),)
                            * len(regions))
            for name, regions in models.items()}


class TestClassifyProbeOracle:
    """:func:`classify_regions` and its exact reach test against a dense
    probe: vertices by brute force plus 100,000 directions."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_matches_oracle(self, n):
        for name, model in probe_models(n).items():
            truth = [r.declared_unbounded for r in model.regions
                     if r.kind == "polyhedral"]
            # The truthful flags, then each flag flipped in turn.
            variants = [truth] + [
                [f != (i == k) for i, f in enumerate(truth)]
                for k in range(len(truth))]
            for flags in variants:
                m = with_flags(model, flags)
                want = classify_oracle(m, 10.0)
                assert classify_outcome(m, 10.0) == want, (name, flags)
                if flags is truth:
                    assert not isinstance(want, int), name

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_polyhedra_match_oracle(self, n):
        # Mostly more rows than dimensions, so that polytopes are common.
        # Rows are redrawn until every n of them are well conditioned: a
        # nearly singular subset can leave a recession cone too thin for
        # 100,000 directions (as on one draw at n = 3, cond 2,484).
        rng = np.random.default_rng(100 + n)
        dirs = unit_directions(n)
        seen = set()
        for _ in range(200):
            m = int(rng.integers(1, 7) if rng.random() < 0.3
                    else rng.integers(n + 1, 7))
            L = rng.standard_normal((m, n))
            while max((np.linalg.cond(L[list(rows)]) for rows in
                       itertools.combinations(range(m), n)), default=0) > 100:
                L = rng.standard_normal((m, n))
            C = rng.normal(0.5, 1.0, m)
            r = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
            want = reach_oracle(L, C, r, dirs)
            assert _reaches(L, C, r, 0) == want, (L, C, r)
            seen.add((want, reach_oracle(L, C, 0.0, dirs[:0])))
        # Empty sets, polytopes inside the ball, and polyhedra beyond it.
        assert seen >= {(True, True), (False, True), (False, False)}


class TestExactReach:
    """:func:`_reaches` on polyhedra whose answer is known."""

    EYE = np.eye(2)

    @pytest.mark.parametrize("L, C, reaches", [
        ([[1.0, 0.0]], [0.0], True),                    # half-plane
        ([[1.0, 1.0]], [-50.0], True),                  # far half-plane
        ([[0.0, 1.0], [0.0, -1.0]], [1.0, 1.0], True),  # strip: a line
        ([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0], False),   # empty strip
        ([[1.0], [-1.0]], [-1.0, -1.0], False),         # empty interval
        # Empty, with the recession ray (0, 1).
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]], [-1.0, -1.0, 0.0], False),
        ([[0.0, 0.0]], [1.0], True),                    # 0 <= 1: all
        ([[0.0, 0.0]], [-1.0], False),                  # 0 <= -1: none
        ([[0.0, 0.0], [1.0, 0.0]], [0.0, 0.0], True),   # a zero row
        # The farthest vertex at exactly r = 10, then just beyond it.
        ([[1.0], [-1.0]], [10.0, 0.0], False),
        ([[1.0], [-1.0]], [10.0 + 1e-6, 0.0], True),
        # The triangle (0, 0), (6, 0), (6, 8), then with x <= 6.001.  The
        # vertex (6, 8) comes out at norm 10.000000000000002, so with no
        # margin the first would read as reaching.
        ([[-4.0, 3.0], [1.0, 0.0], [0.0, -1.0]], [0.0, 6.0, 0.0], False),
        ([[-4.0, 3.0], [1.0, 0.0], [0.0, -1.0]], [0.0, 6.001, 0.0], True),
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
         [12.0, -11.0, 0.01, 0.01], True),              # the thin box
        ([[-1.0, 0.0], [-1e-4, 1.0], [-1e-4, -1.0]],
         [0.0, 0.0, 0.0], True),                        # the thin cone
    ])
    def test_known_answers(self, L, C, reaches):
        L, C = np.asarray(L, dtype=float), np.asarray(C, dtype=float)
        assert _reaches(L, C, 10.0, 0) is reaches
        # Row scaling leaves the set, and so the answer, unchanged.
        scale = np.arange(1.0, len(C) + 1.0) * 1e3
        assert _reaches(L * scale[:, None], C * scale, 10.0, 0) is reaches

    @pytest.mark.parametrize("r, reaches", [(2.6, True), (2.7, False)])
    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_box_across_chunks(self, monkeypatch, r, reaches, chunk):
        # The cube [-1, 1]^7 has C(15, 7) = 6,435 row subsets: two stacked
        # SVDs, or one per subset.  Its corners have norm sqrt(7) = 2.6458.
        monkeypatch.setattr(ergodicity_mod, "_SUBSET_CHUNK", chunk)
        L = np.vstack([np.eye(7), -np.eye(7)])
        assert _reaches(L, np.ones(14), r, 0) is reaches
        # Without its last face the cube is a half-open prism, unbounded.
        assert _reaches(L[:-1], np.ones(13), r, 0) is True

    def test_too_many_row_subsets(self):
        n = 5
        m = next(m for m in range(n, 100)
                 if math.comb(m + 1, n) > _MAX_SUBSETS)
        L = np.random.default_rng(0).standard_normal((m, n))
        with pytest.raises(ConfigError, match="region 3: .* row subsets"):
            _reaches(L, np.ones(m), 1.0, 3)


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

    def test_overflowing_r_hat_is_refused(self):
        # K = 4e300 and the small-set radius are finite; r_hat = 2 K /
        # (gamma (1 - gamma)) is not, since 1 - gamma is 1.1e-16.
        model, policy, _ = build_case_study(1, 0.99999999999999994, 2.0,
                                            1e150)
        with pytest.raises(ConfigError, match="rho = 1e\\+150.*r_hat"):
            certify(closed_loop(model, policy),
                    classify_regions(model, 1e150), 1e150, 1)

    def test_dimension_must_match_closed_loop(self):
        # A wrong n would silently enter K = n + c rho^2.
        sys = build_system(1)
        cls_ = classify_regions(sys.model, CASE_RHO)
        with pytest.raises(ValueError, match="dimension 1"):
            certify(sys.cl, cls_, CASE_RHO, 5)


class TestBetaLowerBound:
    def test_closed_form(self):
        sys = build_system(1)
        s = sys.cert.s_radius
        d = s * (1.0 + 2.0)
        expected = -0.5 * math.log(2 * math.pi) - 0.5 * d * d
        assert beta_lower_bound(sys.cert.max_gain, s, 1) == pytest.approx(
            expected, rel=1e-15)

    def test_monotone_in_radius(self):
        assert beta_lower_bound(2.0, 2.0, 2) > beta_lower_bound(2.0, 3.0, 2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            beta_lower_bound(2.0, -1.0, 1)

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
        report = drift_check(sys.cl, sys.model, sys.cert, radius * dirs)
        assert not report.quadratic_violations
        assert len(report.scaled_violations) == 200

    def test_violation_is_reported_by_row(self):
        sys = build_system(1)
        doctored = dataclasses.replace(sys.cert, gamma=0.5, k=1.0)
        report = drift_check(sys.cl, sys.model, doctored,
                             np.array([[50.0]]))
        assert not report.ok
        assert report.quadratic_violations == (0,)

    def test_samples_must_be_rows_of_length_n(self):
        sys = build_system(2)
        for bad in (np.zeros((3, 3)), np.zeros(5), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="rows of length 2"):
                drift_check(sys.cl, sys.model, sys.cert, bad)

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
        report = drift_check(cl, model, cert, xs)
        assert not report.quadratic_violations
        # Rounding does put the attained side above the bound, by ulps.
        assert 0.0 < report.worst_quadratic_margin < 1e-13

    def test_relative_violation_of_1e9_is_reported(self):
        model, cl, cert, xs = self.rotated_poly4()
        shrunk = dataclasses.replace(cert, gamma=cert.gamma * (1 - 1e-9),
                                     k=cert.k * (1 - 1e-9))
        report = drift_check(cl, model, shrunk, xs)
        in_worst = sum(region_of(model, x) == 3 for x in xs)
        assert len(report.quadratic_violations) == in_worst > 0

    def test_exactness_against_manual_expectation(self):
        sys = build_system(2)
        x = np.array([3.0, -4.0])
        report = drift_check(sys.cl, sys.model, sys.cert, x)
        j = region_of(sys.model, x)
        pv = float(np.dot(sys.cl.ahat[j] @ x, sys.cl.ahat[j] @ x)) + 2
        bound = sys.cert.gamma * 25.0 + sys.cert.k
        assert report.worst_quadratic_margin == pytest.approx(pv - bound)


def per_state_drift(cl, model, cert, samples):
    """The per-state drift loop :func:`drift_check` replaced, kept as its
    oracle: violation rows and worst margins of both inequalities."""
    n = cert.n
    quad, scaled = [], []
    worst_q = worst_s = -math.inf
    for row, x in enumerate(samples):
        j = region_of(model, x)
        mean_sq = float(np.dot(cl.ahat[j] @ x, cl.ahat[j] @ x))
        v = float(np.dot(x, x))
        pv = mean_sq + n
        bound = cert.gamma * v + cert.k
        worst_q = max(worst_q, pv - bound)
        if pv - bound > _DRIFT_SLACK * abs(bound):
            quad.append(row)
        vh = 1.0 + (1.0 - cert.gamma) * v / (2.0 * n)
        pvh = 1.0 + (1.0 - cert.gamma) * pv / (2.0 * n)
        in_s = math.sqrt(v) <= cert.s_radius
        bound_h = cert.lam * vh + (cert.k2 if in_s else 0.0)
        worst_s = max(worst_s, pvh - bound_h)
        if pvh - bound_h > _DRIFT_SLACK * abs(bound_h):
            scaled.append(row)
    return tuple(quad), tuple(scaled), worst_q, worst_s


def spread_states(rng, n, radius, rows):
    """Rows at uniform radii in [0, radius] on random directions, with
    the origin and states on the unit axes at radius CASE_RHO, the
    case study's region boundary."""
    dirs = rng.standard_normal((rows, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    xs = dirs * (radius * rng.random(rows))[:, None]
    xs[0] = 0.0
    xs[1:1 + n] = CASE_RHO * np.eye(n)
    return xs


def drift_cases():
    for n in (1, 2, 10, 50, 200):
        for gain in (0.5, 0.9):
            for shrunk in (False, True):
                yield pytest.param(n, gain, shrunk,
                                   id=f"n{n}-g{gain}-"
                                      f"{'shrunk' if shrunk else 'cert'}")


class TestDriftRowPass:
    """:func:`drift_check` against the per-state loop it replaced: the
    same violation rows and the same worst margins, compared with ``==``."""

    @staticmethod
    def assert_matches_oracle(cl, model, cert, xs):
        report = drift_check(cl, model, cert, xs)
        quad, scaled, worst_q, worst_s = per_state_drift(cl, model, cert, xs)
        assert report.quadratic_violations == quad
        assert report.scaled_violations == scaled
        assert report.worst_quadratic_margin == worst_q
        assert report.worst_scaled_margin == worst_s
        assert report.num_samples == len(xs)
        return report

    @pytest.mark.parametrize("n, gain, shrunk", drift_cases())
    def test_case_study(self, n, gain, shrunk):
        model, policy, _ = build_case_study(n, gain, 2.0, CASE_RHO)
        cl = closed_loop(model, policy)
        cert = certify(cl, classify_regions(model, CASE_RHO), CASE_RHO, n)
        if shrunk:
            cert = dataclasses.replace(cert, gamma=cert.gamma / 2.0)
        rng = np.random.default_rng(1000 * n + int(10 * gain))
        xs = spread_states(rng, n, 3.0 * cert.s_radius, 1000)
        report = self.assert_matches_oracle(cl, model, cert, xs)
        # The certified quadratic drift holds; the halved gamma breaks it.
        assert bool(report.quadratic_violations) == shrunk

    def test_poly4_config(self):
        cfg = load_model_config(POLY4_JSON)
        cl = closed_loop(cfg.model, cfg.policy)
        cert = certify(cl, classify_regions(cfg.model, cfg.rho_ball),
                       cfg.rho_ball, 2)
        rng = np.random.default_rng(11)
        xs = spread_states(rng, 2, 3.0 * cert.s_radius, 5000)
        xs[-1000:, rng.integers(0, 2, 1000)] = 0.0   # ties on the axes
        self.assert_matches_oracle(cl, cfg.model, cert, xs)

    def test_equality_holds_on_rotated_poly4(self):
        model, cl, cert, xs = TestDriftCheck.rotated_poly4()
        self.assert_matches_oracle(cl, model, cert, xs)
        shrunk = dataclasses.replace(cert, gamma=cert.gamma * (1 - 1e-9),
                                     k=cert.k * (1 - 1e-9))
        report = self.assert_matches_oracle(cl, model, shrunk, xs)
        assert report.quadratic_violations


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

    def test_matches_the_gammaln_form(self):
        # math.lgamma keeps scipy.special off the volume's path; it is
        # scipy's gammaln to within 12 ulps for every n up to 2,000.
        for n in range(1, 2001):
            for r in (1e-3, 2.0 / 3.0, 1.0, 2.5):
                terms = ((n / 2.0) * math.log(math.pi), n * math.log(r),
                         float(special.gammaln(n / 2.0 + 1.0)))
                assert abs(log_ball_volume(n, r)
                           - (terms[0] + terms[1] - terms[2])) <= \
                    16 * np.spacing(max(map(abs, terms)))


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

