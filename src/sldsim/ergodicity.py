"""Geometric-ergodicity certificates for switched linear systems.

The certificate machinery verifies two facts about the closed loop:

1. A quadratic drift inequality: with ``V(x) = ||x||^2``, one step of the
   chain satisfies ``E[V(x') | x] <= gamma V(x) + K`` where ``gamma`` is the
   worst squared gain among regions reaching outside a ball of radius
   ``rho_ball`` and ``K = n + c rho_ball^2`` absorbs the bounded regions.
2. A minorization on a compact ball ``S``: ``P(x, .) >= beta nu_hat(.)``
   for all ``x`` in ``S``, with ``nu_hat`` uniform on ``S`` and ``beta``
   bounded below in closed form through the worst mean displacement.

Together these imply geometric mixing to a unique invariant distribution,
and they supply every constant consumed by the regenerative estimators and
the sample-complexity bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClassificationConflict,
    DriftViolation,
    MinorizationViolation,
    NotCertifiable,
    UncoveredExterior,
)
from .model import ClosedLoop, SldsModel, region_of

GAMMA_FLOOR = 1e-6

# Rounding allowance of the drift spot checks, 16 ulps of the bound: the
# two sides of an inequality that holds with equality (an isometry scaled
# to the worst gain) differ by a few ulps in floating point.
_DRIFT_SLACK = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class RegionClassification:
    """Region indices split by whether they reach outside the rho ball."""

    unbounded_set: tuple[int, ...]
    bounded_set: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """All constants of a verified geometric-ergodicity certificate.

    Fields
    ------
    n : state dimension.
    rho_ball : radius of the ball that may contain expanding dynamics.
    gamma : max squared spectral norm over regions reaching outside the
        ball; must be < 1.
    c : max squared spectral norm over the remaining (interior) regions.
    k : drift offset ``n + c rho_ball^2``.
    r_hat : coupling-region diameter ``2 k / (gamma (1 - gamma))``.
    s_radius : radius of the small set ``S``, ``sqrt(2 (n + c rho^2 + 1))``.
    lam : drift rate for the scaled Lyapunov function, in (gamma, 1).
    k2 : drift offset for the scaled function, ``3/2 + 2c + c^2 rho^2``.
    log_beta : log of the minorization constant on ``S`` (closed form;
        beta itself underflows doubles beyond a few dimensions).
    max_gain : max spectral norm over all regions (not squared).
    nu_hat : human-readable descriptor of the minorization measure.
    """

    n: int
    rho_ball: float
    gamma: float
    c: float
    k: float
    r_hat: float
    s_radius: float
    lam: float
    k2: float
    log_beta: float
    max_gain: float
    nu_hat: str


@dataclass(frozen=True)
class DriftSample:
    """One drift violation: the state, the attained value, and the bound."""

    x: np.ndarray
    attained: float
    bound: float
    which: str

    def __str__(self) -> str:
        return (f"{self.which}: attained {self.attained!r} > bound "
                f"{self.bound!r} at ||x|| = {np.linalg.norm(self.x)!r}")


@dataclass(frozen=True)
class DriftReport:
    num_samples: int
    quadratic_violations: tuple[DriftSample, ...]
    scaled_violations: tuple[DriftSample, ...]
    worst_quadratic_margin: float
    worst_scaled_margin: float

    @property
    def ok(self) -> bool:
        return not self.quadratic_violations and not self.scaled_violations


@dataclass(frozen=True)
class MinorizationCase:
    point_index: int
    box_index: int
    log_p: float
    log_rhs: float

    @property
    def ok(self) -> bool:
        return self.log_p >= self.log_rhs or self.log_rhs == -math.inf


@dataclass(frozen=True)
class MinorizationReport:
    cases: tuple[MinorizationCase, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)


def classify_regions(model: SldsModel, rho_ball: float,
                     rng: np.random.Generator | None = None,
                     n_directions: int = 1000) -> RegionClassification:
    """Split regions by whether they intersect ``{||x|| > rho_ball}``.

    Radial shells are decided analytically from their outer radius. For a
    polyhedral region the ``declared_unbounded`` flag decides, and the flag
    is cross-checked by probing membership along random directions at two
    radii just outside the ball and far away. The probe catches
    misdeclarations with high probability but can false-alarm on regions
    whose exterior part subtends a very small solid angle; raise
    ``n_directions`` in that case.

    Raises
    ------
    ClassificationConflict
        A declared flag contradicts the directional probe.
    UncoveredExterior
        No region claims any point outside the ball.
    """
    if rho_ball <= 0:
        raise ValueError("rho_ball must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    dirs = None     # drawn at the first polyhedral region
    near = rho_ball * (1.0 + 1e-9) + 1e-9
    far = max(1e6, 1e3 * rho_ball)

    unbounded: list[int] = []
    bounded: list[int] = []
    for j, region in enumerate(model.regions):
        if region.kind == "radial":
            reaches = region.r_hi > rho_ball
            if region.declared_unbounded is not None and \
                    region.declared_unbounded != reaches:
                raise ClassificationConflict(
                    j, f"declared_unbounded={region.declared_unbounded} but "
                       f"the shell ({region.r_lo}, {region.r_hi}] "
                       f"{'reaches' if reaches else 'does not reach'} "
                       f"outside radius {rho_ball}")
        else:
            if dirs is None:
                dirs = rng.standard_normal((n_directions, model.n))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            hit = any(region.contains(near * u) or region.contains(far * u)
                      for u in dirs)
            declared = bool(region.declared_unbounded)
            if declared != hit:
                raise ClassificationConflict(
                    j, f"declared_unbounded={declared} but the directional "
                       f"probe ({n_directions} directions) "
                       f"{'found' if hit else 'found no'} membership outside "
                       f"radius {rho_ball}")
            reaches = declared
        (unbounded if reaches else bounded).append(j)

    if not unbounded:
        raise UncoveredExterior(
            f"no region reaches outside radius {rho_ball}; the exterior "
            "cannot be covered by this partition")
    return RegionClassification(unbounded_set=tuple(unbounded),
                                bounded_set=tuple(bounded))


def certify(cl: ClosedLoop, classification: RegionClassification,
            rho_ball: float, n: int,
            lambda_choice: float | None = None) -> Certificate:
    """Assemble the full certificate, or fail if contraction is violated.

    ``gamma`` must come out below 1 for the exterior regions. ``lam``
    defaults to the midpoint ``(1 + gamma) / 2`` of the admissible interval
    (gamma, 1); any value in that interval is accepted.

    Raises
    ------
    NotCertifiable
        Some region reaching outside the ball has spectral norm >= 1.
    ValueError
        ``n`` is not the closed loop's dimension.
    """
    if n != cl.ahat[0].shape[0]:
        raise ValueError(f"n = {n} but the closed loop has dimension "
                         f"{cl.ahat[0].shape[0]}")
    sq = [x * x for x in cl.ahat_norms]
    gamma = -1.0
    worst = -1
    for j in classification.unbounded_set:
        if sq[j] > gamma:
            gamma = sq[j]
            worst = j
    if gamma >= 1.0:
        raise NotCertifiable(gamma=gamma, region_index=worst)
    c = max((sq[j] for j in classification.bounded_set), default=0.0)
    k = n + c * rho_ball ** 2
    gamma_eff = max(gamma, GAMMA_FLOOR)  # the r_hat formula divides by gamma
    r_hat = 2.0 * k / (gamma_eff * (1.0 - gamma_eff))
    s_radius = math.sqrt(2.0 * (n + c * rho_ball ** 2 + 1.0))
    lam = (1.0 + gamma) / 2.0 if lambda_choice is None else float(lambda_choice)
    if not (gamma < lam < 1.0):
        raise ValueError(f"lambda must lie in (gamma, 1) = ({gamma}, 1), "
                         f"got {lam}")
    k2 = 1.5 + 2.0 * c + c * c * rho_ball ** 2
    log_beta = beta_lower_bound(cl, s_radius, n)
    return Certificate(
        n=n, rho_ball=rho_ball, gamma=gamma, c=c, k=k, r_hat=r_hat,
        s_radius=s_radius, lam=lam, k2=k2, log_beta=log_beta,
        max_gain=max(cl.ahat_norms),
        nu_hat=f"uniform on the ball of radius {s_radius!r}",
    )


def beta_lower_bound(cl: ClosedLoop, s_radius: float, n: int) -> float:
    """Closed-form log lower bound on the minorization constant over ``S``.

    For ``x, y`` in the ball ``S`` of radius ``s_radius`` the Gaussian
    transition density at ``y`` from any region is at least the standard
    normal density at distance ``D = s_radius (1 + max_j ||Ahat_j||)``,
    since ``||y - Ahat_j x|| <= D`` uniformly in ``j``. Hence

        log beta = -(n / 2) log(2 pi) - D^2 / 2.

    Computed fully in the log domain; beta itself underflows double
    precision a few dimensions in.
    """
    if s_radius < 0:
        raise ValueError("s_radius must be nonnegative")
    d_max = s_radius * (1.0 + max(cl.ahat_norms))
    return -(n / 2.0) * math.log(2.0 * math.pi) - 0.5 * d_max * d_max


def log_ball_volume(n: int, radius: float) -> float:
    """Log Lebesgue volume of the n-ball of the given radius."""
    from scipy.special import gammaln

    if radius <= 0:
        return -math.inf
    return (n / 2.0) * math.log(math.pi) + n * math.log(radius) \
        - gammaln(n / 2.0 + 1.0)


def drift_check(cl: ClosedLoop, model: SldsModel, cert: Certificate,
                samples: np.ndarray,
                raise_on_violation: bool = True) -> DriftReport:
    """Check both drift inequalities analytically at each sampled state.

    The one-step expectation of ``V(x) = ||x||^2`` is available exactly:
    ``E[V(x') | x] = ||Ahat_{j(x)} x||^2 + n``, so no Monte Carlo enters.
    The check asserts, per sample,

        ||Ahat_{j(x)} x||^2 + n  <=  gamma ||x||^2 + k

    and the scaled variant with ``Vh(x) = 1 + (1 - gamma) ||x||^2 / (2n)``:

        E[Vh(x') | x]  <=  lam Vh(x) + k2 * 1{||x|| <= s_radius}.

    The scaled inequality is a strictly stronger requirement; it holds at
    the certificate's default ``lam`` only when ``2n <= (1 - gamma)
    (n + c rho^2 + 1)``, so high-dimensional models with small offsets can
    violate it even though the quadratic drift is satisfied. Violations are
    collected and reported either way.  A violation must exceed the bound
    by ``_DRIFT_SLACK`` (16 ulps) of it, so rounding at equality is none;
    worst margins are reported unadjusted.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = cert.n
    quad_viol: list[DriftSample] = []
    scaled_viol: list[DriftSample] = []
    worst_q = -math.inf
    worst_s = -math.inf
    for x in samples:
        j = region_of(model, x)
        mean_sq = float(np.dot(cl.ahat[j] @ x, cl.ahat[j] @ x))
        v = float(np.dot(x, x))
        pv = mean_sq + n
        bound = cert.gamma * v + cert.k
        worst_q = max(worst_q, pv - bound)
        if pv - bound > _DRIFT_SLACK * abs(bound):
            quad_viol.append(DriftSample(x=x, attained=pv, bound=bound,
                                         which="quadratic drift"))
        vh = 1.0 + (1.0 - cert.gamma) * v / (2.0 * n)
        pvh = 1.0 + (1.0 - cert.gamma) * pv / (2.0 * n)
        in_s = math.sqrt(v) <= cert.s_radius
        bound_h = cert.lam * vh + (cert.k2 if in_s else 0.0)
        worst_s = max(worst_s, pvh - bound_h)
        if pvh - bound_h > _DRIFT_SLACK * abs(bound_h):
            scaled_viol.append(DriftSample(x=x, attained=pvh, bound=bound_h,
                                           which="scaled drift"))
    report = DriftReport(
        num_samples=samples.shape[0],
        quadratic_violations=tuple(quad_viol),
        scaled_violations=tuple(scaled_viol),
        worst_quadratic_margin=worst_q,
        worst_scaled_margin=worst_s,
    )
    if raise_on_violation and not report.ok:
        raise DriftViolation(report.quadratic_violations
                             + report.scaled_violations)
    return report


def gaussian_overlap(mu1: np.ndarray, mu2: np.ndarray) -> float:
    """Overlap mass of two unit-covariance Gaussians.

    For N(mu1, I) and N(mu2, I) the integral of the pointwise minimum of
    the densities reduces along the mean-difference axis to

        alpha = 2 Phi(-||mu1 - mu2|| / 2),

    and the total-variation distance between the kernels is
    ``2 (1 - alpha)``.  ``Phi`` is ``scipy.special.ndtr``, the function
    ``scipy.stats.norm.cdf`` evaluates.
    """
    from scipy.special import ndtr

    return 2.0 * float(ndtr(-_distance(mu1, mu2) / 2.0))


def log_gaussian_overlap(mu1: np.ndarray, mu2: np.ndarray) -> float:
    """Log of :func:`gaussian_overlap`; finite for any finite separation."""
    from scipy.special import log_ndtr

    return math.log(2.0) + float(log_ndtr(-_distance(mu1, mu2) / 2.0))


def _distance(mu1, mu2) -> float:
    mu1 = np.asarray(mu1, dtype=float)
    mu2 = np.asarray(mu2, dtype=float)
    if mu1.shape != mu2.shape:
        raise ValueError(f"mean shapes differ: {mu1.shape} vs {mu2.shape}")
    return float(np.linalg.norm(mu1 - mu2))


def sample_in_ball(dim: int, radius: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the dim-ball of the given radius."""
    z = rng.standard_normal(dim)
    z /= np.linalg.norm(z)
    return radius * rng.random() ** (1.0 / dim) * z


def minorization_check(cl: ClosedLoop, model: SldsModel, cert: Certificate,
                       boxes: list[tuple[np.ndarray, np.ndarray]],
                       points: list[np.ndarray],
                       raise_on_violation: bool = True,
                       sobol_log2: int = 14) -> MinorizationReport:
    """Verify ``P(x, A) >= beta nu_hat(A)`` on boxes, in low dimension.

    For each state ``x`` in ``S`` and axis-aligned box ``A``, the kernel
    mass ``P(x, A)`` is a product of one-dimensional Gaussian CDF
    differences centered at ``Ahat_{j(x)} x`` (exact), while
    ``nu_hat(A) = vol(A intersect S) / vol(S)`` is estimated by
    quasi-Monte Carlo points in the box. Feasible for n <= 3 only.
    """
    from scipy.special import ndtr
    from scipy.stats import qmc

    n = cert.n
    if n > 3:
        raise ValueError("minorization_check supports n <= 3")
    sampler = qmc.Sobol(d=n, scramble=False)
    unit = sampler.random_base2(m=sobol_log2)
    log_vol_s = log_ball_volume(n, cert.s_radius)

    cases: list[MinorizationCase] = []
    for pi_, x in enumerate(points):
        x = np.asarray(x, dtype=float)
        if float(np.linalg.norm(x)) > cert.s_radius:
            raise ValueError(f"point {pi_} lies outside S")
        mean = cl.ahat[region_of(model, x)] @ x
        for bi, (lo, hi) in enumerate(boxes):
            lo = np.asarray(lo, dtype=float)
            hi = np.asarray(hi, dtype=float)
            if np.any(hi < lo):
                raise ValueError(f"box {bi} has hi < lo")
            factors = ndtr(hi - mean) - ndtr(lo - mean)
            p = float(np.prod(np.clip(factors, 0.0, 1.0)))
            log_p = math.log(p) if p > 0 else -math.inf
            pts = lo + unit * (hi - lo)
            inside = np.linalg.norm(pts, axis=1) <= cert.s_radius
            frac = float(np.mean(inside))
            if frac == 0.0 or np.any(hi == lo):
                log_nu = -math.inf
            else:
                log_box = float(np.sum(np.log(hi - lo)))
                log_nu = math.log(frac) + log_box - log_vol_s
            cases.append(MinorizationCase(point_index=pi_, box_index=bi,
                                          log_p=log_p,
                                          log_rhs=cert.log_beta + log_nu))
    report = MinorizationReport(cases=tuple(cases))
    if raise_on_violation and not report.ok:
        bad = [c for c in report.cases if not c.ok]
        raise MinorizationViolation(
            f"{len(bad)} box/point pair(s) violate the minorization; first: "
            f"log P = {bad[0].log_p!r} < log(beta nu_hat) = {bad[0].log_rhs!r}")
    return report
