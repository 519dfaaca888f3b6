"""Geometric-ergodicity certificates for switched linear systems.

The certificate machinery verifies two facts about the closed loop:

1. A quadratic drift inequality: with ``V(x) = ||x||^2``, one step of the
   chain satisfies ``E[V(x') | x] <= gamma V(x) + K`` where ``gamma`` is the
   worst squared gain among regions reaching outside a ball of radius
   ``rho_ball`` and ``K = n + c rho_ball^2`` absorbs the bounded regions.
2. A minorization on a compact ball ``S``: ``P(x, .) >= beta nu(.)``
   for all ``x`` in ``S``, with ``nu`` uniform on ``S`` and ``beta``
   bounded below in closed form through the worst mean displacement.

Together these imply geometric mixing to a unique invariant distribution,
and they supply every constant consumed by the regenerative estimators and
the sample-complexity bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ClassificationConflict, ConfigError, NotCertifiable,
                     UncoveredExterior)
from .model import ClosedLoop, SldsModel, _region_products, _row_dots

GAMMA_FLOOR = 1e-6

# Rounding allowance of the drift spot checks, 16 ulps of the bound: the
# two sides of an inequality that holds with equality (an isometry scaled
# to the worst gain) differ by a few ulps in floating point.
_DRIFT_SLACK = 16 * np.finfo(float).eps

_REACH_TOL = 1e-9
_MAX_SUBSETS = 100_000      # maximising a norm over a polytope is NP-hard
# Row subsets :func:`_reaches` decomposes in one stacked SVD (a stacked
# SVD equals the per-matrix one bit for bit), and a bound on the entries
# of each factor of that chunk, which keeps large ranks to a few MB.
_SUBSET_CHUNK = 4096
_CHUNK_ENTRIES = 2**20


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


@dataclass(frozen=True)
class DriftReport:
    """Drift spot-check outcome; the violation tuples hold the indices of
    the sample rows that break each inequality."""

    num_samples: int
    quadratic_violations: tuple[int, ...]
    scaled_violations: tuple[int, ...]
    worst_quadratic_margin: float
    worst_scaled_margin: float

    @property
    def ok(self) -> bool:
        return not self.quadratic_violations and not self.scaled_violations


def classify_regions(model: SldsModel,
                     rho_ball: float) -> RegionClassification:
    """Split regions by whether they intersect ``{||x|| > rho_ball}``.

    Radial shells are decided from their outer radius, polyhedra exactly
    by :func:`_reaches`.  A region's ``declared_unbounded``, when given,
    must agree with the computed answer.

    Raises
    ------
    ClassificationConflict
        A declared flag contradicts the computed answer; the first
        conflicting region in declaration order is reported.
    ConfigError
        A polyhedron has more than ``_MAX_SUBSETS`` row subsets.
    UncoveredExterior
        No region claims any point outside the ball.
    """
    if not 0 < rho_ball < math.inf:
        raise ValueError("rho_ball must be positive and finite")
    unbounded: list[int] = []
    bounded: list[int] = []
    for j, region in enumerate(model.regions):
        if region.kind == "radial":
            reaches = region.r_hi > rho_ball
        else:
            reaches = _reaches(region.L, region.C, rho_ball, j)
        if region.declared_unbounded is not None and \
                region.declared_unbounded != reaches:
            raise ClassificationConflict(
                j, f"declared_unbounded={region.declared_unbounded} but "
                   f"the {region.kind} region "
                   f"{'reaches' if reaches else 'does not reach'} "
                   f"outside radius {rho_ball}")
        (unbounded if reaches else bounded).append(j)

    if not unbounded:
        raise UncoveredExterior(
            f"no region reaches outside radius {rho_ball}; the exterior "
            "cannot be covered by this partition")
    return RegionClassification(unbounded_set=tuple(unbounded),
                                bounded_set=tuple(bounded))


def _reaches(L: np.ndarray, C: np.ndarray, r: float, j: int) -> bool:
    """Whether region ``j``, ``{x : L x <= C}``, has a vertex and also a
    recession ray, a line (``rank L < n``) or a vertex of norm above ``r
    (1 + 1e-9) + 1e-9`` (a norm peaks over a polytope at a vertex).  In
    units of ``r`` and the row space of ``L`` (rank ``k``), a null
    direction ``(y, t)`` of ``k`` rows of ``{L y - C t <= 0, -t <= 0}``
    that meets every row is a vertex ``y / t`` if ``t > 0``, else a ray.
    Rows and directions have unit length; "meets" is a product of at most
    ``_REACH_TOL``, and ``t > 0`` and rank ``k`` need more than it."""
    scale = np.linalg.norm(L, axis=1)
    scale[scale == 0.0] = 1.0
    L, C = L / scale[:, None], C / (scale * r)
    _, s, vt = np.linalg.svd(L)
    k = int(np.count_nonzero(s > _REACH_TOL))
    rows = np.vstack([np.c_[L @ vt[:k].T, -C], np.r_[np.zeros(k), -1.0]])
    rows = rows[rows.any(axis=1)]       # drop 0 <= 0
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    if (count := math.comb(len(rows), k)) > _MAX_SUBSETS:
        raise ConfigError(f"region {j}: deciding reach takes {count} row "
                          f"subsets of rank {k}, more than {_MAX_SUBSETS}")
    subsets = itertools.combinations(range(len(rows)), k)
    step = max(1, min(_SUBSET_CHUNK, _CHUNK_ENTRIES // (k + 1) ** 2))
    rays = []
    for _ in range(0, count, step):
        chunk = list(itertools.islice(subsets, step))
        _, s, vt = np.linalg.svd(rows[np.array(chunk, dtype=np.intp)
                                      .reshape(len(chunk), k)])
        null = vt[(s > _REACH_TOL).all(axis=1), k]      # independent rows
        meet = null @ rows.T
        rays += [null[(meet <= _REACH_TOL).all(axis=1)],
                 -null[(meet >= -_REACH_TOL).all(axis=1)]]
    d = np.concatenate(rays)
    t = d[:, k]
    y = d[t > _REACH_TOL, :k] / t[t > _REACH_TOL, None]     # the vertices
    return len(y) > 0 and (len(y) < len(d) or k < L.shape[1] or bool(
        (np.linalg.norm(y, axis=1) > 1.0 + 1e-9 + 1e-9 / r).any()))


def certify(cl: ClosedLoop, classification: RegionClassification,
            rho_ball: float, n: int) -> Certificate:
    """Assemble the full certificate, or fail if contraction is violated.

    ``gamma`` must come out below 1 for the exterior regions. ``lam`` is
    the midpoint ``(1 + gamma) / 2`` of the admissible interval (gamma, 1).

    Raises
    ------
    NotCertifiable
        Some region reaching outside the ball has spectral norm >= 1.
    ConfigError
        ``rho_ball`` is so large that ``k``, ``s_radius``, ``k2`` or
        ``r_hat`` is not a finite double.
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
    gamma_eff = max(gamma, GAMMA_FLOOR)  # the r_hat formula divides by gamma
    try:
        k = n + c * rho_ball ** 2
        s_radius = math.sqrt(2.0 * (k + 1.0))
        k2 = 1.5 + 2.0 * c + c * c * rho_ball ** 2
        r_hat = 2.0 * k / (gamma_eff * (1.0 - gamma_eff))
    except OverflowError:       # rho_ball ** 2 past the double range
        k = s_radius = k2 = r_hat = math.inf
    if not all(map(math.isfinite, (k, s_radius, k2, r_hat))):
        raise ConfigError(f"rho = {rho_ball!r} is too large: K = n + c rho^2, "
                          f"the small-set radius, K2 or r_hat = 2 K / (gamma "
                          f"(1 - gamma)) is not a finite double")
    lam = (1.0 + gamma) / 2.0
    max_gain = max(cl.ahat_norms)
    return Certificate(
        n=n, rho_ball=rho_ball, gamma=gamma, c=c, k=k, r_hat=r_hat,
        s_radius=s_radius, lam=lam, k2=k2,
        log_beta=beta_lower_bound(max_gain, s_radius, n), max_gain=max_gain,
    )


def beta_lower_bound(max_gain: float, radius: float, n: int) -> float:
    """Log minorization constant of the uniform measure on the n-ball of
    the given radius, for closed-loop gains at most ``max_gain``.

    From ``x`` in the ball, the Gaussian transition density at any ``y`` in
    it is at least the standard normal density at ``D = radius (1 +
    max_gain)``.  Against the uniform measure that floor is multiplied by
    the ball's volume, kept only when below 1 so the constant stays valid
    for any radius:

        log beta = -(n / 2) log(2 pi) - D^2 / 2 + min(0, log vol).

    Raises ``ValueError`` unless ``0 < radius < inf``.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius!r}")
    d = radius * (1.0 + max_gain)
    return (-(n / 2.0) * math.log(2.0 * math.pi) - 0.5 * d * d
            + min(0.0, log_ball_volume(n, radius)))


def log_ball_volume(n: int, radius: float) -> float:
    """Log Lebesgue volume of the n-ball of the given radius."""
    if radius <= 0:
        return -math.inf
    return (n / 2.0) * math.log(math.pi) + n * math.log(radius) \
        - math.lgamma(n / 2.0 + 1.0)


def drift_check(cl: ClosedLoop, model: SldsModel, cert: Certificate,
                samples: np.ndarray) -> DriftReport:
    """Check both drift inequalities analytically at each sampled state.

    The one-step expectation of ``V(x) = ||x||^2`` is available exactly:
    ``E[V(x') | x] = ||Ahat_{j(x)} x||^2 + n``, so no Monte Carlo enters.
    The check asserts, per sample,

        ||Ahat_{j(x)} x||^2 + n  <=  gamma ||x||^2 + k

    and the scaled variant with ``Vh(x) = 1 + (1 - gamma) ||x||^2 / (2n)``:

        E[Vh(x') | x]  <=  lam Vh(x) + k2 * 1{||x|| <= s_radius}.

    The scaled inequality is a strictly stronger requirement; it holds at
    the certificate's ``lam`` only when ``2n <= (1 - gamma)
    (n + c rho^2 + 1)``, so high-dimensional models with small offsets can
    violate it even though the quadratic drift is satisfied. Both are
    checked in one pass over the sample rows, whose row products equal the
    per-vector ones bit for bit.  A violation must exceed the bound by
    ``_DRIFT_SLACK`` (16 ulps) of it, so rounding at equality is none;
    worst margins are reported unadjusted.  Raises ``ValueError`` unless
    the samples are rows of length ``n``, and :class:`NoRegion` for a row
    no region contains.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n = cert.n
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"samples must be rows of length {n}, "
                         f"got shape {x.shape}")
    v = _row_dots(x)
    norms = np.sqrt(v)
    j = model.table.find_rows(x, norms)
    pv = _row_dots(_region_products(cl, x, j)) + n
    vh = 1.0 + (1.0 - cert.gamma) * v / (2.0 * n)
    pvh = 1.0 + (1.0 - cert.gamma) * pv / (2.0 * n)
    k2_in_s = np.where(norms <= cert.s_radius, cert.k2, 0.0)
    bounds = np.stack([cert.gamma * v + cert.k, cert.lam * vh + k2_in_s])
    margins = np.stack([pv, pvh]) - bounds
    quad, scaled = (tuple(np.flatnonzero(over).tolist())
                    for over in margins > _DRIFT_SLACK * np.abs(bounds))
    worst_q, worst_s = margins.max(axis=1, initial=-math.inf).tolist()
    return DriftReport(num_samples=len(x), quadratic_violations=quad,
                       scaled_violations=scaled,
                       worst_quadratic_margin=worst_q,
                       worst_scaled_margin=worst_s)


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

