"""Finite-sample error bound for regenerative reward averages.

Evaluates the non-asymptotic Chebyshev-style tail bound on
``P(|S_N / N - rho| > eps)`` for the certified chain, together with the
sample count ``N`` that drives the bound below a target failure
probability ``delta``.  The bound is a sum of five terms with distinct
decay rates in ``N``; fields are named by their leading factor rather
than by position.

Two minorization constants can feed the formulas.  The certified
``beta`` from a :class:`~sldsim.ergodicity.Certificate` is astronomically
small for any interesting ball radius, so those values are kept in log
domain and may overflow to ``inf`` when mapped back.  The operational
pair from :func:`~sldsim.regen.operational_minorization` lives comfortably
in the linear domain and is what the split-chain sampler actually uses,
so required sample counts are reported for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ergodicity import Certificate
from .model import (ClosedLoop, RewardSpec, SldsModel, _start_state,
                    lockstep)
from .regen import operational_minorization

# Stream tag of :func:`validate_bound`'s trials.
_VALIDATE_TAG = 7


@dataclass(frozen=True)
class BoundConstants:
    """Unspecified absolute constants in the tail bound.

    The analysis fixes these only up to universal multiplicative
    constants; every default of 1.0 is a working convention, not a
    derived value.  ``o1, o2, o3`` shape the sample-count formula
    ``N = ceil(o1 * (o2 * n + o3 + gamma * |x0|^2) / ((1-gamma) * delta
    * beta * eps^2))``.
    """

    c_10as: float = 1.0
    c_1_sq: float = 1.0
    c_2as0: float = 1.0
    c_2as20: float = 1.0
    o1: float = 1.0
    o2: float = 1.0
    o3: float = 1.0

    def __post_init__(self) -> None:
        for name in ("c_10as", "c_1_sq", "c_2as0", "c_2as20",
                     "o1", "o2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive")
        # o3 is an additive offset; zero is meaningful (pure-scaling
        # regimes) and the scaling tests rely on it.
        if not (math.isfinite(self.o3) and self.o3 >= 0):
            raise ValueError("o3 must be finite and nonnegative")


@dataclass(frozen=True)
class RequiredSamples:
    """Sample counts under the certified and the operational beta.

    ``raw_*`` are the pre-ceiling real values; the certified-small-set
    variant is carried as a log to survive tiny betas.  ``n_certified`` is
    ``inf`` when the linear-domain value overflows a double.
    """

    raw_certified_log: float
    n_certified: float
    raw_operational: float
    n_operational: int


def _operational_beta(cert: Certificate, beta_op: float | None) -> float:
    """``beta_op``, by default the operational constant of ``cert``;
    raises ``ValueError`` unless it lies in (0, 1] (NaN does not)."""
    if beta_op is None:
        beta_op = math.exp(operational_minorization(cert).log_beta)
    if not (0 < beta_op <= 1):
        raise ValueError("beta_op must lie in (0, 1]")
    return beta_op


def required_samples(cert: Certificate, eps: float, delta: float,
                     x0_norm_sq: float = 0.0,
                     consts: BoundConstants | None = None,
                     beta_op: float | None = None) -> RequiredSamples:
    """Samples needed to push the tail bound below ``delta`` at ``eps``.

    ``beta_op`` is a linear-domain minorization constant; by default it
    is derived from the certificate via
    :func:`~sldsim.regen.operational_minorization`.  The operational
    arithmetic stays in the linear domain so that exact power-of-two
    rescalings of ``eps**2``, ``delta``, or ``beta_op`` rescale
    ``raw_operational`` exactly.  Raises ``ValueError`` when that count
    is not a finite double (``eps * eps`` may underflow to 0).
    """
    if consts is None:
        consts = BoundConstants()
    if not (0 < eps and math.isfinite(eps)):
        raise ValueError("eps must be finite and positive")
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0, 1)")
    if not 0 <= x0_norm_sq < math.inf:
        raise ValueError("x0_norm_sq must be nonnegative and finite")
    beta_op = _operational_beta(cert, beta_op)

    n = cert.n
    gamma = cert.gamma
    numerator = consts.o1 * (consts.o2 * n + consts.o3
                             + gamma * x0_norm_sq)
    eps_sq = eps * eps

    denominator = ((1.0 - gamma) * delta) * beta_op * eps_sq
    raw_op = numerator / denominator if denominator else math.inf
    if not math.isfinite(raw_op):
        raise ValueError(f"the operational sample count {raw_op!r} is not "
                         f"a finite double")
    n_op = math.ceil(raw_op)

    log_common = (math.log(numerator) - math.log1p(-gamma)
                  - math.log(delta) - 2.0 * math.log(eps))
    raw_certified_log = log_common - cert.log_beta
    try:
        n_certified = float(math.ceil(math.exp(raw_certified_log)))
    except OverflowError:
        n_certified = math.inf

    return RequiredSamples(raw_certified_log=raw_certified_log,
                           n_certified=n_certified,
                           raw_operational=raw_op, n_operational=n_op)


@dataclass(frozen=True)
class BoundReport:
    """The five tail-bound terms at a given ``N`` plus moment bounds.

    Term naming, by decay rate and leading factor:

    * ``term_leading`` (1/N): the dominant variance-over-beta term; its
      log under the certified beta is ``log_term_leading_certified``.
    * ``term_cross`` (1/N): cross term with constant ``c_10as``.
    * ``term_c1_sq`` (1/N^2): squared-bias term with ``c_1_sq``.
    * ``term_sigma2_c0`` (1/N^2): variance correction with ``c_2as0``.
    * ``term_sigma2_c0_sq`` (1/N^3): tail correction with ``c_2as20``.
    """

    n_steps: int
    pi_vhat_bound: float
    rbar_vhat_norm_sq_bound: float
    e_x_vhat_bound: float
    term_cross: float
    term_c1_sq: float
    term_sigma2_c0: float
    term_sigma2_c0_sq: float
    term_leading_operational: float
    log_term_leading_certified: float
    total_operational: float


def _power(x: float, k: int) -> float:
    """``x**k``, or ``inf`` where it overflows a double."""
    try:
        return x**k
    except OverflowError:
        return math.inf


def bound_terms(cert: Certificate, n_steps: int,
                x0_norm_sq: float = 0.0,
                consts: BoundConstants | None = None,
                beta_op: float | None = None) -> BoundReport:
    """Evaluate every displayed term of the tail bound at ``n_steps``.

    A term whose power of ``n_steps`` overflows a double reads 0.0; an
    ``n_steps`` past the largest double raises ``ValueError``.
    """
    if consts is None:
        consts = BoundConstants()
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    try:
        big_n = float(n_steps)
    except OverflowError:
        raise ValueError("n_steps exceeds the largest double") from None
    if not 0 <= x0_norm_sq < math.inf:
        raise ValueError("x0_norm_sq must be nonnegative and finite")
    beta_op = _operational_beta(cert, beta_op)

    n = float(cert.n)
    gamma = cert.gamma
    c = cert.c
    rho_sq = cert.rho_ball * cert.rho_ball
    one_m = 1.0 - gamma
    big_n_sq, big_n_cube = _power(big_n, 2), _power(big_n, 3)

    pi_vhat = 1.5 + c * rho_sq / (2.0 * n)
    rbar_sq = 2.0 * n / one_m
    e_x_vhat = pi_vhat + one_m * gamma * x0_norm_sq / (2.0 * n)

    term_cross = (4.0 * (consts.c_10as / big_n)
                  * (6.0 * n + 2.0 * c * rho_sq + gamma * x0_norm_sq)
                  / one_m)
    term_c1_sq = (4.0 * (consts.c_1_sq / big_n_sq)
                  * (3.0 * n + c * rho_sq + gamma * one_m * x0_norm_sq)
                  / one_m)
    term_sigma2_c0 = (consts.c_2as0
                      * (4.5 * n + c**2 * rho_sq**2 + 3.0 * c * rho_sq)
                      / (big_n_sq * one_m))
    term_sigma2_c0_sq = (consts.c_2as20
                         * (6.75 * n + 0.75 * c**2 * rho_sq
                            + 6.75 * c * rho_sq + 0.25 * c**3 * rho_sq**2
                            + 1.5 * c**2 * rho_sq**2)
                         / (one_m * big_n_cube))

    lead_num = (4.0 * (1.0 + math.sqrt(gamma) * math.sqrt(one_m)
                       * math.sqrt(2.0 + c * rho_sq))
                * (3.0 * n + c * rho_sq))
    term_leading_op = lead_num / (big_n * beta_op * one_m**2)
    log_term_leading_certified = (math.log(lead_num) - math.log(big_n)
                              - cert.log_beta - 2.0 * math.log(one_m))

    total_op = (term_leading_op + term_cross + term_c1_sq
                + term_sigma2_c0 + term_sigma2_c0_sq)

    return BoundReport(n_steps=n_steps,
                       pi_vhat_bound=pi_vhat,
                       rbar_vhat_norm_sq_bound=rbar_sq,
                       e_x_vhat_bound=e_x_vhat,
                       term_cross=term_cross,
                       term_c1_sq=term_c1_sq,
                       term_sigma2_c0=term_sigma2_c0,
                       term_sigma2_c0_sq=term_sigma2_c0_sq,
                       term_leading_operational=term_leading_op,
                       log_term_leading_certified=log_term_leading_certified,
                       total_operational=total_op)


@dataclass(frozen=True)
class BoundValidation:
    """Empirical check of the sample-count guarantee."""

    n_used: int
    trials: int
    failures: int
    failure_rate: float
    threshold: float
    passed: bool


def validate_bound(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
                   cert: Certificate, eps: float, delta: float,
                   trials: int, rho_star: float,
                   consts: BoundConstants | None = None,
                   beta_op: float | None = None,
                   x0: np.ndarray | None = None,
                   master_seed: int = 0) -> BoundValidation:
    """Run ``trials`` trajectories of the prescribed length and count
    how often the time-averaged reward misses ``rho_star`` by more than
    ``eps``.

    Trial ``t`` averages the rewards of ``x_1 .. x_{n_used}`` on its own
    generator; all trials run together through
    :func:`~sldsim.model.lockstep`, which steps each trial of a
    one-dimensional shell model with norm reward as Python floats.  The
    empirical failure rate is compared
    against ``delta + 2 * sqrt(delta * (1 - delta) / trials)``, two
    standard errors above the bound's guarantee, so a correct bound fails
    this check with probability well under 5 percent.  Raises
    ``ValueError`` on a non-finite ``rho_star``, and checks ``x0`` and
    ``n_used`` as :func:`~sldsim.model.lockstep` does before any step: an
    ``n_used`` past 2**53, which no run can finish, raises ``ValueError``.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not math.isfinite(rho_star):
        raise ValueError(f"rho_star must be finite, got {rho_star!r}")
    x0 = _start_state(model, x0)
    req = required_samples(cert, eps, delta, consts=consts,
                           beta_op=beta_op, x0_norm_sq=float(x0.dot(x0)))
    n_used = req.n_operational
    rngs = [np.random.default_rng(np.random.SeedSequence(
                master_seed, spawn_key=(_VALIDATE_TAG, trial)))
            for trial in range(trials)]
    _, totals = lockstep(cl, model, spec, rngs, n_used, x0)
    failures = int(np.sum(np.abs(totals / n_used - rho_star) > eps))

    rate = failures / trials
    threshold = delta + 2.0 * math.sqrt(delta * (1.0 - delta) / trials)
    return BoundValidation(n_used=n_used, trials=trials,
                           failures=failures, failure_rate=rate,
                           threshold=threshold,
                           passed=rate <= threshold)
