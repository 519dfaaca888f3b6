"""Regenerative (split-chain) simulation and steady-state estimators.

A minorization ``P(x, .) >= beta nu_hat(.)`` for ``x`` in a small set ``S``
lets each transition out of ``S`` be decomposed as a mixture: with
probability ``beta`` the next state is drawn from ``nu_hat`` (a
regeneration), otherwise from the residual kernel. Marginally nothing
changes, but the regeneration times cut the trajectory into i.i.d. blocks,
which powers unbiased ratio estimators and block-based error bars.  The
split chain is run as the plain chain with each pair's regeneration bit
drawn after the fact, which gives the same joint law.

The certified minorization constant is far too small to ever fire in a
feasible run, so simulation uses an operational pair: a smaller ball with
a much larger (still valid) constant. Both pairs are plain
:class:`Minorization` values; estimators do not care which produced a log.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientBlocks, MinorizationViolation, NoRegeneration
from .ergodicity import Certificate, log_ball_volume, sample_in_ball
from .model import (
    ClosedLoop,
    RewardSpec,
    SldsModel,
    _path,
    _region_products,
    _row_dots,
    _row_norms,
    rewards_of,
    step,
)

LOG_2PI = math.log(2.0 * math.pi)

# States :func:`simulate_regenerative` adds per chunk past the horizon.
_EXTENSION_CHUNK = 1024

# Block resamples behind :func:`estimate_reward`'s standard error.
_N_BOOTSTRAP = 200


@dataclass(frozen=True)
class Minorization:
    """A small set and regeneration measure usable for splitting.

    ``kind`` selects the measure: ``"ball"`` is the uniform distribution
    on the ball of radius ``s_radius`` (the standard choice); ``"gaussian"``
    is N(0, I) with ``S`` the whole space, valid only for identically zero
    dynamics (then the kernel equals the measure), provided as an i.i.d.
    debug mode.
    """

    n: int
    s_radius: float
    log_beta: float
    kind: str = "ball"

    def __post_init__(self) -> None:
        if self.kind not in ("ball", "gaussian"):
            raise ValueError(f"unknown minorization kind {self.kind!r}")

    @cached_property
    def log_vol(self) -> float:
        """Log volume of the ball ``S``; NaN for the Gaussian kind."""
        if self.kind == "gaussian":
            return math.nan
        return log_ball_volume(self.n, self.s_radius)

    @classmethod
    def from_certificate(cls, cert: Certificate) -> "Minorization":
        """The certified pair: ball ``S`` with the closed-form constant."""
        return cls(n=cert.n, s_radius=cert.s_radius, log_beta=cert.log_beta)

    def beta(self) -> float:
        return math.exp(self.log_beta)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Whether ``x``, or each row of a stack of states, lies in ``S``."""
        if self.kind == "gaussian":
            return np.full(x.shape[:-1], True)
        return np.sqrt(_row_dots(x)) <= self.s_radius

    def log_density(self, y: np.ndarray) -> float | np.ndarray:
        """Log density of the regeneration measure at ``y``, or at each row
        of a stack of states."""
        sq = _row_dots(y)
        if self.kind == "gaussian":
            return -(self.n / 2.0) * LOG_2PI - 0.5 * sq
        return np.where(np.sqrt(sq) <= self.s_radius, -self.log_vol,
                        -math.inf)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.standard_normal(self.n)
        return sample_in_ball(self.n, self.s_radius, rng)


def operational_minorization(cert: Certificate,
                             radius: float | None = None) -> Minorization:
    """A smaller ball with a usably large minorization constant.

    The closed form bounds the transition density over the ball of radius
    ``radius`` from below by the normal density at the worst displacement
    ``D = radius (1 + max_gain)``. Turning a density floor into a constant
    against the uniform measure multiplies by the ball volume; that factor
    is kept only when it hurts (volume < 1), so the constant stays valid
    for arbitrarily small balls and conservative for large ones.

    The default radius is ``2 / (1 + max_gain)``, which makes ``D = 2``
    and keeps the constant above ``exp(-3)`` in one dimension.
    """
    max_gain = math.sqrt(max(cert.gamma, cert.c))
    if radius is None:
        radius = 2.0 / (1.0 + max_gain)
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = radius * (1.0 + max_gain)
    log_beta = (-(cert.n / 2.0) * LOG_2PI - 0.5 * d * d
                + _log_volume_below_one(cert.n, radius))
    return Minorization(n=cert.n, s_radius=radius, log_beta=log_beta)


def _log_volume_below_one(n: int, radius: float) -> float:
    """``min(0, log_ball_volume(n, radius))``.  ``math.lgamma`` is
    ``gammaln`` to within a few ulps, so a ball whose volume it puts
    clearly above 1 gives 0 without loading ``scipy.special``."""
    terms = ((n / 2.0) * math.log(math.pi), n * math.log(radius),
             math.lgamma(n / 2.0 + 1.0))
    if terms[0] + terms[1] - terms[2] > 1e-9 * (1.0 + sum(map(abs, terms))):
        return 0.0
    return min(0.0, log_ball_volume(n, radius))


def iid_debug_minorization(n: int) -> Minorization:
    """Full splitting for zero dynamics: ``S`` is everything, beta is 1."""
    return Minorization(n=n, s_radius=math.inf, log_beta=0.0,
                        kind="gaussian")


def check_minorization_pointwise(cl: ClosedLoop, model: SldsModel,
                                 minor: Minorization,
                                 rng: np.random.Generator,
                                 n_grid: int = 256) -> float:
    """Validate ``beta * q(y) <= p_x(y)`` on sampled (x, y) grid pairs.

    Returns the smallest log margin ``log p_x(y) - log beta - log q(y)``
    over the grid; raises if any sampled pair violates the inequality
    (which would make the regeneration probability of :func:`split_step`
    exceed 1).
    """
    pairs = np.array([(minor.sample(rng), minor.sample(rng))
                      for _ in range(n_grid)])
    return -float(_log_ratios(cl, model, minor, minor.log_beta,
                              pairs[:, 0], pairs[:, 1]).max())


def _log_ratios(cl: ClosedLoop, model: SldsModel, minor: Minorization,
                log_beta: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``log(beta q(y_k) / p(y_k | x_k))`` for row pairs with ``x_k`` in
    ``S``; raises :class:`MinorizationViolation` where one exceeds 1e-9."""
    j = model.table.find_rows(x, _row_norms(x))
    log_p = (-(model.n / 2.0) * LOG_2PI
             - 0.5 * _row_dots(y - _region_products(cl, x, j)))
    out = log_beta + minor.log_density(y) - log_p
    worst = float(out.max())
    if worst > 1e-9:
        raise MinorizationViolation(
            f"beta * q(y) exceeds the transition density p(y | x) at a "
            f"checked pair (log ratio {worst!r})")
    return out


def split_step(x: np.ndarray, cl: ClosedLoop, model: SldsModel,
               minor: Minorization, beta_op: float,
               rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """One split-chain transition with constant ``beta_op``: a plain step
    to ``y``, then the regeneration bit ``theta`` of that pair (the
    one-step case of :func:`simulate_regenerative`).  Returns
    ``(theta, y)``."""
    if not (0.0 < beta_op <= 1.0
            and math.log(beta_op) <= minor.log_beta + 1e-12):
        raise ValueError(f"beta_op = {beta_op!r} must lie in (0, 1] and not "
                         f"exceed exp({minor.log_beta!r})")
    y = step(cl, model, x, rng)
    bit = _split_bits(cl, model, minor, math.log(beta_op), np.stack([x, y]),
                      rng)
    return int(bit[0]), y


def _split_bits(cl: ClosedLoop, model: SldsModel, minor: Minorization,
                log_beta: float, path: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Regeneration bits of the pairs ``(path[t], path[t + 1])`` of a plain
    chain, drawn after the fact (Mykland, Tierney & Yu, JASA 1995): for
    ``x_t`` in ``S``, Bernoulli(``beta q(x_{t+1}) / p(x_{t+1} | x_t)``)
    with one uniform per pair, else 0.  The chain with these bits has the
    split chain's joint law."""
    x, y = path[:-1], path[1:]
    bits = np.zeros(len(x), dtype=np.uint8)
    inside = np.flatnonzero(minor.contains(x))
    if inside.size:
        log_ratio = _log_ratios(cl, model, minor, log_beta, x[inside],
                                y[inside])
        bits[inside] = rng.random(inside.size) < np.exp(log_ratio)
    return bits


@dataclass(frozen=True)
class RegenerationLog:
    """A split-chain trajectory and its regeneration times.

    ``horizon`` is the nominal estimation horizon N.  ``taus`` are the
    times t whose step ``t - 1 -> t`` regenerated, through the first one
    past N, where the stored trajectory ends when it was found: block
    statistics and the overshoot decomposition need the tail.  ``blocks``
    are the half-open ranges between consecutive regenerations, which
    partition ``[taus[0], taus[-1])``; ``overshoot`` is the first time
    past N minus N, ``None`` when the log is open.
    """

    states: np.ndarray            # (L, n), L = taus[-1] when regeneration closed
    horizon: int
    taus: tuple[int, ...]

    @classmethod
    def from_raw(cls, states: np.ndarray, thetas: np.ndarray,
                 horizon: int) -> "RegenerationLog":
        """The log of raw states and their outgoing bits (bit t belongs to
        step t -> t+1), cut at the first regeneration time past the horizon
        when one exists: nothing later enters any estimator here."""
        states = np.asarray(states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        thetas = np.asarray(thetas, dtype=np.uint8)
        if thetas.shape[0] != states.shape[0]:
            raise ValueError("need one bit per state")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        taus = np.flatnonzero(thetas == 1) + 1
        beyond = np.flatnonzero(taus > horizon)
        if beyond.size:
            taus = taus[:beyond[0] + 1]
            states = states[:taus[-1]]
        return cls(states=states, horizon=horizon,
                   taus=tuple(int(t) for t in taus))

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.taus[:-1], self.taus[1:]))

    @property
    def block_count(self) -> int:
        return max(len(self.taus) - 1, 0)

    @property
    def overshoot(self) -> int | None:
        closed = self.taus and self.taus[-1] > self.horizon
        return self.taus[-1] - self.horizon if closed else None


def simulate_regenerative(cl: ClosedLoop, model: SldsModel,
                          minor: Minorization, horizon: int,
                          rng: np.random.Generator,
                          x0: np.ndarray | None = None,
                          max_extension: int = 1_000_000) -> RegenerationLog:
    """Run the split chain of ``minor`` to the first regeneration past
    ``horizon``, from ``x0`` or, when it is None, from a draw of the
    regeneration measure (which makes every block identically
    distributed).  If no regeneration occurs within ``max_extension``
    steps past the horizon the log is returned open; estimators then fall
    back to plain averages.

    The states are the plain chain's (with a given ``x0``, the first
    ``horizon + 1`` are :func:`simulate`'s bit for bit), and each chunk's
    pairs get their bits after the fact.  Raises as :func:`simulate` does,
    and :class:`MinorizationViolation` where ``beta q(y)`` exceeds the
    transition density at a pair.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    if not minor.log_beta <= 0.0:
        raise ValueError(f"beta = exp({minor.log_beta!r}) must lie in (0, 1]")
    path = _path(cl, model, minor.sample(rng) if x0 is None else x0,
                 horizon + 1, rng)
    states = [path]
    bits = [_split_bits(cl, model, minor, minor.log_beta, path, rng)]
    t, cap = horizon, horizon + max_extension   # t: pairs with a bit
    # Bits past the first chunk have t >= horizon: any 1 closes the log.
    while t < cap and (t == horizon or not bits[-1].any()):
        path = _path(cl, model, path[-1], min(_EXTENSION_CHUNK, cap - t) + 1,
                     rng, t0=t)
        states.append(path[1:])
        bits.append(_split_bits(cl, model, minor, minor.log_beta, path, rng))
        t += len(path) - 1
    return RegenerationLog.from_raw(np.concatenate(states)[:t],
                                    np.concatenate(bits), horizon)


@dataclass(frozen=True)
class RewardEstimate:
    """A log's time-averaged reward with the reward sum of each complete
    block (``RegenerationLog.blocks`` order); the error estimates need 30
    blocks, and only :func:`estimate_all` fills in ``sigma2_as``."""

    value: float
    standard_error: float | None
    block_count: int
    block_sums: np.ndarray
    sigma2_as: float | None = None


@dataclass(frozen=True)
class SumDecomposition:
    """Centered-reward mass split at the regeneration boundaries.

    ``head`` covers the warm-up before the first regeneration, ``core`` the
    complete regeneration span, and ``tail`` the overshoot past the nominal
    horizon; ``head + core - tail`` equals the centered-reward sum over the
    horizon exactly.
    """

    head: float
    core: float
    tail: float
    horizon: int


def _block_sums(log: RegenerationLog, values: np.ndarray) -> np.ndarray:
    """Per-block sums of a per-state array covering the whole log."""
    if not log.block_count:
        return np.zeros(0)
    starts = np.asarray(log.taus[:-1], dtype=np.intp)
    return np.add.reduceat(values[: log.taus[-1]], starts)


def estimate_reward(log: RegenerationLog, spec: RewardSpec,
                    rng: np.random.Generator | None = None) -> RewardEstimate:
    """Time-averaged reward over the nominal horizon with a block error bar.

    The value is the plain average of ``r`` over the first N states. When
    at least 30 complete blocks exist, a standard error is attached by
    resampling whole blocks with replacement (``_N_BOOTSTRAP`` times) and
    recomputing the ratio of block reward sums to block lengths; block
    boundaries are regeneration times, so resampled blocks are
    exchangeable.
    """
    r = rewards_of(log.states, spec)
    value = float(np.mean(r[:log.horizon]))
    if not log.taus:
        warnings.warn("no regenerations in the log; returning a plain time "
                      "average without block-based error estimates")
    sums = _block_sums(log, r)
    stderr = None
    if log.block_count >= 30:
        rng = np.random.default_rng(0) if rng is None else rng
        lens = np.diff(np.asarray(log.taus, dtype=float))
        m = sums.shape[0]
        idx = rng.integers(0, m, size=(_N_BOOTSTRAP, m))
        stat = sums[idx].sum(axis=1) / lens[idx].sum(axis=1)
        stderr = float(np.std(stat, ddof=1))
    return RewardEstimate(value=value, standard_error=stderr,
                          block_count=log.block_count, block_sums=sums)


def estimate_invariant_prob(log: RegenerationLog, predicate) -> float:
    """Ratio estimator of the invariant probability of a set.

    ``predicate`` maps a single state vector to a bool. The estimate is the
    count of hits over complete blocks divided by the total block length,
    which is consistent for the invariant measure of the set by the i.i.d.
    block structure.
    """
    if log.block_count < 2:
        raise InsufficientBlocks(have=log.block_count, need=2)
    lo, hi = log.taus[0], log.taus[-1]
    hits = sum(1 for i in range(lo, hi) if predicate(log.states[i]))
    return hits / (hi - lo)


def estimate_sigma2_as(log: RegenerationLog, spec: RewardSpec,
                       rho_hat: float) -> float:
    """Block estimate of the asymptotic variance of the reward average.

    With rewards centered at ``rho_hat``, the estimator is the mean squared
    block sum divided by the mean block length; complete blocks only.
    """
    if log.block_count < 30:
        raise InsufficientBlocks(have=log.block_count, need=30)
    r_full = rewards_of(log.states, spec) - rho_hat
    sums = _block_sums(log, r_full)
    lens = np.diff(np.asarray(log.taus, dtype=float))
    return float(np.mean(sums ** 2) / np.mean(lens))


def decompose_sum(log: RegenerationLog, spec: RewardSpec, rho_hat: float,
                  horizon: int | None = None) -> SumDecomposition:
    """Split the centered-reward sum at the regeneration boundaries.

    For the first regeneration time ``tau`` and the first one past the
    horizon ``tau_R``:

        head = sum_{i < tau} rbar(x_i)
        core = sum_{tau <= i < tau_R} rbar(x_i)
        tail = sum_{N <= i < tau_R} rbar(x_i)

    and ``head + core - tail`` equals ``sum_{i < N} rbar(x_i)`` exactly.

    Raises
    ------
    NoRegeneration
        The log has no regeneration, or none after the requested horizon.
    """
    n = log.horizon if horizon is None else horizon
    if n < 1 or n > log.horizon:
        raise ValueError(f"horizon must lie in [1, {log.horizon}]")
    if not log.taus:
        raise NoRegeneration("the log contains no regeneration")
    tau1 = log.taus[0]
    tau_r = next((t for t in log.taus if t > n), None)
    if tau_r is None:
        raise NoRegeneration(f"no regeneration after horizon {n}")
    rbar = rewards_of(log.states[:tau_r], spec) - rho_hat
    head = float(np.sum(rbar[:tau1]))
    core = float(np.sum(rbar[tau1:tau_r]))
    tail = float(np.sum(rbar[n:tau_r]))
    return SumDecomposition(head=head, core=core, tail=tail, horizon=n)


def estimate_all(log: RegenerationLog, spec: RewardSpec,
                 rng: np.random.Generator | None = None) -> RewardEstimate:
    """:func:`estimate_reward` with ``sigma2_as`` filled in when the log
    has enough blocks (the ``sldsim estimate`` payload)."""
    est = estimate_reward(log, spec, rng=rng)
    try:
        sigma2 = estimate_sigma2_as(log, spec, rho_hat=est.value)
    except InsufficientBlocks:
        return est
    return dataclasses.replace(est, sigma2_as=sigma2)
