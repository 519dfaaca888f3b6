"""Regenerative (split-chain) simulation and steady-state estimators.

A minorization ``P(x, .) >= beta nu(.)`` for ``x`` in a small set ``S``
lets each transition out of ``S`` be decomposed as a mixture: with
probability ``beta`` the next state is drawn from ``nu`` (a
regeneration), otherwise from the residual kernel. Marginally nothing
changes, but the regeneration times cut the trajectory into i.i.d. blocks,
which powers unbiased ratio estimators and block-based error bars.  The
split chain is run as the plain chain with each pair's regeneration bit
drawn after the fact, which gives the same joint law.

Every pair is :func:`operational_minorization` at some radius.  At the
certificate's ``s_radius`` the constant is far too small to ever fire in
a feasible run, so simulation uses by default a smaller ball with a much
larger (still valid) constant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MinorizationViolation, NoRegeneration
from .ergodicity import (Certificate, beta_lower_bound, log_ball_volume,
                         sample_in_ball)
from .model import (
    ClosedLoop,
    RewardSpec,
    SldsModel,
    _path,
    _region_products,
    _row_dots,
    _row_norms,
    rewards_of,
)

LOG_2PI = math.log(2.0 * math.pi)

# States :func:`simulate_regenerative` adds per chunk past the horizon,
# and at most in all.
_EXTENSION_CHUNK = 1024
_MAX_EXTENSION = 1_000_000

# Sampled pairs of :func:`check_minorization_pointwise`.
_N_GRID = 256

# Block resamples behind :func:`estimate_all`'s standard error.
_N_BOOTSTRAP = 200


@dataclass(frozen=True)
class Minorization:
    """A small set and regeneration measure usable for splitting: ``S`` is
    the ball of radius ``s_radius`` and the measure is uniform on it."""

    n: int
    s_radius: float
    log_beta: float

    @cached_property
    def log_vol(self) -> float:
        """Log volume of the ball ``S``."""
        return log_ball_volume(self.n, self.s_radius)

    def beta(self) -> float:
        return math.exp(self.log_beta)

    def contains(self, x: np.ndarray) -> bool | np.ndarray:
        """Whether ``x``, or each row of a stack of states, lies in ``S``."""
        return np.sqrt(_row_dots(x)) <= self.s_radius

    def log_density(self, y: np.ndarray) -> float | np.ndarray:
        """Log density of the regeneration measure at ``y``, or at each row
        of a stack of states."""
        return np.where(self.contains(y), -self.log_vol, -math.inf)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return sample_in_ball(self.n, self.s_radius, rng)


def operational_minorization(cert: Certificate,
                             radius: float | None = None) -> Minorization:
    """The uniform ball of the given radius with the constant
    :func:`~sldsim.ergodicity.beta_lower_bound` gives it at the
    certificate's worst gain; at ``cert.s_radius`` this is the certified
    pair.  The default radius ``2 / (1 + max_gain)`` makes the worst
    displacement 2 and keeps the constant above ``exp(-3)`` in one
    dimension.  Raises ``ValueError`` unless ``0 < radius < inf``.
    """
    if radius is None:
        radius = 2.0 / (1.0 + cert.max_gain)
    return Minorization(n=cert.n, s_radius=radius,
                        log_beta=beta_lower_bound(cert.max_gain, radius,
                                                  cert.n))


def check_minorization_pointwise(cl: ClosedLoop, model: SldsModel,
                                 minor: Minorization,
                                 rng: np.random.Generator) -> float:
    """Validate ``beta * q(y) <= p_x(y)`` on ``_N_GRID`` sampled (x, y)
    pairs of ``S``.

    Returns the smallest log margin ``log p_x(y) - log beta - log q(y)``
    over the grid; raises if any sampled pair violates the inequality
    (which would make the regeneration probability of :func:`split_step`
    exceed 1).
    """
    pairs = np.array([(minor.sample(rng), minor.sample(rng))
                      for _ in range(_N_GRID)])
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
    """One split-chain transition with constant ``beta_op``: a two-state
    path ``(x, y)``, then the regeneration bit ``theta`` of that pair (the
    one-step case of :func:`simulate_regenerative`).  Returns
    ``(theta, y)``."""
    if not (0.0 < beta_op <= 1.0
            and math.log(beta_op) <= minor.log_beta + 1e-12):
        raise ValueError(f"beta_op = {beta_op!r} must lie in (0, 1] and not "
                         f"exceed exp({minor.log_beta!r})")
    path = _path(cl, model, x, 2, rng)
    bit = _split_bits(cl, model, minor, math.log(beta_op), path, rng)
    return int(bit[0]), path[1]


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
        if not 1 <= horizon <= states.shape[0]:
            raise ValueError(f"horizon must lie in [1, {states.shape[0]}]")
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
                          x0: np.ndarray | None = None) -> RegenerationLog:
    """Run the split chain of ``minor`` to the first regeneration past
    ``horizon``, from ``x0`` or, when it is None, from a draw of the
    regeneration measure (which makes every block identically
    distributed).  If no regeneration occurs within ``_MAX_EXTENSION``
    steps past the horizon the log is returned open; estimators then fall
    back to plain averages.  A chain with no regeneration among its first
    ``horizon`` pairs (as one that never reached ``S`` there) returns its
    open log at the horizon without extending: a regeneration past it
    would close no complete block, so no estimator here would change.

    The states are the plain chain's (with a given ``x0``,
    :func:`simulate`'s bit for bit), and each chunk's
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
    # t counts the pairs with a bit.  The extension closes the block the
    # last regeneration by the horizon opened; with none there is no block.
    t = horizon
    cap = horizon + _MAX_EXTENSION if bits[0].any() else t
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
    block (``RegenerationLog.blocks`` order), from :func:`estimate_all`;
    ``standard_error`` and ``sigma2_as`` need 30 blocks and are None below."""

    value: float
    standard_error: float | None
    block_count: int
    block_sums: np.ndarray
    sigma2_as: float | None


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


def decompose_sum(log: RegenerationLog, spec: RewardSpec,
                  rho_hat: float) -> SumDecomposition:
    """Split the centered-reward sum at the regeneration boundaries.

    For the first regeneration time ``tau`` and the first one past the
    log's horizon ``N``, ``tau_R`` (``log.taus[-1]`` of a closed log):

        head = sum_{i < tau} rbar(x_i)
        core = sum_{tau <= i < tau_R} rbar(x_i)
        tail = sum_{N <= i < tau_R} rbar(x_i)

    and ``head + core - tail`` equals ``sum_{i < N} rbar(x_i)`` exactly.

    Raises
    ------
    NoRegeneration
        The log is open: it has no regeneration past its horizon.
    """
    if log.overshoot is None:
        raise NoRegeneration(f"no regeneration after horizon {log.horizon}")
    n, tau1, tau_r = log.horizon, log.taus[0], log.taus[-1]
    rbar = rewards_of(log.states[:tau_r], spec) - rho_hat
    head = float(np.sum(rbar[:tau1]))
    core = float(np.sum(rbar[tau1:tau_r]))
    tail = float(np.sum(rbar[n:tau_r]))
    return SumDecomposition(head=head, core=core, tail=tail, horizon=n)


def estimate_all(log: RegenerationLog, spec: RewardSpec) -> RewardEstimate:
    """Time-averaged reward over the nominal horizon with its block error
    bar and asymptotic variance, from one pass over the rewards (the
    ``sldsim estimate`` payload).

    The value is the plain average of ``r`` over the first N states. When
    at least 30 complete blocks exist, a standard error is attached by
    resampling whole blocks with replacement (``_N_BOOTSTRAP`` times) and
    recomputing the ratio of block reward sums to block lengths, on the
    draws of ``np.random.default_rng(0)``; block boundaries are
    regeneration times, so resampled blocks are exchangeable.
    ``sigma2_as`` is then the mean squared block sum of the rewards
    centered at the value, over the mean block length (Meyn & Tweedie,
    ch. 17).
    """
    r = rewards_of(log.states, spec)
    value = float(np.mean(r[:log.horizon]))
    if not log.taus:
        warnings.warn("no regenerations in the log; returning a plain time "
                      "average without block-based error estimates")
    sums = _block_sums(log, r)
    stderr = sigma2 = None
    if log.block_count >= 30:
        lens = np.diff(np.asarray(log.taus, dtype=float))
        m = sums.shape[0]
        idx = np.random.default_rng(0).integers(0, m, size=(_N_BOOTSTRAP, m))
        stat = sums[idx].sum(axis=1) / lens[idx].sum(axis=1)
        stderr = float(np.std(stat, ddof=1))
        sigma2 = float(np.mean(_block_sums(log, r - value) ** 2)
                       / np.mean(lens))
    return RewardEstimate(value=value, standard_error=stderr,
                          block_count=log.block_count, block_sums=sums,
                          sigma2_as=sigma2)
