"""Switched linear dynamical systems under linear state feedback.

A model partitions the state space into regions, each with its own linear
dynamics. Under a feedback law ``u = pi x`` the closed loop evolves as

    x_{t+1} = (A_j + B_j pi) x_t + w_t,   w_t ~ N(0, I_n),

where ``j`` is the index of the region containing ``x_t``. The per-state
reward is ``r(x) = sqrt(x' (Q + pi' R pi) x)``.

Each model compiles its regions once into a :class:`RegionTable`.  Chains
advance one at a time (:func:`simulate`) or many in lockstep, keeping only
reward totals (:func:`lockstep`).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, NoRegion

DIVERGENCE_LIMIT = 1e150

# The largest step count that is an exact double: past it ``S_N / N`` and
# the stopping rule's ``N + 1`` are inexact, and a run takes decades.
MAX_STEPS = 2**53

# Chains advanced together by :func:`lockstep`; bounds its noise buffer
# (``_GROUP * _NOISE_BLOCK * n`` doubles) at any chain count.
_GROUP = 128
# Noise rows each chain draws per refill of that buffer.
_NOISE_BLOCK = 16
# Noise values :func:`_float_chain` draws at once, a multiple of
# ``_NOISE_BLOCK``.
_FLOAT_CHUNK = 4096
# Rows :func:`_path` steps before it checks their norms, so a diverged
# chain stops within this many steps of its divergence.
_CHECK_ROWS = 1024

_PSD_TOL = 1e-10


def _as_matrix(a, rows: int, cols: int, name: str) -> np.ndarray:
    m = np.asarray(a, dtype=float)
    if m.shape != (rows, cols):
        raise ValueError(f"{name} must have shape {(rows, cols)}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


@dataclass(frozen=True)
class Region:
    """One cell of a state-space partition.

    Two kinds are supported:

    - ``radial``: the shell ``{x : r_lo < ||x|| <= r_hi}``; the innermost
      shell (``r_lo == 0``) is closed at the origin.
    - ``polyhedral``: the set ``{x : L x <= C}`` with ``L`` of shape (q, n).

    ``declared_unbounded``, if given, must match :func:`classify_regions`.
    """

    kind: str
    r_lo: float = 0.0
    r_hi: float = math.inf
    L: np.ndarray | None = None
    C: np.ndarray | None = None
    declared_unbounded: bool | None = None

    def __post_init__(self) -> None:
        if self.kind == "radial":
            if not (0.0 <= self.r_lo < self.r_hi):
                raise ValueError(f"radial shell needs 0 <= r_lo < r_hi, got "
                                 f"({self.r_lo}, {self.r_hi})")
        elif self.kind == "polyhedral":
            L = np.asarray(self.L, dtype=float)     # None: a NaN scalar
            C = np.asarray(self.C, dtype=float)
            if L.ndim != 2 or C.shape != (L.shape[0],) or not (
                    np.isfinite(L).all() and np.isfinite(C).all()):
                raise ValueError("L must be (q, n) and C (q,), all finite")
            if L.shape[0] == 0:
                raise ValueError("a polyhedral region needs an inequality; "
                                 "radial_shell(0.0) is the whole space")
            object.__setattr__(self, "L", L)
            object.__setattr__(self, "C", C)
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")


def radial_shell(r_lo: float, r_hi: float = math.inf) -> Region:
    """Convenience constructor for a radial shell region."""
    return Region(kind="radial", r_lo=r_lo, r_hi=r_hi)


def polyhedron(L, C, declared_unbounded: bool | None = None) -> Region:
    """Convenience constructor for ``{x : L x <= C}``."""
    return Region(kind="polyhedral", L=L, C=C,
                  declared_unbounded=declared_unbounded)


# One vector's products use ``ndarray.dot``, which reaches the same BLAS
# gemv or dot as ``@`` at half its dispatch cost.  Stacked rows use the
# ``np.matmul`` forms below: they make that BLAS call once per row, so each
# row equals the one-vector ``np.linalg.norm(x)``, ``A.dot(x)`` or
# ``x.dot(P).dot(x)`` bit for bit, whatever the other rows are.  ``X @
# A.T`` and ``np.linalg.norm(X, axis=1)`` do not: their blocking can move
# the last bit.

def _row_dots(x: np.ndarray) -> np.ndarray:
    """``x_k . x_k`` for every row ``x_k`` (``x . x`` for one vector)."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(x))


def _row_products(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a @ x_k`` for every row ``x_k``."""
    return np.matmul(x[:, None, :], a.T)[:, 0]


class RegionTable:
    """The regions compiled for lookup, the one membership code; the first
    declared region wins.

    Shell radii cut the radius axis into pieces ``r == 0``, ``(breaks[k-1],
    breaks[k]]`` up to ``inf``, and NaN; ``owners[k]`` is the first shell
    holding piece ``k``, or ``none`` (the region count).  Polyhedra are
    stacked into ``L`` and ``C``, rows ``starts[i]`` on for region
    ``poly_ids[i]``.  A state's region is the lower of its shell owner and
    its first polyhedral match; :meth:`find` and :meth:`find_rows` always
    agree.  :meth:`find` memoizes the polyhedral match per comparison
    vector ``L x <= C``, one entry per cell of the hyperplane arrangement
    the states visit.
    """

    def __init__(self, regions: tuple[Region, ...]) -> None:
        self.none = none = len(regions)
        shells = [(j, r) for j, r in enumerate(regions) if r.kind == "radial"]
        polys = [(j, r) for j, r in enumerate(regions) if r.kind != "radial"]
        cuts = sorted({0.0, math.inf}.union(
            *((r.r_lo, r.r_hi) for _, r in shells)))
        self.breaks = tuple(cuts) if shells else ()
        self.owners = (next((j for j, r in shells if r.r_lo == 0.0), none),
                       *(next((j for j, r in shells
                               if r.r_lo <= lo and hi <= r.r_hi), none)
                         for lo, hi in zip(cuts, cuts[1:])), none)
        self._breaks, self._owners = map(np.array, (self.breaks, self.owners))
        self.poly_ids = tuple(j for j, _ in polys)
        self.L = np.vstack([r.L for _, r in polys]) if polys else None
        self.C = np.concatenate([r.C for _, r in polys]) if polys else None
        self.starts = np.cumsum([0] + [len(r.C) for _, r in polys[:-1]])
        self._poly_memo: dict[bytes, int] = {}

    def find(self, x: np.ndarray) -> int:
        """The region of the state ``x``, or ``none``."""
        j = self.none
        if self.breaks:
            r = math.sqrt(x.dot(x))     # np.linalg.norm(x), bit for bit
            k = bisect_left(self.breaks, r)
            if k or r == 0.0:           # bisect puts NaN at 0
                j = self.owners[k]
        if self.L is not None:
            below = self.L.dot(x) <= self.C
            key = below.tobytes()
            p = self._poly_memo.get(key)
            if p is None:
                hit = np.logical_and.reduceat(below, self.starts)
                k = hit.argmax()
                p = self._poly_memo[key] = (self.poly_ids[k] if hit[k]
                                            else self.none)
            j = min(j, p)
        return j

    def find_rows(self, x: np.ndarray, norms: np.ndarray) -> np.ndarray:
        """:meth:`find` for every row of ``x``, given the rows' norms;
        raises :class:`NoRegion` if some row has no region."""
        j = (self._owners[np.searchsorted(self._breaks, norms)]
             if self.breaks else np.full(len(x), self.none))
        if self.L is not None:
            hit = np.logical_and.reduceat(_row_products(x, self.L) <= self.C,
                                          self.starts, axis=1)
            j = np.minimum(j, np.where(hit, self.poly_ids, self.none)
                           .min(axis=1))
        missing = j == self.none
        if missing.any():
            raise NoRegion(x[np.argmax(missing)])
        return j


@dataclass(frozen=True)
class SldsModel:
    """A switched linear model: ordered regions with per-region (A_j, B_j).

    Parameters
    ----------
    n, p : int
        State and input dimensions.
    regions : tuple of Region
        Ordered region list; on membership ties the first declared wins.
    dynamics : tuple of (A_j, B_j) pairs
        ``A_j`` is (n, n), ``B_j`` is (n, p). Process noise is N(0, I_n)
        per step, independent across steps.
    """

    n: int
    p: int
    regions: tuple[Region, ...]
    dynamics: tuple[tuple[np.ndarray, np.ndarray], ...]
    table: RegionTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive")
        if len(self.regions) != len(self.dynamics) or not self.regions:
            raise ValueError("need len(regions) == len(dynamics) >= 1")
        if any(r.kind == "polyhedral" and r.L.shape[1] != self.n
               for r in self.regions):
            raise ValueError(f"polyhedral L must have {self.n} columns")
        checked = tuple(
            (_as_matrix(A, self.n, self.n, f"A[{j}]"),
             _as_matrix(B, self.n, self.p, f"B[{j}]"))
            for j, (A, B) in enumerate(self.dynamics)
        )
        object.__setattr__(self, "dynamics", checked)
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "table", RegionTable(self.regions))


@dataclass(frozen=True)
class Policy:
    """Linear feedback law ``u = pi x`` with ``pi`` of shape (p, n)."""

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        if pi.ndim != 2:
            raise ValueError("pi must be a (p, n) matrix")
        object.__setattr__(self, "pi", pi)


@dataclass(frozen=True)
class RewardSpec:
    """Reward ``r(x) = sqrt(x' P_hat x)`` with ``P_hat = Q + pi' R pi``.

    Build with :meth:`bind`, which checks Q >= 0 and R > 0 (eigenvalue
    floor) and optionally rescales ``P_hat`` so its spectral norm is <= 1.
    """

    q: np.ndarray
    r: np.ndarray
    p_hat: np.ndarray
    # Set from p_hat: True when it is exactly the identity, which enables
    # a norm shortcut.
    p_hat_is_identity: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_hat_is_identity", np.ndim(self.p_hat) == 2
                           and np.array_equal(self.p_hat,
                                              np.eye(len(self.p_hat))))

    @classmethod
    def bind(cls, Q, R, policy: Policy, normalize: bool = False) -> "RewardSpec":
        Q = np.asarray(Q, dtype=float)
        R = np.asarray(R, dtype=float)
        if Q.ndim != 2 or R.ndim != 2:
            raise ValueError("Q and R must be matrices")
        n = Q.shape[0]
        p = R.shape[0]
        _as_matrix(Q, n, n, "Q")
        _as_matrix(R, p, p, "R")
        if not np.allclose(Q, Q.T):
            raise ValueError("Q must be symmetric")
        if not np.allclose(R, R.T):
            raise ValueError("R must be symmetric")
        scale_q = max(1.0, float(np.abs(Q).max()))
        scale_r = max(1.0, float(np.abs(R).max()))
        if np.linalg.eigvalsh(Q).min() < -_PSD_TOL * scale_q:
            raise ValueError("Q must be positive semidefinite")
        if np.linalg.eigvalsh(R).min() <= _PSD_TOL * scale_r:
            raise ValueError("R must be positive definite")
        pi = policy.pi
        if pi.shape != (p, n):
            raise ValueError(f"policy shape {pi.shape} incompatible with "
                             f"(p, n) = {(p, n)}")
        p_hat = Q + pi.T @ R @ pi
        if normalize:
            top = float(np.linalg.norm(p_hat, 2))
            if top > 1.0:
                p_hat = p_hat / top
        return cls(q=Q, r=R, p_hat=p_hat)


@dataclass(frozen=True)
class ClosedLoop:
    """Per-region closed-loop matrices ``A_j + B_j pi`` and their norms."""

    ahat: tuple[np.ndarray, ...]
    ahat_norms: tuple[float, ...]


@dataclass(frozen=True)
class Trajectory:
    """A simulated path: states x_0..x_{N-1} with per-state rewards."""

    states: np.ndarray      # (N, n)
    rewards: np.ndarray     # (N,)

    def __len__(self) -> int:
        return self.states.shape[0]


def region_of(model: SldsModel, x: np.ndarray) -> int:
    """Index of the first declared region containing ``x``.

    Boundary points that satisfy several membership tests resolve to the
    first declared region; boundaries carry zero Lebesgue measure, so any
    deterministic rule leaves the transition kernel unchanged almost surely.

    Raises
    ------
    NoRegion
        If no region contains ``x`` (the declared partition is invalid).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"state must have shape ({model.n},), got {x.shape}")
    j = model.table.find(x)
    if j == model.table.none:
        raise NoRegion(x)
    return j


def closed_loop(model: SldsModel, policy: Policy) -> ClosedLoop:
    """Compose ``A_j + B_j pi`` for every region and record spectral norms."""
    pi = policy.pi
    if pi.shape != (model.p, model.n):
        raise ValueError(f"policy shape {pi.shape} incompatible with model "
                         f"(p, n) = {(model.p, model.n)}")
    ahat = tuple(A + B @ pi for A, B in model.dynamics)
    norms = tuple(spectral_norm(m) for m in ahat)
    return ClosedLoop(ahat=ahat, ahat_norms=norms)


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value of a square matrix."""
    A = np.asarray(A, dtype=float)
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    return float(np.linalg.norm(A, 2))


def reward(x: np.ndarray, spec: RewardSpec) -> float:
    """Evaluate ``sqrt(x' P_hat x)``; tiny negative quadratics clip to 0."""
    if spec.p_hat_is_identity:
        return math.sqrt(x.dot(x))      # np.linalg.norm(x), bit for bit
    quad = float(x.dot(spec.p_hat).dot(x))
    return math.sqrt(max(quad, 0.0))


def rewards_of(states: np.ndarray, spec: RewardSpec) -> np.ndarray:
    """:func:`reward` of every row of an ``(L, n)`` state array, bit for
    bit; with ``P_hat`` the identity these are the rows' norms."""
    if spec.p_hat_is_identity:
        return _row_norms(states)
    quad = np.matmul(np.matmul(states[:, None, :], spec.p_hat),
                     states[:, :, None])[:, 0, 0]
    return np.sqrt(np.maximum(quad, 0.0))


def simulate(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
             x0: np.ndarray, n_steps: int, rng: np.random.Generator,
             zero_noise: bool = False) -> Trajectory:
    """Simulate ``n_steps`` states x_0..x_{n_steps-1} from ``x0``.

    The whole path's noise is drawn from ``rng`` in one call, which
    consumes the generator stream in the same order as one
    ``standard_normal(n)`` draw per step, so results are bit-identical to
    a per-step loop on the same generator.  A call that raises has still
    drawn all of it.

    Raises
    ------
    DivergenceError
        If a state norm exceeds ``DIVERGENCE_LIMIT`` (reported with its
        step index); certificate-violating models can overflow doubles.
    NoRegion
        If a state before the first divergence lies in no region.
    MemoryError
        If the ``(n_steps, n)`` state array cannot be allocated, or is
        too large for numpy to size; nothing is drawn then.
    """
    states = _path(cl, model, x0, n_steps, rng, zero_noise)
    return Trajectory(states=states, rewards=rewards_of(states, spec))


def _path(cl: ClosedLoop, model: SldsModel, x0: np.ndarray, n_steps: int,
          rng: np.random.Generator, zero_noise: bool = False,
          t0: int = 0) -> np.ndarray:
    """States x_0..x_{n_steps-1} of one chain from ``x0``, the loop of
    :func:`simulate`; ``t0`` is the step index of ``x0`` in divergence
    reports.  Row ``t`` holds its noise before the step adds ``Ahat_j
    x_{t-1}`` to it (``-0.0``, the additive identity, without noise).
    Each block of ``_CHECK_ROWS`` rows, ``x0`` first, is stepped up to a
    state with no region, then checked once: its first norm above
    ``DIVERGENCE_LIMIT`` raises, else that state, as a check of every
    state would."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},), got {x.shape}")
    try:
        states = np.empty((n_steps, model.n), dtype=float)
    except ValueError as exc:   # a size numpy cannot represent
        raise MemoryError(f"cannot size {n_steps} states of dimension "
                          f"{model.n}: {exc}") from exc
    states[0] = x
    if zero_noise:
        states[1:] = -0.0
    else:
        rng.standard_normal(out=states[1:])
    ahat, find, none = cl.ahat, model.table.find, model.table.none
    # Rows past a divergence overflow; their block raises.
    with np.errstate(all="ignore"):
        for lo in range(0, n_steps, _CHECK_ROWS):
            hi = stop = min(lo + _CHECK_ROWS, n_steps)
            for t, row in enumerate(states[lo or 1:hi], lo or 1):
                j = find(x)
                if j == none:
                    stop = t
                    break
                row += ahat[j].dot(x)
                x = row
            norms = _row_norms(states[lo:stop])
            if not (norms <= DIVERGENCE_LIMIT).all():       # NaN fails
                k = int(np.argmin(norms <= DIVERGENCE_LIMIT))
                raise DivergenceError(step_index=t0 + lo + k,
                                      norm=float(norms[k]))
            if stop < hi:
                raise NoRegion(x.copy())    # not a view that holds the path
    return states


def _region_products(cl: ClosedLoop, x: np.ndarray,
                     j: np.ndarray) -> np.ndarray:
    """``Ahat_{j_k} x_k`` for every row ``x_k``, ``j`` from
    :meth:`RegionTable.find_rows`."""
    out = np.empty_like(x)
    for idx, a in enumerate(cl.ahat):
        rows = j == idx
        if rows.any():
            out[rows] = _row_products(x[rows], a)
    return out


def _scalar_gains(cl: ClosedLoop) -> np.ndarray | None:
    """Per-region gains when every closed-loop matrix is exactly ``g I``:
    scaling a row by ``g`` equals its product with ``g I`` bit for bit."""
    eye = np.eye(cl.ahat[0].shape[0])
    gains = np.array([float(a[0, 0]) for a in cl.ahat])
    if all(np.array_equal(a, g * eye) for a, g in zip(cl.ahat, gains)):
        return gains
    return None


def _start_state(model: SldsModel, x0: np.ndarray | None) -> np.ndarray:
    """``x0`` as a float array, the origin when None; raises ``ValueError``
    unless its shape is ``(n,)``, and :class:`DivergenceError` at step 0
    unless its norm is ``<= DIVERGENCE_LIMIT``, as :func:`simulate` does."""
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")
    with np.errstate(all="ignore"):     # x0 . x0 may overflow
        norm0 = math.sqrt(x0.dot(x0))
    if not norm0 <= DIVERGENCE_LIMIT:   # NaN fails, as in _path
        raise DivergenceError(step_index=0, norm=norm0)
    return x0


def _float_shells(cl: ClosedLoop, model: SldsModel, spec: RewardSpec):
    """``(b, g_in, g_out)`` for stepping a chain of this model as Python
    floats, or None unless it has ``n == 1``, shells only, norm reward, a
    shell owning every piece of the radius axis and at most one break
    ``b`` in ``(0, inf)`` (``inf`` without one).

    ``g_in`` and ``g_out`` are the gains ``Ahat_j`` of the owners of
    ``(0, b]`` and ``(b, inf)``.  A state of norm ``r`` steps with ``g_out
    if r > b else g_in``, exactly: the first shell with ``r_lo == 0``
    owns both the origin and ``(0, b]``.
    """
    table = model.table
    if not (model.n == 1 and spec.p_hat_is_identity and not table.poly_ids
            and len(table.breaks) <= 3
            and table.none not in table.owners[:-1]):
        return None
    return (table.breaks[1], float(cl.ahat[table.owners[1]][0, 0]),
            float(cl.ahat[table.owners[-2]][0, 0]))


def _float_chain(shells, rng: np.random.Generator, y: float,
                 n_steps: int) -> float:
    """The total ``S_N`` of one chain of :func:`_lockstep` with no rule
    on a model :func:`_float_shells` accepts, stepped ``n_steps`` times as
    Python floats from ``y``: bit for bit, or the same
    :class:`DivergenceError`.

    Like ``_lockstep`` it draws whole ``_NOISE_BLOCK`` blocks through the
    block of the last step, in chunks of ``_FLOAT_CHUNK`` values stepped
    with no check, each kept when its total is ``<= DIVERGENCE_LIMIT``
    and no draw is below ``2**-458`` in size.  Any other chunk is stepped
    again from its saved start over its values by the checked loop: the
    norm ``sqrt(y * y)`` as :func:`_row_norms` computes it, and
    ``_lockstep``'s guard.
    """
    b, g_in, g_out = shells
    r = math.sqrt(y * y)
    total = 0.0
    for start in range(0, n_steps, _FLOAT_CHUNK):
        m = min(_FLOAT_CHUNK, n_steps - start)
        noise = rng.standard_normal(-(-m // _NOISE_BLOCK) * _NOISE_BLOCK)[:m]
        saved = y, r, total
        for w in noise.tolist():
            y = (g_out if r > b else g_in) * y + w
            r = abs(y)
            total += r
        # Kept, the chunk is the checked loop's: no norm exceeds the
        # total, and with |w| >= 2**-458 each state is 0 or at least
        # 2**-511 in size, where abs(y) == sqrt(y * y) (a nonzero g * y
        # + w is a multiple of 2**-511 if |g * y| >= 2**-459, else at
        # least 2**-459); a 0.0 draw after a tiny g * y would break it.
        if total <= DIVERGENCE_LIMIT and abs(noise).min() >= 2.0**-458:
            continue
        y, r, total = saved
        for count, w in enumerate(noise.tolist(), start + 1):
            y = (g_out if r > b else g_in) * y + w
            r = math.sqrt(y * y)
            if not r <= DIVERGENCE_LIMIT:       # NaN fails
                raise DivergenceError(step_index=count, norm=r)
            total += r
    return total


def lockstep(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
             rngs: list[np.random.Generator], n_steps: int,
             x0: np.ndarray | None = None,
             eps_stop: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Advance one chain per generator from ``x0`` (default 0) for up to
    ``n_steps`` steps, in lockstep groups of at most ``_GROUP`` chains.

    Returns each chain's step count ``N`` and reward sum ``S_N`` over
    ``x_1 .. x_N``, two empty arrays for no generators.  With
    ``eps_stop`` a chain stops at the first ``N >= 1`` with ``|S_N / N -
    r(x_{N+1})| / (N + 1) < eps_stop``, else it runs all ``n_steps``.
    Chain ``i`` follows the states :func:`simulate` gives on ``rngs[i]``,
    bit for bit.  Raises ``ValueError`` unless ``1 <= n_steps <=
    MAX_STEPS`` (2**53), before any draw; :class:`NoRegion`; and
    :class:`DivergenceError` on a norm that is not ``<=
    DIVERGENCE_LIMIT``, ``x0``'s at step 0 as in :func:`simulate`, else a
    group's earliest, the first chain's on a tie.

    With no ``eps_stop``, a model :func:`_float_shells` accepts
    (one-dimensional shells with at most one break and norm reward)
    steps each chain alone as Python floats (:func:`_float_chain`); a
    chain after one that diverged at step ``s`` in its group runs at
    most ``s - 1`` steps.  A stopping rule or any other model runs the
    group kernel :func:`_lockstep`.  Both give the same totals and
    divergence, and leave each generator after the same draws.
    """
    if eps_stop is not None and not eps_stop > 0:
        raise ValueError("eps_stop must be positive")
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError("n_steps must lie in [1, 2**53]")
    x0 = _start_state(model, x0)
    if not rngs:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    shells = _float_shells(cl, model, spec) if eps_stop is None else None
    if shells is not None:
        totals = []
        for lo in range(0, len(rngs), _GROUP):
            fail = None     # the group's earliest divergence so far
            for rng in rngs[lo:lo + _GROUP]:
                cap = n_steps if fail is None else fail.step_index - 1
                try:
                    totals.append(_float_chain(shells, rng, float(x0[0]), cap))
                except DivergenceError as exc:
                    fail = exc
            if fail is not None:
                raise fail
        return np.full(len(rngs), n_steps), np.array(totals)
    gains = _scalar_gains(cl)
    groups = [_lockstep(cl, model, spec, rngs[lo:lo + _GROUP], n_steps, x0,
                        eps_stop, gains)
              for lo in range(0, len(rngs), _GROUP)]
    return tuple(np.concatenate(part) for part in zip(*groups))


def _lockstep(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
              rngs: list[np.random.Generator], n_steps: int, x0: np.ndarray,
              eps_stop: float | None,
              gains: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    k = len(rngs)
    steps = np.full(k, n_steps)
    totals = np.empty(k)
    # Chain i fills noise[i]; x, norms and total hold only the chains in live.
    noise = np.empty((k, _NOISE_BLOCK, model.n))
    live = np.arange(k)
    x = np.tile(x0, (k, 1))
    norms = _row_norms(x)
    total = np.zeros(k)
    for count in range(n_steps):
        t = count % _NOISE_BLOCK
        if t == 0:
            for i in live:
                rngs[i].standard_normal(out=noise[i])
        j = model.table.find_rows(x, norms)
        x = (gains[j][:, None] * x if gains is not None
             else _region_products(cl, x, j))
        x += noise[live, t]
        norms = _row_norms(x)
        bounded = norms <= DIVERGENCE_LIMIT     # False for NaN
        if not bounded.all():
            raise DivergenceError(step_index=count + 1,
                                  norm=float(norms[np.argmin(bounded)]))
        r = norms if spec.p_hat_is_identity else rewards_of(x, spec)
        if eps_stop is not None and count >= 1:
            hit = np.abs(total / count - r) / (count + 1) < eps_stop
            if hit.any():
                steps[live[hit]] = count
                totals[live[hit]] = total[hit]
                keep = ~hit
                live, x, norms, total, r = (live[keep], x[keep],
                                            norms[keep], total[keep],
                                            r[keep])
                if not live.size:
                    break
        total += r
    totals[live] = total
    return steps, totals
