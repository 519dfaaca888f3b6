"""Stopping-time experiments on the two-shell case study.

The pseudo sample count ``N_pseudo`` of one trajectory is the first step
at which the running reward average is within ``eps_stop`` (after
division by N+1) of the next observed reward.  It is a first-crossing
stopping time, not a sample count with an (eps, delta) guarantee: its
mean scales as ``eps_stop**-1/2`` and does not follow the dimension or
contraction shape of the sample bound (README, "Known limitations").
The two experiments sweep that count across state dimension at fixed
contraction and across contraction at fixed dimension, on a two-shell
benchmark system that contracts outside a ball of radius ``rho_ball``
and expands inside it.

Each cell runs its trials in lockstep: one kernel advances a ``(K, n)``
block of chains, every chain on its own generator, and drops a row when
its rule fires.  A trial's result is the one a chain run alone on the
same generator would give, bit for bit.

Desk-scale defaults finish in seconds on one core; ``full_scale`` is
the multi-day configuration and exists to be written into manifests, not
to be run casually.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.stats

from .errors import (ConfigError, DivergenceError, MaxStepsExceeded,
                     NoRegion, NotCertifiable)
from .ergodicity import certify, classify_regions
from .model import (
    DIVERGENCE_LIMIT,
    ClosedLoop,
    Policy,
    RewardSpec,
    SldsModel,
    closed_loop,
    radial_shell,
    region_of,
    reward,
)

_NOISE_CHUNK = 4096

# Trials advanced together by the stopping-rule kernel; bounds its noise
# buffer (``_GROUP * _NOISE_BLOCK * n`` doubles) at any trial count.
_GROUP = 128
# Noise rows each trial draws per refill of that buffer.
_NOISE_BLOCK = 16


@dataclass(frozen=True)
class SweepConfig:
    """Grid and budget for both sweeps.

    Defaults are desk scale.  ``gamma_trials`` falls back to ``trials``
    when unset.  ``gammas`` and ``gamma_root`` are root-level gains; the
    certified contraction rate is their square.
    """

    dims: tuple[int, ...] = (25, 50, 75, 100, 125, 150, 175, 200)
    gammas: tuple[float, ...] = (0.5, 0.55, 0.6, 0.65, 0.7,
                                 0.75, 0.8, 0.85, 0.9)
    gamma_dims: tuple[int, ...] = (10, 50)
    gamma_root: float = 0.9
    c_root: float = 2.0
    rho_ball: float = 10.0
    eps_stop: float = 1e-3
    trials: int = 100
    gamma_trials: int | None = None
    master_seed: int = 0
    max_steps: int = 10_000_000

    def __post_init__(self) -> None:
        if not self.dims or any(d < 1 for d in self.dims):
            raise ConfigError("dims must be positive integers")
        if list(self.dims) != sorted(set(self.dims)):
            raise ConfigError("dims must be strictly increasing")
        # Gains of 1 or more are legal to configure; certification is
        # where they fail, with the right diagnostic.
        if not self.gammas or any(g <= 0 for g in self.gammas):
            raise ConfigError("gammas must be positive")
        if self.gamma_root <= 0:
            raise ConfigError("gamma_root must be positive")
        if self.c_root < 0:
            raise ConfigError("c_root must be nonnegative")
        if self.rho_ball <= 0:
            raise ConfigError("rho_ball must be positive")
        if self.eps_stop <= 0:
            raise ConfigError("eps_stop must be positive")
        if self.trials < 1 or (self.gamma_trials is not None
                               and self.gamma_trials < 1):
            raise ConfigError("trials must be at least 1")
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")

    @classmethod
    def full_scale(cls, **overrides) -> "SweepConfig":
        """A wider dimension grid, ``eps_stop = 1e-10`` and more trials.

        The tighter tolerance lengthens every stopping time about
        ``sqrt(1e7)``-fold over the desk default; it does not make the
        mean grow linearly in the dimension or rise with the gain."""
        base = dict(dims=tuple(range(1, 2001, 50)),
                    eps_stop=1e-10, trials=100_000, gamma_trials=10_000,
                    max_steps=1_000_000_000)
        base.update(overrides)
        return cls(**base)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SweepConfig)}


def sweep_config_from_dict(data: dict) -> SweepConfig:
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("dims", "gammas", "gamma_dims"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    try:
        return SweepConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"invalid sweep config: {exc}") from exc


def build_case_study(n: int, gamma_root: float, c_root: float,
                     rho_ball: float) -> tuple[SldsModel, Policy,
                                               RewardSpec]:
    """Two concentric shells: gain ``gamma_root`` outside the ball of
    radius ``rho_ball``, gain ``c_root`` inside, zero policy, norm
    reward.

    ``gamma_root >= 1`` builds fine; it fails later at certification,
    which owns that diagnostic."""
    if gamma_root <= 0:
        raise ConfigError("gamma_root must be positive")
    if c_root < 0:
        raise ConfigError("c_root must be nonnegative")
    eye = np.eye(n)
    b = np.zeros((n, 1))
    model = SldsModel(
        n=n, p=1,
        regions=(radial_shell(rho_ball, math.inf),
                 radial_shell(0.0, rho_ball)),
        dynamics=((gamma_root * eye, b), (c_root * eye, b)))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=eye, R=np.eye(1), policy=policy)
    return model, policy, spec


def _radial_scalar_gains(cl: ClosedLoop,
                         model: SldsModel) -> list[tuple[float, float,
                                                         float]] | None:
    """Shell bounds and scalar gain per region, when every region is
    radial and every closed-loop matrix is exactly a multiple of I."""
    eye = np.eye(model.n)
    out = []
    for region, ahat in zip(model.regions, cl.ahat):
        if region.kind != "radial":
            return None
        g = float(ahat[0, 0])
        if not np.array_equal(ahat, g * eye):
            return None
        out.append((region.r_lo, region.r_hi, g))
    return out


def _scalar_gain_of(gains: list[tuple[float, float, float]],
                    r: float) -> float:
    for r_lo, r_hi, g in gains:
        if (r <= r_hi) if r_lo == 0.0 else (r_lo < r <= r_hi):
            return g
    raise LookupError(f"no shell covers radius {r!r}")


def pseudo_sample_complexity(cl: ClosedLoop, model: SldsModel,
                             spec: RewardSpec, eps_stop: float,
                             rng: np.random.Generator, max_steps: int,
                             x0: np.ndarray | None = None) -> int:
    """First N >= 1 with ``|S_N / N - r(x_{N+1})| / (N + 1) < eps_stop``.

    ``S_N`` sums the rewards of ``x_1 .. x_N``; the start state's reward
    is excluded.  Raises :class:`MaxStepsExceeded` if no such N appears
    within ``max_steps`` simulated steps.

    This is a level-crossing time, not the sample count of the bound in
    :mod:`sldsim.bounds`: after warm-up the rule stops at step k with
    probability about ``2 * eps_stop * f * k``, ``f`` the reward density
    at its mean, so ``E N ~ 0.5 * sqrt(pi / (eps_stop * f))``.

    This is the one-chain case of the lockstep kernel that runs sweep
    cells, so a trial gives the same N here as inside its cell.  Noise is
    drawn in fixed blocks of rows; batched normal draws are prefix-stable,
    so the block size changes no N, only where ``rng`` is left afterwards.
    """
    (n_pseudo,) = _stopping_times(cl, model, spec, eps_stop, [rng],
                                  max_steps, x0)
    if n_pseudo == max_steps:
        raise MaxStepsExceeded(cap=max_steps)
    return int(n_pseudo)


def _scalar_gains(cl: ClosedLoop) -> np.ndarray | None:
    """Per-region gains when every closed-loop matrix is exactly ``g I``.

    Scaling a row by ``g`` then equals the row's product with ``g I`` bit
    for bit, at a fraction of the cost."""
    eye = np.eye(cl.ahat[0].shape[0])
    gains = np.array([float(a[0, 0]) for a in cl.ahat])
    if all(np.array_equal(a, g * eye) for a, g in zip(cl.ahat, gains)):
        return gains
    return None


# The stacked row products below run one BLAS dot or gemv per row, the
# same call a single vector makes, so each row's value equals the per-
# vector ``np.linalg.norm(x)``, ``A @ x`` or ``x @ P @ x`` bit for bit,
# whatever the other rows are.  ``X @ A.T`` and ``np.linalg.norm(X,
# axis=1)`` do not: their blocking can move the last bit.

def _row_norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.matmul(x[:, None, :], x[:, :, None])[:, 0, 0])


def _row_products(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``a @ x_k`` for every row ``x_k``."""
    return np.matmul(x[:, None, :], a.T)[:, 0]


def _row_regions(model: SldsModel, x: np.ndarray,
                 norms: np.ndarray) -> np.ndarray:
    """:func:`region_of` per row: the first declared region containing
    it; radial shells are tested on the rows' norms."""
    j = np.full(len(x), -1)
    for idx, region in enumerate(model.regions):
        if region.kind == "radial":
            inside = norms <= region.r_hi
            if region.r_lo != 0.0:
                inside &= norms > region.r_lo
        else:
            inside = np.all(_row_products(x, region.L) <= region.C, axis=1)
        j[(j < 0) & inside] = idx
    unmatched = j < 0
    if unmatched.any():
        raise NoRegion(x[np.argmax(unmatched)])
    return j


def _stopping_times(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
                    eps_stop: float, rngs: list[np.random.Generator],
                    max_steps: int,
                    x0: np.ndarray | None = None) -> np.ndarray:
    """The stopping rule of :func:`pseudo_sample_complexity` for one chain
    per generator, run in lockstep groups of at most ``_GROUP`` chains.

    Returns each chain's N, or ``max_steps`` where it was censored (a
    chain that stops has N < ``max_steps``).  Raises
    :class:`DivergenceError` or :class:`NoRegion` as soon as any chain
    meets one.
    """
    if eps_stop <= 0:
        raise ValueError("eps_stop must be positive")
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    x0 = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    if x0.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")
    gains = _scalar_gains(cl)
    return np.concatenate([
        _lockstep(cl, model, spec, eps_stop, rngs[lo:lo + _GROUP],
                  max_steps, x0, gains)
        for lo in range(0, len(rngs), _GROUP)])


def _lockstep(cl: ClosedLoop, model: SldsModel, spec: RewardSpec,
              eps_stop: float, rngs: list[np.random.Generator],
              max_steps: int, x0: np.ndarray,
              gains: np.ndarray | None) -> np.ndarray:
    k = len(rngs)
    n_pseudo = np.full(k, max_steps)
    # Chain i fills noise[i] from its own generator; x, norms and total
    # hold the live chains only, whose indices are in live.
    noise = np.empty((k, _NOISE_BLOCK, model.n))
    live = np.arange(k)
    x = np.tile(x0, (k, 1))
    norms = _row_norms(x)
    total = np.zeros(k)
    for count in range(max_steps):
        t = count % _NOISE_BLOCK
        if t == 0:
            for i in live:
                rngs[i].standard_normal(out=noise[i])
        j = _row_regions(model, x, norms)
        if gains is not None:
            x = gains[j][:, None] * x
        else:
            stepped = np.empty_like(x)
            for idx, a in enumerate(cl.ahat):
                rows = j == idx
                if rows.any():
                    stepped[rows] = _row_products(x[rows], a)
            x = stepped
        x += noise[live, t]
        norms = _row_norms(x)
        over = norms > DIVERGENCE_LIMIT
        if over.any():
            raise DivergenceError(step_index=count + 1,
                                  norm=float(norms[np.argmax(over)]))
        if spec.p_hat_is_identity:
            r = norms
        else:
            quad = np.matmul(np.matmul(x[:, None, :], spec.p_hat),
                             x[:, :, None])[:, 0, 0]
            r = np.sqrt(np.maximum(quad, 0.0))
        if count >= 1:
            hit = np.abs(total / count - r) / (count + 1) < eps_stop
            if hit.any():
                n_pseudo[live[hit]] = count
                keep = ~hit
                live, x, norms, total, r = (live[keep], x[keep],
                                            norms[keep], total[keep],
                                            r[keep])
                if not live.size:
                    break
        total += r
    return n_pseudo


def reference_reward_average(cl: ClosedLoop, model: SldsModel,
                             spec: RewardSpec, n_steps: int,
                             rng: np.random.Generator,
                             x0: np.ndarray | None = None) -> float:
    """Mean reward over the ``n_steps`` states ``x_0 .. x_{n_steps-1}``.

    Streams without storing the trajectory; per-chunk partial sums are
    combined with exact summation so 1e8-step runs lose no precision.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    x = np.zeros(model.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (model.n,):
        raise ValueError(f"x0 must have shape ({model.n},)")

    gains = _radial_scalar_gains(cl, model)
    scalar = (model.n == 1 and gains is not None
              and spec.p_hat_is_identity)
    partials: list[float] = []
    chunk_sum = 0.0
    in_chunk = 0

    def flush() -> None:
        nonlocal chunk_sum, in_chunk
        partials.append(chunk_sum)
        chunk_sum = 0.0
        in_chunk = 0

    buf = np.empty((0, model.n))
    buf_i = _NOISE_CHUNK
    if scalar:
        xs = float(x[0])
        chunk_sum = abs(xs)
        in_chunk = 1
        for _ in range(n_steps - 1):
            if buf_i == _NOISE_CHUNK:
                buf = rng.standard_normal((_NOISE_CHUNK, 1))
                buf_i = 0
            g = _scalar_gain_of(gains, abs(xs))
            xs = g * xs + buf[buf_i, 0]
            buf_i += 1
            chunk_sum += abs(xs)
            in_chunk += 1
            if in_chunk == _NOISE_CHUNK:
                flush()
    else:
        chunk_sum = reward(x, spec)
        in_chunk = 1
        for _ in range(n_steps - 1):
            if buf_i == _NOISE_CHUNK:
                buf = rng.standard_normal((_NOISE_CHUNK, model.n))
                buf_i = 0
            j = region_of(model, x)
            x = cl.ahat[j] @ x + buf[buf_i]
            buf_i += 1
            chunk_sum += reward(x, spec)
            in_chunk += 1
            if in_chunk == _NOISE_CHUNK:
                flush()
    if in_chunk:
        flush()
    return math.fsum(partials) / n_steps


@dataclass(frozen=True)
class RawTrial:
    n: int
    gamma: float
    trial: int
    n_pseudo: int
    censored: bool
    seed: int


@dataclass(frozen=True)
class CellSummary:
    """Aggregate of one grid cell.  ``mean_runtime_s`` is the cell's wall
    time divided by its trial count; its trials run together, so no
    single trial has a time of its own."""

    n: int
    gamma: float
    trials: int
    n_avg: float
    stderr: float
    censored_frac: float
    mean_runtime_s: float


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


@dataclass(frozen=True)
class SweepResult:
    kind: str
    config: SweepConfig
    raw: tuple[RawTrial, ...]
    cells: tuple[CellSummary, ...]
    fits: dict[float, LinearFit]
    spearman: dict[int, float | None]


_DIM_TAG = 1
_GAMMA_TAG = 2


def trial_seed_sequence(master_seed: int, tag: int, n: int, gamma: float,
                        trial: int) -> np.random.SeedSequence:
    """Per-trial seed derived from grid values, not grid positions, so
    changing the grid shape never reshuffles existing cells."""
    return np.random.SeedSequence(
        master_seed, spawn_key=(tag, n, round(gamma * 1e6), trial))


def _run_cell(model: SldsModel, cl: ClosedLoop, spec: RewardSpec,
              cfg: SweepConfig, tag: int, n: int, gamma: float,
              trials: int) -> tuple[list[RawTrial], CellSummary]:
    """Run a cell's trials through one lockstep kernel call.

    Trial t draws only from its ``trial_seed_sequence`` stream, so its row
    depends on the master seed and its grid values, not on how many
    trials share its lockstep group."""
    seqs = [trial_seed_sequence(cfg.master_seed, tag, n, gamma, trial)
            for trial in range(trials)]
    t0 = time.perf_counter()
    n_pseudo = _stopping_times(cl, model, spec, cfg.eps_stop,
                               [np.random.default_rng(ss) for ss in seqs],
                               cfg.max_steps)
    wall = time.perf_counter() - t0
    raws = [RawTrial(n=n, gamma=gamma, trial=trial, n_pseudo=int(count),
                     censored=bool(count == cfg.max_steps),
                     seed=int(ss.generate_state(1, np.uint64)[0]))
            for trial, (ss, count) in enumerate(zip(seqs, n_pseudo))]
    n_censored = sum(r.censored for r in raws)
    frac = n_censored / trials
    # Below 5 percent censoring the capped rows are dropped from the
    # average; beyond that they stay in at the cap so the bias is visible.
    if frac < 0.05:
        values = [r.n_pseudo for r in raws if not r.censored]
    else:
        values = [r.n_pseudo for r in raws]
    arr = np.asarray(values, dtype=float)
    n_avg = float(arr.mean()) if arr.size else float("nan")
    stderr = (float(arr.std(ddof=1) / math.sqrt(arr.size))
              if arr.size > 1 else 0.0)
    cell = CellSummary(n=n, gamma=gamma, trials=trials, n_avg=n_avg,
                       stderr=stderr, censored_frac=frac,
                       mean_runtime_s=wall / trials)
    return raws, cell


def _fit_upper_half(points: list[tuple[int, float]]) -> LinearFit | None:
    """Least-squares line through the upper half of the (n, N_avg)
    points; the lower dims warm up slowly and are excluded by design."""
    points = sorted(points)
    upper = points[len(points) // 2:]
    xs = np.asarray([p[0] for p in upper], dtype=float)
    ys = np.asarray([p[1] for p in upper], dtype=float)
    if xs.size < 2 or np.unique(xs).size < 2:
        return None
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LinearFit(slope=float(slope), intercept=float(intercept),
                     r_squared=r2, n_points=int(xs.size))


def _certify_cells(cells: list[tuple[int, float]], c_root: float,
                   rho_ball: float) -> None:
    """Refuse to run a sweep over any uncertifiable cell."""
    for n, gamma_root in cells:
        model, policy, _ = build_case_study(n, gamma_root, c_root,
                                            rho_ball)
        cl = closed_loop(model, policy)
        cls = classify_regions(model, rho_ball)
        certify(cl, cls, rho_ball, n)


def sweep_dimension(cfg: SweepConfig) -> SweepResult:
    """Mean pseudo sample count across ``cfg.dims`` at fixed
    ``cfg.gamma_root``, with a linear fit over the upper half of the
    dimension grid."""
    _certify_cells([(n, cfg.gamma_root) for n in cfg.dims],
                   cfg.c_root, cfg.rho_ball)
    raw: list[RawTrial] = []
    cells: list[CellSummary] = []
    for n in cfg.dims:
        model, policy, spec = build_case_study(
            n, cfg.gamma_root, cfg.c_root, cfg.rho_ball)
        cl = closed_loop(model, policy)
        raws, cell = _run_cell(model, cl, spec, cfg, _DIM_TAG, n,
                               cfg.gamma_root, cfg.trials)
        raw.extend(raws)
        cells.append(cell)
    fit = _fit_upper_half([(c.n, c.n_avg) for c in cells])
    fits = {cfg.gamma_root: fit} if fit is not None else {}
    return SweepResult(kind="dimension", config=cfg, raw=tuple(raw),
                       cells=tuple(cells), fits=fits, spearman={})


def sweep_gamma(cfg: SweepConfig) -> SweepResult:
    """Mean pseudo sample count across ``cfg.gammas`` at each dimension
    in ``cfg.gamma_dims``, with a rank correlation per dimension.

    ``fits`` is empty: the result keeps the dimension sweep's shape, but
    no line is fitted across the few dimensions of a gain sweep."""
    trials = cfg.gamma_trials or cfg.trials
    _certify_cells([(n, g) for n in cfg.gamma_dims for g in cfg.gammas],
                   cfg.c_root, cfg.rho_ball)
    raw: list[RawTrial] = []
    cells: list[CellSummary] = []
    spearman: dict[int, float | None] = {}
    for n in cfg.gamma_dims:
        per_gamma: list[float] = []
        for gamma in cfg.gammas:
            model, policy, spec = build_case_study(
                n, gamma, cfg.c_root, cfg.rho_ball)
            cl = closed_loop(model, policy)
            raws, cell = _run_cell(model, cl, spec, cfg, _GAMMA_TAG, n,
                                   gamma, trials)
            raw.extend(raws)
            cells.append(cell)
            per_gamma.append(cell.n_avg)
        if len(cfg.gammas) < 2:
            spearman[n] = None
        else:
            stat = scipy.stats.spearmanr(cfg.gammas, per_gamma).statistic
            spearman[n] = None if math.isnan(stat) else float(stat)
    return SweepResult(kind="gamma", config=cfg, raw=tuple(raw),
                       cells=tuple(cells), fits={}, spearman=spearman)


def write_raw_csv(result: SweepResult, path: str | Path) -> None:
    from .config import fmt

    lines = ["n,gamma,trial,N_pseudo,censored,seed"]
    for r in result.raw:
        lines.append(",".join([str(r.n), fmt(r.gamma), str(r.trial),
                               str(r.n_pseudo), str(int(r.censored)),
                               str(r.seed)]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_agg_csv(result: SweepResult, path: str | Path) -> None:
    from .config import fmt

    lines = ["n,gamma,trials,N_avg,stderr,censored_frac"]
    for c in result.cells:
        lines.append(",".join([str(c.n), fmt(c.gamma), str(c.trials),
                               fmt(c.n_avg), fmt(c.stderr),
                               fmt(c.censored_frac)]))
    Path(path).write_text("\n".join(lines) + "\n")


def _result_manifest_block(result: SweepResult) -> dict:
    block: dict = {"kind": result.kind}
    block["fits"] = {
        repr(g): {"slope": f.slope, "intercept": f.intercept,
                  "r_squared": f.r_squared, "n_points": f.n_points}
        for g, f in sorted(result.fits.items())}
    block["spearman"] = {str(n): result.spearman[n]
                         for n in sorted(result.spearman)}
    return block


def run_pipeline(config_path: str | Path, out_dir: str | Path) -> int:
    """Run the sweeps named in a pipeline config and write CSVs plus a
    manifest into ``out_dir``.

    Config JSON: ``{"sweep": {...SweepConfig fields...},
    "run": ["dimension", "gamma"]}``; both keys optional.  Outputs carry
    no wall-clock data, so reruns with the same config and environment
    are byte-identical.  Returns a process exit code: 0 on success, 2 on
    a config problem, 3 when certification fails, 4 on an I/O failure.
    """
    from .config import sha256_of_text, write_manifest

    try:
        config_path = Path(config_path)
        text = config_path.read_text()
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ConfigError("pipeline config must be a JSON object")
        unknown = set(data) - {"sweep", "run"}
        if unknown:
            raise ConfigError(
                f"unknown pipeline config keys: {sorted(unknown)}")
        cfg = sweep_config_from_dict(data.get("sweep", {}))
        run = data.get("run", ["dimension", "gamma"])
        bad = set(run) - {"dimension", "gamma"}
        if bad:
            raise ConfigError(f"unknown sweep kinds: {sorted(bad)}")

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        blocks = []
        if "dimension" in run:
            result = sweep_dimension(cfg)
            write_raw_csv(result, out / "dimension_raw.csv")
            write_agg_csv(result, out / "dimension_agg.csv")
            blocks.append(_result_manifest_block(result))
        if "gamma" in run:
            result = sweep_gamma(cfg)
            write_raw_csv(result, out / "gamma_raw.csv")
            write_agg_csv(result, out / "gamma_agg.csv")
            blocks.append(_result_manifest_block(result))
        write_manifest(out / "manifest.json", sha256_of_text(text),
                       cfg.master_seed, extra={"results": blocks})
    except json.JSONDecodeError as exc:
        print(f"error: pipeline config is not valid JSON: {exc}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotCertifiable as exc:
        print(f"error: certification failed: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot read or write files: {exc}",
              file=sys.stderr)
        return 4
    return 0
