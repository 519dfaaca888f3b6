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

Each cell runs its trials together through :func:`sldsim.model.lockstep`;
a trial's result does not depend on the trials beside it.  The CLI and
:func:`run_pipeline` read sweep files with :func:`read_sweep_file` and
write CSVs and the manifest with :func:`write_sweeps`.

Desk-scale defaults finish in seconds on one core; ``full_scale`` is
the multi-day configuration and exists to be written into manifests, not
to be run casually.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import _write_csv, read_json, sha256_of_file, write_manifest
from .errors import ConfigError, MaxStepsExceeded, SldsimError, report_error
from .ergodicity import certify, classify_regions
from .model import (
    MAX_STEPS,
    ClosedLoop,
    Policy,
    RewardSpec,
    SldsModel,
    _start_state,
    closed_loop,
    lockstep,
    radial_shell,
    reward,
)


@dataclass(frozen=True)
class SweepConfig:
    """Grid and budget for both sweeps.

    Defaults are desk scale.  ``gamma_trials`` falls back to ``trials``
    when unset.  ``gammas`` and ``gamma_root`` are root-level gains; the
    certified contraction rate is their square.  ``max_steps`` is at most
    ``MAX_STEPS`` (2**53), as :func:`~sldsim.model.lockstep` requires.
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
        for name in ("dims", "gamma_dims"):
            values = getattr(self, name)
            if not (values and all(_is_int(v) and v >= 1 for v in values)
                    and list(values) == sorted(set(values))):
                raise ConfigError(
                    f"{name} must be strictly increasing positive integers")
        counts = {"trials": self.trials, "max_steps": self.max_steps,
                  "gamma_trials": (1 if self.gamma_trials is None
                                   else self.gamma_trials)}
        for name, value in counts.items():
            if not (_is_int(value) and value >= 1):
                raise ConfigError(f"{name} must be an integer >= 1")
        if self.max_steps > MAX_STEPS:
            raise ConfigError("max_steps must be at most 2**53")
        if not (_is_int(self.master_seed) and self.master_seed >= 0):
            raise ConfigError("master_seed must be a nonnegative integer")
        # Gains of 1 or more are legal to configure; certification is
        # where they fail, with the right diagnostic.
        if not (self.gammas
                and all(_is_finite(g) and g > 0 for g in self.gammas)):
            raise ConfigError("gammas must be positive and finite")
        keys = sorted(zip(map(_gain_key, self.gammas), self.gammas))
        for (key, a), (other, b) in zip(keys, keys[1:]):
            if key == other:
                raise ConfigError(f"gammas {a!r} and {b!r} share a stream key")
        for name, value in (("gamma_root", self.gamma_root),
                            ("rho_ball", self.rho_ball),
                            ("eps_stop", self.eps_stop)):
            if not (_is_finite(value) and value > 0):
                raise ConfigError(f"{name} must be positive and finite")
        if not (_is_finite(self.c_root) and self.c_root >= 0):
            raise ConfigError("c_root must be nonnegative and finite")

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


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # Compared exactly, an integer past the largest double fails (where
    # math.isfinite raises OverflowError), as do NaN and inf.
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _gain_key(gamma: float) -> int:
    return round(gamma * 1e6) if gamma * 1e6 < math.inf else int(gamma) * 10**6


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SweepConfig)}
_GRIDS = ("dims", "gammas", "gamma_dims")


def sweep_config_from_dict(data: dict) -> SweepConfig:
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown sweep config keys: {sorted(unknown)}")
    for key in _GRIDS:
        if key in data and not isinstance(data[key], (list, tuple)):
            raise ConfigError(f"{key} must be a list")
    return SweepConfig(**{key: tuple(value) if key in _GRIDS else value
                          for key, value in data.items()})


_KINDS = ("dimension", "gamma")


def read_sweep_file(path: str | Path) -> tuple[dict, tuple[str, ...]]:
    """The ``SweepConfig`` fields and the sweep kinds of a sweep file.

    The file holds ``{"sweep": {...fields...}, "run": [...kinds...]}``,
    both keys optional, or a flat object of fields, which runs both
    kinds.  Kinds come back in the order ``dimension``, ``gamma``."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a JSON object")
    if "regions" in data:
        raise ConfigError(f"{path} is a model config, not a sweep config")
    if {"sweep", "run"} & set(data):
        unknown = set(data) - {"sweep", "run"}
        if unknown:
            raise ConfigError(
                f"unknown pipeline config keys: {sorted(unknown)}")
        data, run = data.get("sweep", {}), data.get("run", _KINDS)
    else:
        run = _KINDS
    if not isinstance(data, dict):
        raise ConfigError("sweep section must be a JSON object")
    if not (isinstance(run, (list, tuple)) and run
            and all(k in _KINDS for k in run)):
        raise ConfigError(f"run must list one or more sweep kinds out of "
                          f"{list(_KINDS)}")
    return data, tuple(k for k in _KINDS if k in run)


def build_case_study(n: int, gamma_root: float, c_root: float,
                     rho_ball: float) -> tuple[SldsModel, Policy,
                                               RewardSpec]:
    """Two concentric shells: gain ``gamma_root`` outside the ball of
    radius ``rho_ball``, gain ``c_root`` inside, zero policy, norm
    reward.

    ``gamma_root >= 1`` builds fine; it fails later at certification,
    which owns that diagnostic.  An ``n`` too large for numpy to size is
    a ``MemoryError``, as in :func:`simulate`."""
    if gamma_root <= 0:
        raise ConfigError("gamma_root must be positive")
    if c_root < 0:
        raise ConfigError("c_root must be nonnegative")
    try:
        eye = np.eye(n)
    except ValueError as exc:   # a size numpy cannot represent
        raise MemoryError(f"cannot size the {n} x {n} identity: "
                          f"{exc}") from exc
    b = np.zeros((n, 1))
    model = SldsModel(
        n=n, p=1,
        regions=(radial_shell(rho_ball, math.inf),
                 radial_shell(0.0, rho_ball)),
        dynamics=((gamma_root * eye, b), (c_root * eye, b)))
    policy = Policy(pi=np.zeros((1, n)))
    spec = RewardSpec.bind(Q=eye, R=np.eye(1), policy=policy)
    return model, policy, spec


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

    This is the one-chain case of :func:`~sldsim.model.lockstep`'s group
    kernel, so a trial gives the same N here as inside its sweep cell.
    """
    (n_pseudo,), _ = lockstep(cl, model, spec, [rng], max_steps, x0,
                              eps_stop)
    if n_pseudo == max_steps:
        raise MaxStepsExceeded(cap=max_steps)
    return int(n_pseudo)


def reference_reward_average(cl: ClosedLoop, model: SldsModel,
                             spec: RewardSpec, n_steps: int,
                             rng: np.random.Generator,
                             x0: np.ndarray | None = None) -> float:
    """Mean reward over the ``n_steps`` states ``x_0 .. x_{n_steps-1}``:
    ``(r(x_0) + S) / n_steps``, ``S`` the total of the one-chain
    :func:`~sldsim.model.lockstep` of ``n_steps - 1`` steps on ``rng``.

    ``lockstep`` alone decides how the chain steps (as Python floats on a
    one-dimensional shell model with norm reward), so this equals the
    mean of :func:`simulate`'s rewards up to summation order, and raises
    its divergence and :class:`NoRegion`.  Raises ``ValueError`` unless
    ``1 <= n_steps <= MAX_STEPS`` (2**53), before any draw.
    """
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError("n_steps must lie in [1, 2**53]")
    x = _start_state(model, x0)
    total = 0.0
    if n_steps > 1:
        _, (total,) = lockstep(cl, model, spec, [rng], n_steps - 1, x)
    return (reward(x, spec) + float(total)) / n_steps


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
    fit: LinearFit | None
    spearman: dict[int, float | None]


_DIM_TAG = 1
_GAMMA_TAG = 2


def trial_seed_sequence(master_seed: int, tag: int, n: int, gamma: float,
                        trial: int) -> np.random.SeedSequence:
    """Per-trial seed derived from grid values, not grid positions, so
    changing the grid shape never reshuffles existing cells."""
    return np.random.SeedSequence(
        master_seed, spawn_key=(tag, n, _gain_key(gamma), trial))


def _run_cell(cfg: SweepConfig, tag: int, n: int, gamma: float,
              trials: int) -> tuple[list[RawTrial], CellSummary]:
    """Build and certify one case study, then run its trials through one
    lockstep kernel call.

    Trial t draws only from its ``trial_seed_sequence`` stream, so its row
    depends on the master seed and its grid values, not on how many
    trials share its lockstep group."""
    model, policy, spec = build_case_study(n, gamma, cfg.c_root,
                                           cfg.rho_ball)
    cl = closed_loop(model, policy)
    certify(cl, classify_regions(model, cfg.rho_ball), cfg.rho_ball, n)
    seqs = [trial_seed_sequence(cfg.master_seed, tag, n, gamma, trial)
            for trial in range(trials)]
    t0 = time.perf_counter()
    n_pseudo, _ = lockstep(cl, model, spec,
                           [np.random.default_rng(ss) for ss in seqs],
                           cfg.max_steps, eps_stop=cfg.eps_stop)
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


def _run_grid(cfg: SweepConfig, tag: int, grid: list[tuple[int, float]],
              trials: int) -> tuple[tuple[RawTrial, ...],
                                    tuple[CellSummary, ...]]:
    """Run the ``(n, gamma)`` cells in grid order, one case study at a
    time; an uncertifiable cell raises :class:`NotCertifiable`."""
    runs = [_run_cell(cfg, tag, n, gamma, trials) for n, gamma in grid]
    return (tuple(r for raws, _ in runs for r in raws),
            tuple(cell for _, cell in runs))


def sweep_dimension(cfg: SweepConfig) -> SweepResult:
    """Mean pseudo sample count across ``cfg.dims`` at fixed
    ``cfg.gamma_root``, with a linear fit over the upper half of the
    dimension grid."""
    raw, cells = _run_grid(cfg, _DIM_TAG,
                           [(n, cfg.gamma_root) for n in cfg.dims],
                           cfg.trials)
    return SweepResult(kind="dimension", config=cfg, raw=raw, cells=cells,
                       fit=_fit_upper_half([(c.n, c.n_avg) for c in cells]),
                       spearman={})


def sweep_gamma(cfg: SweepConfig) -> SweepResult:
    """Mean pseudo sample count across ``cfg.gammas`` at each dimension
    in ``cfg.gamma_dims``, with a rank correlation per dimension and no
    fitted line."""
    raw, cells = _run_grid(cfg, _GAMMA_TAG,
                           [(n, g) for n in cfg.gamma_dims
                            for g in cfg.gammas],
                           cfg.gamma_trials or cfg.trials)
    spearman = {n: _spearman(cfg.gammas,
                             [c.n_avg for c in cells if c.n == n])
                for n in cfg.gamma_dims}
    return SweepResult(kind="gamma", config=cfg, raw=raw, cells=cells,
                       fit=None, spearman=spearman)


def _spearman(x, y) -> float | None:
    """Spearman's rank correlation as ``scipy.stats.spearmanr(x, y)``
    computes it, bit for bit: average ranks for ties, then the Pearson
    correlation of the rank columns.  ``None`` when a sample is constant,
    holds NaN or has fewer than two points."""
    xy = np.column_stack([x, y]).astype(float)
    if len(xy) < 2 or np.isnan(xy).any() or (xy == xy[0]).all(axis=0).any():
        return None
    below = (xy[:, None] > xy[None]).sum(axis=1)
    ties = (xy[:, None] == xy[None]).sum(axis=1)
    ranks = below + (ties + 1) / 2
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def write_raw_csv(result: SweepResult, path: str | Path) -> None:
    _write_csv(path, ("n", "gamma", "trial", "N_pseudo", "censored", "seed"),
               ((r.n, r.gamma, r.trial, r.n_pseudo, r.censored, r.seed)
                for r in result.raw))


def write_agg_csv(result: SweepResult, path: str | Path) -> None:
    _write_csv(path, ("n", "gamma", "trials", "N_avg", "stderr",
                      "censored_frac"),
               ((c.n, c.gamma, c.trials, c.n_avg, c.stderr, c.censored_frac)
                for c in result.cells))


def _result_manifest_block(result: SweepResult) -> dict:
    return {"kind": result.kind,
            "fit": (None if result.fit is None
                    else dataclasses.asdict(result.fit)),
            "spearman": {str(n): result.spearman[n]
                         for n in sorted(result.spearman)}}


def write_sweeps(cfg: SweepConfig, kinds: tuple[str, ...],
                 out_dir: str | Path,
                 config_path: str | Path | None = None) -> list[SweepResult]:
    """Run the sweeps ``kinds`` and write ``{kind}_raw.csv`` and
    ``{kind}_agg.csv`` for each, and one ``manifest.json``, into
    ``out_dir``.

    The manifest holds the resolved ``cfg``, one block per result and the
    sha256 of ``config_path`` (null without a file).  Outputs carry no
    wall-clock data, so reruns with the same config and environment are
    byte-identical.  Every sweep runs before the first file is written,
    so a failing cell leaves no output."""
    config_hash = (None if config_path is None
                   else sha256_of_file(config_path))
    # Looked up per call, so a replaced module attribute is the one run.
    sweeps = {"dimension": sweep_dimension, "gamma": sweep_gamma}
    results = [sweeps[kind](cfg) for kind in kinds]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for result in results:
        write_raw_csv(result, out / f"{result.kind}_raw.csv")
        write_agg_csv(result, out / f"{result.kind}_agg.csv")
    write_manifest(out / "manifest.json", config_hash, cfg.master_seed,
                   extra={"sweep_config": dataclasses.asdict(cfg),
                          "results": [_result_manifest_block(r)
                                      for r in results]})
    return results


def run_pipeline(config_path: str | Path, out_dir: str | Path) -> int:
    """Run the sweeps named in a sweep file (:func:`read_sweep_file`) and
    write CSVs plus a manifest into ``out_dir`` (:func:`write_sweeps`).

    Returns a process exit code, as the CLI does: 0 on success, 1 on a
    failure inside a computation, 2 on a missing or malformed config or
    arrays too large to allocate, 3 when certification fails, 4 on an
    I/O failure.
    """
    try:
        fields, kinds = read_sweep_file(config_path)
        write_sweeps(sweep_config_from_dict(fields), kinds, out_dir,
                     config_path)
    except (SldsimError, OSError, MemoryError) as exc:
        return report_error(exc)
    return 0
