"""Config files, CSV emission, and run manifests.

Model configs are JSON with matrices as row-major nested arrays.  Every
CSV the package writes goes through ``_write_csv``, the one CSV writer,
which writes each cell with :func:`fmt`: numbers at full round-trip
precision (shortest decimal that recovers the exact double), so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import Policy, Region, RewardSpec, SldsModel, Trajectory


def fmt(value) -> str:
    """Round-trip text for one CSV cell; a bool is written as 0 or 1."""
    if isinstance(value, (int, np.integer, np.bool_)):  # bool is an int
        return str(int(value))
    return repr(float(value))


@dataclass(frozen=True)
class ModelConfig:
    """A fully parsed model file: system, policy, reward, and ball radius."""

    model: SldsModel
    policy: Policy
    reward: RewardSpec
    rho_ball: float


_MODEL_KEYS = {"n", "p", "regions", "A", "B", "pi", "Q", "R", "rho",
               "normalize_reward"}
_REGION_KEYS = {"radial": {"kind", "r_lo", "r_hi", "declared_unbounded"},
                "polyhedral": {"kind", "L", "C", "declared_unbounded"}}


def _typed(value, kinds: tuple, what: str, rule: str):
    """``value`` if it is one of ``kinds`` (a bool counts as no int)."""
    if isinstance(value, kinds) and (bool in kinds
                                     or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{what} must be {rule}, got {value!r:.40}")


def _number(value, what: str) -> float:
    """A JSON number as a float; a bool, string or null raises."""
    return float(_typed(value, (int, float), what, "a number"))


def _numbers(value, what: str) -> np.ndarray:
    """Nested lists of finite JSON numbers as a float array; an entry that
    is a bool, string, null, object, NaN or infinity raises."""
    if isinstance(value, list):
        for entry in value:
            _numbers(entry, what)
    elif not math.isfinite(_typed(value, (int, float), f"{what} entries",
                                  "numbers")):
        raise ConfigError(f"{what} entries must be finite, got {value!r}")
    return np.asarray(value, dtype=float)


def _known(d: dict, keys: set, where: str) -> None:
    if set(d) - keys:
        raise ConfigError(f"{where}: unknown keys {sorted(set(d) - keys)}")


def _region_from_dict(d: dict, index: int) -> Region:
    where = f"region {index}"
    kind = _typed(d, (dict,), where, "an object").get("kind")
    if kind not in _REGION_KEYS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    _known(d, _REGION_KEYS[kind], where)
    flag = _typed(d.get("declared_unbounded"), (bool, type(None)),
                  f"{where} declared_unbounded", "true, false or null")
    if kind == "radial":
        r_hi = d.get("r_hi")
        return Region(kind="radial",
                      r_lo=_number(d.get("r_lo", 0.0), f"{where} r_lo"),
                      r_hi=(math.inf if r_hi is None
                            else _number(r_hi, f"{where} r_hi")),
                      declared_unbounded=flag)
    return Region(kind="polyhedral", L=_numbers(d["L"], f"{where} L"),
                  C=_numbers(d["C"], f"{where} C"), declared_unbounded=flag)


def _region_to_dict(region: Region) -> dict:
    if region.kind == "radial":
        return {"kind": "radial", "r_lo": region.r_lo,
                "r_hi": None if math.isinf(region.r_hi) else region.r_hi,
                "declared_unbounded": region.declared_unbounded}
    return {"kind": "polyhedral", "L": region.L.tolist(),
            "C": region.C.tolist(),
            "declared_unbounded": region.declared_unbounded}


def model_config_to_dict(cfg: ModelConfig) -> dict:
    """The config as JSON data; ``normalize_reward`` is written only when
    ``P_hat`` is not ``Q + pi' R pi``, so it reloads to the same ``P_hat``."""
    data = {
        "n": cfg.model.n,
        "p": cfg.model.p,
        "regions": [_region_to_dict(r) for r in cfg.model.regions],
        "A": [A.tolist() for A, _ in cfg.model.dynamics],
        "B": [B.tolist() for _, B in cfg.model.dynamics],
        "pi": cfg.policy.pi.tolist(),
        "Q": cfg.reward.q.tolist(),
        "R": cfg.reward.r.tolist(),
        "rho": cfg.rho_ball,
    }
    pi, reward = cfg.policy.pi, cfg.reward
    if not np.array_equal(reward.p_hat, reward.q + pi.T @ reward.r @ pi):
        data["normalize_reward"] = True
    return data


def model_config_from_dict(data: dict) -> ModelConfig:
    """A model config; a mistyped, malformed or unknown field raises."""
    _known(_typed(data, (dict,), "a model config", "a JSON object"),
           _MODEL_KEYS, "model config")
    try:
        n = _typed(data["n"], (int,), "n", "an integer")
        p = _typed(data["p"], (int,), "p", "an integer")
        regions = tuple(_region_from_dict(r, i)
                        for i, r in enumerate(data["regions"]))
        dynamics = tuple((_numbers(A, "A"), _numbers(B, "B"))
                         for A, B in zip(data["A"], data["B"], strict=True))
        model = SldsModel(n=n, p=p, regions=regions, dynamics=dynamics)
        policy = Policy(pi=_numbers(data["pi"], "pi"))
        reward = RewardSpec.bind(
            Q=_numbers(data["Q"], "Q"), R=_numbers(data["R"], "R"),
            policy=policy,
            normalize=_typed(data.get("normalize_reward", False), (bool,),
                             "normalize_reward", "true or false"))
        rho = _number(data["rho"], "rho")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid model config: {exc}") from exc
    if not 0.0 < rho < math.inf:
        raise ConfigError(f"rho must be positive and finite, got {rho!r}")
    return ModelConfig(model=model, policy=policy, reward=reward,
                       rho_ball=rho)


def read_json(path: str | Path):
    """Parse a JSON config file; a missing or malformed one is a
    :class:`ConfigError`."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_model_config(path: str | Path) -> ModelConfig:
    return model_config_from_dict(read_json(path))


def save_model_config(cfg: ModelConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_config_to_dict(cfg), indent=2)
                          + "\n")


def _write_csv(path: str | Path, header, rows) -> None:
    """A header line, one line of :func:`fmt` cells per row, and a final
    newline."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Columns ``step, x_0..x_{n-1}, reward``; round-trip precision."""
    n = traj.states.shape[1]
    _write_csv(path, ("step", *(f"x_{i}" for i in range(n)), "reward"),
               ((t, *x, r) for t, (x, r) in enumerate(
                   zip(traj.states.tolist(), traj.rewards.tolist()))))


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path: str | Path, config_hash: str | None,
                   master_seed: int,
                   extra: dict | None = None) -> None:
    """Record everything needed to reproduce a run's outputs."""
    import scipy

    from . import __version__

    manifest = {
        "config_sha256": config_hash,
        "master_seed": master_seed,
        "sldsim_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
    }
    if extra:
        manifest.update(extra)
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True)
                          + "\n")
