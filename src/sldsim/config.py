"""Config files, CSV emission, and run manifests.

Model configs are JSON with matrices as row-major nested arrays. All CSV
numbers are written with full round-trip precision (shortest decimal that
recovers the exact double), so identical runs produce byte-identical files.
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
    """Round-trip text for one CSV cell."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
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


def _known(d: dict, keys: set, where: str) -> None:
    if set(d) - keys:
        raise ConfigError(f"{where}: unknown keys {sorted(set(d) - keys)}")


def _region_from_dict(d: dict, index: int) -> Region:
    where = f"region {index}"
    kind = _typed(d, (dict,), where, "an object").get("kind")
    if kind not in _REGION_KEYS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    _known(d, _REGION_KEYS[kind], where)
    flag = f"{where} declared_unbounded"
    if kind == "radial":
        r_hi = d.get("r_hi")
        return Region(kind="radial", r_lo=float(d.get("r_lo", 0.0)),
                      r_hi=math.inf if r_hi is None else float(r_hi),
                      declared_unbounded=_typed(
                          d.get("declared_unbounded"), (bool, type(None)),
                          flag, "true, false or null"))
    return Region(kind="polyhedral", L=np.asarray(d["L"], dtype=float),
                  C=np.asarray(d["C"], dtype=float),
                  declared_unbounded=_typed(d["declared_unbounded"], (bool,),
                                            flag, "true or false"))


def _region_to_dict(region: Region) -> dict:
    if region.kind == "radial":
        return {"kind": "radial", "r_lo": region.r_lo,
                "r_hi": None if math.isinf(region.r_hi) else region.r_hi,
                "declared_unbounded": region.declared_unbounded}
    return {"kind": "polyhedral", "L": region.L.tolist(),
            "C": region.C.tolist(),
            "declared_unbounded": region.declared_unbounded}


def model_config_to_dict(cfg: ModelConfig) -> dict:
    return {
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


def model_config_from_dict(data: dict) -> ModelConfig:
    """A model config; a mistyped, malformed or unknown field raises."""
    _known(_typed(data, (dict,), "a model config", "a JSON object"),
           _MODEL_KEYS, "model config")
    try:
        n = _typed(data["n"], (int,), "n", "an integer")
        p = _typed(data["p"], (int,), "p", "an integer")
        regions = tuple(_region_from_dict(r, i)
                        for i, r in enumerate(data["regions"]))
        dynamics = tuple(
            (np.asarray(A, dtype=float), np.asarray(B, dtype=float))
            for A, B in zip(data["A"], data["B"], strict=True))
        model = SldsModel(n=n, p=p, regions=regions, dynamics=dynamics)
        policy = Policy(pi=np.asarray(data["pi"], dtype=float))
        reward = RewardSpec.bind(
            Q=np.asarray(data["Q"], dtype=float),
            R=np.asarray(data["R"], dtype=float),
            policy=policy,
            normalize=_typed(data.get("normalize_reward", False), (bool,),
                             "normalize_reward", "true or false"))
        rho = float(_typed(data["rho"], (int, float), "rho", "a number"))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
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


def write_trajectory_csv(traj: Trajectory, path: str | Path) -> None:
    """Columns ``step, x_0..x_{n-1}, reward``; round-trip precision."""
    n = traj.states.shape[1]
    lines = ["step," + ",".join(f"x_{i}" for i in range(n)) + ",reward"]
    for t in range(len(traj)):
        cells = [str(t)]
        cells += [fmt(v) for v in traj.states[t]]
        cells.append(fmt(traj.rewards[t]))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


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
