"""Regenerate the stored references that the benchmark checks outputs against.

    python3 perfbench/make_refs.py      # about 4 minutes

Writes into ``perfbench/refs/``:

- ``dimension_agg.csv``, ``gamma_agg.csv``: the golden pipeline's
  per-cell tables at master seed 0 (desk ``SweepConfig`` defaults).
- ``reference.json``: the n=1 two-shell reward average over 1e8 steps at
  the seed test_10 uses, plus the spread of 1e6-step averages over 20
  other seeds, from which the check derives its tolerance.
- ``estimate.json``: the steady-state reward of ``poly4.json`` from a long
  plain ``simulate`` run, with a batch-means standard error.

It imports ``sldsim`` from ``src/`` of this checkout and only needs
rerunning when a model or a reference definition changes.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from sldsim import (  # noqa: E402
    build_case_study,
    certify,
    classify_regions,
    closed_loop,
    load_model_config,
    reference_reward_average,
    simulate,
)
from sldsim.sweep import run_pipeline  # noqa: E402

REFERENCE_STEPS = 10**8
SPREAD_STEPS = 10**6
SPREAD_SEEDS = range(1, 21)
POLY_STEPS = 4_000_000
POLY_CHUNK = 200_000
POLY_BATCHES = 100
POLY_SEED = 99


def golden() -> None:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        config = Path(tmp) / "pipeline.json"
        config.write_text(json.dumps({"sweep": {"master_seed": 0}}))
        if run_pipeline(config, Path(tmp) / "out") != 0:
            raise SystemExit("golden pipeline failed")
        for name in ("dimension_agg.csv", "gamma_agg.csv"):
            shutil.copyfile(Path(tmp) / "out" / name, REFS / name)


def reference() -> None:
    model, policy, spec = build_case_study(1, 0.9, 2.0, 10.0)
    cl = closed_loop(model, policy)
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(8, 0)))
    rho = reference_reward_average(cl, model, spec, REFERENCE_STEPS, rng)
    avgs = [reference_reward_average(
                cl, model, spec, SPREAD_STEPS,
                np.random.default_rng(np.random.SeedSequence(s, spawn_key=(8, 0))))
            for s in SPREAD_SEEDS]
    sd = statistics.stdev(avgs)
    payload = {"rho_star": rho, "steps": REFERENCE_STEPS,
               "seed_sequence": [0, [8, 0]],
               "spread_steps": SPREAD_STEPS, "spread_seeds": len(avgs),
               "sd_per_sqrt_step": sd * math.sqrt(SPREAD_STEPS)}
    (REFS / "reference.json").write_text(json.dumps(payload, indent=2) + "\n")


def estimate() -> None:
    cfg = load_model_config(HERE / "poly4.json")
    cl = closed_loop(cfg.model, cfg.policy)
    certify(cl, classify_regions(cfg.model, cfg.rho_ball), cfg.rho_ball,
            cfg.model.n)
    rng = np.random.default_rng(np.random.SeedSequence(POLY_SEED))
    x = np.zeros(cfg.model.n)
    rewards = []
    for _ in range(POLY_STEPS // POLY_CHUNK):
        traj = simulate(cl, cfg.model, cfg.reward, x, POLY_CHUNK + 1, rng)
        rewards.append(traj.rewards[1:])
        x = traj.states[-1]
    r = np.concatenate(rewards)
    means = r.reshape(POLY_BATCHES, -1).mean(axis=1)
    payload = {"reward": float(r.mean()), "steps": int(r.size),
               "seed": POLY_SEED, "batches": POLY_BATCHES,
               "standard_error": float(means.std(ddof=1)
                                       / math.sqrt(POLY_BATCHES))}
    (REFS / "estimate.json").write_text(json.dumps(payload, indent=2) + "\n")


if __name__ == "__main__":
    REFS.mkdir(exist_ok=True)
    for job in (golden, reference, estimate):
        job()
        print(f"wrote {job.__name__} reference", flush=True)
