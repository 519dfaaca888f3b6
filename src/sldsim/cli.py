"""Command-line front end.

Subcommands: ``simulate``, ``certify``, ``estimate``, ``bound``,
``sweep-dim``, ``sweep-gamma``.  Shared flags (valid after any
subcommand): ``--config PATH``, ``--seed U64``, ``--out DIR``,
``--full-scale``.  The output directory defaults to
``$SLDSIM_OUT`` when set, else ``./sldsim-out``.

Exit codes: 0 success, 1 runtime failure inside a computation, 2 bad
configuration or arguments, 3 certification failure, 4 file I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bounds import BoundConstants, bound_terms, required_samples
from .config import (
    fmt,
    load_model_config,
    sha256_of_file,
    write_manifest,
    write_trajectory_csv,
)
from .errors import ConfigError, NotCertifiable, SldsimError
from .ergodicity import certify, classify_regions, drift_check, sample_in_ball
from .model import closed_loop, simulate
from .regen import (
    Minorization,
    estimate_all,
    operational_minorization,
    rewards_of,
    simulate_regenerative,
)
from .sweep import (
    SweepConfig,
    sweep_config_from_dict,
    sweep_dimension,
    sweep_gamma,
    write_agg_csv,
    write_raw_csv,
)

_SIM_TAG = 0
_ESTIMATE_TAG = 3
_CERTIFY_TAG = 9


def _seed(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("SLDSIM_OUT", "sldsim-out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_config(args: argparse.Namespace) -> Path:
    if args.config is None:
        raise ConfigError("--config PATH is required for this command")
    return Path(args.config)


def _build_certified(args: argparse.Namespace):
    cfg = load_model_config(_require_config(args))
    cl = closed_loop(cfg.model, cfg.policy)
    classification = classify_regions(cfg.model, cfg.rho_ball)
    cert = certify(cl, classification, cfg.rho_ball, cfg.model.n)
    return cfg, cl, cert


def _parse_x0(text: str | None, n: int) -> np.ndarray:
    if text is None:
        return np.zeros(n)
    try:
        x0 = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad --x0 value: {exc}") from exc
    if x0.shape != (n,):
        raise ConfigError(f"--x0 needs {n} comma-separated numbers")
    return x0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_model_config(_require_config(args))
    cl = closed_loop(cfg.model, cfg.policy)
    x0 = _parse_x0(args.x0, cfg.model.n)
    seed = _seed(args)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(_SIM_TAG,)))
    traj = simulate(cl, cfg.model, cfg.reward, x0, args.n_steps, rng,
                    zero_noise=args.zero_noise, seed_label=seed)
    out = _out_dir(args)
    path = out / "trajectory.csv"
    write_trajectory_csv(traj, path)
    final = float(np.linalg.norm(traj.states[-1]))
    print(f"wrote {path} ({len(traj)} states)")
    print(f"final state norm {final:.6g}, "
          f"mean reward {float(traj.rewards.mean()):.6g}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    cfg, cl, cert = _build_certified(args)
    op = operational_minorization(cert)
    rng = np.random.default_rng(
        np.random.SeedSequence(_seed(args), spawn_key=(_CERTIFY_TAG,)))
    samples = [sample_in_ball(cfg.model.n, 2.0 * cert.s_radius, rng)
               for _ in range(1000)]
    report = drift_check(cl, cfg.model, cert, samples,
                         raise_on_violation=False)

    print(f"contraction rate gamma       {cert.gamma!r}  PASS (< 1)")
    print(f"bounded-class constant c     {cert.c!r}")
    print(f"drift offset K               {cert.k!r}")
    print(f"return-tail constant r_hat   {cert.r_hat!r}")
    print(f"small-set radius             {cert.s_radius!r}")
    print(f"scaled-drift rate lambda     {cert.lam!r}")
    print(f"scaled-drift offset K2       {cert.k2!r}")
    print(f"log beta (certified)         {cert.log_beta!r}")
    print(f"operational radius           {op.s_radius!r}")
    print(f"log beta (operational)       {op.log_beta!r}")
    n_quad = len(report.quadratic_violations)
    n_scaled = len(report.scaled_violations)
    print(f"quadratic drift spot check   "
          f"{'PASS' if n_quad == 0 else 'FAIL'} "
          f"({n_quad}/1000 violations, "
          f"worst margin {report.worst_quadratic_margin:.3g})")
    print(f"scaled drift spot check      "
          f"{'PASS' if n_scaled == 0 else 'FAIL'} "
          f"({n_scaled}/1000 violations, "
          f"worst margin {report.worst_scaled_margin:.3g})")
    if n_scaled:
        print("note: the scaled inequality is unsatisfiable when "
              "2n > (1 - gamma)(n + c rho^2 + 1); the quadratic form "
              "is the binding certificate")

    out = _out_dir(args)
    path = out / "certificate.json"
    payload = {
        "n": cert.n, "rho_ball": cert.rho_ball, "gamma": cert.gamma,
        "c": cert.c, "k": cert.k, "r_hat": cert.r_hat,
        "s_radius": cert.s_radius, "lambda": cert.lam, "k2": cert.k2,
        "log_beta": cert.log_beta, "max_gain": cert.max_gain,
        "operational": {"radius": op.s_radius, "log_beta": op.log_beta,
                        "beta": math.exp(op.log_beta)},
        "drift_spot_check": {
            "samples": 1000,
            "quadratic_violations": n_quad,
            "scaled_violations": n_scaled,
        },
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg, cl, cert = _build_certified(args)
    if args.beta_mode == "certified":
        minor = Minorization.from_certificate(cert)
    else:
        minor = operational_minorization(cert, radius=args.op_radius)
    beta_op = math.exp(minor.log_beta)
    rng = np.random.default_rng(
        np.random.SeedSequence(_seed(args), spawn_key=(_ESTIMATE_TAG,)))
    if args.x0 is not None:
        x0 = _parse_x0(args.x0, cfg.model.n)
        log = simulate_regenerative(cl, cfg.model, minor, beta_op,
                                    args.n_steps, rng, x0_mode="given",
                                    x0=x0)
    else:
        log = simulate_regenerative(cl, cfg.model, minor, beta_op,
                                    args.n_steps, rng)
    output = estimate_all(log, cfg.reward)

    out = _out_dir(args)
    blocks_path = out / "blocks.csv"
    lines = ["m,tau_m,T_m,block_reward_sum"]
    if log.blocks:
        rewards = rewards_of(log.states, cfg.reward)
        sums = np.add.reduceat(rewards[:log.taus[-1]], log.taus[:-1])
        for m, (lo, hi) in enumerate(log.blocks, start=1):
            lines.append(f"{m},{lo},{hi - lo},{fmt(sums[m - 1])}")
    blocks_path.write_text("\n".join(lines) + "\n")

    summary = {
        "horizon": log.horizon,
        "states_simulated": len(log.states),
        "regenerations": len(log.taus),
        "blocks": log.block_count,
        "overshoot": log.overshoot,
        "reward_timeavg": output.reward_timeavg,
        "standard_error": output.standard_error,
        "sigma2_as": output.sigma2_as,
        "beta_mode": args.beta_mode,
        "log_beta": minor.log_beta,
    }
    summary_path = out / "estimate.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"time-averaged reward {output.reward_timeavg!r}")
    se = output.standard_error
    print("standard error       "
          + ("n/a" if se is None else repr(se)))
    print(f"regenerations        {len(log.taus)} "
          f"({log.block_count} complete blocks)")
    print(f"wrote {blocks_path} and {summary_path}")
    return 0


def _load_constants(path: str | None) -> BoundConstants:
    if path is None:
        return BoundConstants()
    try:
        data = json.loads(Path(path).read_text())
        return BoundConstants(**data)
    except (OSError, json.JSONDecodeError, TypeError,
            ValueError) as exc:
        raise ConfigError(f"bad constants file: {exc}") from exc


def _cmd_bound(args: argparse.Namespace) -> int:
    cfg, cl, cert = _build_certified(args)
    consts = _load_constants(args.constants)
    req = required_samples(cert, args.eps, args.delta,
                           x0_norm_sq=args.x0_norm_sq, consts=consts)
    n_steps = args.n_steps if args.n_steps else req.n_operational
    report = bound_terms(cert, n_steps, x0_norm_sq=args.x0_norm_sq,
                         consts=consts)

    print(f"required samples (operational beta) {req.n_operational}")
    certified = (f"exp({req.raw_certified_log:.6g})"
             if not math.isfinite(req.n_certified) else f"{req.n_certified:.6g}")
    print(f"required samples (certified beta)   {certified}")
    print(f"terms at N = {n_steps}:")
    print(f"  leading 1/N (operational beta)    "
          f"{report.term_leading_operational!r}")
    print(f"  leading 1/N, log, certified beta  "
          f"{report.log_term_leading_certified!r}")
    print(f"  cross 1/N                         {report.term_cross!r}")
    print(f"  squared-bias 1/N^2                {report.term_c1_sq!r}")
    print(f"  variance 1/N^2                    "
          f"{report.term_sigma2_c0!r}")
    print(f"  tail 1/N^3                        "
          f"{report.term_sigma2_c0_sq!r}")
    print(f"  total (operational beta)          "
          f"{report.total_operational!r}")

    out = _out_dir(args)
    path = out / "bound.csv"
    header = ["eps", "delta", "n", "gamma", "c", "rho",
              "n_required_operational", "raw_certified_log", "n_steps",
              "term_leading_operational", "log_term_leading_certified",
              "term_cross", "term_c1_sq", "term_sigma2_c0",
              "term_sigma2_c0_sq", "total_operational",
              "pi_vhat_bound", "rbar_vhat_norm_sq_bound",
              "e_x_vhat_bound"]
    row = [fmt(args.eps), fmt(args.delta), str(cert.n), fmt(cert.gamma),
           fmt(cert.c), fmt(cert.rho_ball), str(req.n_operational),
           fmt(req.raw_certified_log), str(n_steps),
           fmt(report.term_leading_operational),
           fmt(report.log_term_leading_certified), fmt(report.term_cross),
           fmt(report.term_c1_sq), fmt(report.term_sigma2_c0),
           fmt(report.term_sigma2_c0_sq), fmt(report.total_operational),
           fmt(report.pi_vhat_bound),
           fmt(report.rbar_vhat_norm_sq_bound),
           fmt(report.e_x_vhat_bound)]
    path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
    print(f"wrote {path}")
    return 0


def _sweep_config(args: argparse.Namespace) -> SweepConfig:
    """Precedence: full-scale or desk base, then file fields, then
    CLI flags."""
    fields: dict = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("sweep config must be a JSON object")
        fields = data.get("sweep", data)
        if not isinstance(fields, dict):
            raise ConfigError("sweep section must be a JSON object")

    base = (SweepConfig.full_scale() if args.full_scale
            else SweepConfig())
    merged = dataclasses.asdict(base)
    merged.update(fields)
    cfg = sweep_config_from_dict(merged)

    overrides: dict = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.eps_stop is not None:
        overrides["eps_stop"] = args.eps_stop
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _print_sweep(result) -> None:
    for cell in result.cells:
        print(f"n={cell.n:5d} gamma={cell.gamma:<5} "
              f"N_avg={cell.n_avg:12.3f} stderr={cell.stderr:10.3f} "
              f"censored={cell.censored_frac:.2%} "
              f"({cell.mean_runtime_s * 1e3:.2f} ms/trial)")
    for gamma, fit in sorted(result.fits.items()):
        print(f"fit at gamma={gamma}: slope={fit.slope:.4f} "
              f"intercept={fit.intercept:.2f} "
              f"R^2={fit.r_squared:.4f} over {fit.n_points} points")
    for n, rho in sorted(result.spearman.items()):
        shown = "undefined" if rho is None else f"{rho:.4f}"
        print(f"rank correlation at n={n}: {shown}")


def _cmd_sweep(args: argparse.Namespace, kind: str) -> int:
    cfg = _sweep_config(args)
    result = sweep_dimension(cfg) if kind == "dimension" \
        else sweep_gamma(cfg)
    out = _out_dir(args)
    raw_path = out / f"{kind}_raw.csv"
    agg_path = out / f"{kind}_agg.csv"
    write_raw_csv(result, raw_path)
    write_agg_csv(result, agg_path)
    _print_sweep(result)
    print(f"wrote {raw_path} and {agg_path}")
    if args.config is not None:
        write_manifest(out / "manifest.json",
                       sha256_of_file(args.config), cfg.master_seed)
        print(f"wrote {out / 'manifest.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file")
    common.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="master seed (default 0)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory "
                             "(default $SLDSIM_OUT or ./sldsim-out)")
    common.add_argument("--full-scale", action="store_true",
                        help="use the multi-day grid and budgets")

    parser = argparse.ArgumentParser(
        prog="sldsim",
        description="Switched-linear simulation, ergodicity "
                    "certification, and regenerative estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="roll out one trajectory to CSV")
    p.add_argument("--n-steps", type=int, default=1000)
    p.add_argument("--x0", help="comma-separated start state")
    p.add_argument("--zero-noise", action="store_true")

    sub.add_parser("certify", parents=[common],
                   help="compute and spot-check the drift certificate")

    p = sub.add_parser("estimate", parents=[common],
                       help="regenerative steady-state reward estimate")
    p.add_argument("--n-steps", type=int, default=20000,
                   help="nominal horizon N")
    p.add_argument("--beta-mode", choices=("operational", "certified"),
                   default="operational")
    p.add_argument("--op-radius", type=float, default=None,
                   help="override the operational small-set radius")
    p.add_argument("--x0", help="start state (default: minorization draw)")

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate the finite-sample error bound")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--x0-norm-sq", type=float, default=0.0)
    p.add_argument("--n-steps", type=int, default=None,
                   help="N at which to evaluate the terms "
                        "(default: the required sample count)")
    p.add_argument("--constants", metavar="PATH",
                   help="JSON file overriding the absolute constants")

    for name, helptext in (("sweep-dim",
                            "pseudo sample count across dimensions"),
                           ("sweep-gamma",
                            "pseudo sample count across gains")):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--eps-stop", type=float, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "sweep-dim":
            return _cmd_sweep(args, "dimension")
        if args.command == "sweep-gamma":
            return _cmd_sweep(args, "gamma")
        parser.error(f"unknown command {args.command!r}")
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
    except SldsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
