"""Command-line front end.

Subcommands: ``simulate``, ``certify``, ``estimate``, ``bound``,
``sweep-dim``, ``sweep-gamma``.  Shared flags (valid after any
subcommand): ``--config PATH``, ``--seed U64``, ``--out DIR``.  The
output directory defaults to ``$SLDSIM_OUT`` when set, else
``./sldsim-out``.  The sweeps also take ``--trials``, ``--eps-stop`` and
``--full-scale``; they read their file and write their CSVs and
manifest through :mod:`sldsim.sweep`, as ``run_pipeline`` does.

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
import warnings
from pathlib import Path

import numpy as np

from .bounds import BoundConstants, bound_terms, required_samples
from .config import (
    fmt,
    load_model_config,
    read_json,
    write_trajectory_csv,
)
from .errors import ConfigError, SldsimError, report_error
from .ergodicity import certify, classify_regions, drift_check, sample_in_ball
from .model import closed_loop, simulate
from .regen import (
    Minorization,
    estimate_all,
    operational_minorization,
    simulate_regenerative,
)
from .sweep import (
    SweepConfig,
    read_sweep_file,
    sweep_config_from_dict,
    write_sweeps,
)

_SIM_TAG = 0
_ESTIMATE_TAG = 3
_CERTIFY_TAG = 9


def _seed(args: argparse.Namespace) -> int:
    return 0 if args.seed is None else args.seed


def _out_path(args: argparse.Namespace) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get("SLDSIM_OUT", "sldsim-out"))


def _out_dir(args: argparse.Namespace) -> Path:
    out = _out_path(args)
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
    rng = np.random.default_rng(
        np.random.SeedSequence(_seed(args), spawn_key=(_SIM_TAG,)))
    traj = simulate(cl, cfg.model, cfg.reward, x0, args.n_steps, rng,
                    zero_noise=args.zero_noise)
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
    for name, count, worst in (
            ("quadratic", n_quad, report.worst_quadratic_margin),
            ("scaled", n_scaled, report.worst_scaled_margin)):
        print(f"{name + ' drift spot check':29}"
              f"{'FAIL' if count else 'PASS'} "
              f"({count}/1000 violations, worst margin {worst:.3g})")
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
    if minor.beta() == 0.0:
        raise ConfigError(f"the {args.beta_mode} minorization constant "
                          f"exp({minor.log_beta:.6g}) underflows to 0")
    rng = np.random.default_rng(
        np.random.SeedSequence(_seed(args), spawn_key=(_ESTIMATE_TAG,)))
    x0 = None if args.x0 is None else _parse_x0(args.x0, cfg.model.n)
    log = simulate_regenerative(cl, cfg.model, minor, args.n_steps, rng,
                                x0=x0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = estimate_all(log, cfg.reward)
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)

    out = _out_dir(args)
    blocks_path = out / "blocks.csv"
    lines = ["m,tau_m,T_m,block_reward_sum"]
    lines += [f"{m},{lo},{hi - lo},{fmt(total)}" for m, ((lo, hi), total)
              in enumerate(zip(log.blocks, est.block_sums), start=1)]
    blocks_path.write_text("\n".join(lines) + "\n")

    summary = {
        "horizon": log.horizon,
        "states_simulated": len(log.states),
        "regenerations": len(log.taus),
        "blocks": log.block_count,
        "overshoot": log.overshoot,
        "reward_timeavg": est.value,
        "standard_error": est.standard_error,
        "sigma2_as": est.sigma2_as,
        "beta_mode": args.beta_mode,
        "log_beta": minor.log_beta,
    }
    summary_path = out / "estimate.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"time-averaged reward {est.value!r}")
    se = est.standard_error
    print("standard error       "
          + ("n/a" if se is None else repr(se)))
    print(f"regenerations        {len(log.taus)} "
          f"({log.block_count} complete blocks)")
    print(f"wrote {blocks_path} and {summary_path}")
    return 0


def _load_constants(path: str | None) -> BoundConstants:
    if path is None:
        return BoundConstants()
    data = read_json(path)
    if not isinstance(data, dict) or any(isinstance(v, bool)
                                         for v in data.values()):
        raise ConfigError("bad constants file: expected an object of numbers")
    try:
        return BoundConstants(**data)
    except (TypeError, ValueError) as exc:
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
    columns = {"eps": args.eps, "delta": args.delta, "n": cert.n,
               "gamma": cert.gamma, "c": cert.c, "rho": cert.rho_ball,
               "n_required_operational": req.n_operational,
               "raw_certified_log": req.raw_certified_log,
               "n_steps": n_steps}
    columns.update((name, getattr(report, name)) for name in (
        "term_leading_operational", "log_term_leading_certified",
        "term_cross", "term_c1_sq", "term_sigma2_c0", "term_sigma2_c0_sq",
        "total_operational", "pi_vhat_bound", "rbar_vhat_norm_sq_bound",
        "e_x_vhat_bound"))
    header, row = ",".join(columns), ",".join(map(fmt, columns.values()))
    path.write_text(header + "\n" + row + "\n")
    print(f"wrote {path}")
    return 0


def _print_sweep(result) -> None:
    for cell in result.cells:
        print(f"n={cell.n:5d} gamma={cell.gamma:<5} "
              f"N_avg={cell.n_avg:12.3f} stderr={cell.stderr:10.3f} "
              f"censored={cell.censored_frac:.2%} "
              f"({cell.mean_runtime_s * 1e3:.2f} ms/trial)")
    fit = result.fit
    if fit is not None:
        print(f"fit at gamma={result.config.gamma_root}: "
              f"slope={fit.slope:.4f} intercept={fit.intercept:.2f} "
              f"R^2={fit.r_squared:.4f} over {fit.n_points} points")
    for n, rho in sorted(result.spearman.items()):
        shown = "undefined" if rho is None else f"{rho:.4f}"
        print(f"rank correlation at n={n}: {shown}")


def _cmd_sweep(args: argparse.Namespace, kind: str) -> int:
    """Precedence: full-scale or desk base, then file fields, then
    CLI flags."""
    fields = {} if args.config is None else read_sweep_file(args.config)[0]
    flags = {"trials": args.trials, "eps_stop": args.eps_stop,
             "master_seed": args.seed}
    base = SweepConfig.full_scale() if args.full_scale else SweepConfig()
    cfg = sweep_config_from_dict({
        **dataclasses.asdict(base), **fields,
        **{k: v for k, v in flags.items() if v is not None}})
    out = _out_path(args)
    (result,) = write_sweeps(cfg, (kind,), out, args.config)
    _print_sweep(result)
    print(f"wrote {out / f'{kind}_raw.csv'}, {kind}_agg.csv and "
          f"manifest.json")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr, with exit code 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _ranged(kind, ok, rule: str):
    """An argparse type: ``kind(text)``, which must satisfy ``ok``."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text}")
        return value
    return parse


_SEED = _ranged(int, lambda v: 0 <= v < 2**64, "an integer in [0, 2^64)")
_STEPS = _ranged(int, lambda v: v >= 1, "an integer >= 1")
_HORIZON = _ranged(int, lambda v: v >= 2, "an integer >= 2")
_POSITIVE = _ranged(float, lambda v: 0 < v < math.inf,
                    "a positive finite number")
_NONNEGATIVE = _ranged(float, lambda v: 0 <= v < math.inf,
                       "a nonnegative finite number")
_PROBABILITY = _ranged(float, lambda v: 0 < v < 1, "a number in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config file")
    common.add_argument("--seed", type=_SEED, default=None, metavar="U64",
                        help="master seed (default 0)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory "
                             "(default $SLDSIM_OUT or ./sldsim-out)")

    parser = _Parser(
        prog="sldsim",
        description="Switched-linear simulation, ergodicity "
                    "certification, and regenerative estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="roll out one trajectory to CSV")
    p.add_argument("--n-steps", type=_STEPS, default=1000)
    p.add_argument("--x0", help="comma-separated start state")
    p.add_argument("--zero-noise", action="store_true")

    sub.add_parser("certify", parents=[common],
                   help="compute and spot-check the drift certificate")

    p = sub.add_parser("estimate", parents=[common],
                       help="regenerative steady-state reward estimate")
    p.add_argument("--n-steps", type=_HORIZON, default=20000,
                   help="nominal horizon N")
    p.add_argument("--beta-mode", choices=("operational", "certified"),
                   default="operational")
    p.add_argument("--op-radius", type=_POSITIVE, default=None,
                   help="override the operational small-set radius")
    p.add_argument("--x0", help="start state (default: minorization draw)")

    p = sub.add_parser("bound", parents=[common],
                       help="evaluate the finite-sample error bound")
    p.add_argument("--eps", type=_POSITIVE, default=0.5)
    p.add_argument("--delta", type=_PROBABILITY, default=0.2)
    p.add_argument("--x0-norm-sq", type=_NONNEGATIVE, default=0.0)
    p.add_argument("--n-steps", type=_STEPS, default=None,
                   help="N at which to evaluate the terms "
                        "(default: the required sample count)")
    p.add_argument("--constants", metavar="PATH",
                   help="JSON file overriding the absolute constants")

    for name, helptext in (("sweep-dim",
                            "pseudo sample count across dimensions"),
                           ("sweep-gamma",
                            "pseudo sample count across gains")):
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("--trials", type=_STEPS, default=None)
        p.add_argument("--eps-stop", type=_POSITIVE, default=None)
        p.add_argument("--full-scale", action="store_true",
                       help="use the multi-day grid and budgets")

    return parser


_COMMANDS = {
    "simulate": _cmd_simulate,
    "certify": _cmd_certify,
    "estimate": _cmd_estimate,
    "bound": _cmd_bound,
    "sweep-dim": lambda args: _cmd_sweep(args, "dimension"),
    "sweep-gamma": lambda args: _cmd_sweep(args, "gamma"),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SldsimError, OSError) as exc:
        return report_error(exc)


if __name__ == "__main__":
    sys.exit(main())
