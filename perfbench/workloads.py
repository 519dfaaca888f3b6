"""One benchmark measurement, run by ``run.py`` in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 --size full|tiny --refs DIR --out DIR --t0 T [--setup-only]

The process sets the workload up, reports ``setup_s`` as the time since
``T`` (a ``time.monotonic`` stamp its parent took just before starting
it), then repeats the workload's timed call until ``S`` seconds are used,
checking every repetition's outputs against the stored references.  It
prints one JSON object as its last line.

With ``--trace 1`` half the budget runs untraced, then one traced
repetition of every workload (see ``layers.Tracer`` and ``layer_pass``),
then the layer microbenchmarks.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
POLY_CONFIG = HERE / "poly4.json"

# Workload sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same shape at a fraction of the work, for the self-test.  validate_bound
# runs 50 trials rather than test_10's 200 so that one run of the
# benchmark holds several repetitions: on a machine whose speed drifts,
# one or two 10 s repetitions per run spread 13% between runs.
SIZES = {
    "full": {"trials": 100, "ref_steps": 10**6, "validate_trials": 50,
             "estimate_steps": 100_000},
    "tiny": {"trials": 4, "ref_steps": 20_000, "validate_trials": 10,
             "estimate_steps": 20_000},
}

# How far a checked value may sit from its stored reference, in standard
# errors of the difference.  Wide enough that a correct program fails on
# well under one seed in ten thousand; a wrong kernel moves the values by
# far more.
SWEEP_Z = 6.0
REFERENCE_Z = 5.0
ESTIMATE_Z = 4.0


class Failed(Exception):
    """An output did not pass its correctness check."""


def _median(values):
    return statistics.median(values) if values else 0.0


class SweepGolden:
    """``sweep.run_pipeline`` on the golden grid: both desk-default sweeps."""

    EXPECTED_FILES = ["dimension_agg.csv", "dimension_raw.csv",
                      "gamma_agg.csv", "gamma_raw.csv", "manifest.json"]

    def __init__(self, size: dict, seed: int, refs: Path, out: Path) -> None:
        from sldsim import ergodicity, model, sweep

        self.sweep = sweep
        cfg = sweep.SweepConfig(trials=size["trials"], master_seed=seed)
        cells = ([(n, cfg.gamma_root) for n in cfg.dims]
                 + [(n, g) for n in cfg.gamma_dims for g in cfg.gammas])
        # Certifying every cell is set-up work, counted in setup_s;
        # run_pipeline certifies again inside the timed call.
        for n, gamma in cells:
            m, policy, _ = sweep.build_case_study(n, gamma, cfg.c_root,
                                                  cfg.rho_ball)
            cl = model.closed_loop(m, policy)
            ergodicity.certify(cl, ergodicity.classify_regions(
                m, cfg.rho_ball), cfg.rho_ball, n)
        self.expected_rows = size["trials"] * len(cells)
        self.config_path = out / "pipeline.json"
        self.config_path.write_text(json.dumps(
            {"sweep": {"trials": size["trials"], "master_seed": seed},
             "run": ["dimension", "gamma"]}))
        self.refs = {}
        for kind in ("dimension", "gamma"):
            for row in _read_csv(refs / f"{kind}_agg.csv"):
                self.refs[(kind, row["n"], row["gamma"])] = row
        self.first_bytes: dict[str, bytes] | None = None

    def attempts(self) -> int:
        return self.expected_rows

    def run(self, out: Path):
        return self.sweep.run_pipeline(self.config_path, out)

    def check(self, rc, out: Path) -> tuple[int, int]:
        """Returns (steps, censored trials); raises Failed."""
        if rc != 0:
            raise Failed(f"run_pipeline exited {rc}")
        names = sorted(p.name for p in out.iterdir())
        if names != self.EXPECTED_FILES:
            raise Failed(f"output files {names}")
        data = {name: (out / name).read_bytes() for name in names}
        if self.first_bytes is None:
            self.first_bytes = data
        differing = [n for n in names
                     if n.endswith(".csv") and data[n] != self.first_bytes[n]]
        if differing:
            raise Failed(f"CSV bytes differ between repetitions: {differing}")
        steps = rows = censored = 0
        for kind in ("dimension", "gamma"):
            for row in _read_csv(out / f"{kind}_raw.csv"):
                rows += 1
                steps += int(row["N_pseudo"]) + 1
                censored += int(row["censored"])
            for row in _read_csv(out / f"{kind}_agg.csv"):
                ref = self.refs[(kind, row["n"], row["gamma"])]
                diff = abs(float(row["N_avg"]) - float(ref["N_avg"]))
                tol = SWEEP_Z * math.hypot(float(row["stderr"]),
                                           float(ref["stderr"]))
                if not diff <= tol:
                    raise Failed(f"{kind} cell n={row['n']} gamma="
                                 f"{row['gamma']}: N_avg {row['N_avg']} vs "
                                 f"reference {ref['N_avg']}, tolerance {tol}")
        if rows != self.expected_rows:
            raise Failed(f"{rows} raw rows, expected {self.expected_rows}")
        return steps, censored


class ReferenceValidate:
    """test_10's shape: a long n=1 reference chain, then ``validate_bound``."""

    N_USED = 3900

    def __init__(self, size: dict, seed: int, refs: Path, out: Path) -> None:
        import numpy as np

        from sldsim import bounds, ergodicity, model, sweep

        self.np, self.bounds, self.sweep = np, bounds, sweep
        self.model, policy, self.spec = sweep.build_case_study(1, 0.9, 2.0,
                                                               10.0)
        self.cl = model.closed_loop(self.model, policy)
        self.cert = ergodicity.certify(
            self.cl, ergodicity.classify_regions(self.model, 10.0), 10.0, 1)
        self.seed = seed
        self.ref_steps = size["ref_steps"]
        self.trials = size["validate_trials"]
        ref = json.loads((refs / "reference.json").read_text())
        self.rho_ref = ref["rho_star"]
        self.rho_tol = (REFERENCE_Z * ref["sd_per_sqrt_step"]
                        / math.sqrt(self.ref_steps))

    def attempts(self) -> int:
        return 1 + self.trials

    def run(self, out: Path):
        np = self.np
        rng = np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(8, 0)))
        rho = self.sweep.reference_reward_average(
            self.cl, self.model, self.spec, self.ref_steps, rng)
        val = self.bounds.validate_bound(
            self.cl, self.model, self.spec, self.cert, eps=0.5, delta=0.2,
            trials=self.trials, rho_star=rho, master_seed=self.seed)
        return rho, val

    def check(self, outcome, out: Path) -> tuple[int, int]:
        rho, val = outcome
        if abs(rho - self.rho_ref) > self.rho_tol:
            raise Failed(f"rho* {rho!r} vs reference {self.rho_ref!r}, "
                         f"tolerance {self.rho_tol!r}")
        if val.n_used != self.N_USED:
            raise Failed(f"n_used {val.n_used}, expected {self.N_USED}")
        if not val.passed:
            raise Failed(f"validate_bound failed: rate {val.failure_rate} "
                         f"above threshold {val.threshold}")
        return self.ref_steps + val.trials * (val.n_used + 1), 0


class EstimatePoly:
    """``sldsim estimate`` through ``cli.main`` on the four-quadrant model."""

    MIN_BLOCKS = 30

    def __init__(self, size: dict, seed: int, refs: Path, out: Path) -> None:
        from sldsim import cli, config, ergodicity, model, regen

        self.cli = cli
        cfg = config.load_model_config(POLY_CONFIG)
        cl = model.closed_loop(cfg.model, cfg.policy)
        cert = ergodicity.certify(
            cl, ergodicity.classify_regions(cfg.model, cfg.rho_ball),
            cfg.rho_ball, cfg.model.n)
        # Set-up work counted in setup_s; cli.main repeats it when timed.
        regen.operational_minorization(cert)
        # Seed 0 gives the README's ``--seed 3``.
        self.argv = ["estimate", "--config", str(POLY_CONFIG),
                     "--n-steps", str(size["estimate_steps"]),
                     "--seed", str(3 + seed)]
        self.ref = json.loads((refs / "estimate.json").read_text())

    def attempts(self) -> int:
        return 1

    def run(self, out: Path):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(self.argv + ["--out", str(out)])

    def check(self, rc, out: Path) -> tuple[int, int]:
        if rc != 0:
            raise Failed(f"sldsim estimate exited {rc}")
        summary = json.loads((out / "estimate.json").read_text())
        se = summary["standard_error"]
        if summary["blocks"] < self.MIN_BLOCKS or se is None:
            raise Failed(f"{summary['blocks']} blocks, standard error {se}")
        tol = ESTIMATE_Z * math.hypot(se, self.ref["standard_error"])
        if abs(summary["reward_timeavg"] - self.ref["reward"]) > tol:
            raise Failed(f"estimate {summary['reward_timeavg']!r} vs "
                         f"reference {self.ref['reward']!r}, tolerance {tol!r}")
        return summary["states_simulated"], 0


WORKLOADS = {
    "sweep-golden": SweepGolden,
    "reference-validate": ReferenceValidate,
    "estimate-poly": EstimatePoly,
}


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Timing:
    """Repetitions of the timed call, with their outcomes."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.rates: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.bytes_written: list[int] = []

    def absorb(self, other: "Timing") -> None:
        """Count ``other``'s outcomes as this one's, but not its times."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def repeat(work, seconds: float, out: Path, timing: Timing) -> None:
    """Run ``work`` until ``seconds`` are used, at least once.

    A repetition is not started when the median one so far would not fit.
    """
    start = time.perf_counter()
    while True:
        rep = out / "rep"
        rep.mkdir()
        attempts = work.attempts()
        timing.attempted += attempts
        try:
            t0 = time.perf_counter()
            outcome = work.run(rep)
            wall = time.perf_counter() - t0
            steps, censored = work.check(outcome, rep)
        except Failed as exc:
            timing.failed += attempts
            timing.errors.append(str(exc))
        except Exception:
            timing.failed += attempts
            timing.errors.append(traceback.format_exc())
        else:
            if censored:
                timing.failed += censored
                timing.errors.append(f"{censored} censored trials")
            timing.walls.append(wall)
            timing.rates.append(steps / wall)
            timing.bytes_written.append(
                sum(p.stat().st_size for p in rep.iterdir()))
        shutil.rmtree(rep)
        used = time.perf_counter() - start
        if used + _median(timing.walls) > seconds or (
                not timing.walls and used > seconds):
            return


def layer_pass(size: dict, seed: int, refs: Path,
               out: Path) -> tuple[layers.Tracer, dict[str, Timing]]:
    """One traced repetition of every workload, each set up untraced.

    The per-layer span metrics come from this pass, so they are measured
    the same way on every workload and no layer reads 0.
    """
    tracer = layers.Tracer()
    passes = {}
    for name, make in WORKLOADS.items():
        work = make(size, seed, refs, out)
        passes[name] = Timing()
        with tracer:
            repeat(work, 0.0, out, passes[name])
    return tracer, passes


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=SIZES, required=True)
    p.add_argument("--refs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    import sldsim
    src = HERE.parent / "src"
    if Path(sldsim.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"sldsim imported from {sldsim.__file__}, not {src}")
    args.out.mkdir(parents=True, exist_ok=True)
    make = WORKLOADS[args.workload]
    size = SIZES[args.size]
    work = make(size, args.seed, args.refs, args.out)
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    timing = Timing()
    if args.trace:
        repeat(work, args.seconds / 2, args.out, timing)
        untraced_s = _median(timing.walls)
        tracer, passes = layer_pass(size, args.seed, args.refs, args.out)
        for traced in passes.values():
            timing.absorb(traced)
        traced_s = _median(passes[args.workload].walls)
        metrics = layers.span_metrics(tracer)
        metrics["config.bytes_written"] = sum(
            sum(t.bytes_written) for t in passes.values())
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s
                                           if untraced_s else 0.0)
        metrics.update(layers.microbenchmarks(POLY_CONFIG))
        result["spans"] = tracer.table()
    else:
        repeat(work, args.seconds, args.out, timing)
        metrics = {
            "wall_s": _median(timing.walls),
            "steps_per_s": _median(timing.rates),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result.update(metrics=metrics, walls=timing.walls,
                  repetitions=len(timing.walls),
                  attempted=timing.attempted, failed=timing.failed,
                  errors=timing.errors, env=environment())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
