"""sldsim benchmark: one workload, one measurement, one JSON result line.

    python3 perfbench/run.py --workload sweep-golden --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

- ``sweep-golden``: ``sweep.run_pipeline`` on the golden grid.
- ``reference-validate``: an n=1 reference chain, then ``validate_bound``.
- ``estimate-poly``: ``sldsim estimate`` on the four-quadrant model.

Every child process is a fresh interpreter pinned to one BLAS/OpenMP
thread that imports ``sldsim`` from ``src/`` of this checkout.  With
``--trace 0`` the run starts ``SETUP_PROBES`` set-up-only children after
one warm-up child, then one child that times the workload; it prints the
end-to-end metrics.  With ``--trace 1`` one child times the workload
untraced, runs one traced repetition of every workload and runs the
layer microbenchmarks; it prints the per-layer metrics.  Either way the
last line of output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the full record, with the environment, is written to
``perfbench/results/``.  The exit code is 0 only when every output
passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return env


def run_child(args, out: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--refs", str(args.refs), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child timed out after {exc.timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of this checkout, read from .git directly (no git subprocess,
    which would find an enclosing repository when .git is absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; 0 reproduces the tier-1 test seeds")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measuring time of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=SIZES, default="full",
                   help="tiny: same shape at a fraction of the work "
                        "(self-test only)")
    p.add_argument("--refs", type=Path, default=HERE / "refs",
                   help="directory of stored reference outputs")
    args = p.parse_args(argv)

    if not (SRC / "sldsim" / "__init__.py").is_file():
        print(f"error: no sldsim sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    out = HERE / ".out" / f"{args.workload}-{os.getpid()}"
    setups = []
    try:
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                probe = run_child(args, out, deadline, setup_only=True)
                if i:
                    setups.append(probe["setup_s"])
        record = run_child(args, out, deadline, setup_only=False)
    except ChildFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    measured = record["metrics"]
    if not args.trace:
        measured["setup_s"] = statistics.median(setups + [record["setup_s"]])
    units = metric_units("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"error: {args.workload}: not measured: {missing}",
              file=sys.stderr)
        return 1
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in units.items()}
    correct = record["failed"] == 0 and not record["errors"]
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, size=args.size,
                  setup_probes_s=setups)
    record["env"]["git_commit"] = git_commit()

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for err in record["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    for key, value in record["env"].items():
        print(f"env {key} {value}")
    print(f"repetitions {record['repetitions']}")
    print(f"error_rate {record['failed'] / record['attempted']!r} ratio "
          f"({record['failed']}/{record['attempted']})")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
