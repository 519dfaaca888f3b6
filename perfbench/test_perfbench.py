"""Self-test of the benchmark at tiny size.

    python3 -m pytest perfbench

Checks that every metric named in BENCHMARK.json is printed with its unit
and a positive value on every workload, that a second seed passes the
same checks, that a wrong stored reference fails the correctness check,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def bench(*args: str, root: Path = ROOT, refs: Path | None = None):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--size", "tiny", "--seconds", "1", *args]
    if refs is not None:
        cmd += ["--refs", str(refs)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace,seed", [(0, 0), (1, 1)])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, seed):
    proc = bench("--workload", workload, "--seed", str(seed),
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        assert f"{m['name']} {value!r} {m['unit']}" in lines
        assert value > 0, m["name"]


def _corrupt_golden(refs: Path) -> None:
    path = refs / "dimension_agg.csv"
    head, *rows = path.read_text().splitlines()
    cells = rows[-1].split(",")
    cells[3] = repr(100 * float(cells[3]))
    path.write_text("\n".join([head, *rows[:-1], ",".join(cells)]) + "\n")


def _corrupt_json(name: str, key: str):
    def corrupt(refs: Path) -> None:
        path = refs / name
        data = json.loads(path.read_text())
        data[key] *= 1.5
        path.write_text(json.dumps(data))
    return corrupt


@pytest.mark.parametrize("workload,corrupt", [
    ("sweep-golden", _corrupt_golden),
    ("reference-validate", _corrupt_json("reference.json", "rho_star")),
    ("estimate-poly", _corrupt_json("estimate.json", "reward")),
])
def test_wrong_reference_fails_check(workload, corrupt, tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(HERE / "refs", refs)
    corrupt(refs)
    proc = bench("--workload", workload, "--seed", "0", "--trace", "0",
                 refs=refs)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1
    assert "check failed" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".out",
                                                  "results"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--trace", "0",
                 root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
