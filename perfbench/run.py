"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload trend --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Untraced (``--trace 0``) it launches fresh
worker processes: some stop once ``speckleqi.cli`` is imported (set-up
samples), some also run one operation (first-operation samples), and the
last runs the workload for ``--seconds``. It prints each end-to-end metric
of BENCHMARK.json with its unit and sample count, and as its last line a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 1`` is a separate run of one worker that reports the per-layer
metrics instead. Every launched process gets one BLAS thread. Scratch files
(byte-code cache, CSV output, span tables) go to ``perfbench/.run``.
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
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".run"
READY_SAMPLES = 4
FIRST_OP_SAMPLES = 4
TIME_LIMIT_S = 175.0
BLAS_THREADS = "1"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # a byte-code cache of the benchmark's own, written whatever the caller's setting
    env["PYTHONPYCACHEPREFIX"] = str(SCRATCH / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Launcher:
    """Starts worker processes one after another within the run's time limit."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        self.args = [workload, str(seed), str(seconds)]
        self.workdir = workdir
        self.env = child_env()
        self.deadline = time.perf_counter() + TIME_LIMIT_S

    def __call__(self, mode: str) -> dict:
        launched = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *self.args, mode, repr(launched),
                 str(self.workdir)],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - launched))
        except subprocess.TimeoutExpired:
            raise RuntimeError("the workload did not finish in time") from None
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """The checked-out commit, or None outside a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
    except OSError:  # no git installed
        return None
    return head.stdout.strip() or None


def tail(times: list):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than twenty samples."""
    if len(times) < 20:
        return None
    ordered = sorted(times)
    return 100.0 * (len(ordered) - 10) / len(ordered), ordered[-11]


def end_to_end(record: dict, probes: list) -> dict:
    setup = [r["setup_s"] for r in probes + [record]]
    first = [r["first_op_s"] for r in probes + [record] if "first_op_s" in r]
    times = record["op_times"]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "first_op_s": (statistics.median(first), len(first)),
        "op_s": (statistics.median(times), len(times)),
        "peak_rss_mb": (record["peak_rss_mb"], 1),
    }


def per_layer(record: dict) -> dict:
    n = len(record["op_times"])
    return {name: (value, n) for name, value in record["layers"].items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run; returns the environment, metrics with sample counts and the
    operation counts. Raises RuntimeError when the worker fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    launch = Launcher(workload, seed, seconds, workdir)
    try:
        probes = []
        if not trace:
            launch("ready")  # may compile byte code; not counted
            probes = ([launch("ready") for _ in range(READY_SAMPLES)]
                      + [launch("first") for _ in range(FIRST_OP_SAMPLES)])
        record = launch("trace" if trace else "run")
    finally:
        shutil.rmtree(workdir)
    checked = [r for r in probes + [record] if "attempted" in r]

    measured = per_layer(record) if trace else end_to_end(record, probes)
    n_ops = len(record["op_times"])
    metrics = {m["name"]: dict(zip(("value", "n"), measured.get(m["name"], (0.0, n_ops))),
                               unit=m["unit"])
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {
        "env": dict(record["env"], seed=seed, commit=git_commit(), tracing=trace,
                    seconds=seconds),
        "metrics": metrics,
        "op_tail_s": None if trace else tail(record["op_times"]),
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "problems": [p for r in checked for p in r["problems"]],
    }


def print_result(workload: str, result: dict) -> None:
    print("env " + json.dumps(result["env"], sort_keys=True))
    for problem, times in Counter(result["problems"]).items():
        print(f"problem (x{times}) " + problem.strip().replace("\n", " | "))
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']} (n={m['n']})")
    if result["op_tail_s"]:
        pct, value = result["op_tail_s"]
        print(f"{workload} op_tail_s = {value:.6g} s (p{pct:.0f}, "
              f"n={result['metrics']['op_s']['n']})")
    print(f"{workload} fail_frac = {result['failed']}/{result['attempted']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "speckleqi" / "__init__.py").exists():
        print(f"error: no speckleqi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_result(args.workload, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
