"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py with the launch time on its command line; prints one JSON
record on standard output. MODE is one of

- ``ready``: stop once ``speckleqi.cli`` is imported (a set-up sample);
- ``first``: also time and check one operation;
- ``run``: time a first operation, then operations back to back until
  SECONDS have passed;
- ``trace``: as ``run`` for half the time, then install the span wrappers
  and go on for the other half, so the tracing overhead is measured in the
  same process.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE LAUNCHED_AT WORKDIR
"""

from __future__ import annotations

import time

import speckleqi.cli  # noqa: F401  (ready state: the CLI is importable)

READY = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_PROBLEMS = 5


class Loop:
    """Runs operations, times them and checks every output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, tracer=None) -> float:
        self.attempted += 1
        for path in self.workload.outputs():  # every operation writes fresh files
            path.unlink(missing_ok=True)
        idx = tracer.enter(spans.ROOT) if tracer is not None else None
        start = time.perf_counter()
        error = None
        try:
            output = self.workload.run()
        except Exception:  # a raising operation counts as failed; the loop goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.exit(idx)
        try:
            problems = [error] if error else self.workload.check(output)
        except Exception:
            problems = [traceback.format_exc(limit=3)]
        if tracer is not None:
            tracer.count("cli.bytes_out", sum(p.stat().st_size for p in self.workload.outputs()
                                              if p.exists()))
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])
        return elapsed

    def until(self, deadline: float, tracer=None) -> list:
        """Operations back to back until the deadline, at least one."""
        times = [self.op(tracer)]
        while time.perf_counter() < deadline:
            times.append(self.op(tracer))
        return times


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded in this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    cpu, l3 = None, None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3_path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    if l3_path.exists():
        l3 = l3_path.read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "l3": l3,
        "nproc": len(os.sched_getaffinity(0)),
    }


def per_layer(tracer: spans.Tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics: the median over traced operations of each layer's
    calls and self seconds (total seconds for a validate check) and of each
    counter, the ratios built from them, and the tracing overhead."""
    ops = spans.layer_summary(tracer)
    flat = {}
    for name in {name for op in ops for name in op["layers"]}:
        rows = np.array([op["layers"].get(name, [0, 0.0, 0.0]) for op in ops])
        calls, self_s, total_s = np.median(rows, axis=0)
        if name.startswith("validate."):
            flat[f"{name}.s"] = total_s
        else:
            flat[f"{name}.calls"], flat[f"{name}.self_s"] = calls, self_s
    for key in {key for op in ops for key in op["counts"]}:
        flat[key] = np.median([op["counts"].get(key, 0) for op in ops])
    helstrom_calls = flat.get("oracle.helstrom.calls", 0)
    flat["oracle.helstrom.repeat_frac"] = (
        flat.get("oracle.helstrom.repeats", 0) / helstrom_calls if helstrom_calls else 0.0)
    trials = flat.get("montecarlo.trials", 0)
    flat["montecarlo.s_per_1e5_trials"] = (
        flat.get("montecarlo.self_s", 0) / trials * 1e5 if trials else 0.0)
    flat["trace.op_s"], flat["trace.untraced_op_s"] = np.median(traced), np.median(untraced)
    flat["trace.overhead_s"] = flat["trace.op_s"] - flat["trace.untraced_op_s"]
    return {name: float(value) for name, value in flat.items()}


def main(argv) -> int:
    name, seed, seconds, mode, launched_at, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    record = {"setup_s": READY - float(launched_at)}
    if mode == "ready":
        print(json.dumps(record))
        return 0
    loop = Loop(workloads.WORKLOADS[name](seed, workdir))
    start = time.perf_counter()
    record["first_op_s"] = loop.op()
    if mode == "run":
        record["op_times"] = loop.until(start + seconds)
    elif mode == "trace":
        record["untraced_op_times"] = loop.until(start + seconds / 2)
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            record["op_times"] = loop.until(start + seconds, tracer)
        finally:
            uninstall()
        record["layers"] = per_layer(tracer, record["op_times"], record["untraced_op_times"])
        np.savez(workdir.parent / f"spans-{name}-{seed}.npz", **tracer.table())
    record.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  env=environment())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
