"""Steadiness proof: two sets of untraced runs of every workload, seeds 1 to
10, each through the command of BENCHMARK.json, as the benchmark is accepted.

    python3 perfbench/proof.py perfbench/proof_runs.json

Writes each run's end-to-end values and, per workload and metric, the spread
of each set (first to third quartile over the median) and the ratio of the
second set's median to the first's. The file is rewritten after every run;
a run with a failed operation stops the proof.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import run

SETS = 2
SEEDS = range(1, 11)


def summary(runs: list, spec: dict) -> dict:
    out = {}
    for workload in spec["workloads"]:
        name = workload["name"]
        sets = [[r for r in runs if r["workload"] == name and r["set"] == s]
                for s in range(1, SETS + 1)]
        if any(len(s) < len(SEEDS) for s in sets):
            continue
        out[name] = {}
        for metric in spec["end_to_end"]:
            medians, spreads = [], []
            for rows in sets:
                values = [r["metrics"][metric["name"]] for r in rows]
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(statistics.median(values))
                spreads.append((q3 - q1) / medians[-1])
            out[name][metric["name"]] = {"bound": metric["bound"], "spreads": spreads,
                                         "median_ratio": medians[1] / medians[0]}
    return out


def main(argv) -> int:
    (out,) = argv
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    runs = []
    for set_no in range(1, SETS + 1):
        for seed in SEEDS:
            for workload in spec["workloads"]:
                started = time.perf_counter()
                proc = subprocess.run(
                    spec["command"] + ["--workload", workload["name"], "--seed", str(seed),
                                       "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                    cwd=run.ROOT, capture_output=True, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    sys.exit(f"{workload['name']} seed {seed}: {result['failed']} of "
                             f"{result['attempted']} operations failed\n{proc.stdout}")
                runs.append({"set": set_no, "seed": seed, "workload": workload["name"],
                             "wall_s": time.perf_counter() - started,
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: m["value"] for k, m in result["metrics"].items()}})
                with open(out, "w") as f:
                    json.dump({"run_seconds": spec["run_seconds"], "summary": summary(runs, spec),
                               "runs": runs}, f, indent=1)
                    f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
