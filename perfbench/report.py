"""Run every workload of BENCHMARK.json, untraced and then traced, and print
each metric by name with its unit and sample count.

    python3 perfbench/report.py --seed 1 [--save perfbench/baseline.json]

``--save`` writes the environment, each workload's reason and every result
to a JSON file, the form in which a baseline is kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--save", type=Path, help="write every result to this JSON file")
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    saved = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = saved["workloads"][name] = {"why": workload["why"]}
        for trace in (False, True):
            result = run.run(name, args.seed, seconds, trace)
            run.print_result(name, result)
            saved["env"] = {k: v for k, v in result["env"].items() if k != "tracing"}
            entry["traced" if trace else "untraced"] = {
                k: result[k] for k in ("metrics", "op_tail_s", "attempted", "failed",
                                       "problems")}
    if args.save:
        args.save.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
