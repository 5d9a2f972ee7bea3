"""Run every workload once with tracing off and print each end-to-end
metric by name, with its unit and sample count.

    python3 -m scenario_bench.report --seed 1

Each workload runs in its own interpreter through `scenario_bench.run`, so
peak memory and set-up time are per workload. Exits 1 if any run is not
correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from . import ROOT, workloads


def run_workload(workload: str, seed: int, seconds: float):
    done = subprocess.run(
        [sys.executable, "-m", "scenario_bench.run", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True, cwd=ROOT, timeout=900)
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2][len("record "):])
    return json.loads(lines[-1]), record


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    all_correct = True
    print(f"{'workload':16s} {'metric':18s} {'value':>14s} {'unit':6s} samples")
    for workload in workloads.WORKLOADS:
        result, record = run_workload(workload, args.seed, args.seconds)
        all_correct &= result["correct"]
        for spec in config["end_to_end"]:
            metric = record["metrics"][spec["name"]]
            print(f"{workload:16s} {spec['name']:18s} {metric['value']:14.6g} "
                  f"{metric['unit']:6s} {metric['samples']}")
        print(f"{workload:16s} {'fail_share':18s} {record['fail_share']:14.6g} "
              f"{'ratio':6s} {record['attempted']}  correct={result['correct']} "
              f"reports_sha256={record['reports_sha256'][:16]}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
