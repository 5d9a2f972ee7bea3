"""Run one benchmark workload and print its metrics.

    python3 -m scenario_bench.run --workload koszul_homology --seed 1 \\
        --seconds 20 --trace 0

The workload document is generated from the seed (see `workloads`), then
driven in-process through the public scenario API: `cli.scenarios_from_document`,
`cli.run_scenario` once per scenario, and `cli.emit_reports`. One closed-loop
client sends each scenario after the previous one completes. The run makes
whole passes over the document, so every run of a seed measures the same
mix of scenarios, and starts another pass only while the mean pass time
still fits in `--seconds`. The first round of the document runs once,
untimed, before the timed passes.

Every wall time is scaled to a reference host speed by the calibration
slices taken between scenarios (see `speed`): the shared host's speed
swings up to twofold, in regimes that last minutes, so raw times of the
same document differed by that factor from run to run. `scenario_p50_ms`
and `scenario_p90_ms` are percentiles of the scaled times of every
scenario run in every pass, and `scenarios_per_s` is the number of those
runs over the sum of their scaled times plus the scaled emit time.
Percentiles over all runs rather than over each scenario's median moved
less from seed to seed: a long scenario's scaled time still varies by
about 8% between passes. `setup_s` is scaled the same way, by
slices the set-up interpreter runs after its timed part. The record keeps
the raw wall times next to the scaled ones.

`--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
makes one untraced and one traced pass over the document and reports the
per-layer metrics of the traced pass, the ratio of the two throughputs, and
checks that both passes emit the same bytes.

Every report must pass, meet every `expect` field the generator derived
from construction, and be byte-identical on every pass; otherwise the
result says `"correct": false`. The last line of standard output is the
result object; a record with document and report digests, calibration
timings and sample counts is printed before it and written to
`scenario_bench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from . import ROOT, SRC, workloads
from .speed import REFERENCE_SLICE_S, SpeedLog
from .tracer import Tracer, layer_metrics, write_spans

from koszul_index import cli

OUT_DIR = ROOT / "scenario_bench" / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULTS = cli.Scenario("defaults", "IDENTITIES", {}, "exact", None, cli.DEFAULT_SEED)
SETUP_REPEATS = 7
# a calibration slice runs before a scenario once this long has passed
# since the last one began; slices cost about 5% of a run
CALIBRATE_EVERY_S = 0.02

# A fresh interpreter imports the package and validates the document read
# from stdin; it prints the seconds from just before the import to the end
# of validation, then the median of nine calibration slices run after it.
_SETUP_CHILD = """
import json, statistics, sys, time
text = sys.stdin.read()
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import koszul_index
from koszul_index import cli
cli.scenarios_from_document(json.loads(text), cli.Scenario(
    "defaults", "IDENTITIES", {}, "exact", None, cli.DEFAULT_SEED))
print(repr(time.perf_counter() - start))
sys.path.insert(0, sys.argv[2])
from scenario_bench.speed import slice_seconds
print(repr(statistics.median(slice_seconds() for _ in range(9))))
"""


def calibration_ms() -> float:
    """A fixed amount of Fraction arithmetic, timed, to tell a slow host
    from a slow program when runs are compared."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 1500):
            acc += Fraction(1, k) * Fraction(k + 1, k + 2)
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def measure_setup(doc_text: str):
    """Raw set-up seconds of SETUP_REPEATS fresh interpreters, and the same
    scaled to the reference host speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(ROOT)],
                              input=doc_text, capture_output=True, text=True,
                              check=True, timeout=120, cwd=ROOT)
        setup_s, slice_s = map(float, done.stdout.strip().splitlines()[-2:])
        raw.append(setup_s)
        scaled.append(setup_s * REFERENCE_SLICE_S / slice_s)
    return raw, scaled


class Loop:
    """Reports, emitted lines and timings of one closed loop over `passes`
    whole passes of a document. `starts` and `walls` are the raw start and
    duration of each scenario; `emit_s` is the scaled emit time."""

    def __init__(self, reports, lines, starts, walls, exec_s, emit_s, passes, speed):
        self.reports = reports
        self.lines = lines
        self.starts = starts
        self.walls = walls
        self.exec_s = exec_s
        self.emit_s = emit_s
        self.passes = passes
        self.speed = speed

    def scaled_walls(self):
        return [w * self.speed.scale(s) for s, w in zip(self.starts, self.walls)]

    @property
    def scenarios_per_s(self) -> float:
        """Scaled throughput of the whole loop."""
        return len(self.reports) / (sum(self.scaled_walls()) + self.emit_s)


def run_loop(scenarios, seconds: float, tracer: Tracer | None = None) -> Loop:
    """Closed loop over whole passes of `scenarios`, in order; at least one
    pass, and another while one more mean pass fits in `seconds`."""
    clock = time.perf_counter
    speed = SpeedLog()
    reports, starts, walls = [], [], []
    passes = 0
    start = clock()
    speed.take(clock)
    while not passes or (clock() - start) * (passes + 1) / passes <= seconds:
        passes += 1
        for scenario in scenarios:
            if clock() - speed.starts[-1] >= CALIBRATE_EVERY_S:
                speed.take(clock)
            if tracer is not None:
                tracer.scenario = scenario.id
            began = clock()
            reports.append(cli.run_scenario(scenario))
            walls.append(clock() - began)
            starts.append(began)
    exec_s = clock() - start
    speed.take(clock)
    buffer = io.StringIO()
    began = clock()
    cli.emit_reports(reports, buffer)
    emit_s = clock() - began
    speed.take(clock)
    return Loop(reports, buffer.getvalue().splitlines(keepends=True), starts, walls,
                exec_s, emit_s * speed.scale(began), passes, speed)


def digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


def check_loop(run: Loop, scenarios, problems: list) -> list:
    """Failing scenario ids; appends to `problems` every expectation the
    reports miss and every repeat that differs from the first pass."""
    count = len(scenarios)
    failing = []
    for i, report in enumerate(run.reports):
        scenario = scenarios[i % count]
        if not report["pass"] or report["error"] is not None:
            failing.append(scenario.id)
        for key, wanted in scenario.payload.get("expect", {}).items():
            if report["outputs"].get(key) != wanted:
                problems.append(f"{scenario.id}: {key} is "
                                f"{report['outputs'].get(key)!r}, expected {wanted!r}")
        if i >= count and run.lines[i] != run.lines[i % count]:
            problems.append(f"{scenario.id}: report differs between passes")
    return failing


def end_to_end(run: Loop, setup_times):
    walls_ms = [w * 1000.0 for w in run.scaled_walls()]
    samples = len(walls_ms)
    return {
        "scenarios_per_s": (run.scenarios_per_s, samples),
        "scenario_p50_ms": (statistics.median(walls_ms), samples),
        "scenario_p90_ms": (statistics.quantiles(walls_ms, n=100)[89], samples),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    calibration = [calibration_ms()]
    doc = workloads.generate(args.workload, args.seed)
    doc_text = json.dumps(doc)
    scenarios = cli.scenarios_from_document(doc, DEFAULTS)
    problems = []
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "document_sha256": workloads.document_sha256(doc),
              "document_scenarios": len(scenarios),
              "python": sys.version.split()[0]}

    if args.trace == 0:
        raw_setup, setup_times = measure_setup(doc_text)
        first_round = scenarios[:len(scenarios) // workloads.ROUNDS[args.workload]]
        run_loop(first_round, 0)  # warm-up, untimed
        run = run_loop(scenarios, args.seconds)
        failing = check_loop(run, scenarios, problems)
        metrics = end_to_end(run, setup_times)
        record["setup_s_samples"] = setup_times
        record["setup_s_raw_samples"] = raw_setup
        loops = [run]
    else:
        untraced = run_loop(scenarios, 0)
        tracer = Tracer()
        with tracer:
            traced_scenarios = cli.scenarios_from_document(doc, DEFAULTS)
            traced = run_loop(traced_scenarios, 0, tracer)
        failing = check_loop(untraced, scenarios, problems)
        failing += check_loop(traced, traced_scenarios, problems)
        if digest(traced.lines) != digest(untraced.lines):
            problems.append("traced reports differ from untraced reports")
        layers = layer_metrics(tracer.spans, len(traced.reports))
        layers["cli.error_reports"] = sum(
            1 for r in traced.reports if r["error"] is not None)
        layers["trace.overhead_ratio"] = traced.scenarios_per_s / untraced.scenarios_per_s
        metrics = {name: (value, len(traced.reports)) for name, value in layers.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        write_spans(tracer.spans, spans_path)
        record["spans"] = len(tracer.spans)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["error_types"] = sorted({r["error"]["type"] for r in traced.reports
                                        if r["error"] is not None})
        loops = [untraced, traced]

    calibration.append(calibration_ms())
    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {m["name"]: (metrics[m["name"]][0], m["unit"], metrics[m["name"]][1])
               for m in wanted}
    first = loops[0]
    attempted = sum(len(p.reports) for p in loops)
    record.update(
        reports_sha256=digest(first.lines[:len(scenarios)]),
        calibration_ms={"start": calibration[0], "end": calibration[-1]},
        attempted=attempted, fail_share=len(failing) / attempted,
        failing_ids=sorted(set(failing)), problems=problems[:20],
        loops=[{"scenarios": len(p.reports), "passes": p.passes,
                "exec_s": p.exec_s, "scaled_exec_s": sum(p.scaled_walls()),
                "scaled_emit_s": p.emit_s, "slices": len(p.speed.seconds),
                "slice_ms_median": statistics.median(p.speed.seconds) * 1000.0}
               for p in loops],
        metrics={name: {"value": v, "unit": u, "samples": n}
                 for name, (v, u, n) in metrics.items()})
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {unit:6s} n={samples}")
    print("record " + json.dumps(record, separators=(",", ":")))
    result = {"correct": not failing and not problems,
              "attempted": attempted, "failed": len(failing),
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u, _) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
