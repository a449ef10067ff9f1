#!/usr/bin/env python3
"""Benchmark of trisched's CLI pipelines, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-pool --seed 1 --seconds 16 --trace 0

The program is imported from `src/` of the same checkout; the run fails
(exit 2, no result) when it is not there.  With `--trace 0` the run repeats
untraced passes over the workload's inputs for about `--seconds` and reports
the end-to-end metrics of BENCHMARK.json; with `--trace 1` every pipeline of
a pass runs once untraced and once traced, for about twice `--seconds`, and
the run reports the per-layer metrics and the tracing overhead.  Every output
is checked right after it is made, outside the timed region.  Every time is reported in reference seconds:
each timed step is scaled by the machine's speed around it (see speed.py).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
TIME_UNITS = {"s", "ms", "us/job", "us/state"}


@dataclass
class Pass:
    untraced: list[tuple[int, int]] = field(default_factory=list)  # clock steps of each instance pipeline
    traced: list[tuple[int, int]] = field(default_factory=list)    # the same pipelines traced, when tracing
    ratios: list = field(default_factory=list)    # solver makespan / lower bound per checked output
    failures: list[str] = field(default_factory=list)
    tracer: object = None
    latencies: list[float] = field(default_factory=list)      # reference seconds, set by finish
    traced_latencies: list[float] = field(default_factory=list)

    def finish(self, clock) -> None:
        self.latencies = [clock.reference_seconds(*steps) for steps in self.untraced]
        self.traced_latencies = [clock.reference_seconds(*steps) for steps in self.traced]

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(spec, cases, clock, tracer=None) -> Pass:
    """Every case's pipeline once, its steps timed by the clock; with a
    tracer, each case runs again traced, right before or after (alternating),
    so that both timings see the same machine state and neither is always the
    one that runs warm.  Each output is checked right after its run, outside
    the timed steps."""
    import workloads

    run, verify = workloads.PIPELINES[spec.kind]
    result = Pass(tracer=tracer)

    def attempt(case, timings, tracer=None):
        if tracer is not None:
            tracer.instance = case.index
            tracer.install()
        first = len(clock.steps)
        try:
            out = run(case, clock.call)
        except Exception as exc:  # a failed operation is counted, not raised
            return f"{type(exc).__name__}: {exc}"
        finally:
            timings.append((first, len(clock.steps)))
            if tracer is not None:
                tracer.uninstall()
        try:
            result.ratios.append(verify(case, out))
        except Exception as exc:  # so is a wrong or unreadable output
            return f"{type(exc).__name__}: {exc}"
        return None

    gc.collect()
    for case in cases:
        if tracer is None:
            errors = [attempt(case, result.untraced)]
        elif case.index % 2:
            errors = [attempt(case, result.traced, tracer), attempt(case, result.untraced)]
        else:
            errors = [attempt(case, result.untraced), attempt(case, result.traced, tracer)]
        result.failures += [f"case {case.index} (n={case.n}): {e}" for e in errors if e]
    return result


def repeat(budget: float, one_pass) -> list[Pass]:
    """At least one pass; another only while it should end within budget."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(one_pass())
        elapsed = perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget:
            return passes


def measure_setup(workload: str, seed: int, inputs: Path) -> float:
    """Median time, in reference seconds, of fresh interpreters that import
    trisched and write the workload's inputs.  They start with -S: trisched
    needs only the standard library, and the site hooks of the host's
    installation are not part of its set-up.  All of them write into the same
    directory, so only the first pays for creating the files (see
    workloads.create_outputs)."""
    from speed import reference_time

    return statistics.median(
        reference_time(
            subprocess.run,
            [sys.executable, "-S", str(HERE / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inputs)],
            cwd=ROOT, check=True, timeout=120,
        )
        for _ in range(SETUP_REPEATS)
    )


def quantile(values, k: int) -> float:
    """The k-th decile (k = 5 is the median), interpolated between samples;
    unlike the default method it never reaches past the largest sample,
    which matters for the workloads with only 2 or 3 instances."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    # An instance's latency is its median over the run's passes, so the
    # percentiles of a workload with few, long instances do not follow a
    # single slow pass.
    latencies = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    ratios = passes[0].ratios
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "instance_p50_ms": 1000 * quantile(latencies, 5),
        "instance_p90_ms": 1000 * quantile(latencies, 9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "makespan_over_lb": float(sum(ratios) / len(ratios)) if ratios else 0.0,
    }


def per_layer(passes: list[Pass], instances: int, factor: float, times: set) -> dict:
    """Layer numbers from the spans.  Span times are scaled by the speed of
    the run as a whole, and include the probes that ran inside them."""
    import tracing

    layers = [tracing.layer_metrics(p.tracer.spans) for p in passes]
    values = {name: statistics.median(m[name] for m in layers) * (factor if name in times else 1)
              for name in layers[0]}
    overhead = statistics.median(sum(p.traced_latencies) - p.wall for p in passes)
    values["trace.overhead_s"] = overhead
    values["trace.overhead_share"] = overhead / statistics.median(p.wall for p in passes)
    values["instances_per_pass"] = instances
    return values


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "trisched" / "__init__.py").is_file():
        print(f"perfbench: no trisched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    from speed import Clock

    listed = bench["per_layer" if args.trace else "end_to_end"]
    spec = workloads.SPECS[args.workload]
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed, run_dir / "inputs")
        cases = workloads.prepare(spec, args.seed, run_dir / "inputs")
        workloads.create_outputs(spec, cases)
        # A traced pass runs every pipeline twice, so it gets twice the time.
        budget = args.seconds * (2 if args.trace else 1)
        with Clock() as clock:
            passes = repeat(budget, lambda: run_pass(spec, cases, clock, tracing.Tracer() if args.trace else None))
        for p in passes:
            p.finish(clock)
        if args.trace:
            times = {m["name"] for m in listed if m["unit"] in TIME_UNITS}
            values = per_layer(passes, len(cases), clock.factor(), times)
            spans = WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.parent.mkdir(parents=True, exist_ok=True)
            passes[-1].tracer.write(spans)
        else:
            values = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    stray = {m["name"] for m in listed} ^ set(values)
    if stray:
        print(f"perfbench: metrics out of step with BENCHMARK.json: {sorted(stray)}", file=sys.stderr)
        return 3
    attempted = sum(len(p.untraced) + len(p.traced) for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} timed passes of {len(cases)} instances,"
          f" {attempted} instance pipelines checked, error rate {len(failures) / attempted:g}")
    print("# pass reference seconds: " + " ".join(f"{p.wall:.3f}" for p in passes))
    if args.trace:
        print("# traced pass reference seconds: " + " ".join(f"{sum(p.traced_latencies):.3f}" for p in passes))
        print(f"# spans of the last traced pass: {spans.relative_to(ROOT)}")
    print(f"# {clock.probes} speed probes; measured seconds x {clock.factor():.4f} = reference seconds on average")
    for m in listed:
        print(f"{m['name']:34} {values[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
