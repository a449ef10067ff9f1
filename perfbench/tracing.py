"""Spans around the public functions of trisched's eight layers.

`Tracer.install` replaces every public function defined in a layer module
with a timing wrapper, on that module and on every other layer module that
imported it by name (`trisched.simulate.check_feasible`,
`trisched.exact.greedy_schedule`, `trisched.cli.optimal_makespan`, ...), so
nested calls become child spans and no file under `src/` changes.  Spans are
kept in memory and written out when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

from reference import lower_bound
from workloads import SPECS

LAYERS = ("core", "greedy", "exact", "qptas", "hardness", "simulate", "serialize", "cli")

# Per-value helpers called once per job inside other layer functions: a span
# per call would cost more than the work it times.  Generator functions are
# skipped too, since a span would close before the generator runs; their
# work is inside the caller's span.
UNWRAPPED = {"core.as_exact", "greedy.insert_into_gap", "serialize.encode_exact", "serialize.decode_exact"}


def _makespan(schedule) -> int:
    return max(start + size for size, start in schedule.jobs)


# What a span records of its call for the counts, taken after the span ends.
# Only small values are kept: holding on to the schedules and traces would
# make the garbage collector slower in the traced run.
EXTRACT = {
    "core.check_feasible": lambda args, result: len(args[0].jobs),
    "greedy.greedy_schedule": lambda args, result: (
        args[0].n, sum(1 for step in result[1] if step.shift), _makespan(result[0])),
    "exact.optimal_makespan": lambda args, result: (args[0].n, result[0], lower_bound(args[0].sizes)),
    "qptas.qptas_solve": lambda args, result: result[1].dp_states,
    "simulate.simulate": lambda args, result: (
        len(args[0].jobs), sum(1 for record in result.records if not record.executed)),
    "serialize.dumps": lambda args, result: len(result.encode("utf-8")),
}

DUMPS = {"dumps", "write_json"}
LOADS = {"loads", "read_json"}


class Span:
    __slots__ = ("name", "parent", "instance", "start", "end", "record")

    def __init__(self, name, parent, instance):
        self.name = name
        self.parent = parent
        self.instance = instance
        self.start = self.end = 0.0
        self.record = None

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.instance = None
        self._stack: list[int] = []
        self._bindings = []   # (module, name, original, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, extract = self.spans, self._stack, EXTRACT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, self.instance)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if extract is not None:
                span.record = extract(args, result)
            return result

        return traced

    def _bind(self) -> None:
        modules = [importlib.import_module(f"trisched.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in vars(module).items():
                if (name.startswith("_") or f"{layer}.{name}" in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for name, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    self._bindings.append((module, name, value, wrappers[value]))

    def install(self) -> None:
        if not self._bindings:
            self._bind()
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "instance": span.instance, "start": span.start, "end": span.end,
                }) + "\n")


def _growth(calls) -> float:
    """Exponent k in time ~ n^k between the smallest and largest n seen; 0
    when every call had the same n."""
    by_n = defaultdict(list)
    for n, seconds in calls:
        by_n[n].append(seconds)
    if len(by_n) < 2:
        return 0.0
    lo, hi = min(by_n), max(by_n)
    return math.log(statistics.fmean(by_n[hi]) / statistics.fmean(by_n[lo])) / math.log(hi / lo)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers of one traced pass."""
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds
    total = defaultdict(float)        # inclusive seconds per function
    own = defaultdict(float)          # self seconds per function
    layer_own = defaultdict(float)
    for span, children in zip(spans, child_seconds):
        total[span.name] += span.seconds
        own[span.name] += span.seconds - children
        layer_own[span.layer] += span.seconds - children
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def parent_name(span):
        return spans[span.parent].name if span.parent >= 0 else None

    checks = [(s.record, s.seconds) for s in named["core.check_feasible"]]
    seeds = [s for s in named["greedy.greedy_schedule"] if parent_name(s) == "exact.optimal_makespan"]
    greedy_runs = [s for s in named["greedy.greedy_schedule"] if parent_name(s) != "exact.optimal_makespan"]
    greedy_jobs = sum(s.record[0] for s in greedy_runs)
    greedy_s = sum(s.seconds for s in greedy_runs)

    exact = named["exact.optimal_makespan"]
    seed_of = {s.parent: s.record[2] for s in seeds}
    lb_exits = seed_optimal = 0
    exact_ms = defaultdict(list)
    for index, s in enumerate(spans):
        if s.name != "exact.optimal_makespan":
            continue
        n, value, floor = s.record
        exact_ms[n].append(1000 * s.seconds)
        if seed_of[index] == floor:
            lb_exits += 1
        elif seed_of[index] == value:
            seed_optimal += 1

    dp_states = sum(s.record for s in named["qptas.qptas_solve"])
    sims = named["simulate.simulate"]
    sim_jobs = sum(s.record[0] for s in sims)

    metrics = {
        "core.check_feasible_s": total["core.check_feasible"],
        "core.check_feasible_us_per_job": 1e6 * _share(total["core.check_feasible"], sum(n for n, _ in checks)),
        "core.check_feasible_growth": _growth(checks),
        "core.self_s": layer_own["core"],
        "greedy.schedule_s": greedy_s,
        "greedy.us_per_job": 1e6 * _share(greedy_s, greedy_jobs),
        "greedy.growth": _growth((s.record[0], s.seconds) for s in greedy_runs),
        "greedy.shifts": sum(s.record[1] for s in greedy_runs),
        "greedy.seed_s": sum(s.seconds for s in seeds),
        "greedy.self_s": layer_own["greedy"],
        "exact.solve_s": total["exact.optimal_makespan"],
        "exact.lb_exit_share": _share(lb_exits, len(exact)),
        "exact.seed_optimal_share": _share(seed_optimal, len(exact)),
        "exact.self_s": layer_own["exact"],
        "qptas.solve_s": total["qptas.qptas_solve"],
        "qptas.dp_solve_s": total["qptas.dp_solve"],
        "qptas.dp_share": _share(total["qptas.dp_solve"], total["qptas.qptas_solve"]),
        "qptas.dp_states": dp_states,
        "qptas.us_per_state": 1e6 * _share(total["qptas.dp_solve"], dp_states),
        "qptas.self_s": layer_own["qptas"],
        "hardness.encode_s": total["hardness.encode"],
        "hardness.certificate_s": total["hardness.schedule_from_matching"],
        "hardness.decode_s": total["hardness.matching_from_schedule"],
        "hardness.decode_self_s": own["hardness.matching_from_schedule"],
        "hardness.self_s": layer_own["hardness"],
        "simulate.run_s": total["simulate.simulate"],
        "simulate.self_s": layer_own["simulate"],
        "simulate.us_per_job": 1e6 * _share(layer_own["simulate"], sim_jobs),
        "simulate.cancellations": sum(s.record[1] for s in sims),
        "serialize.dump_s": sum(v for k, v in own.items() if _is_serialize(k, DUMPS, "_to_obj")),
        "serialize.load_s": sum(v for k, v in own.items() if _is_serialize(k, LOADS, "_from_obj")),
        "serialize.bytes": sum(s.record for s in named["serialize.dumps"]),
        "serialize.self_s": layer_own["serialize"],
        "cli.overhead_s": layer_own["cli"],
    }
    for n in sorted(set(SPECS["oracle-pool"].ns)):
        metrics[f"exact.solve_ms.n{n}"] = statistics.fmean(exact_ms[n]) if exact_ms[n] else 0.0
    return metrics


def _is_serialize(name: str, exact_names: set, suffix: str) -> bool:
    layer, _, function = name.partition(".")
    return layer == "serialize" and (function in exact_names or function.endswith(suffix))
