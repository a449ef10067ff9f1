"""Tests of the benchmark itself, on scaled-down pools.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import importlib
import random
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference as ref  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from trisched import cli, core  # noqa: E402
from trisched.core import Schedule  # noqa: E402

SMALL = {
    "bulk-greedy": {"ns": (60, 180)},
    "oracle-pool": {"count": 12},
    "qptas-grid": {"count": 12},
    "reduction-roundtrip": {"ns": (8, 12), "count": 2},
}

# Counts read from the traced pass, which must depend on the seed alone.
REPEATED = (
    "greedy.shifts", "qptas.dp_states", "simulate.cancellations", "serialize.bytes",
    "exact.lb_exit_share", "exact.seed_optimal_share",
)


def small(name):
    return dataclasses.replace(workloads.SPECS[name], **SMALL[name])


def fingerprint(name, seed, workdir):
    spec = small(name)
    cases = workloads.prepare(spec, seed, workdir / f"{name}-{seed}")
    workloads.create_outputs(spec, cases)
    with speed.Clock() as clock:
        untraced = run.run_pass(spec, cases, clock)
        traced = run.run_pass(spec, cases, clock, tracing.Tracer())
    untraced.finish(clock)
    assert untraced.failures == [] and traced.failures == []
    simulate = importlib.import_module("trisched.simulate")  # the package re-exports a function of that name
    assert simulate.check_feasible is core.check_feasible, "tracer left a wrapper behind"
    layers = tracing.layer_metrics(traced.tracer.spans)
    values = {key: layers[key] for key in REPEATED}
    values["makespan_over_lb"] = run.end_to_end([untraced], 0.0)["makespan_over_lb"]
    return values


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_counts_repeat_under_a_seed_and_follow_it(name, tmp_path):
    first = fingerprint(name, 1, tmp_path)
    assert fingerprint(name, 1, tmp_path) == first
    assert fingerprint(name, 2, tmp_path) != first


def test_reference_feasibility_matches_the_pairwise_definition():
    rng = random.Random(7)
    seen = set()
    for _ in range(500):
        jobs = [(rng.randint(1, 6), Fraction(rng.randint(0, 40), rng.choice((1, 2))))
                for _ in range(rng.randint(1, 7))]
        pairwise = all(abs(s - t) >= min(p, q)
                       for i, (p, s) in enumerate(jobs) for q, t in jobs[i + 1:])
        assert ref.is_feasible(jobs) == pairwise, jobs
        seen.add(pairwise)
    assert seen == {True, False}


def test_a_wrong_schedule_is_counted_not_raised(tmp_path, monkeypatch):
    """A solver answer one unit worse than greedy breaks the 3/2 sandwich."""
    def late_by_one(instance, limit):
        schedule, _ = workloads.greedy_schedule(instance)
        jobs = tuple((p, s + 1) for p, s in schedule.jobs)
        return core.makespan(schedule) + 1, Schedule(jobs)

    monkeypatch.setattr(cli, "optimal_makespan", late_by_one)
    spec = small("oracle-pool")
    with speed.Clock() as clock:
        result = run.run_pass(spec, workloads.prepare(spec, 3, tmp_path), clock)
    assert len(result.failures) == spec.count
    assert all("sandwich" in failure for failure in result.failures)


def test_clock_takes_its_probes_out_of_a_step_and_gives_back_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Clock() as clock:
        assert clock.call(sorted, [3, 1, 2]) == [1, 2, 3]
        clock.call(lambda: sum(i * i for i in range(10**6)))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    start, end, inside = clock.steps[1]
    assert clock.probes >= 2 and 0 < inside < (end - start) / 4


def test_reference_time_scales_by_the_probes_around_the_work(monkeypatch):
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    assert speed.reference_time(time.sleep, 0.05) == pytest.approx(0.025, rel=0.2)


@pytest.mark.parametrize("slowdown", [1, 2, 3])
def test_a_uniformly_slower_machine_gives_the_same_reference_seconds(slowdown):
    clock = speed.Clock()
    # One step of 1 s, 0.1 s of it probes, and probes around it at reference
    # speed, except for one preempted probe that the trimmed mean drops.
    clock.steps = [(0.0, 1.0 * slowdown, 0.1 * slowdown)]
    clock._probe_at = [0.1 * k * slowdown for k in range(1, 11)]
    clock._probe_s = [speed.REFERENCE_S * slowdown] * 9 + [1.0]
    assert clock.reference_seconds(0, 1) == pytest.approx(0.9)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
