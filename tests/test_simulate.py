"""Runtime execution: cancellation, protection, completion accounting."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisched import (
    Schedule,
    check_feasible,
    greedy_schedule,
    makespan,
    new_instance,
    simulate,
)

STAIRCASE = Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))


def executed_intervals(trace):
    return [(r.start, r.end) for r in trace.records if r.executed]


class TestKnownExecutions:
    def test_unit_demands_run_everything(self):
        trace = simulate(STAIRCASE, (1, 1, 1, 1))
        assert all(r.executed for r in trace.records)
        assert executed_intervals(trace) == [(0, 1), (4, 5), (7, 8), (10, 11)]
        assert trace.completion == 11

    def test_long_first_job_cancels_the_second(self):
        trace = simulate(STAIRCASE, (5, 1, 2, 4))
        assert executed_intervals(trace) == [(0, 5), (7, 9), (10, 14)]
        canceled = [r for r in trace.records if not r.executed]
        assert [(r.job, r.canceled_by) for r in canceled] == [(1, 0)]
        assert trace.completion == 14

    def test_overrun_chain_cancels_the_third(self):
        trace = simulate(STAIRCASE, (4, 4, 1, 2))
        assert executed_intervals(trace) == [(0, 4), (4, 8), (10, 12)]
        canceled = [r for r in trace.records if not r.executed]
        assert [(r.job, r.canceled_by) for r in canceled] == [(2, 1)]
        assert trace.completion == 12

    def test_records_align_with_schedule_positions(self):
        trace = simulate(STAIRCASE, (1, 1, 1, 1))
        for pos, record in enumerate(trace.records):
            assert record.job == pos
            assert (record.size, record.start) == STAIRCASE.jobs[pos]


class TestValidation:
    def test_infeasible_schedule_rejected(self):
        with pytest.raises(ValueError):
            simulate(Schedule(((6, 0), (4, 3))), (1, 1))

    def test_demand_count_must_match(self):
        with pytest.raises(ValueError):
            simulate(STAIRCASE, (1, 1, 1))

    def test_zero_demand_rejected(self):
        with pytest.raises(ValueError):
            simulate(STAIRCASE, (1, 0, 1, 1))

    def test_overlong_demand_rejected(self):
        with pytest.raises(ValueError):
            simulate(STAIRCASE, (7, 1, 1, 1))

    def test_protection_is_checked_under_optimize(self):
        # job 1 starts inside the smaller job 0's window; with the
        # feasibility check patched out, only the protection check stops it
        code = (
            "import importlib\n"
            "from trisched import Schedule\n"
            "sim = importlib.import_module('trisched.simulate')\n"
            "sim.check_feasible = lambda schedule: None\n"
            "try:\n"
            "    sim.simulate(Schedule(((4, 0), (6, 2))), (4, 1))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "protection violated" in result.stdout

    def test_float_demand_rejected(self):
        with pytest.raises(TypeError):
            simulate(STAIRCASE, (1.0, 1, 1, 1))

    def test_fraction_demand_allowed(self):
        trace = simulate(STAIRCASE, (Fraction(3, 2), 1, 1, 1))
        assert executed_intervals(trace)[0] == (0, Fraction(3, 2))


class TestRuntimeProperties:
    @given(
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10),
        st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_protection_and_accounting(self, sizes, seed):
        inst = new_instance(sizes)
        sched, _ = greedy_schedule(inst)
        rng = random.Random(seed)
        demands = tuple(rng.randint(1, p) for p, _ in sched.jobs)
        trace = simulate(sched, demands)
        by_pos = trace.records
        for record in by_pos:
            if record.executed:
                assert record.end == record.start + demands[record.job]
            else:
                canceler = by_pos[record.canceled_by]
                # strictly more critical, running over this start
                assert canceler.size > record.size
                assert canceler.executed
                assert canceler.start <= record.start < canceler.end
        # executed intervals are disjoint in time order
        runs = sorted(executed_intervals(trace))
        for (_, end), (start, _) in zip(runs, runs[1:]):
            assert end <= start
        assert trace.completion <= makespan(sched)
        assert any(r.executed for r in by_pos)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=10))
    @settings(max_examples=100)
    def test_unit_demands_cancel_nothing(self, sizes):
        sched, _ = greedy_schedule(new_instance(sizes))
        trace = simulate(sched, (1,) * sched.n)
        assert all(r.executed for r in trace.records)

    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=2, max_size=8),
        st.integers(0, 10**6),
    )
    @settings(max_examples=100, deadline=None)
    def test_unique_top_job_always_runs(self, sizes, seed):
        sizes = sorted(sizes, reverse=True)
        sizes[0] = sizes[1] + 1  # force a unique maximum
        sched, _ = greedy_schedule(new_instance(sizes))
        rng = random.Random(seed)
        demands = tuple(rng.randint(1, p) for p, _ in sched.jobs)
        trace = simulate(sched, demands)
        top = max(range(sched.n), key=lambda i: sched.jobs[i][0])
        assert trace.records[top].executed

    def test_equal_sizes_never_interfere(self):
        sched, _ = greedy_schedule(new_instance([5, 5, 5]))
        trace = simulate(sched, (5, 5, 5))
        assert all(r.executed for r in trace.records)
