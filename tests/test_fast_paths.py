"""The near-linear `check_feasible` and greedy against their quadratic
oracles, and a scale gate that a quadratic regression fails."""

import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_oracle, greedy_schedule_oracle, pairs_oracle
from trisched import (
    Schedule,
    check_feasible,
    greedy_schedule,
    lower_bound,
    makespan,
    new_instance,
)
from trisched.greedy import greedy_steps

int_jobs = st.tuples(st.integers(1, 12), st.integers(0, 60))
fraction_jobs = st.tuples(
    st.fractions(min_value=Fraction(1, 6), max_value=12, max_denominator=6),
    st.fractions(min_value=0, max_value=60, max_denominator=6),
)
# few distinct starts: many coincident starts
crowded_jobs = st.tuples(st.integers(1, 5), st.integers(0, 3))
# sizes far above the start range: almost every pair violates
dense_jobs = st.tuples(st.integers(20, 40), st.integers(0, 25))


def schedules(jobs):
    return st.lists(jobs, min_size=1, max_size=40).map(lambda js: Schedule(tuple(js)))


class TestCheckFeasibleMatchesPairOracle:
    @given(schedules(int_jobs))
    @settings(max_examples=300)
    def test_int_schedules(self, schedule):
        assert check_feasible(schedule) == pairs_oracle(schedule)

    @given(schedules(fraction_jobs))
    @settings(max_examples=300)
    def test_fraction_schedules(self, schedule):
        assert check_feasible(schedule) == pairs_oracle(schedule)

    @given(schedules(crowded_jobs))
    @settings(max_examples=200)
    def test_coincident_starts(self, schedule):
        assert check_feasible(schedule) == pairs_oracle(schedule)

    @given(schedules(dense_jobs))
    @settings(max_examples=200)
    def test_many_violations(self, schedule):
        assert check_feasible(schedule) == pairs_oracle(schedule)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=60), st.data())
    @settings(max_examples=150)
    def test_greedy_schedules_with_one_job_nudged(self, sizes, data):
        # feasible schedules with tight gaps, and near misses of them
        jobs = list(greedy_schedule(new_instance(sizes))[0].jobs)
        k = data.draw(st.integers(0, len(jobs) - 1))
        size, start = jobs[k]
        jobs[k] = (size, max(0, start + data.draw(st.integers(-3, 3))))
        schedule = Schedule(tuple(jobs))
        assert check_feasible(schedule) == pairs_oracle(schedule)


uniform_sizes = st.lists(st.integers(1, 10**6), min_size=1, max_size=120)
equal_sizes = st.tuples(st.integers(1, 50), st.integers(1, 120)).map(lambda t: [t[0]] * t[1])
ladder_sizes = st.lists(st.integers(0, 8), min_size=1, max_size=120).map(
    lambda exponents: [256 >> e for e in exponents]
)


class TestGreedyMatchesOracle:
    @given(uniform_sizes)
    @settings(max_examples=150)
    def test_uniform_sizes(self, sizes):
        inst = new_instance(sizes)
        assert greedy_schedule(inst) == greedy_schedule_oracle(inst)

    @given(equal_sizes)
    @settings(max_examples=100)
    def test_all_equal_sizes(self, sizes):
        inst = new_instance(sizes)
        assert greedy_schedule(inst) == greedy_schedule_oracle(inst)

    @given(ladder_sizes)
    @settings(max_examples=150)
    def test_halving_ladder_sizes(self, sizes):
        inst = new_instance(sizes)
        assert greedy_schedule(inst) == greedy_schedule_oracle(inst)

    @given(st.one_of(uniform_sizes, equal_sizes, ladder_sizes))
    @settings(max_examples=60)
    def test_step_snapshots(self, sizes):
        inst = new_instance(sizes)
        observed = [(s.step, s.gaps_before, s.gaps_after, s.starts) for s in greedy_steps(inst)]
        assert observed == list(greedy_oracle(inst))

    def test_many_blocks(self):
        # large enough that the gap list splits into dozens of blocks
        rng = random.Random(11)
        for sizes in ([rng.randint(1, 10**6) for _ in range(1500)], [9] * 1500):
            inst = new_instance(sizes)
            assert greedy_schedule(inst) == greedy_schedule_oracle(inst)


def test_greedy_and_check_scale_near_linearly():
    # about a second together; the quadratic versions took minutes at n = 3e4
    n = 30_000
    rng = random.Random(3)
    for sizes in ([7] * n, [rng.randint(1, 10**6) for _ in range(n)]):
        inst = new_instance(sizes)
        t0 = time.perf_counter()
        schedule, trace = greedy_schedule(inst)
        violations = check_feasible(schedule)
        elapsed = time.perf_counter() - t0
        assert violations == []
        assert len(trace) == n and trace[-1].makespan == makespan(schedule)
        assert makespan(schedule) >= lower_bound(inst)
        if len(set(sizes)) == 1:
            assert makespan(schedule) == lower_bound(inst)
        assert elapsed < 20.0, f"greedy plus check took {elapsed:.1f}s at n={n}"
