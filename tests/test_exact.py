"""Exact oracle: canonical orders, the search, and the grid cross-check."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisched import (
    InstanceTooLargeError,
    Schedule,
    check_feasible,
    greedy_schedule,
    grid_exhaustive_optimum,
    lower_bound,
    makespan,
    new_instance,
    optimal_makespan,
)
from trisched.exact import canonical_schedule_for_order
from trisched.generators import random_instance

small_sizes = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8)


class TestCanonicalScheduleForOrder:
    def test_interleaved_order(self):
        sched = canonical_schedule_for_order([6, 4, 5, 3])
        assert sched.jobs == ((6, 0), (4, 4), (5, 8), (3, 11))
        assert makespan(sched) == 14

    def test_sorted_order_is_worse_here(self):
        sched = canonical_schedule_for_order([6, 5, 4, 3])
        assert sched.jobs == ((6, 0), (5, 5), (4, 9), (3, 12))
        assert makespan(sched) == 15

    def test_single(self):
        assert canonical_schedule_for_order([7]).jobs == ((7, 0),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            canonical_schedule_for_order([])

    @given(small_sizes)
    @settings(max_examples=150)
    def test_always_feasible_with_increasing_starts(self, sizes):
        sched = canonical_schedule_for_order(sizes)
        assert check_feasible(sched) == []
        starts = sched.starts
        assert all(a < b for a, b in zip(starts, starts[1:]))

    @given(small_sizes)
    @settings(max_examples=150)
    def test_left_shifted_every_job_is_tight(self, sizes):
        # tight: moving any single job one unit earlier breaks feasibility
        # (or hits time zero)
        sched = canonical_schedule_for_order(sizes)
        jobs = list(sched.jobs)
        for k, (p, s) in enumerate(jobs):
            if s == 0:
                continue
            moved = jobs[:k] + [(p, s - 1)] + jobs[k + 1 :]
            assert check_feasible(Schedule(tuple(moved))) != []


class TestOptimalMakespan:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ([20, 20, 10, 5, 5, 4, 4, 4, 4], 40),
            ([6, 5, 4, 3], 14),
            ([2, 1], 2),
            ([10, 1], 10),
            ([1000, 1], 1000),
            ([7], 7),
        ],
    )
    def test_frozen_optima(self, sizes, expected):
        value, witness = optimal_makespan(new_instance(sizes))
        assert value == expected
        assert check_feasible(witness) == []
        assert makespan(witness) == value

    def test_witness_beats_sorted_order_when_it_helps(self):
        value, witness = optimal_makespan(new_instance([6, 5, 4, 3]))
        assert value == 14
        assert sorted(witness.sizes, reverse=True) == [6, 5, 4, 3]

    def test_size_limit(self):
        inst = new_instance([1] * 13)
        with pytest.raises(InstanceTooLargeError):
            optimal_makespan(inst)
        value, _ = optimal_makespan(inst, limit=13)
        assert value == 13

    def test_bounded_by_greedy_and_lower_bound(self):
        rng = random.Random(4)
        for _ in range(80):
            inst = new_instance([rng.randint(1, 50) for _ in range(rng.randint(1, 10))])
            value, _ = optimal_makespan(inst)
            sched, _ = greedy_schedule(inst)
            assert lower_bound(inst) <= value <= makespan(sched)
            assert value >= inst.sizes[0]

    def test_removing_a_job_never_increases_the_optimum(self):
        rng = random.Random(5)
        for _ in range(40):
            sizes = [rng.randint(1, 30) for _ in range(rng.randint(2, 8))]
            full, _ = optimal_makespan(new_instance(sizes))
            for k in range(len(sizes)):
                reduced = sizes[:k] + sizes[k + 1 :]
                value, _ = optimal_makespan(new_instance(reduced))
                assert value <= full

    def test_ten_distinct_sizes_terminate_quickly(self):
        # regression guard for the dominance pruning: near-distinct sizes
        # used to explode the search
        value, _ = optimal_makespan(new_instance([49, 43, 38, 36, 33, 26, 25, 3, 2, 2]))
        assert value == 204

    def test_order_search_matches_brute_force_orders(self):
        # n = 5: compare against evaluating every order explicitly
        rng = random.Random(6)
        for _ in range(25):
            sizes = [rng.randint(1, 12) for _ in range(5)]
            value, _ = optimal_makespan(new_instance(sizes))
            brute = min(
                makespan(canonical_schedule_for_order(order))
                for order in itertools.permutations(sizes)
            )
            assert value == brute


def test_n12_scale_gate():
    # about half a second in total; without the per-class suffix bound the
    # same thirty instances take over 30 s
    rng = random.Random(12)
    instances = [random_instance(rng, 12, 50) for _ in range(30)]
    t0 = time.perf_counter()
    for inst in instances:
        value, witness = optimal_makespan(inst)
        assert lower_bound(inst) <= value == makespan(witness)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"30 exact solves at n=12 took {elapsed:.1f}s"


class TestGridExhaustiveOptimum:
    def test_matches_search_on_every_tiny_multiset(self):
        for n in range(1, 4):
            for combo in itertools.combinations_with_replacement(range(1, 6), n):
                inst = new_instance(list(combo))
                value, _ = optimal_makespan(inst)
                assert value == grid_exhaustive_optimum(inst, horizon=15)

    def test_size_limit(self):
        with pytest.raises(InstanceTooLargeError):
            grid_exhaustive_optimum(new_instance([1, 1, 1, 1, 1]), horizon=10)

    def test_horizon_limit(self):
        with pytest.raises(ValueError):
            grid_exhaustive_optimum(new_instance([1]), horizon=31)

    def test_too_small_horizon_is_an_error(self):
        with pytest.raises(ValueError):
            grid_exhaustive_optimum(new_instance([5, 5]), horizon=4)

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_agreement_property(self, sizes):
        inst = new_instance(sizes)
        value, _ = optimal_makespan(inst)
        assert value == grid_exhaustive_optimum(inst, horizon=sum(sizes))
