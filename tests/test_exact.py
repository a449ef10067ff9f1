"""Exact oracle: canonical orders, the search, and the grid cross-check."""

import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import canonical_schedule_for_order, grid_exhaustive_optimum, order_brute_force_optimum
from trisched import (
    InstanceTooLargeError,
    Schedule,
    check_feasible,
    greedy_schedule,
    lower_bound,
    makespan,
    new_instance,
    optimal_makespan,
)
from trisched.exact import decide
from trisched.generators import random_instance

small_sizes = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8)
GAP_FIXTURE = (20, 20, 10, 5, 5, 4, 4, 4, 4)   # greedy 42, optimum 40


@st.composite
def jittered_fixtures(draw):
    """The nine-job fixture scaled by 1 to 3, each size moved by up to 2; the
    search beats greedy on about a third of them."""
    scale = draw(st.integers(1, 3))
    return [max(1, scale * p + draw(st.integers(-2, 2))) for p in GAP_FIXTURE]


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
        assert check_feasible(sched) is None
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
            assert check_feasible(Schedule(tuple(moved))) is not None


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
        assert check_feasible(witness) is None
        assert makespan(witness) == value

    def test_witness_beats_sorted_order_when_it_helps(self):
        value, witness = optimal_makespan(new_instance([6, 5, 4, 3]))
        assert value == 14
        assert sorted(witness.sizes, reverse=True) == [6, 5, 4, 3]

    @given(st.one_of(jittered_fixtures(), small_sizes))
    @example(list(GAP_FIXTURE))
    @example([21, 19, 9, 5, 5, 4, 4, 4, 4])
    @example([41, 40, 19, 10, 9, 9, 9, 8, 7])
    @example([62, 58, 29, 15, 13, 13, 12, 11, 11])
    @settings(max_examples=150, deadline=None)
    def test_witness_is_the_canonical_schedule_of_its_order(self, sizes):
        inst = new_instance(sizes)
        value, witness = optimal_makespan(inst)
        greedy, _ = greedy_schedule(inst)
        if value == makespan(greedy):
            assert witness == greedy   # the search kept its seed
        else:
            in_start_order = sorted(witness.jobs, key=lambda job: job[1])
            assert witness == canonical_schedule_for_order([p for p, _ in in_start_order])

    @given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=10))
    @example([5] * 10)
    @example([6, 5, 4, 3])
    @settings(max_examples=150, deadline=None)
    def test_greedy_at_the_lower_bound_is_the_witness(self, sizes):
        # the search's root cut answers the one question below the bound
        inst = new_instance(sizes)
        greedy, _ = greedy_schedule(inst)
        assume(makespan(greedy) == lower_bound(inst))
        assert optimal_makespan(inst) == (makespan(greedy), greedy)

    def test_size_limit(self):
        inst = new_instance([1] * 13)
        with pytest.raises(InstanceTooLargeError):
            optimal_makespan(inst)
        value, _ = optimal_makespan(inst, limit=13)
        assert value == 13

    @pytest.mark.parametrize("limit", [2.5, 13.0, True])
    def test_float_and_bool_limits_rejected(self, limit):
        # a float cap was compared and the search ran
        with pytest.raises(TypeError, match=f"^limit must be an int, got {type(limit).__name__}$"):
            optimal_makespan(new_instance([3, 2, 1]), limit=limit)

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


class TestDecide:
    def test_answers_match_brute_force_orders(self):
        # targets around the optimum, some above the greedy incumbent, which
        # `optimal_makespan` never asks, and one below the largest size
        rng = random.Random(8)
        for k in range(35):
            n = 1 + k % 7
            sizes = [rng.randint(1, (3, 12, 40)[k % 3]) for _ in range(n)]
            inst = new_instance(sizes)
            opt = order_brute_force_optimum(sizes)
            for target in (*range(opt - 2, opt + 3), inst.sizes[0] - 1):
                found = decide(inst, target)
                if target < opt:
                    assert found is None
                else:
                    assert sorted(found.sizes, reverse=True) == list(inst.sizes)
                    assert check_feasible(found) is None
                    assert makespan(found) <= target

    def test_schedules_are_the_canonical_schedules_of_their_orders(self):
        # the one-cap-per-class update of the next starts against the
        # quadratic reference, on targets from the optimum up to the sum
        # of the sizes, where every order fits
        rng = random.Random(33)
        for k in range(60):
            sizes = [rng.randint(1, (3, 50, 10**6)[k % 3]) for _ in range(1 + k % 12)]
            inst = new_instance(sizes)
            opt, _ = optimal_makespan(inst)
            total = sum(sizes)
            for target in {opt, opt + 1, total, *(rng.randint(opt, total) for _ in range(3))}:
                found = decide(inst, target)
                assert makespan(found) <= target
                in_start_order = sorted(found.jobs, key=lambda job: job[1])
                assert found == canonical_schedule_for_order([p for p, _ in in_start_order])

    def test_past_the_cap_at_the_sum_of_the_sizes(self):
        # every order fits, so the first one in class order comes in n nodes
        rng = random.Random(34)
        for n, high in ((100, 3), (200, 50), (300, 10**6)):
            inst = new_instance([rng.randint(1, high) for _ in range(n)])
            found = decide(inst, sum(inst.sizes))
            assert found == canonical_schedule_for_order(inst.sizes)

    def test_below_the_bound_answers_in_linear_memory(self):
        # the root cut refuses before any job is placed; a caps matrix over
        # the 5000 classes alone would peak near 200 MiB
        inst = new_instance(random.Random(35).sample(range(1, 10**6), 5000))
        tracemalloc.start()
        try:
            assert decide(inst, lower_bound(inst) - 1) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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


def test_three_halves_guarantee_past_the_size_cap():
    # OPT is an int, so greedy <= 3/2 OPT exactly when no schedule ends by
    # ceil(2 greedy / 3) - 1; n = 20 is past `optimal_makespan`'s cap, and
    # a target under `lower_bound` needs no search at all
    rng = random.Random(2029)
    settled = searched = 0
    for _ in range(200):
        inst = random_instance(rng, 20, 50)
        target = -(-2 * makespan(greedy_schedule(inst)[0]) // 3) - 1
        if target < lower_bound(inst):
            settled += 1
        else:
            searched += 1
        assert decide(inst, target) is None
    assert (settled, searched) == (167, 33)


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
