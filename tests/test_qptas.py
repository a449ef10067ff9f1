"""Approximation scheme: splitting, rounding, grid, DP, full pipeline."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dp_solve_by_questions, grid_schedule, grid_step, rung
from trisched import (
    SearchRefused,
    check_feasible,
    makespan,
    new_instance,
    optimal_makespan,
    qptas_solve,
    random_instance,
)
from trisched.qptas import dp_solve, grid_points, round_sizes, split_small

EPS_VALUES = (1, Fraction(2, 3), Fraction(1, 2), Fraction(1, 4))

random_or_equal_sizes = st.one_of(
    st.lists(st.integers(1, 50), min_size=1, max_size=7),
    st.tuples(st.integers(1, 50), st.integers(1, 12)).map(lambda t: [t[0]] * t[1]),
)


class TestSplitSmall:
    def test_threshold_is_eps_p1_over_n(self):
        large, small, threshold = split_small(new_instance([40, 1, 1]), 1)
        assert large == (40,)
        assert small == (1, 1)
        assert threshold == Fraction(40, 3)

    def test_no_small_jobs_when_sizes_are_close(self):
        large, small, _ = split_small(new_instance([6, 5, 4, 3]), Fraction(1, 2))
        assert large == (6, 5, 4, 3)
        assert small == ()

    def test_boundary_size_counts_as_large(self):
        # threshold 8*1/4 = 2; a size-2 job is large (strictly below is small)
        large, small, _ = split_small(new_instance([8, 2, 1, 1]), 1)
        assert large == (8, 2)
        assert small == (1, 1)

    def test_float_eps_rejected(self):
        with pytest.raises(TypeError):
            split_small(new_instance([4, 3]), 0.5)

    def test_non_positive_eps_rejected(self):
        with pytest.raises(ValueError):
            split_small(new_instance([4, 3]), 0)


class TestRoundSizes:
    def test_four_job_ladder(self):
        # rungs 3, 9/2 and 27/4
        rounded = round_sizes(new_instance([6, 5, 4, 3]), Fraction(1, 2))
        assert rounded.large == ((6, 2), (5, 2), (4, 1), (3, 0))
        assert rounded.classes == (2, 1, 0)

    def test_smallest_size_rounds_to_itself(self):
        rounded = round_sizes(new_instance([3]), 1)
        assert rounded.large == ((3, 0),)
        assert rounded.classes == (0,)

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10),
        st.sampled_from(EPS_VALUES),
    )
    @settings(max_examples=120)
    def test_rounding_within_one_factor(self, sizes, eps):
        rounded = round_sizes(new_instance(sizes), eps)
        for original, k in rounded.large:
            assert original <= rung(rounded, k) < original * (1 + Fraction(eps))
        assert list(rounded.classes) == sorted(set(rounded.classes), reverse=True)

    def test_equal_sizes_share_a_class(self):
        rounded = round_sizes(new_instance([5, 5, 5]), Fraction(1, 4))
        assert rounded.classes == (0,)


class TestGridPoints:
    def test_four_job_grid(self):
        rounded = round_sizes(new_instance([6, 5, 4, 3]), Fraction(1, 2))
        assert grid_step(rounded, 4) == Fraction(27, 32)
        assert grid_points(rounded, 4) == 33

    def test_point_count_grows_with_precision(self):
        inst = new_instance([6, 5, 4, 3])
        assert grid_points(round_sizes(inst, 1), 4) == 17
        assert grid_points(round_sizes(inst, Fraction(1, 4)), 4) == 65


class TestDpSolve:
    def test_two_equal_jobs(self):
        rounded = round_sizes(new_instance([4, 4]), 1)
        result = dp_solve(rounded, 2)
        assert result.order == (0, 0)
        grid_makespan, schedule = grid_schedule(rounded, 2, result.order)
        assert grid_makespan == 8
        assert check_feasible(schedule) is None

    def test_four_job_value_and_states(self):
        rounded = round_sizes(new_instance([6, 5, 4, 3]), Fraction(1, 2))
        result = dp_solve(rounded, 4)
        # grid starts 0, 27/8, 27/4 and 189/16
        assert result.order == (0, 2, 0, 1)
        assert result.states == 33
        grid_makespan, schedule = grid_schedule(rounded, 4, result.order)
        assert grid_makespan == Fraction(261, 16)
        assert check_feasible(schedule) is None
        assert all(start % grid_step(rounded, 4) == 0 for start in schedule.starts)

    @given(random_or_equal_sizes, st.sampled_from((Fraction(1, 3), Fraction(1, 2), 1, 2, Fraction(5, 2), 3, 4)))
    # equal sizes stack to index (n-1)*ceil(n/eps): 18 here, past ceil(n^2/eps) = 17
    @example([7] * 7, 3)
    @settings(max_examples=100, deadline=None)
    def test_every_placement_is_a_grid_point(self, sizes, eps):
        inst = new_instance(sizes)
        rounded = round_sizes(inst, eps)
        step = grid_step(rounded, inst.n)
        _, schedule = grid_schedule(rounded, inst.n, dp_solve(rounded, inst.n).order)
        for start in schedule.starts:
            index = start / step
            assert index.denominator == 1 and 0 <= index < grid_points(rounded, inst.n)

    def test_budget_exhaustion(self, monkeypatch):
        # the first question's first node passes a budget of 10 units
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", 10)
        rounded = round_sizes(new_instance([6, 3]), 1)
        with pytest.raises(SearchRefused, match="^search refused past its work budget of 10 units$"):
            dp_solve(rounded, 2)

    @pytest.mark.parametrize(
        "sizes, eps, work",
        [([6, 3], 1, 50), ([6, 5, 4, 3], Fraction(1, 2), 512), ([4, 4, 4], 1, 44), ([9, 7, 7, 2, 2], Fraction(1, 3), 514)],
        ids=["two-classes", "four-jobs", "chain", "five-jobs"],
    )
    def test_budget_fires_past_the_reachable_states(self, sizes, eps, work, monkeypatch):
        # [4, 4, 4] has one class, so each question is a chain; the others
        # branch.  Every question of one call draws on one budget, and the
        # search spends the same work on every run.
        rounded = round_sizes(new_instance(sizes), eps)
        states = dp_solve(rounded, len(sizes)).states
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", work)
        assert dp_solve(rounded, len(sizes)).states == states
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", work - 1)
        for _ in range(2):
            with pytest.raises(SearchRefused, match=f"^search refused past its work budget of {work - 1} units$"):
                dp_solve(rounded, len(sizes))

    @given(random_or_equal_sizes, st.sampled_from(EPS_VALUES + (Fraction(1, 10),)))
    @example([20, 20, 10, 5, 5, 4, 4, 4, 4], Fraction(1, 2))
    @settings(max_examples=150, deadline=None)
    def test_matches_its_own_question_loop(self, sizes, eps):
        # the loop shared with the exact oracle against dp_solve's own
        inst = new_instance(sizes)
        large, _, _ = split_small(inst, eps)
        rounded = round_sizes(new_instance(large), eps)
        assert dp_solve(rounded, inst.n) == dp_solve_by_questions(rounded, inst.n)


class TestQptasPipeline:
    def test_four_job_run(self):
        sched, stats = qptas_solve(new_instance([6, 5, 4, 3]), Fraction(1, 2))
        # grid starts 0, 27/4, 189/16 and 27/8, shifted left in that order
        assert sched.jobs == ((6, 0), (5, 6), (4, 10), (3, 3))
        assert makespan(sched) == 14
        assert (stats.large, stats.small, stats.classes) == (4, 0, 3)
        assert (stats.grid_points, stats.dp_states) == (33, 33)
        assert stats.threshold == Fraction(3, 4)

    def test_small_jobs_append_at_the_end(self):
        # appended at 40 and 41, then shifted left under the large job
        sched, stats = qptas_solve(new_instance([40, 1, 1]), 1)
        assert sched.jobs == ((40, 0), (1, 1), (1, 2))
        assert makespan(sched) == 40
        assert (stats.large, stats.small) == (1, 2)

    def test_climbed_instance(self):
        # a ratio climb drove the grid schedule to 53041/128, 1.771 x OPT;
        # greedy makes 243 and the optimum is 234
        inst = new_instance([233, 61, 50, 44, 44, 29])
        sched, _ = qptas_solve(inst, Fraction(1, 2))
        assert makespan(sched) == 257
        assert check_feasible(sched) is None
        assert optimal_makespan(inst)[0] == 234

    def test_fine_eps_rounds_in_ints(self):
        # the Fraction ladder climbed about 39 000 rungs with a gcd each
        # and took 12.5 s here; the search visits only 11 nodes
        t0 = time.perf_counter()
        sched, stats = qptas_solve(new_instance([50, 37, 12, 3, 1]), Fraction(1, 10000))
        elapsed = time.perf_counter() - t0
        assert makespan(sched) == 74
        assert (stats.classes, stats.grid_points, stats.dp_states) == (5, 250001, 11)
        assert elapsed < 5.0, f"qptas took {elapsed:.1f}s at eps 1/10000"

    def test_twelve_jobs_at_eps_one_half(self):
        # the layered configuration DP that the grid search replaced took
        # about 1 s on these five
        rng = random.Random(0)
        pool = [random_instance(rng, 12, 1000) for _ in range(5)]
        t0 = time.perf_counter()
        results = [qptas_solve(inst, Fraction(1, 2)) for inst in pool]
        elapsed = time.perf_counter() - t0
        assert all(check_feasible(schedule) is None for schedule, _ in results)
        assert elapsed < 0.5, f"qptas took {elapsed:.2f}s on five instances of 12 jobs"

    def test_original_sizes_come_back(self):
        inst = new_instance([17, 13, 11, 7, 5])
        sched, _ = qptas_solve(inst, Fraction(1, 4))
        assert sorted(sched.sizes, reverse=True) == list(inst.sizes)
        assert check_feasible(sched) is None

    def test_float_eps_rejected(self):
        with pytest.raises(TypeError):
            qptas_solve(new_instance([4, 3]), 0.25)

    @pytest.mark.parametrize("eps", EPS_VALUES)
    def test_guarantee_on_seeded_instances(self, eps):
        rng = random.Random(17)
        for _ in range(12):
            inst = new_instance(
                [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
            )
            sched, _ = qptas_solve(inst, eps)
            assert check_feasible(sched) is None
            opt, _ = optimal_makespan(inst)
            guarantee = (1 + Fraction(eps)) ** 3 * opt
            assert opt <= makespan(sched) <= guarantee

    @given(
        st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=5),
        st.sampled_from(EPS_VALUES),
    )
    @settings(max_examples=60, deadline=None)
    def test_guarantee_property(self, sizes, eps):
        inst = new_instance(sizes)
        sched, _ = qptas_solve(inst, eps)
        assert check_feasible(sched) is None
        opt, _ = optimal_makespan(inst)
        assert opt <= makespan(sched) <= (1 + Fraction(eps)) ** 3 * opt
