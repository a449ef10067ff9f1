"""Greedy solver: placements, shifting, trace, and the insertion tree's DOT."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_oracle, insert_into_gap
from trisched import (
    binary_tree_ratio,
    check_feasible,
    greedy_schedule,
    lower_bound,
    makespan,
    new_instance,
    tree_to_dot,
)
from trisched.generators import ratio_bounded_instance

sizes_lists = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=14)


class TestInsertIntoGap:
    def test_wide_gap_splits_without_shift(self):
        placement, (left, right), shift = insert_into_gap((0, 20), 10)
        assert placement == 10
        assert (left, right) == ((0, 10), (10, 10))
        assert shift == 0

    def test_narrow_gap_shifts_the_difference(self):
        placement, (left, right), shift = insert_into_gap((0, 6), 4)
        assert placement == 4
        assert (left, right) == ((0, 4), (4, 4))
        assert shift == 2

    def test_exact_fit_boundary_still_shifts(self):
        # gap length == size: both halves need the full size, shift = size
        placement, (left, right), shift = insert_into_gap((0, 4), 4)
        assert placement == 4
        assert (left, right) == ((0, 4), (4, 4))
        assert shift == 4

    def test_gap_smaller_than_job(self):
        placement, (left, right), shift = insert_into_gap((0, 3), 5)
        assert placement == 5
        assert (left, right) == ((0, 5), (5, 5))
        assert shift == 7

    def test_offset_gap(self):
        placement, (left, right), shift = insert_into_gap((10, 10), 4)
        assert placement == 14
        assert (left, right) == ((10, 4), (14, 6))
        assert shift == 0


class TestGreedySchedule:
    def test_nine_job_worst_gap_instance(self):
        sched, trace = greedy_schedule(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4]))
        assert sched.jobs == (
            (20, 0),
            (20, 22),
            (10, 12),
            (5, 27),
            (5, 32),
            (4, 4),
            (4, 16),
            (4, 36),
            (4, 8),
        )
        assert makespan(sched) == 42
        assert check_feasible(sched) is None
        last = trace[-1]
        assert (last.job, last.size, last.gap_start, last.gap_length) == (9, 4, 4, 6)
        assert (last.placement, last.shift, last.parent, last.makespan) == (8, 2, 6, 42)

    def test_four_job_staircase(self):
        sched, _ = greedy_schedule(new_instance([6, 5, 4, 3]))
        assert sched.jobs == ((6, 0), (5, 8), (4, 4), (3, 11))
        assert makespan(sched) == 14

    def test_shift_on_exact_fit_gap(self):
        # the fifth job lands in a gap of exactly its size and pushes the
        # job sitting at that gap's end out of the way
        sched, _ = greedy_schedule(new_instance([8, 8, 4, 4, 4]))
        assert sched.jobs == ((8, 0), (8, 12), (4, 8), (4, 16), (4, 4))
        assert makespan(sched) == 20
        assert check_feasible(sched) is None

    def test_single_job(self):
        sched, trace = greedy_schedule(new_instance([7]))
        assert sched.jobs == ((7, 0),)
        assert len(trace) == 1
        first = trace[0]
        assert (first.job, first.size, first.placement, first.makespan) == (1, 7, 0, 7)
        assert first.gap_start is None and first.parent is None

    @given(sizes_lists)
    @settings(max_examples=150)
    def test_always_feasible_and_above_lower_bound(self, sizes):
        inst = new_instance(sizes)
        sched, _ = greedy_schedule(inst)
        assert check_feasible(sched) is None
        assert makespan(sched) >= lower_bound(inst)

    @given(sizes_lists)
    def test_trace_makespans_non_decreasing(self, sizes):
        _, trace = greedy_schedule(new_instance(sizes))
        spans = [s.makespan for s in trace]
        assert spans == sorted(spans)
        assert spans[0] == max(sizes)


class TestGreedySteps:
    """Invariants of every insertion, read from the oracle's snapshots
    (`test_fast_paths` checks that greedy_schedule makes the same steps)."""

    def test_chosen_gap_is_largest_then_earliest(self):
        for step, before, _, _ in greedy_oracle(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4])):
            if step.gap_start is None:
                continue
            best = max(length for _, length in before)
            assert step.gap_length == best
            earliest = min(s for s, length in before if length == best)
            assert step.gap_start == earliest

    def test_step_snapshots_are_consistent(self):
        states = list(greedy_oracle(new_instance([8, 8, 4, 4, 4])))
        for (_, _, prev_after, _), (step, before, _, starts) in zip(states, states[1:]):
            assert before == prev_after
            assert len(starts) == step.job
        # starts snapshot of the last step is the final schedule
        sched, _ = greedy_schedule(new_instance([8, 8, 4, 4, 4]))
        assert states[-1][3] == sched.starts

    def test_gaps_partition_the_span(self):
        for step, _, after, _ in greedy_oracle(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4])):
            total = sum(length for _, length in after)
            assert total == step.makespan

    @given(sizes_lists)
    @settings(max_examples=100)
    def test_all_gaps_at_least_current_size_after_insertion(self, sizes):
        for step, _, after, _ in greedy_oracle(new_instance(sizes)):
            assert all(length >= step.size for _, length in after)

    @given(sizes_lists)
    @settings(max_examples=100)
    def test_makespan_grows_only_when_no_gap_had_room(self, sizes):
        states = list(greedy_oracle(new_instance(sizes)))
        for (prev, _, _, _), (step, before, _, _) in zip(states, states[1:]):
            if step.makespan > prev.makespan:
                assert all(length < 2 * step.size for _, length in before)


class TestGapMultisetInvariant:
    """With ratio <= 2, after job j the gaps are the sizes of jobs
    ceil(j/2)+1 .. j twice each, plus job ceil(j/2) once when j is odd."""

    @staticmethod
    def expected_gaps(sizes, j):
        anchor = (j + 1) // 2
        expected = []
        for i in range(anchor + 1, j + 1):
            expected += [sizes[i - 1], sizes[i - 1]]
        if j % 2:
            expected.append(sizes[anchor - 1])
        return sorted(expected)

    def test_on_halving_ladder(self):
        sizes = (16, 16, 8, 8, 8, 8, 4, 4)
        for step, _, after, _ in greedy_oracle(new_instance(sizes)):
            observed = sorted(length for _, length in after)
            assert observed == self.expected_gaps(sizes, step.job)

    def test_on_seeded_ratio_bounded_instances(self):
        rng = random.Random(5)
        for _ in range(40):
            inst = ratio_bounded_instance(rng, rng.randint(1, 18), 2, 60)
            assert binary_tree_ratio(inst) <= 2
            for step, _, after, _ in greedy_oracle(inst):
                observed = sorted(length for _, length in after)
                assert observed == self.expected_gaps(inst.sizes, step.job)


def parents(trace):
    """(job, parent) of every job after the first, in placement order."""
    return [(step.job, step.parent) for step in trace[1:]]


def dot_edges(dot: str) -> list[tuple[int, int]]:
    """(job, parent) of every `parent -> job` line of a DOT text."""
    edges = []
    for line in dot.splitlines():
        parent, arrow, job = line.strip().rstrip(";").partition(" -> ")
        if arrow:
            edges.append((int(job), int(parent)))
    return edges


class TestGreedyTree:
    def test_nine_job_parents(self):
        _, trace = greedy_schedule(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4]))
        assert trace[0].job == 1 and trace[0].parent is None
        assert parents(trace) == [(2, 1), (3, 2), (4, 2), (5, 4), (6, 3), (7, 3), (8, 5), (9, 6)]

    def test_thirteen_distinct_sizes_fill_two_levels(self):
        # distinct sizes with ratio <= 2: every insertion lands under the
        # shallowest available parent, two children each
        inst = new_instance([16, 15, 14, 13, 12, 11, 10, 9, 8, 8, 8, 8, 8])
        assert binary_tree_ratio(inst) <= 2
        sched, trace = greedy_schedule(inst)
        assert parents(trace) == [(job, (job + 1) // 2) for job in range(2, 14)]
        assert makespan(sched) == 108 == lower_bound(inst)

    def test_dot_output(self):
        _, trace = greedy_schedule(new_instance([8, 8, 4, 4, 4]))
        assert tree_to_dot(trace) == (
            "digraph greedy_tree {\n"
            "  1;\n"
            "  1 -> 2;\n"
            "  2 -> 3;\n"
            "  2 -> 4;\n"
            "  3 -> 5;\n"
            "}\n"
        )

    @given(sizes_lists)
    @settings(max_examples=100)
    def test_tree_covers_every_job(self, sizes):
        _, trace = greedy_schedule(new_instance(sizes))
        dot = tree_to_dot(trace)
        nodes = {1} | {job for job, _ in dot_edges(dot)}
        assert dot.splitlines()[1] == "  1;"
        assert nodes == set(range(1, len(sizes) + 1))

    @given(sizes_lists)
    @settings(max_examples=100)
    def test_parents_are_earlier_jobs_and_the_dot_has_n_minus_1_edges(self, sizes):
        _, trace = greedy_schedule(new_instance(sizes))
        assert all(1 <= parent < job for job, parent in parents(trace))
        assert dot_edges(tree_to_dot(trace)) == parents(trace)
        assert len(parents(trace)) == len(sizes) - 1


class TestOptimalityOnBoundedRatio:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_ratio_at_most_two_makes_greedy_hit_the_bound(self, data):
        seed = data.draw(st.integers(0, 10**6))
        n = data.draw(st.integers(1, 20))
        inst = ratio_bounded_instance(random.Random(seed), n, 2, 50)
        sched, _ = greedy_schedule(inst)
        assert makespan(sched) == lower_bound(inst)
