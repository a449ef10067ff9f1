"""Core types: exactness, feasibility, gaps, the two instance statistics."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import gaps
from trisched import (
    Instance,
    Schedule,
    as_exact,
    binary_tree_ratio,
    check_feasible,
    lower_bound,
    makespan,
    new_instance,
)

sizes_lists = st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=12)


class TestAsExact:
    def test_int_passes_through(self):
        assert as_exact(7) == 7
        assert isinstance(as_exact(7), int)

    def test_integral_fraction_collapses_to_int(self):
        out = as_exact(Fraction(4, 2))
        assert out == 2
        assert isinstance(out, int)

    def test_proper_fraction_stays(self):
        assert as_exact(Fraction(3, 4)) == Fraction(3, 4)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_exact(0.5)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_exact(True)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            as_exact("3/4")


class TestInstance:
    def test_sorts_non_increasing(self):
        assert new_instance([3, 6, 5, 4]).sizes == (6, 5, 4, 3)

    def test_keeps_duplicates(self):
        assert new_instance([4, 4, 20]).sizes == (20, 4, 4)

    def test_n(self):
        assert new_instance([1, 2, 3]).n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Instance(())

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True, "3"])
    def test_rejects_non_positive_or_non_int(self, bad):
        with pytest.raises(ValueError):
            new_instance([5, bad])

    @given(sizes_lists)
    def test_always_sorted(self, sizes):
        inst = new_instance(sizes)
        assert list(inst.sizes) == sorted(sizes, reverse=True)


class TestSchedule:
    def test_properties(self):
        sched = Schedule(((6, 0), (4, 4)))
        assert sched.n == 2
        assert sched.sizes == (6, 4)
        assert sched.starts == (0, 4)

    def test_fraction_starts_allowed(self):
        sched = Schedule(((6, Fraction(1, 2)),))
        assert sched.starts == (Fraction(1, 2),)

    def test_float_start_rejected(self):
        with pytest.raises(TypeError):
            Schedule(((6, 0.5),))

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Schedule(((6, -1),))

    def test_non_positive_size_rejected(self):
        with pytest.raises(ValueError):
            Schedule(((0, 3),))

    @pytest.mark.parametrize("jobs", [(), [], iter(())], ids=["tuple", "list", "iterator"])
    def test_no_jobs_rejected(self, jobs):
        with pytest.raises(ValueError, match="^schedule has no jobs$"):
            Schedule(jobs)


class TestValueTypes:
    """Instance and Schedule behave like frozen dataclasses:
    equal, hashed and printed by value, immutable, and equal to nothing but
    their own kind."""

    def test_equality_and_hash_by_value(self):
        a, b = new_instance([4, 6, 5]), Instance((6, 5, 4))
        assert a == b and hash(a) == hash(b) and a != new_instance([6, 5])
        s, t = Schedule(((6, 0), (4, Fraction(8, 2)))), Schedule([[6, 0], [4, 4]])
        assert s == t and hash(s) == hash(t) and s != Schedule(((6, 0), (4, 5)))
        assert len({a, b, s, t}) == 2
        # the dataclass hash: a hash of the one-field tuple
        assert hash(a) == hash(((6, 5, 4),)) and hash(s) == hash((((6, 0), (4, 4)),))

    def test_never_equal_to_a_tuple_or_the_other_type(self):
        assert Instance((1,)) != (1,)
        assert Instance((1,)) != ((1,),)
        assert Schedule(((1, 0),)) != ((1, 0),)
        assert Schedule(((1, 0),)) != (((1, 0),),)
        assert Instance((1,)).sizes == (1,) and Schedule(((1, 0),)).jobs == ((1, 0),)
        assert Instance((1,)) != Schedule(((1, 0),)) and Schedule(((1, 0),)) != Instance((1,))

    @pytest.mark.parametrize("value", [Instance((3, 5)), Schedule(((5, 0), (3, 5)))], ids=["instance", "schedule"])
    def test_immutable(self, value):
        field = "sizes" if isinstance(value, Instance) else "jobs"
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, ())
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) is before

    def test_repr(self):
        assert repr(new_instance([3, 5])) == "Instance(sizes=(5, 3))"
        assert repr(Schedule(((5, Fraction(1, 2)),))) == "Schedule(jobs=((5, Fraction(1, 2)),))"

    def test_copies_and_pickles_by_value(self):
        for value in (new_instance([3, 5]), Schedule(((5, 0), (3, Fraction(9, 2))))):
            assert copy.copy(value) == value and copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


class TestCheckFeasible:
    def test_feasible_staircase(self):
        sched = Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))
        assert check_feasible(sched) is None

    def test_violating_pair_reported_by_position(self):
        sched = Schedule(((6, 0), (4, 3)))
        assert check_feasible(sched) == (0, 1)

    def test_boundary_distance_is_feasible(self):
        # separation exactly min(p_i, p_j) is allowed
        assert check_feasible(Schedule(((5, 0), (5, 5)))) is None
        assert check_feasible(Schedule(((5, 0), (5, 4)))) == (0, 1)

    def test_order_of_jobs_does_not_matter(self):
        a = Schedule(((6, 0), (4, 3)))
        b = Schedule(((4, 3), (6, 0)))
        assert check_feasible(a) == check_feasible(b) == (0, 1)

    def test_multiple_violations(self):
        sched = Schedule(((4, 0), (4, 1), (4, 2)))
        assert check_feasible(sched) == (0, 1)


class TestMakespan:
    def test_latest_completion_not_last_start(self):
        # the job finishing last is not the one starting last
        sched = Schedule(((10, 2), (3, 9)))
        assert makespan(sched) == 12

    def test_staircase(self):
        assert makespan(Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))) == 15

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            makespan(Schedule(()))


class TestGaps:
    def test_greedy_four_job_gaps(self):
        sched = Schedule(((6, 0), (5, 8), (4, 4), (3, 11)))
        assert gaps(sched) == ((0, 4), (4, 4), (8, 3), (11, 3))

    def test_gap_count_equals_job_count_and_lengths_telescope(self):
        sched = Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))
        gs = gaps(sched)
        assert len(gs) == sched.n
        assert sum(length for _, length in gs) == makespan(sched) - min(sched.starts)

    def test_single_job(self):
        assert gaps(Schedule(((7, 0),))) == ((0, 7),)

    def test_coincident_starts_rejected(self):
        with pytest.raises(ValueError):
            gaps(Schedule(((4, 2), (5, 2))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gaps(Schedule(()))


class TestBinaryTreeRatio:
    def test_nine_job_fixture(self):
        assert binary_tree_ratio(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4])) == 4

    def test_halving_ladder_hits_two(self):
        assert binary_tree_ratio(new_instance([8, 8, 4, 4, 4])) == 2

    def test_single_job_is_one(self):
        assert binary_tree_ratio(new_instance([42])) == 1

    def test_all_equal_is_one(self):
        assert binary_tree_ratio(new_instance([3, 3, 3, 3])) == 1

    def test_exact_fraction(self):
        # 2 jobs: ratio is p1/p2 exactly
        assert binary_tree_ratio(new_instance([7, 3])) == Fraction(7, 3)

    @given(sizes_lists)
    def test_at_least_one_and_at_most_max_over_min(self, sizes):
        inst = new_instance(sizes)
        r = binary_tree_ratio(inst)
        assert r >= 1
        assert r <= Fraction(inst.sizes[0], inst.sizes[-1])


class TestLowerBound:
    @pytest.mark.parametrize(
        "sizes,expected",
        [
            ([20, 20, 10, 5, 5, 4, 4, 4, 4], 37),
            ([6, 5, 4, 3], 14),
            ([1000, 1], 2),
            ([7], 7),
            ([2, 2], 4),
            ([16, 15, 14, 13, 12, 11, 10, 9, 8, 8, 8, 8, 8], 108),
        ],
    )
    def test_frozen_values(self, sizes, expected):
        assert lower_bound(new_instance(sizes)) == expected

    @given(sizes_lists)
    def test_between_max_size_and_total(self, sizes):
        inst = new_instance(sizes)
        lb = lower_bound(inst)
        assert lb >= inst.sizes[len(inst.sizes) // 2]
        assert lb <= sum(inst.sizes)

    @given(sizes_lists)
    def test_any_feasible_schedule_beats_it(self, sizes):
        # place jobs end to end: feasible, and never below the bound
        inst = new_instance(sizes)
        starts, t = [], 0
        for p in inst.sizes:
            starts.append(t)
            t += p
        sched = Schedule(tuple(zip(inst.sizes, starts)))
        assert check_feasible(sched) is None
        assert makespan(sched) >= lower_bound(inst)
