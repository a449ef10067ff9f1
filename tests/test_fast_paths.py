"""The near-linear `check_feasible` and greedy against their quadratic
oracles, the untraced greedy against the traced one, a scale gate that a
quadratic regression fails, greedy's makespan against a heap of gap
lengths at n = 10^5, the exact oracle's deadline search against the branch
and bound it replaced, the QPTAS's grid search against the recursive
Fraction DP and the layered DP over every reached state that it replaced,
its left-shifted hand-back against the per-class pairing of grid
starts shifted by the quadratic canonical schedule, a linear-time gate for
that shift, the `Schedule` constructor's one pass against its per-job
reference, each solver's schedule against what the per-job checks make of
it, solver faults that the constructor refuses, and a scale gate for
writing and loading an execution trace."""

import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_schedule_for_order,
    dp_solve_oracle,
    dp_solve_unpruned,
    first_pair_oracle,
    greedy_makespan_oracle,
    greedy_schedule_oracle,
    grid_schedule,
    optimal_makespan_oracle,
    order_brute_force_optimum,
    qptas_solve_oracle,
    schedule_reference,
)
from trisched import (
    Schedule,
    ThreeDMInstance,
    check_feasible,
    fixture_instance,
    greedy_schedule,
    lower_bound,
    makespan,
    new_instance,
    optimal_makespan,
    qptas_solve,
    schedule_from_matching,
    simulate,
)
from trisched import exact, greedy
from trisched.exact import decide
from trisched.greedy import untraced_greedy
from trisched.qptas import dp_solve, round_sizes
from trisched.serialize import execution_trace_from_obj, execution_trace_json

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
        assert check_feasible(schedule) == first_pair_oracle(schedule)

    @given(schedules(fraction_jobs))
    @settings(max_examples=300)
    def test_fraction_schedules(self, schedule):
        assert check_feasible(schedule) == first_pair_oracle(schedule)

    @given(schedules(crowded_jobs))
    @settings(max_examples=200)
    def test_coincident_starts(self, schedule):
        assert check_feasible(schedule) == first_pair_oracle(schedule)

    @given(schedules(dense_jobs))
    @settings(max_examples=200)
    def test_many_violations(self, schedule):
        assert check_feasible(schedule) == first_pair_oracle(schedule)

    @given(st.lists(st.integers(1, 60), min_size=1, max_size=60), st.data())
    @settings(max_examples=150)
    def test_greedy_schedules_with_one_job_nudged(self, sizes, data):
        # feasible schedules with tight gaps, and near misses of them
        jobs = list(greedy_schedule(new_instance(sizes))[0].jobs)
        k = data.draw(st.integers(0, len(jobs) - 1))
        size, start = jobs[k]
        jobs[k] = (size, max(0, start + data.draw(st.integers(-3, 3))))
        schedule = Schedule(tuple(jobs))
        assert check_feasible(schedule) == first_pair_oracle(schedule)


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

    def test_many_blocks(self):
        # large enough that the gap list splits into dozens of blocks
        rng = random.Random(11)
        for sizes in ([rng.randint(1, 10**6) for _ in range(1500)], [9] * 1500):
            inst = new_instance(sizes)
            assert greedy_schedule(inst) == greedy_schedule_oracle(inst)


class TestUntracedMatchesTraced:
    @given(uniform_sizes)
    @settings(max_examples=150)
    def test_uniform_sizes(self, sizes):
        inst = new_instance(sizes)
        assert untraced_greedy(inst) == greedy_schedule(inst)[0]

    @given(equal_sizes)
    @settings(max_examples=100)
    def test_all_equal_sizes(self, sizes):
        inst = new_instance(sizes)
        assert untraced_greedy(inst) == greedy_schedule(inst)[0]

    @given(ladder_sizes)
    @settings(max_examples=150)
    def test_halving_ladder_sizes(self, sizes):
        inst = new_instance(sizes)
        assert untraced_greedy(inst) == greedy_schedule(inst)[0]

    @given(st.sampled_from((10**6, 9, 1)), st.integers(0, 2**32))
    @settings(max_examples=10, deadline=None)
    def test_many_blocks(self, top, seed):
        rng = random.Random(seed)
        inst = new_instance([rng.randint(1, top) for _ in range(1500)])
        assert untraced_greedy(inst) == greedy_schedule(inst)[0]


def test_greedy_and_check_scale_near_linearly():
    # about a second together; the quadratic versions took minutes at n = 3e4
    n = 30_000
    rng = random.Random(3)
    for sizes in ([7] * n, [rng.randint(1, 10**6) for _ in range(n)]):
        inst = new_instance(sizes)
        t0 = time.perf_counter()
        schedule, trace = greedy_schedule(inst)
        conflict = check_feasible(schedule)
        elapsed = time.perf_counter() - t0
        assert conflict is None
        assert len(trace) == n and trace[-1].makespan == makespan(schedule)
        assert makespan(schedule) == greedy_makespan_oracle(sizes)
        assert makespan(schedule) >= lower_bound(inst)
        if len(set(sizes)) == 1:
            assert makespan(schedule) == lower_bound(inst)
        assert elapsed < 20.0, f"greedy plus check took {elapsed:.1f}s at n={n}"
        t0 = time.perf_counter()
        untraced = untraced_greedy(inst)
        elapsed = time.perf_counter() - t0
        assert untraced == schedule
        assert elapsed < 10.0, f"untraced greedy took {elapsed:.1f}s at n={n}"


def test_execution_trace_round_trips_near_linearly():
    # writing, parsing and loading record by record, `simulate` included,
    # take about 0.2 s together at n = 3e4; a quadratic regression would
    # take minutes
    n = 30_000
    rng = random.Random(5)
    schedule = untraced_greedy(new_instance([rng.randint(1, 10**6) for _ in range(n)]))
    trace = simulate(schedule, [rng.randint(1, size) for size, _ in schedule.jobs])
    assert {r.executed for r in trace.records} == {True, False}
    t0 = time.perf_counter()
    loaded = execution_trace_from_obj(json.loads(execution_trace_json(trace)))
    elapsed = time.perf_counter() - t0
    assert loaded == trace
    assert elapsed < 10.0, f"writing and loading the trace took {elapsed:.1f}s at n={n}"


@pytest.mark.parametrize("top", [10**6, 3])
def test_untraced_greedy_makespan_at_n_1e5(top):
    # the heap of gap lengths checks every step's shift, which no schedule
    # oracle reaches at this size; about 0.5 s for sizes up to 10^6
    rng = random.Random(top)
    sizes = [rng.randint(1, top) for _ in range(100_000)]
    assert makespan(untraced_greedy(new_instance(sizes))) == greedy_makespan_oracle(sizes)


def test_coincident_jobs_name_their_first_pair_at_n_1e5():
    # every one of the 5 * 10^9 pairs violates; the sweep stops at the first
    assert check_feasible(Schedule(((5, 0),) * 100_000)) == (0, 1)


def check_exact(sizes, expected):
    value, witness = optimal_makespan(new_instance(sizes))
    assert value == expected
    assert check_feasible(witness) is None
    assert sorted(witness.sizes) == sorted(sizes)
    assert makespan(witness) == value


def check_exact_against_reference(sizes):
    check_exact(sizes, optimal_makespan_oracle(new_instance(sizes))[0])


spread_sizes = st.lists(st.integers(1, 50), min_size=1, max_size=9)
# few distinct sizes: many equal jobs, so many orders tie
duplicate_sizes = st.lists(st.integers(1, 4), min_size=1, max_size=9)

# The nine-job fixture on which greedy makes 42 against an optimum of 40,
# scaled by k and each size moved by up to k: about three instances in ten
# leave greedy above the optimum (about one in three thousand uniform ones
# do), so the search has an incumbent to improve on, once or several times.
fixture_like_sizes = st.integers(1, 3).flatmap(
    lambda k: st.tuples(*(st.integers(k * (p - 1), k * (p + 1)) for p in (20, 20, 10, 5, 5, 4, 4, 4, 4)))
).map(list)


class TestExactMatchesBranchAndBound:
    @given(spread_sizes)
    @settings(max_examples=150, deadline=None)
    def test_spread_sizes(self, sizes):
        check_exact_against_reference(sizes)

    @given(duplicate_sizes)
    @settings(max_examples=150, deadline=None)
    def test_duplicate_sizes(self, sizes):
        check_exact_against_reference(sizes)

    @given(fixture_like_sizes)
    # optimum 42 and 84: a dominance cut that fires when any one coordinate
    # of a stored vector is no larger returns 43 and 85 on these
    @example([21, 21, 10, 6, 4, 4, 4, 4, 4])
    @example([41, 40, 22, 12, 9, 9, 9, 7, 7])
    @settings(max_examples=150, deadline=None)
    def test_sizes_where_greedy_is_not_optimal(self, sizes):
        check_exact_against_reference(sizes)

    @given(st.one_of(st.lists(st.integers(1, 50), min_size=1, max_size=7),
                     st.lists(st.integers(1, 4), min_size=1, max_size=7)))
    @settings(max_examples=80, deadline=None)
    def test_every_order(self, sizes):
        check_exact(sizes, order_brute_force_optimum(sizes))


dp_sizes = st.one_of(
    st.lists(st.integers(1, 50), min_size=1, max_size=7),
    st.tuples(st.integers(1, 50), st.integers(1, 7)).map(lambda t: [t[0]] * t[1]),
)


# a/b with a and b both past 1 tells a, b and a+b apart in the grid's sizes
DP_EPS = (3, Fraction(5, 2), 2, 1, Fraction(2, 3), Fraction(1, 2), Fraction(1, 3))


class TestDpMatchesFractionOracle:
    # at eps = 3 the grid is sized by the stacked jobs, (n-1)*ceil(n/eps),
    # for 7 equal sizes; 4 equal sizes end exactly on the last grid point
    @given(dp_sizes, st.sampled_from(DP_EPS))
    @settings(max_examples=100, deadline=None)
    @example([7] * 7, 3)
    @example([7] * 4, 3)
    # three and four equal sizes: several final states tie for the optimum
    @example([8, 8, 8, 4, 4, 4, 4], 1)
    def test_same_makespan_schedule_and_states(self, sizes, eps):
        inst = new_instance(sizes)
        rounded = round_sizes(inst, eps)
        order, states = dp_solve(rounded, inst.n)
        # the order, replayed on the Fraction grid, gives the oracle's
        # makespan and schedule; the search visits one node per placed job
        # on its first question and at least the root on its last
        grid_makespan, schedule, _ = dp_solve_oracle(rounded, inst.n)
        assert grid_schedule(rounded, inst.n, order) == (grid_makespan, schedule)
        assert states > len(order) == inst.n

    @given(st.one_of(st.lists(st.integers(1, 50), min_size=1, max_size=8),
                     st.lists(st.integers(1, 3), min_size=1, max_size=8),
                     st.lists(st.integers(1, 1000), min_size=1, max_size=8)),
           st.sampled_from(DP_EPS))
    @settings(max_examples=200, deadline=None)
    @example([8, 8, 8, 4, 4, 4, 4], 1)
    @example(list(fixture_instance("greedy-gap-9").sizes)[:8], Fraction(1, 2))
    def test_undominated_states_give_the_same_order(self, sizes, eps):
        # the DP that stores every state it reaches returns the same first
        # optimal order as the search
        inst = new_instance(sizes)
        rounded = round_sizes(inst, eps)
        order, states = dp_solve(rounded, inst.n)
        assert order == dp_solve_unpruned(rounded, inst.n).order
        assert states > len(order)

    @given(dp_sizes, st.sampled_from(DP_EPS))
    @settings(max_examples=100, deadline=None)
    @example([7] * 7, 3)
    @example(list(fixture_instance("greedy-gap-9").sizes), Fraction(1, 2))
    @example([233, 61, 50, 44, 44, 29], Fraction(1, 2))
    # one large job and small ones that nest under it
    @example([40, 1, 1], 1)
    def test_pipeline_hands_back_the_same_schedule_and_stats(self, sizes, eps):
        # the reference pipeline's grid schedule with every start moved to
        # the earliest one after the jobs that start before it
        inst = new_instance(sizes)
        schedule, stats = qptas_solve(inst, eps)
        grid, grid_stats = qptas_solve_oracle(inst, eps)
        by_start = sorted(range(grid.n), key=lambda k: grid.jobs[k][1])
        shifted = canonical_schedule_for_order([grid.jobs[k][0] for k in by_start]).starts
        starts = [0] * grid.n
        for k, start in zip(by_start, shifted):
            starts[k] = start
        assert schedule == Schedule(tuple(zip(grid.sizes, starts)))
        assert stats._replace(dp_states=None) == grid_stats._replace(dp_states=None)
        # one node per large job on the first question, the root on the last
        assert stats.dp_states > stats.large if stats.large else stats.dp_states == 0
        assert all(s <= g for s, g in zip(schedule.starts, grid.starts))
        assert_trusted(schedule)


def test_qptas_left_shift_is_linear():
    # 10^5 unit jobs nest under one of 10^9; a shift that looked back at
    # every earlier job would take 5e9 steps
    inst = new_instance([10**9] + [1] * 10**5)
    t0 = time.perf_counter()
    schedule, stats = qptas_solve(inst, Fraction(1, 2))
    elapsed = time.perf_counter() - t0
    assert (stats.large, stats.small) == (1, 10**5)
    assert schedule.starts[:3] == (0, 1, 2) and makespan(schedule) == 10**9
    assert elapsed < 2.0, f"qptas took {elapsed:.1f}s on 10^5 small jobs"


def assert_trusted(schedule):
    """A solver's schedule is what the constructor's per-job checks make of
    its jobs: a tuple of (size, start) tuples of plain ints, sizes positive
    and starts non-negative."""
    assert Schedule(schedule.jobs) == schedule
    assert type(schedule.jobs) is tuple
    assert all(type(job) is tuple and len(job) == 2 for job in schedule.jobs)
    assert {type(x) for job in schedule.jobs for x in job} <= {int}


job_values = st.one_of(
    st.integers(0, 10**20),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=30, max_denominator=4),
    st.booleans(),
    st.floats(-3, 30),
)
# every kind of job the constructor sees; schedules of valid plain-int
# tuples alone, which take its one pass, come as often as mixed ones
constructor_jobs = st.one_of(
    int_jobs,
    st.tuples(job_values, job_values),
    st.lists(job_values, min_size=2, max_size=2),
    st.lists(job_values, max_size=3).map(tuple),
)
constructor_inputs = st.one_of(st.lists(int_jobs, min_size=1, max_size=8), st.lists(constructor_jobs, max_size=8))


class TestScheduleConstructor:
    @given(constructor_inputs, st.sampled_from([tuple, list, iter]))
    @settings(max_examples=600)
    @example([(1, 0), [2, 5]], tuple)
    @example([(1, 0), (True, 5)], list)
    @example([(1, 0), (2, -1)], iter)
    @example([(0, 0)], tuple)
    @example([(1, 0, 2)], tuple)
    @example([], iter)
    def test_matches_per_job_reference(self, jobs, container):
        def outcome(build):
            try:
                held = build(container(jobs))
            except (TypeError, ValueError) as error:
                return type(error), str(error)
            return held, [(type(job), *map(type, job)) for job in held]

        assert outcome(lambda js: Schedule(js).jobs) == outcome(schedule_reference)
        # valid plain-int tuples are kept as the very tuple handed in
        plain = tuple(jobs)
        if all(type(job) is tuple and set(map(type, job)) == {int} for job in plain):
            if outcome(schedule_reference)[0] == plain:
                assert Schedule(plain).jobs is plain


class TestSolverFaultsRefused:
    def test_negative_greedy_start(self, monkeypatch):
        monkeypatch.setattr(greedy, "_greedy", lambda sizes, record: ((-1,) * len(sizes), []))
        instance = new_instance([3, 2, 1])
        for solve in (untraced_greedy, greedy_schedule):
            with pytest.raises(ValueError, match="start times must be non-negative, got -1"):
                solve(instance)

    def test_bool_exact_start(self, monkeypatch):
        monkeypatch.setattr(exact, "_search", lambda *args: ([(0, True)], 1, 0))
        with pytest.raises(TypeError, match="got bool"):
            decide(new_instance([3]), 10)


@st.composite
def solvable_3dm(draw):
    """Rows that are permutations of (3, 3, 4), target 10, with the b and c
    columns shuffled, and a matching of it."""
    rows = draw(st.lists(st.permutations((3, 3, 4)), min_size=1, max_size=6))
    n = len(rows)
    b_order = draw(st.permutations(range(n)))
    c_order = draw(st.permutations(range(n)))
    tdm = ThreeDMInstance(
        D=10,
        a=tuple(row[0] for row in rows),
        b=tuple(rows[i][1] for i in b_order),
        c=tuple(rows[i][2] for i in c_order),
    )
    matching = tuple((i + 1, b_order.index(i) + 1, c_order.index(i) + 1) for i in range(n))
    return tdm, matching


class TestTrustedSchedules:
    @given(st.one_of(uniform_sizes, equal_sizes, ladder_sizes))
    @settings(max_examples=150)
    def test_greedy(self, sizes):
        inst = new_instance(sizes)
        assert_trusted(greedy_schedule(inst)[0])
        assert_trusted(untraced_greedy(inst))

    @given(st.one_of(fixture_like_sizes, spread_sizes))
    @settings(max_examples=100, deadline=None)
    def test_exact_witness(self, sizes):
        assert_trusted(optimal_makespan(new_instance(sizes))[1])

    @given(solvable_3dm(), st.integers(13, 40))
    @settings(max_examples=100)
    def test_certificate(self, case, M):
        tdm, matching = case
        assert_trusted(schedule_from_matching(tdm, M, matching))
