"""Reduction: encoding, certificates, decoding, and the 3DM brute force."""

import contextlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import matching_from_schedule_reference
from trisched import hardness
from trisched import (
    DecodeError,
    Schedule,
    ThreeDMInstance,
    binary_tree_ratio,
    check_feasible,
    encode,
    makespan,
    matching_from_schedule,
    min_padding,
    ratio_excess,
    schedule_from_matching,
    solve_3dm_bruteforce,
)
from trisched.exact import decide

TDM1 = ThreeDMInstance(D=10, a=(3,), b=(3,), c=(4,))
TDM2 = ThreeDMInstance(D=10, a=(3, 4), b=(3, 3), c=(4, 3))
TDM2_UNSOLVABLE = ThreeDMInstance(D=14, a=(4, 6), b=(5, 5), c=(4, 4))


def random_solvable_tdm(rng, n):
    """Columns built from n permutations of (3, 3, 4), target 10."""
    cols = ([], [], [])
    for _ in range(n):
        triple = rng.sample([3, 3, 4], 3)
        for col, v in zip(cols, triple):
            col.append(v)
    return ThreeDMInstance(D=10, a=tuple(cols[0]), b=tuple(cols[1]), c=tuple(cols[2]))


class TestThreeDMInstance:
    def test_valid(self):
        assert TDM2.n == 2

    def test_sum_must_be_n_times_d(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(D=10, a=(3,), b=(3,), c=(3,))

    def test_values_must_exceed_quarter_d(self):
        # 4*2 = 8 is not > 10
        with pytest.raises(ValueError):
            ThreeDMInstance(D=10, a=(2,), b=(4,), c=(4,))

    def test_values_must_stay_below_half_d(self):
        # 2*5 = 10 is not < 10
        with pytest.raises(ValueError):
            ThreeDMInstance(D=10, a=(5,), b=(3,), c=(2,))

    @pytest.mark.parametrize("columns, message", [
        (dict(D=12, a=(3,), b=(4,), c=(5,)), "a value 3 outside the open range (D/4, D/2) for D=12"),
        (dict(D=12, a=(4,), b=(6,), c=(2,)), "b value 6 outside the open range (D/4, D/2) for D=12"),
    ], ids=["quarter", "half"])
    def test_range_bounds_are_open(self, columns, message):
        with pytest.raises(ValueError) as caught:
            ThreeDMInstance(**columns)
        assert str(caught.value) == message

    def test_list_columns_are_stored_as_tuples(self):
        from_lists = ThreeDMInstance(10, [3], [3], [4])
        from_tuples = ThreeDMInstance(10, (3,), (3,), (4,))
        assert from_lists == from_tuples
        assert hash(from_lists) == hash(from_tuples)
        assert type(from_lists.a) is type(from_lists.b) is type(from_lists.c) is tuple

    def test_columns_same_length(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(D=10, a=(3, 4), b=(3,), c=(4,))

    def test_tiny_d_rejected(self):
        with pytest.raises(ValueError):
            ThreeDMInstance(D=3, a=(1,), b=(1,), c=(1,))

    @pytest.mark.parametrize("columns", [
        # each would pass every range and sum check
        dict(D=10, a=(Fraction(7, 2),), b=(Fraction(7, 2),), c=(3,)),
        dict(D=Fraction(10), a=(3,), b=(3,), c=(4,)),
        dict(D=10, a=(3.5,), b=(3.5,), c=(3,)),
    ], ids=["fraction-values", "fraction-D", "float-values"])
    def test_values_must_be_ints(self, columns):
        # the certificate schedule is built unchecked from these values
        with pytest.raises(ValueError, match="3DM values must be integers"):
            ThreeDMInstance(**columns)


class TestMinPadding:
    def test_values(self):
        assert min_padding(TDM1) == 13
        assert min_padding(TDM2_UNSOLVABLE) == 18


class TestEncode:
    def test_single_slot_sizes(self):
        instance, labels = encode(TDM1, M=13)
        assert instance.sizes == (154, 52, 42, 29, 27)
        assert labels.target == 154
        assert labels.M == 13
        assert set(labels.jobs) == {
            ("E", 1, 154),
            ("F", 1, 52),
            ("A", 1, 42),
            ("B", 1, 29),
            ("C", 1, 27),
        }

    def test_padding_floor_enforced(self):
        with pytest.raises(ValueError):
            encode(TDM1, M=12)

    def test_five_jobs_per_slot(self):
        instance, labels = encode(TDM2, M=13)
        assert instance.n == 10
        assert len(labels.jobs) == 10

    def test_type_ranges_strictly_ordered(self):
        rng = random.Random(23)
        for _ in range(20):
            tdm = random_solvable_tdm(rng, rng.randint(1, 4))
            M = min_padding(tdm) + rng.randint(0, 10)
            _, labels = encode(tdm, M)
            by_type = {}
            for kind, _, size in labels.jobs:
                by_type.setdefault(kind, []).append(size)
            assert min(by_type["E"]) > max(by_type["F"])
            assert min(by_type["F"]) > max(by_type["A"])
            assert min(by_type["A"]) > max(by_type["B"])
            assert min(by_type["B"]) > max(by_type["C"])


class TestRatioExcess:
    def test_matches_tree_ratio_exactly(self):
        for tdm, M in ((TDM1, 13), (TDM1, 20), (TDM2, 13), (TDM2, 20), (TDM2_UNSOLVABLE, 18)):
            instance, _ = encode(tdm, M)
            assert binary_tree_ratio(instance) - 2 == ratio_excess(tdm, M)
            assert ratio_excess(tdm, M) == Fraction(5 * tdm.D, 4 * M)
        # one triplet: the only half-index ratio above 2 is E/F
        assert ratio_excess(TDM1, 13) == Fraction(25, 26)
        assert ratio_excess(TDM1, 20) == Fraction(5, 8)

    def test_excess_shrinks_with_padding(self):
        assert ratio_excess(TDM2, 13) > ratio_excess(TDM2, 130)

    def test_ratio_always_above_two(self):
        instance, _ = encode(TDM2, 13)
        assert binary_tree_ratio(instance) > 2


class TestScheduleFromMatching:
    def test_single_slot_layout(self):
        sched = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
        assert sched.jobs == (
            (154, 0),
            (42, 42),
            (27, 69),
            (52, 96),
            (29, 125),
        )
        assert check_feasible(sched) is None
        assert makespan(sched) == 154

    def test_two_slots_telescope(self):
        sched = schedule_from_matching(TDM2, 13, ((1, 1, 1), (2, 2, 2)))
        assert check_feasible(sched) is None
        assert makespan(sched) == 2 * 154

    def test_wrong_number_of_triplets_rejected(self):
        with pytest.raises(ValueError) as caught:
            schedule_from_matching(TDM2, 13, ((1, 1, 1),))
        assert str(caught.value) == "matching must have 2 triplets, got 1"

    def test_non_permutation_matching_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_matching(TDM2, 13, ((1, 1, 1), (2, 2, 1)))

    @pytest.mark.parametrize("triplet, message", [
        ((True, 1, 1), "matching indices must be integers, got (True, 1, 1)"),
        ((1, 1), "matching triplets must hold three indices, got (1, 1)"),
        ((1, 1, 1, 1), "matching triplets must hold three indices, got (1, 1, 1, 1)"),
        ((1.0, 1, 1), "matching indices must be integers, got (1.0, 1, 1)"),
        (("1", 1, 1), "matching indices must be integers, got ('1', 1, 1)"),
        ((None, 1, 1), "matching indices must be integers, got (None, 1, 1)"),
        (None, "matching triplets must hold three indices, got None"),
    ], ids=["bool", "two-entries", "four-entries", "float", "string", "none", "no-triplet"])
    def test_malformed_matching_rejected(self, triplet, message):
        # (True, 1, 1) would pass as (1, 1, 1); the others would fail with
        # an IndexError or TypeError, or a message about something else
        with pytest.raises(ValueError) as caught:
            schedule_from_matching(TDM2, 13, ((2, 2, 2), triplet))
        assert str(caught.value) == message

    def test_matching_must_be_a_sequence(self):
        with pytest.raises(ValueError) as caught:
            schedule_from_matching(TDM1, 13, None)
        assert str(caught.value) == "matching must be a tuple or list of triplets, got NoneType"

    def test_wrong_sum_matching_rejected(self):
        # coordinates are permutations but the triplets sum to 9 and 11
        with pytest.raises(ValueError):
            schedule_from_matching(TDM2, 13, ((1, 2, 2), (2, 1, 1)))

    @pytest.mark.parametrize("M", [13.5, Fraction(27, 2), True])
    def test_padding_must_be_an_int(self, M):
        with pytest.raises(ValueError, match="M must be an integer"):
            schedule_from_matching(TDM1, M, ((1, 1, 1),))
        with pytest.raises(ValueError, match="M must be an integer"):
            encode(TDM1, M)

    def test_alternative_valid_matching_accepted(self):
        # TDM2 also matches crosswise; both certificates are tight
        sched = schedule_from_matching(TDM2, 13, ((1, 2, 1), (2, 1, 2)))
        assert check_feasible(sched) is None
        assert makespan(sched) == 2 * 154


class TestMatchingFromSchedule:
    def test_round_trip_single(self):
        sched = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
        assert matching_from_schedule(TDM1, 13, sched) == ((1, 1, 1),)

    def test_round_trip_double(self):
        matching = ((1, 1, 1), (2, 2, 2))
        sched = schedule_from_matching(TDM2, 13, matching)
        assert matching_from_schedule(TDM2, 13, sched) == matching

    def test_round_trip_random(self):
        rng = random.Random(29)
        for _ in range(15):
            tdm = random_solvable_tdm(rng, rng.randint(1, 4))
            M = min_padding(tdm)
            matching = solve_3dm_bruteforce(tdm)
            assert matching is not None
            sched = schedule_from_matching(tdm, M, matching)
            decoded = matching_from_schedule(tdm, M, sched)
            # decoded may differ on duplicate values but must be a valid
            # matching producing the same certificate sizes
            redone = schedule_from_matching(tdm, M, decoded)
            assert sorted(redone.jobs) == sorted(sched.jobs)

    def test_duplicate_values_take_the_first_unused_index(self):
        # the k-th window holding a value gets the k-th smallest index of
        # that value, in every column
        rng = random.Random(31)
        for _ in range(10):
            tdm = random_solvable_tdm(rng, rng.randint(2, 40))
            M = min_padding(tdm) + rng.randint(0, 3)
            matching = [(t, t, t) for t in range(1, tdm.n + 1)]
            rng.shuffle(matching)
            decoded = matching_from_schedule(
                tdm, M, schedule_from_matching(tdm, M, tuple(matching))
            )
            for coord, column in enumerate((tdm.a, tdm.b, tdm.c)):
                values = [column[m[coord] - 1] for m in matching]
                assert [column[d[coord] - 1] for d in decoded] == values
                for v in set(values):
                    picked = [d[coord] for d in decoded if column[d[coord] - 1] == v]
                    assert picked == [i + 1 for i, w in enumerate(column) if w == v]

    def test_wrong_sizes_rejected(self):
        sched = Schedule(((154, 0),))
        with pytest.raises(DecodeError):
            matching_from_schedule(TDM1, 13, sched)

    def test_infeasible_schedule_rejected(self):
        good = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
        jobs = list(good.jobs)
        jobs[1] = (42, 1)  # collide with the window job
        with pytest.raises(DecodeError):
            matching_from_schedule(TDM1, 13, Schedule(tuple(jobs)))

    def test_layout_the_proof_misses_rejected(self):
        # a feasible schedule of the target makespan that the window
        # classification turned down would contradict the reduction: it is
        # refused, not decoded by other means
        good = schedule_from_matching(TDM2, 13, ((1, 1, 1), (2, 2, 2)))
        with mock.patch.object(hardness, "_window_columns", lambda schedule, sizes: None):
            with pytest.raises(DecodeError) as info:
                matching_from_schedule(TDM2, 13, good)
        assert str(info.value) == "feasible schedule within the target 308 is not a window layout"

    def test_loose_schedule_rejected(self):
        good = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
        jobs = list(good.jobs)
        jobs[4] = (29, 126)  # feasible but one unit past the target
        sched = Schedule(tuple(jobs))
        assert check_feasible(sched) is None
        with pytest.raises(DecodeError) as info:
            matching_from_schedule(TDM1, 13, sched)
        assert "exceeds" in str(info.value)


class TestSolve3dmBruteforce:
    def test_single(self):
        assert solve_3dm_bruteforce(TDM1) == ((1, 1, 1),)

    def test_double(self):
        assert solve_3dm_bruteforce(TDM2) == ((1, 1, 1), (2, 2, 2))

    def test_unsolvable(self):
        assert solve_3dm_bruteforce(TDM2_UNSOLVABLE) is None

    def test_limit(self):
        tdm = random_solvable_tdm(random.Random(0), 7)
        with pytest.raises(ValueError):
            solve_3dm_bruteforce(tdm)

    def test_found_matchings_are_valid(self):
        rng = random.Random(31)
        for _ in range(20):
            tdm = random_solvable_tdm(rng, rng.randint(1, 5))
            matching = solve_3dm_bruteforce(tdm)
            assert matching is not None
            for i, j, k in matching:
                assert tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1] == tdm.D
            for coord in range(3):
                assert sorted(t[coord] for t in matching) == list(range(1, tdm.n + 1))


def random_tdm(rng, n, D):
    """3n values in the open range (D/4, D/2) summing to n*D, dealt into the
    columns in drawn order; a matching may or may not exist."""
    lo, hi = D // 4 + 1, (D - 1) // 2
    while True:
        values = [rng.randint(lo, hi) for _ in range(3 * n - 1)]
        last = n * D - sum(values)
        if lo <= last <= hi:
            values.append(last)
            return ThreeDMInstance(D=D, a=tuple(values[:n]), b=tuple(values[n:2 * n]), c=tuple(values[2 * n:]))


class TestReductionBothWays:
    """The encoding fits its target n*(8M+5D) exactly when a matching exists,
    checked by the exact search on these instances (not a proof)."""

    def assert_fits_iff_matching(self, tdm, M):
        instance, _ = encode(tdm, M)
        found = decide(instance, tdm.n * (8 * M + 5 * tdm.D))
        matching = solve_3dm_bruteforce(tdm)
        assert (found is None) == (matching is None)
        if found is not None:
            # a DecodeError unless it holds a matching, as the reduction
            # says every feasible schedule of the target makespan does
            decoded = matching_from_schedule(tdm, M, found)
            assert [tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1] for i, j, k in decoded] == [tdm.D] * tdm.n
        return matching is not None

    def test_three_slots(self):
        rng = random.Random(41)
        solvable = []
        for _ in range(20):
            tdm = random_tdm(rng, 3, rng.choice((14, 18, 22)))
            solvable.append(self.assert_fits_iff_matching(tdm, min_padding(tdm) + rng.choice((0, 5))))
        assert 0 < sum(solvable) < len(solvable)

    def test_four_slots_unsolvable(self):
        tdm = ThreeDMInstance(D=22, a=(9, 6, 6, 6), b=(7, 10, 6, 7), c=(8, 9, 7, 7))
        assert not self.assert_fits_iff_matching(tdm, min_padding(tdm))


def random_rows_tdm(rng, n, D):
    """n rows (a, b, c) summing to D, each value in the open range (D/4, D/2),
    with the b and c columns shuffled, and the matching of the rows."""
    lo, hi = D // 4 + 1, (D - 1) // 2
    rows = []
    for _ in range(n):
        a = rng.randint(lo, min(hi, D - 2 * lo))
        b = rng.randint(max(lo, D - a - hi), min(hi, D - a - lo))
        rows.append((a, b, D - a - b))
    b_order, c_order = list(range(n)), list(range(n))
    rng.shuffle(b_order)
    rng.shuffle(c_order)
    tdm = ThreeDMInstance(
        D=D,
        a=tuple(row[0] for row in rows),
        b=tuple(rows[i][1] for i in b_order),
        c=tuple(rows[i][2] for i in c_order),
    )
    matching = [(t + 1, b_order.index(t) + 1, c_order.index(t) + 1) for t in range(n)]
    rng.shuffle(matching)   # any window may hold any row
    return tdm, tuple(matching)


MUTATIONS = ("none", "resize", "swap-sizes", "nudge-start", "other-window", "move-e")


def mutated_certificate(rng, n, D, extra, mutation):
    """A random solvable instance, M = ceil(5D/4) + extra, and the
    certificate of a matching, its jobs shuffled, then changed by
    `mutation`: a size changed by one, two sizes swapped, a start moved by
    one, a job moved to the same offset in another window, or an E job
    moved."""
    tdm, matching = random_rows_tdm(rng, n, D)
    M = min_padding(tdm) + extra
    window = 8 * M + 5 * D
    jobs = [list(job) for job in schedule_from_matching(tdm, M, matching).jobs]
    rng.shuffle(jobs)
    x, y = rng.randrange(len(jobs)), rng.randrange(len(jobs))
    if mutation == "resize":
        jobs[x][0] += rng.choice((-1, 1))
    elif mutation == "swap-sizes":
        jobs[x][0], jobs[y][0] = jobs[y][0], jobs[x][0]
    elif mutation == "nudge-start":
        jobs[x][1] = max(0, jobs[x][1] + rng.choice((-1, 1)))
    elif mutation == "other-window":
        others = [job for job in jobs if job[0] != window]
        job = rng.choice(others)
        job[1] = job[1] % window + rng.randrange(n) * window
    elif mutation == "move-e":
        job = rng.choice([job for job in jobs if job[0] == window])
        job[1] = max(0, job[1] + rng.choice((-1, 1, window, -window, 2 * window)))
    return tdm, M, Schedule(tuple(map(tuple, jobs)))


def decode_outcome(decode, tdm, M, schedule):
    """The matching `decode` returns, or the text of its DecodeError."""
    try:
        return decode(tdm, M, schedule)
    except DecodeError as exc:
        return str(exc)


def branch(outcome):
    """Which of the decoder's outcomes `outcome` is."""
    if not isinstance(outcome, str):
        return "decoded"
    return next(key for key in ("sizes", "infeasible", "exceeds", "E jobs", "window holds", "triplet")
                if key in outcome)


@st.composite
def mutated_cases(draw):
    n = draw(st.integers(1, 6))
    D = draw(st.sampled_from((10, 14, 20, 41)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return mutated_certificate(rng, n, D, draw(st.integers(0, 8)), draw(st.sampled_from(MUTATIONS)))


@contextlib.contextmanager
def pair_checks_off():
    """The reference decoder with no pair of jobs checked: its feasibility
    sweep reports none.  Infeasible schedules then reach its E-start,
    per-window type and triplet-sum checks, which no feasible schedule of
    the target makespan fails."""
    with mock.patch.object(oracles, "check_feasible", lambda schedule: None):
        yield


class TestDecoderMatchesReference:
    """The window-by-window decoder returns the matching the reference
    decoder returns, or raises a DecodeError with the same text."""

    @given(mutated_cases())
    @settings(max_examples=400, deadline=None)
    def test_mutated_certificates(self, case):
        tdm, M, schedule = case
        outcome = decode_outcome(matching_from_schedule, tdm, M, schedule)
        assert outcome == decode_outcome(matching_from_schedule_reference, tdm, M, schedule)

    def test_mutations_reach_every_branch(self):
        rng = random.Random(47)
        seen, unchecked = set(), set()
        for k in range(400):
            n, D, extra = rng.randint(1, 6), rng.choice((10, 14, 20, 41)), rng.randint(0, 8)
            tdm, M, schedule = mutated_certificate(rng, n, D, extra, MUTATIONS[k % len(MUTATIONS)])
            seen.add(branch(decode_outcome(matching_from_schedule_reference, tdm, M, schedule)))
            with pair_checks_off():
                unchecked.add(branch(decode_outcome(matching_from_schedule_reference, tdm, M, schedule)))
        # in a feasible schedule of the target makespan n*W the n E jobs,
        # each W long and W apart, sit at the window starts, and each
        # window then holds one job of each type with its triplet summing to
        # D; only unchecked pairs let a schedule reach those checks
        assert seen == {"decoded", "sizes", "infeasible", "exceeds"}
        assert {"E jobs", "window holds", "triplet"} <= unchecked
