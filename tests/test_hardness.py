"""Reduction: encoding, certificates, decoding, and the 3DM brute force."""

import random
from fractions import Fraction

import pytest

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
        for tdm, M in ((TDM2, 13), (TDM2, 20), (TDM2_UNSOLVABLE, 18)):
            instance, _ = encode(tdm, M)
            assert binary_tree_ratio(instance) - 2 == ratio_excess(tdm, M)
            assert ratio_excess(tdm, M) == Fraction(5 * tdm.D, 4 * M)

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
        assert check_feasible(sched) == []
        assert makespan(sched) == 154

    def test_two_slots_telescope(self):
        sched = schedule_from_matching(TDM2, 13, ((1, 1, 1), (2, 2, 2)))
        assert check_feasible(sched) == []
        assert makespan(sched) == 2 * 154

    def test_non_permutation_matching_rejected(self):
        with pytest.raises(ValueError):
            schedule_from_matching(TDM2, 13, ((1, 1, 1), (2, 2, 1)))

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
        assert check_feasible(sched) == []
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

    def test_loose_schedule_rejected(self):
        good = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
        jobs = list(good.jobs)
        jobs[4] = (29, 126)  # feasible but one unit past the target
        sched = Schedule(tuple(jobs))
        assert check_feasible(sched) == []
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
