"""Ratio-search harness: evaluation, merging, reports."""

import random
from fractions import Fraction

import pytest

from oracles import order_brute_force_optimum, report_from_obj
from trisched import bench, check_feasible, fixture_instance, makespan, new_instance, optimal_makespan
from trisched.bench import FIXTURE_RATIO, RatioSearchReport, evaluate_ratio, ratio_search
from trisched.generators import random_instance, ratio_bounded_instance
from trisched.greedy import untraced_greedy
from trisched.serialize import report_to_obj


class TestEvaluateRatio:
    def test_worst_known_fixture(self):
        assert evaluate_ratio(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4])) == Fraction(21, 20)
        assert FIXTURE_RATIO == Fraction(21, 20)

    def test_fixture_past_21_20(self):
        # this implementation's greedy against the optimum, the exact search
        # checked by every order of the sizes
        instance = fixture_instance("greedy-gap-65-58")
        schedule = untraced_greedy(instance)
        assert makespan(schedule) == 130 and check_feasible(schedule) is None
        assert optimal_makespan(instance)[0] == 116
        assert order_brute_force_optimum(instance.sizes) == 116
        assert evaluate_ratio(instance) == Fraction(65, 58) > FIXTURE_RATIO

    def test_greedy_optimal_instance(self):
        assert evaluate_ratio(new_instance([6, 5, 4, 3])) == 1


class TestRatioSearch:
    def test_fixture_floors_the_report(self):
        report = ratio_search(n=4, iterations=6, seed=0, max_size=10)
        assert report.ratio >= FIXTURE_RATIO
        if report.ratio == FIXTURE_RATIO:
            assert report.witness == (20, 20, 10, 5, 5, 4, 4, 4, 4)
        assert report.iterations == 6
        assert report.seed == 0

    def test_deterministic(self):
        a = ratio_search(n=5, iterations=10, seed=42)
        b = ratio_search(n=5, iterations=10, seed=42)
        assert a == b

    def test_findings_all_beat_the_fixture(self, monkeypatch):
        # uniform pools rarely beat 21/20, so the fifth draw of this one is
        # the 65/58 fixture, which must land in the findings
        draws = iter(range(15))

        def draw(rng, n, max_size):
            instance = random_instance(rng, n, max_size)
            return fixture_instance("greedy-gap-65-58") if next(draws) == 4 else instance

        monkeypatch.setattr(bench, "random_instance", draw)
        report = ratio_search(n=9, iterations=15, seed=7)
        assert (fixture_instance("greedy-gap-65-58").sizes, Fraction(65, 58)) in report.findings
        for sizes, ratio in report.findings:
            assert ratio > FIXTURE_RATIO
            assert evaluate_ratio(new_instance(sizes)) == ratio

    def test_bounded_pool_skips_the_fixture(self):
        # ratio <= 2 instances are solved optimally, so the best ratio is 1
        report = ratio_search(n=8, iterations=10, seed=3, bound=Fraction(2))
        assert report.ratio == 1

    def test_ties_report_the_smallest_witness(self):
        # every ratio in a bound-2 pool is 1, so the witness is the pool's
        # lexicographically smallest sizes, here not its first instance
        rng = random.Random(3)
        pool = [ratio_bounded_instance(rng, 6, Fraction(2), 50).sizes for _ in range(30)]
        report = ratio_search(n=6, iterations=30, seed=3, bound=Fraction(2))
        assert report.ratio == 1
        assert report.witness == min(pool) != pool[0]

    @pytest.mark.parametrize("iterations, bound", [(-1, None), (-1, Fraction(2)), (0, Fraction(2))])
    def test_iterations_that_leave_no_report_rejected(self, iterations, bound):
        with pytest.raises(ValueError, match="iteration"):
            ratio_search(n=3, iterations=iterations, seed=0, bound=bound)

    @pytest.mark.parametrize("bound", [1.1, True])
    def test_float_and_bool_bounds_rejected(self, bound):
        with pytest.raises(TypeError):
            ratio_search(n=3, iterations=1, seed=0, bound=bound)

    @pytest.mark.parametrize("n, iterations, name", [(3, True, "iterations"), (3, 1.0, "iterations"), (2.0, 0, "n")])
    def test_float_and_bool_counts_rejected(self, n, iterations, name):
        # iterations=True ran one iteration and reported "iterations": true
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            ratio_search(n=n, iterations=iterations, seed=0)

    def test_zero_iterations_report_the_fixture(self):
        report = ratio_search(n=3, iterations=0, seed=0)
        assert report.ratio == FIXTURE_RATIO and report.iterations == 0

    def test_size_limit_enforced(self):
        with pytest.raises(ValueError):
            ratio_search(n=13, iterations=1, seed=0)


class TestReportWire:
    def test_round_trip(self):
        report = ratio_search(n=6, iterations=8, seed=1)
        assert report_from_obj(report_to_obj(report)) == report

    def test_tampered_ratio_rejected(self):
        report = ratio_search(n=4, iterations=2, seed=0)
        obj = report_to_obj(report)
        obj["ratio"] = "3/2"
        with pytest.raises(ValueError):
            report_from_obj(obj)

    def test_report_shape(self):
        obj = report_to_obj(
            RatioSearchReport(
                ratio=Fraction(21, 20),
                witness=(20, 20, 10, 5, 5, 4, 4, 4, 4),
                iterations=0,
                seed=0,
            )
        )
        assert obj["ratio"] == "21/20"
        assert obj["witness"] == [20, 20, 10, 5, 5, 4, 4, 4, 4]
        assert obj["findings"] == []

    @pytest.mark.parametrize("key", ["witness", "ratio", "iterations", "seed"])
    def test_missing_field_rejected(self, key):
        obj = report_to_obj(ratio_search(n=4, iterations=2, seed=0))
        del obj[key]
        with pytest.raises(ValueError, match=repr(key)):
            report_from_obj(obj)

    @pytest.mark.parametrize("bad", [5.9, "59/10"])
    def test_fractional_witness_size_rejected(self, bad):
        # int(...) used to load 5.9 as 5: a different witness, whose ratio
        # the report then matched
        ratio = evaluate_ratio(new_instance([6, 5, 4, 3]))
        obj = {"ratio": f"{ratio.numerator}/{ratio.denominator}", "witness": [6, bad, 4, 3],
               "iterations": 1, "seed": 0}
        with pytest.raises(ValueError):
            report_from_obj(obj)

    @pytest.mark.parametrize("key,bad", [("iterations", "3/2"), ("seed", 0.5)])
    def test_fractional_counts_rejected(self, key, bad):
        obj = report_to_obj(ratio_search(n=4, iterations=2, seed=0))
        obj[key] = bad
        with pytest.raises(ValueError):
            report_from_obj(obj)

    def test_finding_without_ratio_rejected(self):
        obj = report_to_obj(ratio_search(n=4, iterations=2, seed=0))
        obj["findings"] = [{"sizes": [3, 2, 1]}]
        with pytest.raises(ValueError, match="'ratio'"):
            report_from_obj(obj)
