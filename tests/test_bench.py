"""Ratio-search harness: evaluation, merging, reports."""

from fractions import Fraction

import pytest

from trisched import new_instance
from trisched.bench import (
    FIXTURE_RATIO,
    RatioSearchReport,
    evaluate_ratio,
    ratio_search,
    report_from_obj,
    report_to_obj,
)


class TestEvaluateRatio:
    def test_worst_known_fixture(self):
        assert evaluate_ratio(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4])) == Fraction(21, 20)
        assert FIXTURE_RATIO == Fraction(21, 20)

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

    def test_findings_all_beat_the_fixture(self):
        report = ratio_search(n=9, iterations=15, seed=7)
        for sizes, ratio in report.findings:
            assert ratio > FIXTURE_RATIO
            assert evaluate_ratio(new_instance(sizes)) == ratio

    def test_bounded_pool_skips_the_fixture(self):
        # ratio <= 2 instances are solved optimally, so the best ratio is 1
        report = ratio_search(n=8, iterations=10, seed=3, bound=Fraction(2))
        assert report.ratio == 1

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
