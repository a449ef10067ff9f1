"""Instance generators: determinism, bounds, fixtures, and `trisched gen`'s dispatch."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisched import binary_tree_ratio, new_instance
from trisched.cli import cli_main
from trisched.generators import FIXTURES, KINDS, fixture_instance, random_instance, ratio_bounded_instance


class TestRandomInstance:
    def test_deterministic_per_seed(self):
        a = random_instance(random.Random(9), 8, 50)
        b = random_instance(random.Random(9), 8, 50)
        assert a == b

    def test_bounds_and_count(self):
        inst = random_instance(random.Random(1), 30, 7)
        assert inst.n == 30
        assert all(1 <= p <= 7 for p in inst.sizes)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            random_instance(random.Random(0), 0, 5)
        with pytest.raises(ValueError):
            random_instance(random.Random(0), 3, 0)

    @pytest.mark.parametrize("n, max_size, name", [(True, 10, "n"), (2.0, 10, "n"), (3, True, "max_size"), (3, 10.0, "max_size")])
    def test_float_and_bool_counts_rejected(self, n, max_size, name):
        # a bool would count as 1: random_instance(rng, True, 10) drew one job
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            random_instance(random.Random(0), n, max_size)


class TestRatioBoundedInstance:
    @given(st.integers(0, 10**6), st.integers(1, 25))
    @settings(max_examples=150, deadline=None)
    def test_respects_bound_two(self, seed, n):
        inst = ratio_bounded_instance(random.Random(seed), n, 2, 100)
        assert binary_tree_ratio(inst) <= 2

    @given(st.integers(0, 10**6), st.integers(1, 20))
    @settings(max_examples=80, deadline=None)
    def test_respects_fractional_bound(self, seed, n):
        bound = Fraction(3, 2)
        inst = ratio_bounded_instance(random.Random(seed), n, bound, 60)
        assert binary_tree_ratio(inst) <= bound

    @given(
        st.integers(0, 10**6),
        st.integers(1, 30),
        st.fractions(min_value=1, max_value=5, max_denominator=12),
        st.integers(1, 200),
    )
    @settings(max_examples=150, deadline=None)
    def test_respects_any_bound(self, seed, n, bound, max_size):
        inst = ratio_bounded_instance(random.Random(seed), n, bound, max_size)
        assert inst.n == n and binary_tree_ratio(inst) <= bound

    def test_bound_one_forces_equal_sizes(self):
        inst = ratio_bounded_instance(random.Random(2), 10, 1, 50)
        assert len(set(inst.sizes)) == 1

    def test_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            ratio_bounded_instance(random.Random(0), 3, Fraction(1, 2), 50)

    @pytest.mark.parametrize("bound", [1.1, True])
    def test_float_and_bool_bounds_rejected(self, bound):
        with pytest.raises(TypeError):
            ratio_bounded_instance(random.Random(0), 5, bound, 10)

    @pytest.mark.parametrize("n, max_size, name", [(True, 10, "n"), (4.0, 10, "n"), (4, True, "max_size"), (0, 2.0, "max_size")])
    def test_float_and_bool_counts_rejected(self, n, max_size, name):
        with pytest.raises(TypeError, match=f"^{name} must be an int"):
            ratio_bounded_instance(random.Random(0), n, 2, max_size)


class TestFixtures:
    def test_known_names(self):
        assert set(FIXTURES) == {"greedy-gap-9", "greedy-gap-65-58", "staircase-4"}
        assert fixture_instance("greedy-gap-65-58").sizes == (116, 43, 29, 29, 12, 10, 7, 5, 2)
        assert fixture_instance("greedy-gap-9").sizes == (20, 20, 10, 5, 5, 4, 4, 4, 4)
        assert fixture_instance("staircase-4").sizes == (6, 5, 4, 3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            fixture_instance("nope")


def gen(capsys, *argv):
    """(exit code, generated instance or None, stderr) of `trisched gen`."""
    code = cli_main(["gen", *argv])
    out, err = capsys.readouterr()
    return code, new_instance(json.loads(out)["sizes"]) if code == 0 else None, err


class TestGenerateDispatch:
    def test_kinds_list(self):
        assert KINDS == ("random", "ratio-bounded", "reduction", "fixture")

    def test_random_kind(self, capsys):
        argv = ("--kind", "random", "--n", "6", "--seed", "11", "--max-size", "9")
        code, inst, _ = gen(capsys, *argv)
        assert code == 0 and inst == gen(capsys, *argv)[1]
        assert inst == random_instance(random.Random(11), 6, 9)

    def test_ratio_bounded_kind(self, capsys):
        code, inst, _ = gen(capsys, "--kind", "ratio-bounded", "--n", "12", "--seed", "3", "--bound", "2")
        assert code == 0 and inst.n == 12 and binary_tree_ratio(inst) <= 2

    def test_fixture_kind(self, capsys):
        assert gen(capsys, "--kind", "fixture", "--fixture", "staircase-4")[1].sizes == (6, 5, 4, 3)

    @pytest.mark.parametrize(
        "spec",   # (argv, exit code, text in stderr)
        [
            (("--kind", "random"), 1, "error: --kind random needs --n\n"),
            (("--kind", "ratio-bounded", "--n", "4"), 1, "error: --kind ratio-bounded needs --bound\n"),
            (("--kind", "fixture"), 1, "error: --kind fixture needs --fixture\n"),
            (("--kind", "reduction", "--n", "3"), 1, "error: --kind reduction needs --tdm and --M\n"),
            (("--kind", "alien", "--n", "3"), 2, "invalid choice: 'alien'"),
        ],
    )
    def test_dispatch_errors(self, capsys, spec):
        argv, code, message = spec
        exit_code, _, err = gen(capsys, *argv)
        assert exit_code == code and message in err
