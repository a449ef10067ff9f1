"""Command line surface: every subcommand end to end, plus exit codes."""

import argparse
import contextlib
import copy
import functools
import gc
import io
import json
import operator
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import eager_parser, greedy_trace_from_obj, report_from_obj
from trisched import cli, greedy_schedule, new_instance, optimal_makespan
from trisched.cli import build_parser, cli_main
from trisched.serialize import read_json


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def staircase_schedule(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    schedule = tmp_path / "schedule.json"
    instance.write_text('{"sizes": [6, 5, 4, 3]}')
    code, _, _ = run(capsys, "solve", str(instance), "--algo", "greedy", "-o", str(schedule))
    assert code == 0
    return schedule


class TestGen:
    def test_random_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "random", "--n", "5", "--seed", "3", "-o", str(out)
        )
        assert code == 0
        assert len(read_json(out)["sizes"]) == 5

    def test_fixture_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "--kind", "fixture", "--fixture", "staircase-4")
        assert code == 0
        assert json.loads(out) == {"sizes": [6, 5, 4, 3]}

    def test_seed_env_default(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("TS_SEED", "77")
        run(capsys, "gen", "--kind", "random", "--n", "6", "-o", str(out1))
        run(capsys, "gen", "--kind", "random", "--n", "6", "--seed", "77", "-o", str(out2))
        assert read_json(out1) == read_json(out2)

    def test_fixture_draws_nothing_so_reads_no_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TS_SEED", "abc")
        code, out, err = run(capsys, "gen", "--kind", "fixture", "--fixture", "staircase-4")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"sizes": [6, 5, 4, 3]}

    def test_ratio_bounded(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        code, _, _ = run(
            capsys, "gen", "--kind", "ratio-bounded", "--n", "10", "--bound", "2",
            "--seed", "5", "-o", str(out),
        )
        assert code == 0

    def test_reduction_writes_labels_sidecar(self, tmp_path, capsys):
        tdm = tmp_path / "tdm.json"
        out = tmp_path / "encoded.json"
        tdm.write_text('{"D": 10, "a": [3], "b": [3], "c": [4]}')
        code, _, _ = run(
            capsys, "gen", "--kind", "reduction", "--tdm", str(tdm), "--M", "13",
            "-o", str(out),
        )
        assert code == 0
        assert sorted(read_json(out)["sizes"], reverse=True) == [154, 52, 42, 29, 27]
        labels = read_json(tmp_path / "encoded.labels.json")
        assert labels["target"] == 154

    def test_python_m_runs_the_cli(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "trisched", "gen", "--kind", "fixture", "--fixture", "staircase-4"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, '{"sizes": [6, 5, 4, 3]}\n', "")

    def test_reduction_needs_tdm(self, capsys):
        code, _, err = run(capsys, "gen", "--kind", "reduction", "--M", "13")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("flags, message", [
        (("--kind", "fixture", "--fixture", "staircase-4", "--n", "5", "--seed", "3", "--bound", "2", "--M", "4"),
         "--n needs --kind random or ratio-bounded"),
        (("--kind", "fixture", "--fixture", "staircase-4", "--seed", "3"), "--seed needs --kind random or ratio-bounded"),
        (("--kind", "reduction", "--tdm", "nothere.json", "--M", "13", "--max-size", "4"),
         "--max-size needs --kind random or ratio-bounded"),
        (("--kind", "random", "--n", "3", "--bound", "2"), "--bound needs --kind ratio-bounded"),
        (("--kind", "random", "--n", "3", "--fixture", "staircase-4", "--tdm", "nothere.json"),
         "--fixture needs --kind fixture"),
        (("--kind", "ratio-bounded", "--n", "3", "--bound", "2", "--tdm", "nothere.json"),
         "--tdm needs --kind reduction"),
        (("--kind", "random", "--n", "3", "--M", "13"), "--M needs --kind reduction"),
    ], ids=["n-fixture", "seed-fixture", "max-size-reduction", "bound-random", "fixture-random", "tdm-ratio-bounded",
            "M-random"])
    def test_flag_the_kind_never_uses(self, tmp_path, capsys, flags, message):
        out_file = tmp_path / "out.json"
        code, out, err = run(capsys, "gen", *flags, "-o", str(out_file))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()

    def test_max_size_defaults_to_100_and_zero_is_refused(self, capsys):
        argv = ("gen", "--kind", "random", "--n", "40", "--seed", "3")
        assert run(capsys, *argv) == run(capsys, *argv, "--max-size", "100")
        assert run(capsys, *argv, "--max-size", "0") == (1, "", "error: need n >= 1 and max_size >= 1\n")


class TestSolve:
    def test_lower_bound(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "lb")
        assert code == 0
        assert out == "lower bound 14\n"

    def test_greedy_with_trace_and_tree(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [20, 20, 10, 5, 5, 4, 4, 4, 4]}')
        trace = tmp_path / "trace.json"
        tree = tmp_path / "tree.dot"
        sched = tmp_path / "s.json"
        code, out, _ = run(
            capsys, "solve", str(instance), "--algo", "greedy",
            "--trace", str(trace), "--tree", str(tree), "-o", str(sched),
        )
        assert code == 0
        assert out == "makespan 42\n"
        _, expected = greedy_schedule(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4]))
        assert greedy_trace_from_obj(read_json(trace)) == expected
        assert tree.read_text().startswith("digraph greedy_tree")
        assert len(read_json(sched)["jobs"]) == 9

    def test_exact(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [20, 20, 10, 5, 5, 4, 4, 4, 4]}')
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "exact")
        assert code == 0
        assert out == "makespan 40\n"

    def test_exact_respects_limit(self, tmp_path, capsys):
        # greedy's 130 on the nine jobs of greedy-gap-65-58 is above every
        # class-end bound, so they need a search, which spends 2957 units
        # of work: --limit 2956 refuses it
        instance = tmp_path / "i.json"
        assert run(capsys, "gen", "--kind", "fixture", "--fixture", "greedy-gap-65-58", "-o", str(instance))[0] == 0
        code, _, err = run(capsys, "solve", str(instance), "--algo", "exact", "--limit", "2956")
        assert (code, err) == (1, "error: search refused past its work budget of 2956 units\n")
        assert run(capsys, "solve", str(instance), "--algo", "exact", "--limit", "2957") == (0, "makespan 116\n", "")

    def test_exact_refuses_a_negative_limit(self, tmp_path, capsys):
        # it was a job cap: -5 refused every search and let settled instances through
        instance = tmp_path / "i.json"
        for sizes in ([116, 43, 29, 29, 12, 10, 7, 5, 2], [1] * 13):
            instance.write_text(json.dumps({"sizes": sizes}))
            code, out, err = run(capsys, "solve", str(instance), "--algo", "exact", "--limit", "-5")
            assert (code, out, err) == (1, "", "error: limit must be non-negative, got -5\n")

    def test_exact_limit_defaults_to_the_work_budget(self, tmp_path, capsys):
        # greedy-gap-65-58 with four jobs of size 1, and with every size
        # taken twice, still need a search, which the default budget lets
        # answer past 12 jobs
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [116, 43, 29, 29, 12, 10, 7, 5, 2, 1, 1, 1, 1]}))
        assert run(capsys, "solve", str(instance), "--algo", "exact") == (0, "makespan 116\n", "")
        instance.write_text(json.dumps({"sizes": [116, 43, 29, 29, 12, 10, 7, 5, 2] * 2}))
        assert run(capsys, "solve", str(instance), "--algo", "greedy") == (0, "makespan 260\n", "")
        assert run(capsys, "solve", str(instance), "--algo", "exact") == (0, "makespan 232\n", "")

    def test_exact_past_the_cap_when_greedy_meets_the_bound(self, tmp_path, capsys):
        # equal sizes: greedy's makespan is the bound, so no limit applies
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [1] * 13}))
        assert run(capsys, "solve", str(instance), "--algo", "exact") == (0, "makespan 13\n", "")
        assert run(capsys, "solve", str(instance), "--algo", "exact", "--limit", "1") == (0, "makespan 13\n", "")

    def test_exact_at_ten_thousand_jobs(self, tmp_path, capsys):
        # seed 0 is settled by the bound, in about 0.1 s on a 2-vCPU VM,
        # whatever the limit; seed 2 is not, and a limit of 10^5 units
        # refuses its search with one line
        for seed, settled in ((0, True), (2, False)):
            instance = tmp_path / f"r{seed}.json"
            gen = ("gen", "--kind", "random", "--n", "10000", "--max-size", "1000000", "--seed", str(seed))
            assert run(capsys, *gen, "-o", str(instance))[0] == 0
            _, greedy, _ = run(capsys, "solve", str(instance), "--algo", "greedy")
            began = time.perf_counter()
            code, out, err = run(capsys, "solve", str(instance), "--algo", "exact", "--limit", "100000")
            elapsed = time.perf_counter() - began
            if settled:
                assert (code, out, err) == (0, greedy, "")
                assert elapsed < 1.5, f"{elapsed:.2f} s"
            else:
                assert (code, out) == (1, "")
                assert err == "error: search refused past its work budget of 100000 units\n"

    def test_qptas_prints_stats(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "makespan 14"
        assert lines[1] == "classes 3"
        assert lines[2] == "grid-points 33"
        assert lines[3] == "dp-states 33"

    def test_qptas_on_the_readme_fixture(self, tmp_path, capsys):
        # the README's CLI tour prints these four lines
        instance = tmp_path / "inst.json"
        assert run(capsys, "gen", "--kind", "fixture", "--fixture", "greedy-gap-9", "-o", str(instance))[0] == 0
        code, out, err = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert (code, err) == (0, "")
        assert out == "makespan 42\nclasses 4\ngrid-points 163\ndp-states 335\n"

    def test_qptas_at_a_fine_eps(self, tmp_path, capsys):
        # the grid schedule's makespan had a numerator past CPython's
        # 4300-digit limit for printing an int; the shifted one is an int
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [1, 50, 37, 12, 3]}')
        code, out, err = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/1000")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "makespan 74"

    def test_qptas_on_a_long_chain_of_equal_sizes(self, tmp_path, capsys):
        # one search node per placed job, far deeper than the recursion limit
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [7] * 1200}))
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert code == 0
        assert out.splitlines()[1:] == ["classes 1", "grid-points 2880001", "dp-states 1201"]

    def test_qptas_where_the_stacked_jobs_pass_n_squared_over_eps(self, tmp_path, capsys):
        # 7 equal sizes at eps = 3 stack up to grid index 6*ceil(7/3) = 18,
        # past ceil(49/3) = 17
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [7] * 7}))
        code, out, err = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[2] == "grid-points 19"
        optimum, _ = optimal_makespan(new_instance([7] * 7))
        assert Fraction(out.splitlines()[0].split()[1]) <= (1 + 3) ** 3 * optimum

    def test_qptas_past_the_state_budget(self, tmp_path, capsys, monkeypatch):
        # the README fixture's 335 search nodes spend 4479 units of work,
        # so the exact oracle's budget lowered to 4478 refuses them
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", 4478)
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [20, 20, 10, 5, 5, 4, 4, 4, 4]}))
        code, out, err = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert (code, out) == (1, "")
        assert err == "error: search refused past its work budget of 4478 units\n"
        monkeypatch.setattr("trisched.exact.WORK_BUDGET", 4479)
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert (code, out.splitlines()[-1]) == (0, "dp-states 335")

    def test_qptas_needs_eps(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, _, err = run(capsys, "solve", str(instance), "--algo", "qptas")
        assert code == 1
        assert "eps" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "no-such-file.json", "--algo", "greedy")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("flags, message", [
        (("--algo", "qptas", "--eps", "1/2", "--tree", "OUT"), "--tree needs --algo greedy"),
        (("--algo", "exact", "--trace", "OUT"), "--trace needs --algo greedy"),
        (("--algo", "lb", "-o", "OUT"), "-o needs --algo greedy, exact or qptas"),
        (("--algo", "greedy", "--eps", "1/2"), "--eps needs --algo qptas"),
        (("--algo", "exact", "--eps", "1/2", "-o", "OUT"), "--eps needs --algo qptas"),
        (("--algo", "greedy", "--limit", "1", "-o", "OUT"), "--limit needs --algo exact"),
        (("--algo", "qptas", "--eps", "1/2", "--limit", "12", "-o", "OUT"), "--limit needs --algo exact"),
        (("--algo", "lb", "--limit", "1"), "--limit needs --algo exact"),
    ], ids=["tree-qptas", "trace-exact", "output-lb", "eps-greedy", "eps-exact",
            "limit-greedy", "limit-qptas", "limit-lb"])
    def test_flag_the_algorithm_never_uses(self, tmp_path, capsys, flags, message):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        out_file = tmp_path / "out"
        argv = [str(out_file) if flag == "OUT" else flag for flag in flags]
        code, out, err = run(capsys, "solve", str(instance), *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_file.exists()

    @pytest.mark.parametrize("sizes", [[20, 20, 10, 5, 5, 4, 4, 4, 4], [9] * 300,
                                       [(k * 7919) % 1000 + 1 for k in range(1500)]],
                             ids=["fixture", "equal", "many-blocks"])
    def test_greedy_schedule_file_does_not_depend_on_the_trace(self, tmp_path, capsys, sizes):
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": sizes}))
        plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
        first = run(capsys, "solve", str(instance), "--algo", "greedy", "-o", str(plain))
        second = run(capsys, "solve", str(instance), "--algo", "greedy", "--trace", str(tmp_path / "t.json"),
                     "--tree", str(tmp_path / "t.dot"), "-o", str(traced))
        assert first == second and first[0] == 0
        assert plain.read_bytes() == traced.read_bytes()


class TestModeTable:
    @pytest.mark.parametrize("command", ["gen", "solve"])
    def test_every_optional_flag_is_in_the_table(self, command):
        # a flag the table leaves out would be read silently by every mode;
        # one that every mode reads (gen -o) is listed with all of them
        parser = build_parser([command])
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
        selector, needs, reads = cli._MODES[command]
        optional = {a.dest for a in sub._actions if a.option_strings and a.dest not in ("help", selector)}
        assert optional == set(reads)
        for mode, flags in needs.items():
            assert all(mode in reads[flag] for flag in flags)

    @pytest.mark.parametrize("argv, message", [
        (("gen", "--kind", "reduction", "--M", "13"), "--kind reduction needs --tdm"),
        (("gen", "--kind", "reduction", "--tdm", "t.json"), "--kind reduction needs --M"),
        (("gen", "--kind", "ratio-bounded"), "--kind ratio-bounded needs --n and --bound"),
        (("gen", "--kind", "ratio-bounded", "--bound", "2", "--M", "4"), "--kind ratio-bounded needs --n"),
        (("solve", "INSTANCE", "--algo", "qptas", "--trace", "t"), "--algo qptas needs --eps"),
    ], ids=["reduction-M", "reduction-tdm", "ratio-bounded-neither", "ratio-bounded-bound", "qptas-trace"])
    def test_missing_flags_come_first_and_alone(self, tmp_path, capsys, argv, message):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, out, err = run(capsys, *[str(instance) if arg == "INSTANCE" else arg for arg in argv])
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestCheck:
    def test_feasible(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"jobs": [
            {"size": 6, "start": 0}, {"size": 4, "start": 4},
            {"size": 3, "start": 7}, {"size": 5, "start": 10},
        ]}))
        code, out, _ = run(capsys, "check", str(sched))
        assert code == 0
        assert out == "feasible makespan 15\n"

    def test_infeasible_lists_pairs(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text(json.dumps({"jobs": [
            {"size": 6, "start": 0}, {"size": 4, "start": 3},
        ]}))
        code, out, _ = run(capsys, "check", str(sched))
        assert code == 1
        assert out.splitlines()[0] == "infeasible"
        assert "jobs 0 and 1" in out

    def test_empty_schedule(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": []}')
        code, out, err = run(capsys, "check", str(sched))
        assert (code, out, err) == (1, "", f"error: {sched}: schedule has no jobs\n")


class TestSimulate:
    def test_with_demand_file(self, staircase_schedule, tmp_path, capsys):
        demands = tmp_path / "d.json"
        trace = tmp_path / "t.json"
        demands.write_text('{"demands": [6, 1, 4, 1]}')
        code, out, _ = run(
            capsys, "simulate", "--schedule", str(staircase_schedule),
            "--demands", str(demands), "-o", str(trace),
        )
        assert code == 0
        assert out == "completion 12\n"
        assert len(read_json(trace)["records"]) == 4

    def test_demand_file_draws_nothing_so_reads_no_seed_env(self, staircase_schedule, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TS_SEED", "abc")
        demands = tmp_path / "d.json"
        demands.write_text('{"demands": [6, 1, 4, 1]}')
        code, out, err = run(capsys, "simulate", "--schedule", str(staircase_schedule), "--demands", str(demands))
        assert (code, out, err) == (0, "completion 12\n", "")

    def test_random_demands_deterministic(self, staircase_schedule, capsys):
        _, out1, _ = run(
            capsys, "simulate", "--schedule", str(staircase_schedule), "--random",
            "--seed", "5",
        )
        _, out2, _ = run(
            capsys, "simulate", "--schedule", str(staircase_schedule), "--random",
            "--seed", "5",
        )
        assert out1 == out2
        assert out1.startswith("completion ")

    def test_bad_demand_count(self, staircase_schedule, tmp_path, capsys):
        demands = tmp_path / "d.json"
        demands.write_text('{"demands": [1]}')
        code, _, err = run(
            capsys, "simulate", "--schedule", str(staircase_schedule),
            "--demands", str(demands),
        )
        assert code == 1
        assert "error:" in err

    def test_seed_needs_random(self, staircase_schedule, tmp_path, capsys):
        demands = tmp_path / "d.json"
        demands.write_text('{"demands": [6, 1, 4, 1]}')
        code, out, err = run(capsys, "simulate", "--schedule", str(staircase_schedule), "--demands", str(demands),
                             "--seed", "5")
        assert (code, out, err) == (1, "", "error: --seed needs --random\n")

    @pytest.mark.parametrize("source", ["--random", "--demands"])
    def test_empty_schedule(self, tmp_path, capsys, source):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": []}')
        demands = tmp_path / "d.json"
        demands.write_text('{"demands": []}')
        argv = ["--random"] if source == "--random" else ["--demands", str(demands)]
        code, out, err = run(capsys, "simulate", "--schedule", str(sched), *argv)
        assert (code, out, err) == (1, "", f"error: {sched}: schedule has no jobs\n")

    def test_random_needs_integer_sizes(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": [{"size": "7/2", "start": 0}]}')
        code, _, err = run(capsys, "simulate", "--schedule", str(sched), "--random")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--demands" in err


class TestRender:
    @pytest.mark.parametrize("fmt", ["svg", "ascii"])
    def test_empty_schedule(self, tmp_path, capsys, fmt):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": []}')
        code, out, err = run(capsys, "render", "--schedule", str(sched), "--format", fmt)
        assert (code, out, err) == (1, "", f"error: {sched}: schedule has no jobs\n")

    @pytest.mark.parametrize("fmt", ["svg", "ascii"])
    def test_empty_trace(self, tmp_path, capsys, fmt):
        trace = tmp_path / "t.json"
        trace.write_text('{"completion": 0, "records": []}')
        code, out, err = run(capsys, "render", "--trace", str(trace), "--format", fmt)
        assert (code, out, err) == (1, "", f"error: {trace}: not a trace simulate writes: schedule has no jobs\n")

    def test_ascii_schedule(self, staircase_schedule, capsys):
        code, out, _ = run(
            capsys, "render", "--schedule", str(staircase_schedule), "--format", "ascii"
        )
        assert code == 0
        assert "p=6 s=0" in out

    def test_svg_to_file(self, staircase_schedule, tmp_path, capsys):
        art = tmp_path / "out.svg"
        code, _, _ = run(
            capsys, "render", "--schedule", str(staircase_schedule), "-o", str(art)
        )
        assert code == 0
        assert art.read_text().startswith("<svg")

    def test_trace_render(self, staircase_schedule, tmp_path, capsys):
        trace = tmp_path / "t.json"
        run(
            capsys, "simulate", "--schedule", str(staircase_schedule), "--random",
            "--seed", "1", "-o", str(trace),
        )
        code, out, _ = run(capsys, "render", "--trace", str(trace), "--format", "ascii")
        assert code == 0
        assert "run [" in out

    def test_ascii_past_the_column_cap_is_refused(self, tmp_path, capsys):
        # drawn in full, this start alone would be a 10 MB row
        sched = tmp_path / "far.json"
        sched.write_text('{"jobs": [{"size": 3, "start": 10000000}]}')
        art = tmp_path / "far.txt"
        began = time.perf_counter()
        code, _, err = run(capsys, "render", "--schedule", str(sched), "--format", "ascii", "-o", str(art))
        assert time.perf_counter() - began < 1
        assert code == 1 and not art.exists()
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--scale 1/1001 or --format svg" in err
        code, _, _ = run(capsys, "render", "--schedule", str(sched), "--format", "ascii", "--scale", "1/1001",
                         "-o", str(art))
        assert code == 0 and max(map(len, art.read_text().splitlines())) < 10_100


class TestBench:
    def test_ratio_search_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "bench", "ratio-search", "--n", "4", "--iterations", "3",
            "--seed", "0", "-o", str(report),
        )
        assert code == 0
        assert out.startswith("ratio ")
        assert report_from_obj(read_json(report)).iterations == 3   # the reader recomputes the ratio

    def test_findings_written(self, tmp_path, capsys):
        # seed 4 draws (50, 17, 14, 12, 7), where greedy pays 55/52 of the optimum
        findings = tmp_path / "findings.json"
        code, out, _ = run(
            capsys, "bench", "ratio-search", "--n", "5", "--iterations", "10",
            "--seed", "4", "--findings", str(findings),
        )
        assert (code, out) == (0, "ratio 55/52 witness (50, 17, 14, 12, 7)\n")
        assert read_json(findings) == {"findings": [{"sizes": [50, 17, 14, 12, 7], "ratio": "55/52"}]}

    @pytest.mark.parametrize("stale", [False, True], ids=["absent", "stale"])
    def test_findings_written_when_there_are_none(self, tmp_path, capsys, stale):
        # seed 0 at n = 4 finds nothing past 21/20; the file still says so,
        # and a file left by an earlier run does not survive
        findings = tmp_path / "findings.json"
        if stale:
            findings.write_text('{"findings": [{"sizes": [1], "ratio": "2"}]}')
        code, _, err = run(
            capsys, "bench", "ratio-search", "--n", "4", "--iterations", "3",
            "--seed", "0", "--findings", str(findings),
        )
        assert (code, err) == (0, "")
        assert findings.read_text() == '{"findings": []}\n'


# BAD stands for the malformed file, SCHEDULE for a valid schedule file.
SOLVE = ("solve", "BAD", "--algo", "greedy")
SIMULATE = ("simulate", "--schedule", "SCHEDULE", "--demands", "BAD")
RENDER = ("render", "--trace", "BAD")
RENDER_SCHEDULE = ("render", "--schedule", "BAD")
DEEP = 10**5
GEN = ("gen", "--kind", "reduction", "--M", "13", "--tdm", "BAD")


def case(argv, text, id, env=None):
    """A malformed-input case; `env` sets environment variables for it."""
    return pytest.param(argv, text, env or {}, id=id)


MALFORMED = [
    case(SOLVE, '{"sizes": [3, "x"]}', id="solve-bad-size"),
    case(SOLVE, "[6, 5]", id="solve-not-object"),
    case(SOLVE, '{"sizes": ' + "[" * DEEP + "]" * DEEP + "}", id="solve-nested-too-deeply"),
    case(("check", "BAD"), '{"jobs": [{"size": 6}]}', id="check-no-start"),
    case(("check", "BAD"), '{"jobs": [[6, 0]]}', id="check-job-not-object"),
    case(SIMULATE, '{"demands": {"0": 1}}', id="demands-not-array"),
    case(SIMULATE, '{"demands": [1, 1, 1, 0.5]}', id="demands-float"),
    case(
        RENDER,
        '{"records": [{"status": "executed", "size": 6, "start": 0, "end": 6}], "completion": 6}',
        id="render-no-job",
    ),
    case(RENDER, '{"records": [{"job": 0, "status": "executed"}]}', id="render-no-size"),
    case(RENDER, '{"records": []', id="render-bad-json"),
    # starts past a float, and an ASCII row far past the column cap
    case(RENDER_SCHEDULE, f'{{"jobs": [{{"size": 3, "start": {10**400}}}]}}', id="render-svg-start-past-float"),
    case(RENDER_SCHEDULE + ("--format", "ascii"), f'{{"jobs": [{{"size": 3, "start": {10**400}}}]}}',
         id="render-ascii-start-past-float"),
    case(RENDER_SCHEDULE + ("--format", "ascii"), f'{{"jobs": [{{"size": 3, "start": {10**300}}}]}}',
         id="render-ascii-start-past-index"),
    # past CPython's 4300-digit limit for converting between text and int
    case(("check", "BAD"), '{"jobs": [{"size": 3, "start": "%s/2"}]}' % ("9" * 5000), id="check-rational-past-digit-limit"),
    case(("check", "BAD"), '{"jobs": [{"size": 3, "start": %s}]}' % ("9" * 5000), id="check-int-past-digit-limit"),
    # int() reads "1_0" as 10 and the Arabic-Indic "\u0661\u0662" as 12
    case(("check", "BAD"), '{"jobs": [{"size": 3, "start": "1_0/2"}, {"size": 2, "start": "\u0661\u0662"}]}',
         id="check-lax-rational-spellings"),
    case(GEN, '{"D": 10, "a": ["7/2"], "b": [3], "c": [4]}', id="tdm-fraction"),
    case(GEN, '{"D": 10, "a": 3, "b": [3], "c": [4]}', id="tdm-column-not-array"),
    case(("gen", "--kind", "random", "--n", "3"), "", id="seed-env-not-integer", env={"TS_SEED": "abc"}),
    case(("gen", "--kind", "ratio-bounded", "--n", "3", "--bound", "2"), "", id="seed-env-not-integer-ratio-bounded",
         env={"TS_SEED": "abc"}),
    case(("gen", "--kind", "ratio-bounded", "--n", "0", "--bound", "2", "--seed", "1"), "", id="ratio-bounded-no-jobs"),
    case(("simulate", "--schedule", "SCHEDULE", "--random"), "", id="seed-env-not-integer-simulate", env={"TS_SEED": "abc"}),
    case(("bench", "ratio-search", "--n", "3", "--iterations", "1"), "", id="seed-env-not-integer-bench",
         env={"TS_SEED": "abc"}),
    case(("bench", "ratio-search", "--n", "3", "--iterations", "0", "--bound", "2"), "", id="bounded-search-no-iterations"),
    case(("bench", "ratio-search", "--n", "3", "--iterations", "-1"), "", id="search-negative-iterations"),
]


@pytest.mark.parametrize("argv, text, env", MALFORMED)
def test_malformed_file_is_one_error_line(staircase_schedule, tmp_path, capsys, monkeypatch, argv, text, env):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"BAD": str(bad), "SCHEDULE": str(staircase_schedule)}
    code, _, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) - 1 <= 200, err



# CPython's limit on converting between text and int, as `cli_main` raises it
# for a command
def cap():
    return sys.get_int_max_str_digits() + 20


@pytest.mark.parametrize("start", ['"%s/2"' % ("9" * 5000), "9" * 5000, '"2/%s"' % ("9" * 5000)],
                         ids=["numerator", "bare-int", "denominator"])
def test_number_past_the_digit_limit_names_the_file(tmp_path, capsys, start):
    bad = tmp_path / "bad.json"
    bad.write_text('{"jobs": [{"size": 3, "start": %s}]}' % start)
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: number {start[:24]}... has more than {cap()} digits\n"


def test_number_past_the_digit_limit_is_found_in_linear_time(tmp_path, capsys):
    """The search for the long number starts only where a run of digits
    starts: one that started inside every run took 2.5 s on this file on a
    2-vCPU Xeon VM."""
    limit = cap()
    bad = tmp_path / "bad.json"
    bad.write_text('{"sizes": [%s]}' % ", ".join(["9" * limit] * 40 + ["9" * (limit + 1)]))
    began = time.perf_counter()
    code, out, err = run(capsys, "solve", str(bad), "--algo", "lb")
    assert time.perf_counter() - began < 0.5
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: number {'9' * 24}... has more than {limit} digits\n"


@pytest.mark.parametrize("algo", [("greedy",), ("exact",), ("qptas", "--eps", "1/2"), ("lb",)], ids=operator.itemgetter(0))
def test_results_past_the_digit_limit_print_and_write(tmp_path, capsys, algo):
    """Two sizes at the digit limit load, and their makespan, one digit
    longer, prints and is written; `check` and `simulate` read the schedule
    back.  The process keeps its limit."""
    limit = sys.get_int_max_str_digits()
    size = 10 ** limit - 1
    instance, schedule = tmp_path / "big.json", tmp_path / "schedule.json"
    instance.write_text('{"sizes": [%d, %d]}' % (size, size))
    output = () if algo == ("lb",) else ("-o", str(schedule))
    code, out, err = run(capsys, "solve", str(instance), "--algo", *algo, *output)
    assert sys.get_int_max_str_digits() == limit
    assert (code, err) == (0, "")
    two = "1" + "9" * (limit - 1) + "8"   # 2 * size
    assert out.splitlines()[0] == ("lower bound " if algo == ("lb",) else "makespan ") + two
    if output:
        assert run(capsys, "check", str(schedule)) == (0, f"feasible makespan {two}\n", "")
        code, out, err = run(capsys, "simulate", "--schedule", str(schedule), "--random")
        assert (code, err) == (0, "") and out.startswith("completion ")
        assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("algo", [("greedy",), ("exact",), ("qptas", "--eps", "1/2")], ids=operator.itemgetter(0))
def test_files_written_from_inputs_at_the_limit_read_back(tmp_path, capsys, algo):
    """Four sizes at the digit limit: the schedule's starts pass the limit,
    and `check` reads the file back."""
    instance, schedule = tmp_path / "big.json", tmp_path / "schedule.json"
    instance.write_text('{"sizes": [%s]}' % ", ".join(["9" * sys.get_int_max_str_digits()] * 4))
    code, out, err = run(capsys, "solve", str(instance), "--algo", *algo, "-o", str(schedule))
    assert (code, err) == (0, "")
    makespan = out.splitlines()[0].removeprefix("makespan ")
    assert max(map(len, re.findall("[0-9]+", schedule.read_text()))) > sys.get_int_max_str_digits()
    assert run(capsys, "check", str(schedule)) == (0, f"feasible makespan {makespan}\n", "")


def test_execution_trace_past_the_limit_loads(tmp_path, capsys):
    """Two sizes at the digit limit: the trace's completion passes the limit,
    and `render --trace` loads it and stops where it draws."""
    limit = sys.get_int_max_str_digits()
    instance, schedule, trace = tmp_path / "big.json", tmp_path / "schedule.json", tmp_path / "trace.json"
    instance.write_text('{"sizes": [%s, %s]}' % ("9" * limit, "9" * limit))
    assert run(capsys, "solve", str(instance), "--algo", "greedy", "-o", str(schedule))[0] == 0
    assert run(capsys, "simulate", "--schedule", str(schedule), "--random", "-o", str(trace))[0] == 0
    assert run(capsys, "render", "--trace", str(trace)) == (1, "", "error: a coordinate is too large to draw\n")


@pytest.mark.parametrize("algo", [("greedy",), ("lb",)], ids=operator.itemgetter(0))
def test_result_past_the_cap_is_one_error_line(tmp_path, capsys, algo):
    """Two sizes at the cap: their sum is one digit past it, and the call
    ends in CPython's one line without writing the -o file."""
    limit = cap()
    instance, schedule = tmp_path / "big.json", tmp_path / "schedule.json"
    instance.write_text('{"sizes": [%s, %s]}' % ("9" * limit, "9" * limit))
    output = () if algo == ("lb",) else ("-o", str(schedule))
    code, out, err = run(capsys, "solve", str(instance), "--algo", *algo, *output)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: Exceeds the limit ({limit} digits)") and err.count("\n") == 1
    assert not schedule.exists()


# A trace no run of `simulate` writes: job 2 starts after job 1 has ended, yet
# says job 0 canceled it, and the completion is 99.
IMPOSSIBLE_TRACE = {"completion": 99, "records": [
    {"job": 0, "size": 6, "start": 0, "status": "executed", "end": 3},
    {"job": 1, "size": 4, "start": 6, "status": "executed", "end": 8},
    {"job": 2, "size": 2, "start": 9, "status": "canceled", "canceled_by": 0},
]}


def test_impossible_trace_is_refused(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(IMPOSSIBLE_TRACE))
    code, out, err = run(capsys, "render", "--trace", str(bad), "--format", "ascii")
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not a trace simulate writes: its record 2 differs\n"


def test_coincident_jobs_end_in_one_conflict(tmp_path, capsys):
    """2000 jobs at one start violate every pair: `check` names the first
    pair and `simulate` refuses in one line, each within a second."""
    sched = tmp_path / "s.json"
    sched.write_text(json.dumps({"jobs": [{"size": 5, "start": 0}] * 2000}))
    t0 = time.perf_counter()
    checked = run(capsys, "check", str(sched))
    t1 = time.perf_counter()
    code, out, err = run(capsys, "simulate", "--schedule", str(sched), "--random")
    t2 = time.perf_counter()
    assert checked == (1, "infeasible\n  jobs 0 and 1: |0 - 0| < min(5, 5)\n", "")
    assert (code, out, err) == (1, "", "error: schedule is infeasible: jobs 0 and 1: |0 - 0| < min(5, 5)\n")
    assert t1 - t0 < 1.0, f"check took {t1 - t0:.2f}s"
    assert t2 - t1 < 1.0, f"simulate took {t2 - t1:.2f}s"


@pytest.mark.parametrize("argv, text, message", [
    (SOLVE, '{"sizes": [3, 4}', "Expecting ',' delimiter"),
    (("check", "BAD"), '{"schedule": []}', "schedule JSON has no 'jobs' field"),
    (SIMULATE, '{"demands": [1, "١"]}', "bad rational literal"),
    (GEN, '{"D": 10, "a": [3], "b": [3]}', "3DM JSON has no 'c' field"),
    (RENDER, '{"records": []}', "execution trace JSON has no 'completion' field"),
    (SOLVE, '{"sizes": ' + "[" * DEEP + "]" * DEEP + "}", "JSON nested too deeply to load"),
], ids=["instance", "schedule", "demands", "3dm", "trace", "nesting"])
def test_load_error_names_the_file(staircase_schedule, tmp_path, capsys, argv, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    paths = {"BAD": str(bad), "SCHEDULE": str(staircase_schedule)}
    code, out, err = run(capsys, *(paths.get(arg, arg) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_algo_is_usage_error(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [3]}')
        assert run(capsys, "solve", str(instance), "--algo", "magic")[0] == 2

    def test_domain_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sizes": [0]}')
        assert run(capsys, "solve", str(bad), "--algo", "greedy")[0] == 1


class TestOutputFiles:
    """Output files are rewritten in place and cut to length only when they
    held more bytes; what cannot be cut must never be asked to be."""

    def test_schedule_over_its_own_trace_leaves_the_schedule(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [20, 20, 10, 5, 5, 4, 4, 4, 4]}')
        alone, shared = tmp_path / "alone.json", tmp_path / "shared.json"
        assert run(capsys, "solve", str(instance), "--algo", "greedy", "-o", str(alone))[0] == 0
        code, _, err = run(
            capsys, "solve", str(instance), "--algo", "greedy", "--trace", str(shared), "-o", str(shared),
        )
        assert (code, err) == (0, "")
        assert shared.read_bytes() == alone.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_dev_null(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, _, err = run(capsys, "solve", str(instance), "--algo", "greedy", "--trace", "/dev/null", "-o", "/dev/null")
        assert (code, err) == (0, "")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_fifo_reader_gets_the_bytes(self, tmp_path, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()))
        reader.start()
        try:
            code, _, err = run(capsys, "gen", "--kind", "fixture", "--fixture", "staircase-4", "-o", str(fifo))
        finally:
            # a writer that never came leaves the reader blocked in open
            with contextlib.suppress(OSError):
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert (code, err) == (0, "")
        assert received == [b'{"sizes": [6, 5, 4, 3]}\n']

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("target", ["/dev/stdout", "OUT"], ids=["dev-stdout", "redirected-file"])
    def test_output_that_is_stdout_follows_the_printed_line(self, tmp_path, capsys, target):
        """An -o file that is stdout's own, with stdout sent to a file, is
        written through stdout: a second open of it would write at offset 0
        over the makespan line."""
        instance, plain, out = tmp_path / "ratio.json", tmp_path / "plain.json", tmp_path / "out.txt"
        instance.write_text('{"sizes": [116, 43, 29, 29, 12, 10, 7, 5, 2]}')
        assert run(capsys, "solve", str(instance), "--algo", "greedy", "-o", str(plain))[0] == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        output = str(out) if target == "OUT" else target
        with open(out, "wb") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "trisched", "solve", str(instance), "--algo", "greedy", "-o", output],
                stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert (result.returncode, result.stderr) == (0, b"")
        assert out.read_bytes() == b"makespan 130\n" + plain.read_bytes()

    def test_directory_is_one_error_line(self, tmp_path, capsys):
        code, out, err = run(capsys, "gen", "--kind", "fixture", "--fixture", "staircase-4", "-o", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and str(tmp_path) in err and err.count("\n") == 1

    def test_reduction_to_stdout_is_refused_before_it_writes(self, tmp_path):
        """gen --kind reduction writes its labels beside the -o file, so an
        -o that is stdout's own (here the file of a `>` redirection) is
        refused before the instance is printed or a labels file made."""
        (tmp_path / "tdm.json").write_text('{"D": 10, "a": [3], "b": [3], "c": [4]}')
        out = tmp_path / "out.json"
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        with open(out, "wb") as stdout:
            result = subprocess.run(
                [sys.executable, "-m", "trisched", "gen", "--kind", "reduction", "--tdm", "tdm.json", "--M", "13",
                 "-o", "out.json"],
                cwd=tmp_path, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert (result.returncode, out.read_bytes()) == (1, b"")
        assert result.stderr == REDUCTION_OUTPUT_REFUSED.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "tdm.json"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
    def test_reduction_to_a_fifo_is_refused_before_it_writes(self, tmp_path, capsys):
        """An -o that exists and is no regular file (a FIFO here, standing
        for /dev/stderr or a terminal) is refused too, before anything goes
        into it or a labels file is made beside it."""
        (tmp_path / "tdm.json").write_text('{"D": 10, "a": [3], "b": [3], "c": [4]}')
        fifo = tmp_path / "out.json"
        os.mkfifo(fifo)
        # an open reader lets a faulty write go through instead of blocking
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, out, err = run(capsys, "gen", "--kind", "reduction", "--tdm", str(tmp_path / "tdm.json"),
                                 "--M", "13", "-o", str(fifo))
            assert os.read(reader, 1 << 16) == b""
        finally:
            os.close(reader)
        assert (code, out, err) == (1, "", REDUCTION_OUTPUT_REFUSED)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "tdm.json"]


REDUCTION_OUTPUT_REFUSED = (
    "error: --kind reduction writes its labels beside the -o file, so -o must be a regular file other than stdout\n")


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off, and its state put back."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class TestCollector:
    """A command runs with the cyclic collector paused; the caller's state
    comes back on every exit."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("argv, code", [
        (("gen", "--kind", "fixture", "--fixture", "staircase-4"), 0),
        (("gen", "--kind", "reduction", "--M", "13"), 1),
        (("gen", "--kind", "nothing"), 2),
        (("--help",), 0),
    ], ids=["success", "domain-error", "usage-error", "help"])
    def test_state_comes_back(self, capsys, argv, code, enabled):
        with collector(enabled):
            assert run(capsys, *argv)[0] == code
            assert gc.isenabled() is enabled

    def test_paused_while_the_command_runs(self, capsys, monkeypatch, staircase_schedule):
        seen = []
        real = cli.check_feasible

        def check(schedule):
            seen.append(gc.isenabled())
            return real(schedule)

        monkeypatch.setattr(cli, "check_feasible", check)
        with collector(True):
            assert run(capsys, "check", str(staircase_schedule))[0] == 0
            assert (seen, gc.isenabled()) == ([False], True)

    def test_state_comes_back_past_an_unexpected_exception(self, capsys, monkeypatch, staircase_schedule):
        def broken(schedule):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "check_feasible", broken)
        with collector(True):
            with pytest.raises(RuntimeError, match="boom"):
                cli_main(["check", str(staircase_schedule)])
            assert gc.isenabled()


HELP_ARGV = [(), ("gen",), ("solve",), ("check",), ("simulate",), ("render",), ("bench",), ("bench", "ratio-search")]
# argparse never splits a word or a usage group ([--n N], (a | b)); the
# options with choices show a short metavar, so no line lists {choices} and
# only a line holding one word or one such group may pass the width
GROUP = re.compile(r"[\[(][^\][(){}]*[\])]")


class TestHelp:
    def test_build_parser_asks_the_terminal_size_once(self, monkeypatch):
        calls = []
        real = shutil.get_terminal_size

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        build_parser(["bench", "ratio-search"])   # the nested parser shares the one width
        assert len(calls) == 1

    def test_help_wraps_at_the_columns_of_each_call(self, capsys, monkeypatch):
        helps = {}
        for columns in (40, 120):
            monkeypatch.setenv("COLUMNS", str(columns))
            for argv in HELP_ARGV:
                code, out, _ = run(capsys, *argv, "--help")
                assert code == 0
                for line in out.splitlines():
                    assert len(line) <= columns - 2 or len(line.split()) == 1 or GROUP.fullmatch(line.strip()), \
                        (columns, argv, line)
                helps[columns, argv] = out
        for argv in HELP_ARGV:
            assert helps[40, argv] != helps[120, argv], argv


# Usage errors and help of every subcommand; none of them reads a file.
PARSER_ARGV = [
    *([*argv, "--help"] for argv in HELP_ARGV),
    ["-h", "solve"], ["-x", "check", "a"], ["--bogus"], ["frobnicate"], [""], ["--", "check"], [],
    ["gen"], ["solve", "i.json"], ["solve", "--algo", "lb"], ["check"], ["simulate", "--random"],
    ["simulate", "--schedule", "s.json"], ["render"], ["bench"], ["bench", "ratio"],
    ["gen", "--kind", "x"], ["gen", "--kind", "fixture", "--fixture", "x"], ["solve", "i.json", "--algo", "magic"],
    ["render", "--schedule", "s.json", "--format", "png"],
    ["gen", "--kind", "random", "--n", "x"], ["gen", "--kind", "random", "--seed", "x"],
    ["gen", "--kind", "random", "--max-size", "1.5"], ["gen", "--kind", "random", "--bound", "1/0"],
    ["gen", "--kind", "reduction", "--M", "x"], ["solve", "i.json", "--algo", "qptas", "--eps", "x"],
    ["solve", "i.json", "--algo", "exact", "--limit", "x"], ["simulate", "--schedule", "s", "--random", "--seed", "x"],
    ["render", "--schedule", "s.json", "--scale", "x"], ["bench", "ratio-search", "--n", "x"],
    ["bench", "ratio-search", "--iterations", "x"], ["bench", "ratio-search", "--seed", "x"],
    ["bench", "ratio-search", "--max-size", "x"], ["bench", "ratio-search", "--bound", "x"],
    ["simulate", "--schedule", "s", "--random", "--demands", "d"], ["render", "--schedule", "s", "--trace", "t"],
    ["check", "a", "b"], ["solve", "i.json", "--algo", "lb", "extra"], ["bench", "ratio-search", "extra"],
    ["gen", "--kind", "fixture", "--fixture", "staircase-4"], ["--", "frobnicate"], ["-x", "gen"], ["gen", "-h"],
]


@pytest.mark.parametrize("columns", [40, 120])
@pytest.mark.parametrize("argv", PARSER_ARGV, ids=lambda argv: " ".join(argv) or repr(argv))
def test_parser_matches_the_eager_parser(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", str(columns))
    lazy = run(capsys, *argv)
    monkeypatch.setattr(cli, "build_parser", eager_parser)
    assert run(capsys, *argv) == lazy


# argparse parsers a build constructs: the top level, plus the subcommand that
# runs and, for bench, its nested ratio-search
PARSERS_BUILT = {("check", "x"): 2, ("bench", "ratio-search"): 3, (): 1, ("-h",): 1, ("frobnicate",): 1}


@pytest.mark.parametrize("argv", PARSERS_BUILT, ids=lambda argv: " ".join(argv) or repr(argv))
def test_parser_builds_only_the_subcommand_it_runs(monkeypatch, argv):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser(list(argv))
    assert len(built) == PARSERS_BUILT[argv], built


STAIRCASE = {"jobs": [
    {"size": 6, "start": 0}, {"size": 4, "start": 4},
    {"size": 3, "start": 7}, {"size": 5, "start": 10},
]}
TRACE = {"completion": 12, "records": [
    {"job": 0, "size": 6, "start": 0, "status": "executed", "end": 4},
    {"job": 1, "size": 4, "start": 4, "status": "executed", "end": 5},
    {"job": 2, "size": 3, "start": 7, "status": "executed", "end": 10},
    {"job": 3, "size": 5, "start": 10, "status": "executed", "end": 12},
]}
# (argv, valid JSON that the mutations start from); BAD is the mutated file
FUZZ_TARGETS = {
    **{f"solve-{algo}": (("solve", "BAD", "--algo", algo) + extra, {"sizes": [6, 5, 4, 3]})
       for algo, extra in (("greedy", ()), ("exact", ()), ("qptas", ("--eps", "1/2")), ("lb", ()))},
    "check": (("check", "BAD"), STAIRCASE),
    "simulate-demands": (SIMULATE, {"demands": [4, 1, 3, 2]}),
    "render-trace": (RENDER, TRACE),
    "gen-reduction": (GEN, {"D": 10, "a": [3, 4], "b": [3, 3], "c": [4, 3]}),
}


def paths(value, prefix=()):
    """Every position in a JSON value, the root first."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, prefix + (key,))


non_integer_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=9).filter(
    lambda f: f.denominator > 1
).map(lambda f: f"{f.numerator}/{f.denominator}")
replacements = st.one_of(
    st.just(None),                                                  # drop the field
    st.sampled_from(("x", None, True, {}, [], "", "1/0", -1, 0)).map(lambda v: lambda _: v),
    st.floats(-20, 20, allow_nan=False).map(lambda v: lambda _: v),
    non_integer_rationals.map(lambda v: lambda _: v),
    st.just(lambda node: [node]),                                   # nest in an array
    st.just(lambda node: float(node) if type(node) is int else node),
)


@st.composite
def mutated_json(draw, value):
    """`value` with one to three nodes, itself included, dropped or replaced."""
    holder = [copy.deepcopy(value)]
    for _ in range(draw(st.integers(1, 3))):
        *route, key = draw(st.sampled_from(list(paths(holder))[1:]))
        parent = functools.reduce(operator.getitem, route, holder)
        mutation = draw(replacements)
        if mutation is not None:
            parent[key] = mutation(parent[key])
        elif parent is not holder:
            del parent[key]
    return holder[0]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "schedule.json").write_text(json.dumps(STAIRCASE))
    return directory


@pytest.mark.parametrize("target", sorted(FUZZ_TARGETS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_json_never_escapes_as_a_traceback(fuzz_dir, target, data):
    argv, valid = FUZZ_TARGETS[target]
    bad = fuzz_dir / "bad.json"
    bad.write_text(json.dumps(data.draw(mutated_json(valid))))
    files = {"BAD": str(bad), "SCHEDULE": str(fuzz_dir / "schedule.json")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([files.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


# Every subcommand with valid options; the inputs sit in the working directory.
ARGV_TARGETS = {
    "gen-random": ("gen", "--kind", "random", "--n", "5", "--seed", "3", "--max-size", "20", "-o", "out.json"),
    "gen-ratio-bounded": ("gen", "--kind", "ratio-bounded", "--n", "5", "--bound", "2", "--seed", "3"),
    "gen-fixture": ("gen", "--kind", "fixture", "--fixture", "staircase-4"),
    "gen-reduction": ("gen", "--kind", "reduction", "--tdm", "tdm.json", "--M", "13", "-o", "out.json"),
    "solve-greedy": ("solve", "instance.json", "--algo", "greedy", "--trace", "trace.json", "--tree", "tree.dot",
                     "-o", "out.json"),
    "solve-exact": ("solve", "instance.json", "--algo", "exact", "--limit", "8", "-o", "out.json"),
    "solve-qptas": ("solve", "instance.json", "--algo", "qptas", "--eps", "1/2", "-o", "out.json"),
    "solve-lb": ("solve", "instance.json", "--algo", "lb"),
    "check": ("check", "schedule.json"),
    "simulate-random": ("simulate", "--schedule", "schedule.json", "--random", "--seed", "1", "-o", "out.json"),
    "simulate-demands": ("simulate", "--schedule", "schedule.json", "--demands", "demands.json"),
    "render-schedule": ("render", "--schedule", "schedule.json", "--format", "ascii", "--scale", "2",
                        "-o", "out.txt"),
    "render-trace": ("render", "--trace", "execution.json", "--format", "svg"),
    "bench-ratio-search": ("bench", "ratio-search", "--n", "3", "--iterations", "2", "--bound", "2", "--seed", "0",
                           "--max-size", "10", "-o", "out.json", "--findings", "findings.json"),
}
ARGV_INPUTS = {
    "instance.json": {"sizes": [6, 5, 4, 3]},
    "tdm.json": {"D": 10, "a": [3, 4], "b": [3, 3], "c": [4, 3]},
    "schedule.json": STAIRCASE,
    "demands.json": {"demands": [4, 1, 3, 2]},
    "execution.json": TRACE,
}
RETYPED = ("x", "", "-1", "0", "1/2", "2.5", "3", "1/0", ".", "-", "--", "instance.json")
UNKNOWN_FLAGS = ("--bogus", "--bogus=1", "-z", "--output-dir")
positions = st.integers(0, 40)
argv_mutations = st.one_of(
    st.tuples(st.sampled_from(("drop", "repeat")), positions, st.none()),
    st.tuples(st.just("retype"), positions, st.sampled_from(RETYPED)),
    st.tuples(st.just("flag"), positions, st.sampled_from(UNKNOWN_FLAGS)),
)


def mutate_argv(argv, mutations):
    """Apply (kind, position, value) mutations; positions wrap around argv."""
    argv = list(argv)
    for kind, position, value in mutations:
        if kind == "flag":
            argv.insert(position % (len(argv) + 1), value)
            continue
        if not argv:
            continue
        i = position % len(argv)
        if kind == "drop":
            del argv[i]
        elif kind == "repeat":
            argv.insert(i, argv[i])
        else:
            argv[i] = value
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv")


@given(target=st.sampled_from(sorted(ARGV_TARGETS)), mutations=st.lists(argv_mutations, min_size=1, max_size=3))
@example(target="bench-ratio-search", mutations=[("retype", 5, "0")])    # --iterations 0 with --bound 2
@example(target="bench-ratio-search", mutations=[("retype", 5, "-1")])   # --iterations -1
@settings(max_examples=300, deadline=None)
def test_mutated_argv_never_escapes_as_a_traceback(argv_dir, target, mutations):
    argv = mutate_argv(ARGV_TARGETS[target], mutations)
    for name, obj in ARGV_INPUTS.items():   # an earlier example may have written over one
        (argv_dir / name).write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        mp.chdir(argv_dir)
        code = cli_main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code != 2:   # argparse prints its usage line before the error line
        assert err.getvalue().count("\n") <= 1
