"""Command line surface: every subcommand end to end, plus exit codes."""

import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import greedy_trace_from_obj, report_from_obj
from trisched import greedy_schedule, new_instance, optimal_makespan
from trisched.cli import cli_main
from trisched.qptas import dp_solve
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
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [1] * 13}))
        code, _, err = run(capsys, "solve", str(instance), "--algo", "exact")
        assert code == 1
        assert "got 13" in err
        code, out, _ = run(
            capsys, "solve", str(instance), "--algo", "exact", "--limit", "13"
        )
        assert code == 0
        assert out == "makespan 13\n"

    def test_qptas_prints_stats(self, tmp_path, capsys):
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [6, 5, 4, 3]}')
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "makespan 253/16"
        assert lines[1] == "classes 3"
        assert lines[2] == "grid-points 33"
        assert lines[3] == "dp-states 23"

    def test_qptas_on_a_long_chain_of_equal_sizes(self, tmp_path, capsys):
        # one DP state per placed job, far deeper than the recursion limit
        instance = tmp_path / "i.json"
        instance.write_text(json.dumps({"sizes": [7] * 1200}))
        code, out, _ = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert code == 0
        assert out.splitlines()[1:] == ["classes 1", "grid-points 2880001", "dp-states 1200"]

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
        monkeypatch.setattr("trisched.qptas.dp_solve", functools.partial(dp_solve, budget=100))
        instance = tmp_path / "i.json"
        instance.write_text('{"sizes": [20, 20, 10, 5, 5, 4, 4, 4, 4]}')
        code, _, err = run(capsys, "solve", str(instance), "--algo", "qptas", "--eps", "1/2")
        assert code == 1
        assert err == "error: dp state budget exceeded after 100 states\n"

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
    ], ids=["tree-qptas", "trace-exact", "output-lb", "eps-greedy", "eps-exact"])
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
        assert (code, out, err) == (1, "", "error: schedule has no jobs\n")


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

    @pytest.mark.parametrize("source", ["--random", "--demands"])
    def test_empty_schedule(self, tmp_path, capsys, source):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": []}')
        demands = tmp_path / "d.json"
        demands.write_text('{"demands": []}')
        argv = ["--random"] if source == "--random" else ["--demands", str(demands)]
        code, out, err = run(capsys, "simulate", "--schedule", str(sched), *argv)
        assert (code, out, err) == (1, "", "error: schedule has no jobs\n")

    def test_random_needs_integer_sizes(self, tmp_path, capsys):
        sched = tmp_path / "s.json"
        sched.write_text('{"jobs": [{"size": "7/2", "start": 0}]}')
        code, _, err = run(capsys, "simulate", "--schedule", str(sched), "--random")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--demands" in err


class TestRender:
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
    case(GEN, '{"D": 10, "a": ["7/2"], "b": [3], "c": [4]}', id="tdm-fraction"),
    case(GEN, '{"D": 10, "a": 3, "b": [3], "c": [4]}', id="tdm-column-not-array"),
    case(("gen", "--kind", "random", "--n", "3"), "", id="seed-env-not-integer", env={"TS_SEED": "abc"}),
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
