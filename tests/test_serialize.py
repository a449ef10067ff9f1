"""Wire formats: exact numbers, instances, schedules, traces, demands."""

import json
import os
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    execution_trace_to_obj,
    greedy_trace_from_obj,
    greedy_trace_to_obj,
    instance_from_obj_reference,
    labels_to_obj,
    schedule_from_obj_reference,
    tdm_from_obj_reference,
)
from trisched import Instance, Schedule, ThreeDMInstance, encode, greedy_schedule, new_instance, simulate
from trisched.bench import RatioSearchReport
from trisched.serialize import (
    any_digits,
    decode_exact,
    demands_from_obj,
    dumps,
    encode_exact,
    execution_trace_from_obj,
    execution_trace_json,
    greedy_trace_json,
    instance_from_obj,
    instance_to_obj,
    labels_json,
    read_json,
    report_to_obj,
    schedule_from_obj,
    schedule_json,
    schedule_to_obj,
    tdm_from_obj,
    write_json,
    write_text,
)


class TestExactNumbers:
    def test_int_stays_bare(self):
        assert encode_exact(7) == 7
        assert decode_exact(7) == 7

    def test_fraction_becomes_string(self):
        assert encode_exact(Fraction(27, 4)) == "27/4"
        assert decode_exact("27/4") == Fraction(27, 4)

    def test_integral_fraction_collapses(self):
        assert encode_exact(Fraction(8, 2)) == 4
        assert decode_exact("8/2") == 4
        assert isinstance(decode_exact("8/2"), int)

    def test_bare_numerator_string(self):
        assert decode_exact("5") == 5

    def test_negative_rational(self):
        assert decode_exact("-3/4") == Fraction(-3, 4)

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            decode_exact(0.5)

    def test_bool_rejected(self):
        with pytest.raises(ValueError):
            decode_exact(True)

    @pytest.mark.parametrize("bad", ["", "a/b", "1/0", "1/2/3", None, [1]])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            decode_exact(bad)

    # int() would take each of these: underscores, spaces, non-ASCII digits,
    # signs other than the numerator's minus, and leading zeros
    @pytest.mark.parametrize("bad", ["1_0/2", " 7 / 2 ", "7/2 ", "\u0661\u0662", "3/-2", "+3", "3/+2", "07", "3/04",
                                     "-", "/2", "3/", "3/0"])
    def test_only_one_spelling_is_read(self, bad):
        with pytest.raises(ValueError, match="bad rational literal"):
            decode_exact(bad)


class TestInstanceWire:
    def test_round_trip(self):
        inst = new_instance([6, 5, 4, 3])
        assert instance_from_obj(instance_to_obj(inst)) == inst

    def test_sizes_sorted_on_load(self):
        inst = instance_from_obj({"sizes": [3, 6, 5, 4]})
        assert inst.sizes == (6, 5, 4, 3)

    @pytest.mark.parametrize("bad", [[], {"sizes": 3}, {"jobs": []}, "x"])
    def test_shape_errors(self, bad):
        with pytest.raises(ValueError):
            instance_from_obj(bad)


class TestScheduleWire:
    def test_round_trip_with_rationals(self):
        sched = Schedule(((6, 0), (5, Fraction(27, 4))))
        obj = schedule_to_obj(sched)
        assert obj == {"jobs": [{"size": 6, "start": 0}, {"size": 5, "start": "27/4"}]}
        assert schedule_from_obj(obj) == sched

    def test_float_start_rejected_on_load(self):
        with pytest.raises(ValueError):
            schedule_from_obj({"jobs": [{"size": 6, "start": 0.5}]})

    @pytest.mark.parametrize("bad", [{"jobs": [{"size": 6}]}, {"jobs": "x"}, {}])
    def test_shape_errors(self, bad):
        with pytest.raises(ValueError):
            schedule_from_obj(bad)


class TestTdmWire:
    def test_round_trip(self):
        tdm = ThreeDMInstance(D=10, a=(3, 4), b=(3, 3), c=(4, 3))
        # the JSON form is the named tuple's fields, tuples as arrays
        assert tdm_from_obj(json.loads(dumps(tdm._asdict()))) == tdm

    def test_missing_key(self):
        with pytest.raises(ValueError):
            tdm_from_obj({"D": 10, "a": [3], "b": [3]})

    @pytest.mark.parametrize("key", ["D", "a", "b", "c"])
    def test_non_integer_rejected(self, key):
        # int() would load "7/2" as 3 and yield a different, valid instance
        obj = {"D": 10, "a": [3], "b": [3], "c": [4]}
        obj[key] = "21/2" if key == "D" else ["7/2"]
        with pytest.raises(ValueError, match="integers"):
            tdm_from_obj(obj)

    def test_labels_object(self):
        tdm = ThreeDMInstance(D=10, a=(3,), b=(3,), c=(4,))
        _, labels = encode(tdm, 13)
        obj = labels_to_obj(labels)
        assert obj["M"] == 13
        assert obj["target"] == 154
        assert {"type": "E", "index": 1, "size": 154} in obj["jobs"]
        assert len(obj["jobs"]) == 5


class TestTraceWire:
    def test_greedy_trace_round_trip(self):
        _, trace = greedy_schedule(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4]))
        assert greedy_trace_from_obj(greedy_trace_to_obj(trace)) == trace

    def test_execution_trace_round_trip(self):
        sched, _ = greedy_schedule(new_instance([6, 5, 4, 3]))
        trace = simulate(sched, (6, 1, 4, 1))
        obj = execution_trace_to_obj(trace)
        statuses = {r["status"] for r in obj["records"]}
        assert statuses <= {"executed", "canceled"}
        assert execution_trace_from_obj(obj) == trace

    @pytest.mark.parametrize("key", ["job", "status", "size", "start", "end"])
    def test_execution_record_missing_field(self, key):
        sched, _ = greedy_schedule(new_instance([6, 5, 4, 3]))
        obj = execution_trace_to_obj(simulate(sched, (6, 5, 4, 3)))
        del obj["records"][0][key]
        with pytest.raises(ValueError, match=key):
            execution_trace_from_obj(obj)

    @pytest.mark.parametrize(
        "bad",
        [
            {"records": [], "status": "executed"},                  # no completion
            {"records": [7], "completion": 0},                      # record not an object
            {"records": [{"job": 0, "status": "done", "size": 1, "start": 0}], "completion": 0},
        ],
    )
    def test_execution_trace_shape_errors(self, bad):
        with pytest.raises(ValueError):
            execution_trace_from_obj(bad)

    def test_greedy_step_missing_field(self):
        _, trace = greedy_schedule(new_instance([6, 5, 4, 3]))
        obj = greedy_trace_to_obj(trace)
        del obj["steps"][1]["job"]
        with pytest.raises(ValueError, match="job"):
            greedy_trace_from_obj(obj)

    def test_canceled_records_have_no_end(self):
        trace = simulate(Schedule(((6, 0), (4, 4))), (6, 1))
        obj = execution_trace_to_obj(trace)
        canceled = [r for r in obj["records"] if r["status"] == "canceled"]
        assert canceled and all("end" not in r for r in canceled)
        assert all(r["canceled_by"] == 0 for r in canceled)


class TestDemandsWire:
    def test_round_trip(self):
        demands = (1, Fraction(3, 2), 4)
        assert demands_from_obj({"demands": [encode_exact(d) for d in demands]}) == demands

    def test_shape_error(self):
        with pytest.raises(ValueError):
            demands_from_obj({"demands": 3})


class TestTraceConsistency:
    """Loaded traces must be ones the solvers could have written."""

    def executed_and_canceled(self):
        obj = execution_trace_to_obj(simulate(Schedule(((6, 0), (4, 4))), (6, 1)))
        assert [r["status"] for r in obj["records"]] == ["executed", "canceled"]
        return obj

    @pytest.mark.parametrize(
        "record, change, message",
        [
            (1, {"job": 0}, "must be job 1"),
            (0, {"job": "x"}, "rational"),
            (0, {"job": "1/2"}, "jobs must be integers"),
            # these ids name the rule the case breaks: start < end <= start + size,
            # and a canceler that is an executed record
            pytest.param(0, {"end": 0}, "demand 0 outside", id="0-change3-start < end"),  # ends where it starts
            pytest.param(0, {"end": 7}, "demand 7 outside", id="0-change4-start < end"),  # runs longer than its size
            pytest.param(0, {"start": 4, "end": 2}, "infeasible", id="0-change5-start < end"),  # ends before it starts
            (1, {"canceled_by": "nobody"}, "rational"),
            (1, {"canceled_by": "1/2"}, "cancelers must be integers"),
            pytest.param(1, {"canceled_by": 1}, "its record 1 differs", id="1-change8-not an executed record"),
            pytest.param(1, {"canceled_by": 2}, "its record 1 differs", id="1-change9-not an executed record"),
            pytest.param(1, {"canceled_by": -1}, "its record 1 differs", id="1-change10-not an executed record"),
            (1, {"canceled_by": None}, "expected int"),
        ],
    )
    def test_execution_trace_inconsistency_rejected(self, record, change, message):
        obj = self.executed_and_canceled()
        obj["records"][record].update(change)
        with pytest.raises(ValueError, match=message):
            execution_trace_from_obj(obj)

    def test_canceled_record_needs_a_canceler(self):
        obj = self.executed_and_canceled()
        del obj["records"][1]["canceled_by"]
        with pytest.raises(ValueError, match="canceled_by"):
            execution_trace_from_obj(obj)

    def test_completion_must_be_simulates(self):
        obj = self.executed_and_canceled()
        obj["completion"] = 99
        with pytest.raises(ValueError, match="its completion differs"):
            execution_trace_from_obj(obj)

    def test_canceled_by_a_canceled_record_rejected(self):
        obj = self.executed_and_canceled()
        obj["records"][0] = {"job": 0, "size": 6, "start": 0, "status": "canceled", "canceled_by": 1}
        with pytest.raises(ValueError, match="its record 0 differs"):
            execution_trace_from_obj(obj)

    @pytest.mark.parametrize(
        "step, key, value",
        [
            (1, "job", "x"),
            (1, "size", 5.5),
            (1, "makespan", [1]),
            (1, "placement", "7/2"),
            (1, "shift", True),
            (1, "gap_start", {}),
            (0, "job", None),
            (0, "size", None),
        ],
    )
    def test_greedy_step_non_integer_rejected(self, step, key, value):
        _, trace = greedy_schedule(new_instance([6, 5, 4, 3]))
        obj = greedy_trace_to_obj(trace)
        obj["steps"][step][key] = value
        with pytest.raises(ValueError):
            greedy_trace_from_obj(obj)

    def test_greedy_first_step_keeps_its_nulls(self):
        _, trace = greedy_schedule(new_instance([6, 5, 4, 3]))
        obj = greedy_trace_to_obj(trace)
        assert all(obj["steps"][0][key] is None for key in ("gap_start", "gap_length", "parent"))
        assert greedy_trace_from_obj(obj) == trace


class TestFileFormat:
    def test_dumps_is_stable_and_newline_terminated(self):
        # one line of sorted-key JSON, written by the C encoder
        text = dumps({"b": 1, "a": [2]})
        assert text == '{"a": [2], "b": 1}\n'
        assert json.loads(text) == {"a": [2], "b": 1}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "instance.json"
        write_json(path, instance_to_obj(new_instance([4, 4, 20])))
        assert instance_from_obj(read_json(path)).sizes == (20, 4, 4)

    def test_indented_files_still_load(self, tmp_path):
        sched, trace = greedy_schedule(new_instance([20, 20, 10, 5, 5, 4, 4, 4, 4]))
        execution = simulate(Schedule(((6, 0), (4, 4), (5, Fraction(21, 2)))), (6, 1, Fraction(3, 2)))
        cases = [
            (sched, schedule_to_obj, schedule_from_obj),
            (trace, greedy_trace_to_obj, greedy_trace_from_obj),
            (execution, execution_trace_to_obj, execution_trace_from_obj),
        ]
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        for value, to_obj, from_obj in cases:
            # the form dumps wrote before it went to one line
            old.write_text(json.dumps(to_obj(value), indent=2, sort_keys=True) + "\n")
            write_json(new, to_obj(value))
            assert read_json(old) == read_json(new)
            assert from_obj(read_json(old)) == value

    @pytest.mark.parametrize("held,text", [
        ("x" * 100, "short\n"),
        ("ab", "a longer text\n"),
        ("abcde", "\u00e9\u00e9"),   # 5 bytes held, 2 characters in 4 bytes written
        ("abc", "\u00e9\u00e9"),
        ("same\n", "text\n"),
    ], ids=["shorter", "longer", "shorter-in-bytes", "longer-in-bytes", "same-length"])
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, held, text):
        path = tmp_path / "file.json"
        path.write_bytes(held.encode())
        write_text(path, text)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "reference", "w"):
                pass
            write_text(tmp_path / "new", "{}\n")
        finally:
            os.umask(old)
        assert os.stat(tmp_path / "new").st_mode == os.stat(tmp_path / "reference").st_mode


sizes = st.integers(1, 60)
exact_numbers = st.one_of(sizes, st.fractions(min_value=1, max_value=60, max_denominator=12))
instances = st.lists(sizes, min_size=1, max_size=12).map(new_instance)


@st.composite
def schedules(draw):
    starts = st.fractions(min_value=0, max_value=200, max_denominator=12)
    return Schedule(tuple(draw(st.lists(st.tuples(sizes, starts), min_size=1, max_size=12))))


@st.composite
def execution_traces(draw):
    sched, _ = greedy_schedule(draw(instances))
    demands = [draw(st.fractions(min_value=1, max_value=size, max_denominator=6)) for size in sched.sizes]
    return simulate(sched, demands)


@st.composite
def labels(draw):
    rows = draw(st.lists(st.permutations((3, 3, 4)), min_size=1, max_size=4))
    tdm = ThreeDMInstance(D=10, a=tuple(r[0] for r in rows), b=tuple(r[1] for r in rows), c=tuple(r[2] for r in rows))
    return encode(tdm, draw(st.integers(13, 40)))[1]


ratios = st.fractions(min_value=1, max_value=2, max_denominator=50)
reports = st.builds(
    RatioSearchReport,
    ratio=ratios,
    witness=st.lists(sizes, min_size=1, max_size=9).map(tuple),
    iterations=st.integers(0, 1000),
    seed=st.integers(-(2**40), 2**40),
    findings=st.lists(st.tuples(st.lists(sizes, min_size=1, max_size=9).map(tuple), ratios)).map(tuple),
)
WIRE_OBJECTS = {
    "instance": instances.map(instance_to_obj),
    "schedule": schedules().map(schedule_to_obj),
    "labels": labels().map(labels_to_obj),
    "greedy-trace": instances.map(lambda i: greedy_trace_to_obj(greedy_schedule(i)[1])),
    "execution-trace": execution_traces().map(execution_trace_to_obj),
    "demands": st.lists(exact_numbers, max_size=12).map(lambda ds: {"demands": [encode_exact(d) for d in ds]}),
    "report": reports.map(report_to_obj),
}


@pytest.mark.parametrize("shape", sorted(WIRE_OBJECTS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_dumps_round_trips_every_wire_shape(shape, data):
    obj = data.draw(WIRE_OBJECTS[shape])
    text = dumps(obj)
    assert text.endswith("}\n") and text.count("\n") == 1
    assert json.loads(text) == obj


# Sizes up to 10^6, one job, and all sizes equal (every gap ties).
wide_instances = st.one_of(
    st.lists(st.integers(1, 10**6), min_size=1, max_size=60),
    st.integers(1, 10**6).map(lambda p: [p]),
    st.tuples(st.integers(1, 10**6), st.integers(2, 60)).map(lambda pair: [pair[0]] * pair[1]),
).map(new_instance)


@st.composite
def stretched_executions(draw):
    """A greedy schedule stretched by a rational factor (which keeps it
    feasible) run under integer or rational demands, so records of both
    statuses carry int and Fraction times."""
    sched, _ = greedy_schedule(draw(wide_instances))
    factor = draw(st.fractions(min_value=1, max_value=3, max_denominator=7))
    sched = Schedule(tuple((size * factor, start * factor) for size, start in sched.jobs))
    demands = [
        draw(st.one_of(st.integers(1, int(size)), st.fractions(min_value=1, max_value=int(size), max_denominator=6)))
        for size in sched.sizes
    ]
    return simulate(sched, demands)


# Each text writer with its inputs, the `*_to_obj` reference it must
# match, and the strict reader of its file (labels have none).
WRITERS = {
    "schedule": (
        st.one_of(wide_instances.map(lambda i: greedy_schedule(i)[0]), schedules()),
        schedule_json, schedule_to_obj, schedule_from_obj,
    ),
    "greedy-trace": (
        wide_instances.map(lambda i: greedy_schedule(i)[1]),
        greedy_trace_json, greedy_trace_to_obj, greedy_trace_from_obj,
    ),
    "execution-trace": (
        st.one_of(stretched_executions(), execution_traces()),
        execution_trace_json, execution_trace_to_obj, execution_trace_from_obj,
    ),
    "labels": (labels(), labels_json, labels_to_obj, None),
}


@pytest.mark.parametrize("shape", sorted(WRITERS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_text_writer_writes_the_dumps_of_its_reference(shape, data):
    values, write, to_obj, from_obj = WRITERS[shape]
    value = data.draw(values)
    text = write(value)
    assert text == json.dumps(to_obj(value), sort_keys=True) + "\n"
    if from_obj is not None:
        assert from_obj(json.loads(text)) == value


def test_text_writers_cover_both_statuses_and_rational_times():
    execution = simulate(Schedule(((6, 0), (4, 4), (5, Fraction(21, 2)))), (6, 1, Fraction(3, 2)))
    text = execution_trace_json(execution)
    assert text == dumps(execution_trace_to_obj(execution))
    # the last job ends at 21/2 + 3/2, an integral Fraction that travels as a bare 12
    assert '"status": "canceled"' in text and '"end": 12,' in text
    sched = Schedule(((6, 0), (5, Fraction(27, 4))))
    assert schedule_json(sched) == '{"jobs": [{"size": 6, "start": 0}, {"size": 5, "start": "27/4"}]}\n'


# CPython's limit on converting between text and int, 0 for none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Each library writer, called on data that holds the int `big`
PAST_THE_LIMIT = {
    "schedule_json": lambda big: schedule_json(Schedule(((big, 0),))),
    "greedy_trace_json": lambda big: greedy_trace_json(greedy_schedule(new_instance([big, big]))[1]),
    "execution_trace_json": lambda big: execution_trace_json(simulate(Schedule(((big, 0),)), [big])),
    "labels_json": lambda big: labels_json(encode(ThreeDMInstance(D=10, a=(3,), b=(3,), c=(4,)), big)[1]),
    "dumps": lambda big: dumps({"ratio": big}),
}


def ints_in(obj) -> list:
    """Every int in a loaded JSON value."""
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, list):
        return [x for item in obj for x in ints_in(item)]
    return [obj] if type(obj) is int else []


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
@pytest.mark.parametrize("writer", sorted(PAST_THE_LIMIT))
def test_library_writers_run_under_the_plain_digit_limit(tmp_path, writer):
    """A library call whose output holds an int one digit past CPython's
    limit raises ValueError; the same call through `any_digits`, as the CLI
    runs it, writes text that `read_json` reads back under `any_digits`."""
    write, big = PAST_THE_LIMIT[writer], 10 ** DIGIT_LIMIT
    with pytest.raises(ValueError, match="Exceeds the limit"):
        write(big)
    path = tmp_path / "out.json"
    path.write_text(any_digits(write, big))
    assert big in ints_in(any_digits(read_json, path))
    assert sys.get_int_max_str_digits() == DIGIT_LIMIT


# What a mutation writes in place of a size or a start: faults (a bool, a
# float, zero, a negative, a non-number, a bad rational) and legal spellings
# of a number that is not a plain int ("7/2", and the integral "4/2" and
# "0/3", which load as ints).
WIRE_MUTANTS = (True, False, 1.5, 0.0, 0, -1, -7, "7/2", "4/2", "0/3", "-2/4", "x/2", "1/0", None, [2])
# What a mutation writes in place of a whole entry.
ENTRY_MUTANTS = (None, 3, "job", [6, 0], [])


@st.composite
def mutated_files(draw, key, values):
    """{key: values}: a valid file with up to three values replaced, keys
    dropped or entries replaced, and now and then a top-level shape
    fault."""
    shape = draw(st.sampled_from(["file"] * 8 + ["not-an-array", "no-key", "not-an-object"]))
    if shape == "not-an-array":
        return {key: draw(st.sampled_from(["x", 3, None, {}]))}
    if shape == "no-key":
        return {}
    if shape == "not-an-object":
        return draw(st.sampled_from([[], "x", 3, None]))
    items = draw(st.lists(values, max_size=8))
    for _ in range(draw(st.integers(0, 3)) if items else 0):
        k = draw(st.integers(0, len(items) - 1))
        item = items[k]
        if isinstance(item, dict):
            field = draw(st.sampled_from(sorted(item))) if item else None
            action = draw(st.sampled_from(["value", "value", "drop", "entry"]))
            if action == "value" and field is not None:
                item[field] = draw(st.sampled_from(WIRE_MUTANTS))
            elif action == "drop" and field is not None:
                del item[field]
            else:
                items[k] = draw(st.sampled_from(ENTRY_MUTANTS))
        else:
            items[k] = draw(st.sampled_from(WIRE_MUTANTS))
    return {key: items}


def load_outcome(load, obj):
    """(loaded value, the type of each number in it) or the ValueError's
    message, which must be one line."""
    try:
        value = load(obj)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    numbers = value.sizes if isinstance(value, Instance) else tuple(x for job in value.jobs for x in job)
    return value, tuple(map(type, numbers))


schedule_entries = st.fixed_dictionaries({"size": st.integers(1, 60), "start": st.integers(0, 200)})


class TestLoadersMatchThePerEntryReference:
    """The loaders' C-level pass on files of plain ints gives what decoding
    every value and calling the public constructor gives: the same value
    with the same number types, or the same one-line ValueError, whatever
    the faults and however many."""

    @given(mutated_files("sizes", st.integers(1, 60)))
    @example({"sizes": [6, "4/2", 4]})
    @example({"sizes": []})
    @settings(max_examples=300)
    def test_instances(self, obj):
        outcome = load_outcome(instance_from_obj, obj)
        assert outcome == load_outcome(instance_from_obj_reference, obj)
        if not isinstance(outcome, str):
            assert outcome[0] == new_instance(outcome[0].sizes)

    @given(mutated_files("jobs", schedule_entries))
    @example({"jobs": [{"size": 6, "start": 0}, {"size": 5, "start": -1}]})
    @example({"jobs": [{"size": "4/2", "start": "7/2"}]})
    @example({"jobs": []})
    @settings(max_examples=300)
    def test_schedules(self, obj):
        outcome = load_outcome(schedule_from_obj, obj)
        assert outcome == load_outcome(schedule_from_obj_reference, obj)
        if not isinstance(outcome, str):
            assert outcome[0] == Schedule(outcome[0].jobs)

    @pytest.mark.parametrize("obj, message", [
        ({"jobs": [{"size": 6, "start": 0}, {"size": 5, "start": -1}]}, "start times must be non-negative, got -1"),
        ({"jobs": [{"size": 0, "start": 0}]}, "job sizes must be positive, got 0"),
        ({"jobs": [{"size": 6, "start": True}]}, "expected a number, got True"),
        ({"jobs": [{"size": 6, "start": 0.5}]}, 'floats are not allowed on the wire: 0.5; use "num/den"'),
        ({"jobs": [{"size": 6}]}, "schedule job has no 'start' field"),
        ({"jobs": [[6, 0]]}, "schedule job must be a JSON object, got list"),
        ({"jobs": {}}, "schedule JSON field 'jobs' must be an array, got dict"),
        ({"sizes": [6, -2]}, "job sizes must be positive integers, got -2"),
        ({"sizes": [6, False]}, "expected a number, got False"),
        ({"sizes": [6, "7/2"]}, "job sizes must be positive integers, got Fraction(7, 2)"),
        ({"sizes": []}, "an instance needs at least one job"),
    ])
    def test_one_fault_messages(self, obj, message):
        load = instance_from_obj if "sizes" in obj else schedule_from_obj
        with pytest.raises(ValueError) as caught:
            load(obj)
        assert str(caught.value) == message

    def test_plain_int_files_keep_their_values(self):
        schedule = schedule_from_obj({"jobs": [{"size": 6, "start": 0}, {"size": 5, "start": "4/2"}]})
        assert schedule.jobs == ((6, 0), (5, 2)) and type(schedule.jobs[1][1]) is int
        assert instance_from_obj({"sizes": [3, "8/2", 5]}).sizes == (5, 4, 3)


@st.composite
def mutated_tdm_files(draw):
    """A valid 3DM file with up to three values replaced by a wire mutant or
    an out-of-range int, or dropped, and now and then a shape fault."""
    rows = draw(st.lists(st.permutations((3, 3, 4)), min_size=1, max_size=6))
    obj = {"D": 10, **{key: [row[k] for row in rows] for k, key in enumerate("abc")}}
    shape = draw(st.sampled_from(["file"] * 8 + ["not-an-array", "no-key", "not-an-object"]))
    if shape == "not-an-array":
        obj[draw(st.sampled_from("abc"))] = draw(st.sampled_from(["x", 3, None, {}]))
    elif shape == "no-key":
        del obj[draw(st.sampled_from("Dabc"))]
    elif shape == "not-an-object":
        return draw(st.sampled_from([[], "x", 3, None]))
    for _ in range(draw(st.integers(0, 3)) if shape == "file" else 0):
        key = draw(st.sampled_from("Dabc"))
        value = draw(st.sampled_from(WIRE_MUTANTS + (2, 5, 12, "8/2", "6/2")))
        if key == "D":
            obj["D"] = value
        elif obj[key]:
            k = draw(st.integers(0, len(obj[key]) - 1))
            if draw(st.booleans()):
                obj[key][k] = value
            else:
                del obj[key][k]
    return obj


def tdm_outcome(load, obj):
    """(loaded instance, the type of each column and value in it) or the
    ValueError's message, which must be one line."""
    try:
        tdm = load(obj)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return str(exc)
    return tdm, tuple(map(type, (tdm.a, tdm.b, tdm.c, *chain((tdm.D,), tdm.a, tdm.b, tdm.c))))


class TestTdmLoaderMatchesThePerValueReference:
    """`tdm_from_obj`'s C-level pass over columns of plain ints gives what
    decoding every value gives: the same instance with the same types, or
    the same one-line ValueError."""

    @given(mutated_tdm_files())
    @example({"D": 10, "a": [3, "6/2"], "b": [3, 4], "c": [4, 3]})
    @example({"D": 10, "a": [3, True], "b": [3, 4], "c": [4, 3]})
    @example({"D": 10, "a": [2, 4], "b": [3, 4], "c": [4, 3]})
    @example({"D": 10, "a": [], "b": [], "c": []})
    @settings(max_examples=300)
    def test_files(self, obj):
        assert tdm_outcome(tdm_from_obj, obj) == tdm_outcome(tdm_from_obj_reference, obj)

    @pytest.mark.parametrize("obj, message", [
        ({"D": 10, "a": [3, True], "b": [3, 4], "c": [4, 3]}, "expected a number, got True"),
        ({"D": 10, "a": [3, "7/2"], "b": [3, 4], "c": [4, 3]}, "3DM values must be integers, got '7/2'"),
        ({"D": 10, "a": [3, 2], "b": [3, 4], "c": [4, 3]}, "a value 2 outside the open range (D/4, D/2) for D=10"),
        ({"D": 10, "a": [3, 4], "b": [5, 4], "c": [4, 3]}, "b value 5 outside the open range (D/4, D/2) for D=10"),
        ({"D": 10, "a": [3, 4], "b": [3, 4], "c": [4]}, "columns a, b, c must be non-empty and equally long"),
        ({"D": 10, "a": [3, 4], "b": [3, 4], "c": [4, 4]}, "values sum to 22, need n*D = 20"),
        ({"D": 3, "a": [1], "b": [1], "c": [1]}, "D must be at least 4, got 3"),
    ])
    def test_one_fault_messages(self, obj, message):
        with pytest.raises(ValueError) as caught:
            tdm_from_obj(obj)
        assert str(caught.value) == message

    def test_plain_int_columns_stay_tuples_of_ints(self):
        tdm = tdm_from_obj({"D": 10, "a": [3, "8/2"], "b": [3, 3], "c": [4, 3]})
        assert tdm == ThreeDMInstance(D=10, a=(3, 4), b=(3, 3), c=(4, 3))
        assert {type(v) for v in chain(tdm.a, tdm.b, tdm.c)} == {int}
