"""Wire formats: exact numbers, instances, schedules, traces, demands."""

import json
from fractions import Fraction

import pytest

from trisched import Schedule, ThreeDMInstance, encode, greedy_schedule, new_instance, simulate
from trisched.serialize import (
    decode_exact,
    demands_from_obj,
    demands_to_obj,
    dumps,
    encode_exact,
    execution_trace_from_obj,
    execution_trace_to_obj,
    greedy_trace_from_obj,
    greedy_trace_to_obj,
    instance_from_obj,
    instance_to_obj,
    labels_to_obj,
    read_json,
    schedule_from_obj,
    schedule_to_obj,
    tdm_from_obj,
    tdm_to_obj,
    write_json,
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
        assert tdm_from_obj(tdm_to_obj(tdm)) == tdm

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
        assert demands_from_obj(demands_to_obj(demands)) == demands

    def test_shape_error(self):
        with pytest.raises(ValueError):
            demands_from_obj({"demands": 3})


class TestFileFormat:
    def test_dumps_is_stable_and_newline_terminated(self):
        text = dumps({"b": 1, "a": [2]})
        assert text == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'
        assert json.loads(text) == {"a": [2], "b": 1}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "instance.json"
        write_json(path, instance_to_obj(new_instance([4, 4, 20])))
        assert instance_from_obj(read_json(path)).sizes == (20, 4, 4)
