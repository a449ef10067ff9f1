"""JSON wire formats.

Exact rationals travel as "num/den" strings and integers stay bare JSON
numbers; floats are rejected on load so wire data can never smuggle rounding
error into the solvers.  Every loader reads its fields through `_field`, so
a malformed file raises ValueError naming the field, never a KeyError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .bench import RatioSearchReport
from .core import ExactNumber, Instance, Schedule, new_instance
from .greedy import GreedyTrace
from .hardness import ReductionLabels, ThreeDMInstance
from .simulate import ExecutionRecord, ExecutionTrace


def encode_exact(value: ExactNumber) -> int | str:
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    return value


def decode_exact(value: Any) -> ExactNumber:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ValueError(f"floats are not allowed on the wire: {value!r}; use \"num/den\"")
    if isinstance(value, str):
        num, _, den = value.partition("/")
        try:
            f = Fraction(int(num), int(den)) if den else Fraction(int(num))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}") from exc
        return int(f) if f.denominator == 1 else f
    raise ValueError(f"expected int or \"num/den\" string, got {value!r}")


def _field(obj: Any, key: str, what: str, array: bool = False) -> Any:
    """obj[key], where `obj` must be a JSON object holding `key` (an array
    when `array` is set); anything else raises a one-line ValueError."""
    try:
        value = obj[key]
    except (KeyError, TypeError):
        if not isinstance(obj, dict):
            raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}") from None
        raise ValueError(f"{what} has no {key!r} field") from None
    if array and not isinstance(value, list):
        raise ValueError(f"{what} field {key!r} must be an array, got {type(value).__name__}")
    return value


def _integer(value: Any, what: str) -> int:
    """decode_exact(value), which must be an integer: `what` names the values
    in the one-line ValueError otherwise."""
    number = decode_exact(value)
    if not isinstance(number, int):
        raise ValueError(f"{what} must be integers, got {value!r}")
    return number


def instance_to_obj(instance: Instance) -> dict:
    return {"sizes": list(instance.sizes)}


def instance_from_obj(obj: Any) -> Instance:
    return new_instance([decode_exact(p) for p in _field(obj, "sizes", "instance JSON", array=True)])


def schedule_to_obj(schedule: Schedule) -> dict:
    return {
        "jobs": [
            {"size": encode_exact(size), "start": encode_exact(start)}
            for size, start in schedule.jobs
        ]
    }


def schedule_from_obj(obj: Any) -> Schedule:
    jobs = []
    for entry in _field(obj, "jobs", "schedule JSON", array=True):
        size, start = _field(entry, "size", "schedule job"), _field(entry, "start", "schedule job")
        jobs.append((decode_exact(size), decode_exact(start)))
    return Schedule(tuple(jobs))


def tdm_from_obj(obj: Any) -> ThreeDMInstance:
    d = _integer(_field(obj, "D", "3DM JSON"), "3DM values")
    a, b, c = (
        tuple(_integer(v, "3DM values") for v in _field(obj, key, "3DM JSON", array=True))
        for key in "abc"
    )
    return ThreeDMInstance(D=d, a=a, b=b, c=c)


def labels_to_obj(labels: ReductionLabels) -> dict:
    return {
        "M": labels.M,
        "target": labels.target,
        "jobs": [
            {"type": kind, "index": index, "size": size}
            for kind, index, size in labels.jobs
        ],
    }


def greedy_trace_to_obj(trace: GreedyTrace) -> dict:
    return {
        "steps": [
            {
                "job": s.job,
                "size": s.size,
                "gap_start": s.gap_start,
                "gap_length": s.gap_length,
                "placement": s.placement,
                "shift": s.shift,
                "parent": s.parent,
                "makespan": s.makespan,
            }
            for s in trace
        ]
    }


def execution_trace_to_obj(trace: ExecutionTrace) -> dict:
    records = []
    for r in trace.records:
        entry = {
            "job": r.job,
            "size": encode_exact(r.size),
            "start": encode_exact(r.start),
            "status": "executed" if r.executed else "canceled",
        }
        if r.executed:
            entry["end"] = encode_exact(r.end)
        else:
            entry["canceled_by"] = r.canceled_by
        records.append(entry)
    return {"completion": encode_exact(trace.completion), "records": records}


def execution_trace_from_obj(obj: Any) -> ExecutionTrace:
    """Load a trace that `simulate` could have written: record k is job k,
    an executed record has start < end <= start + size, and a canceled one
    names an executed record as its canceler."""
    records = []
    for k, r in enumerate(_field(obj, "records", "execution trace JSON", array=True)):
        job = _integer(_field(r, "job", "trace record"), "trace record jobs")
        if job != k:
            raise ValueError(f"trace record {k} must be job {k}, got job {job}")
        status = _field(r, "status", "trace record")
        if status not in ("executed", "canceled"):
            raise ValueError(f"trace record status must be executed or canceled, got {status!r}")
        size = decode_exact(_field(r, "size", "trace record"))
        start = decode_exact(_field(r, "start", "trace record"))
        if status == "executed":
            end = decode_exact(_field(r, "end", "trace record"))
            if not start < end <= start + size:
                raise ValueError(f"trace record {k} runs [{start}, {end}), but needs start < end <= start + {size}")
            records.append(ExecutionRecord(k, size, start, True, end, None))
        else:
            canceler = _integer(_field(r, "canceled_by", "trace record"), "trace record cancelers")
            records.append(ExecutionRecord(k, size, start, False, None, canceler))
    for r in records:
        if not r.executed and not (0 <= r.canceled_by < len(records) and records[r.canceled_by].executed):
            raise ValueError(f"trace record {r.job} is canceled by {r.canceled_by}, which is not an executed record")
    completion = decode_exact(_field(obj, "completion", "execution trace JSON"))
    return ExecutionTrace(records=tuple(records), completion=completion)


def demands_from_obj(obj: Any) -> tuple[ExactNumber, ...]:
    return tuple(decode_exact(d) for d in _field(obj, "demands", "demands JSON", array=True))


def report_to_obj(report: RatioSearchReport) -> dict:
    return {
        "ratio": encode_exact(Fraction(report.ratio)),
        "witness": list(report.witness),
        "iterations": report.iterations,
        "seed": report.seed,
        "findings": [
            {"sizes": list(sizes), "ratio": encode_exact(Fraction(ratio))}
            for sizes, ratio in report.findings
        ],
    }


def dumps(obj: dict) -> str:
    """One line of sorted-key JSON.  An `indent` would make CPython fall back
    from its C encoder to the pure-Python one, about three times slower on
    a large trace; loaders ignore whitespace, so indented files still load."""
    return json.dumps(obj, sort_keys=True) + "\n"


def write_json(path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


def read_json(path) -> Any:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to load") from None
