"""JSON wire formats.

Exact rationals travel as "num/den" strings and integers stay bare JSON
numbers; floats are rejected on load so wire data can never smuggle rounding
error into the solvers.  Every loader reads its fields through `_field`, so
a malformed file raises ValueError naming the field, never a KeyError.

The per-job files the CLI writes (schedules, greedy and execution traces,
reduction labels) come from text writers that format one row per job from
a fixed template; each writes exactly the bytes `dumps` would write for the
same data as nested dicts, without building a dict per job.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .bench import RatioSearchReport
from .core import ExactNumber, Instance, Schedule, new_instance
from .greedy import GreedyTrace, TraceStep
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


def _digit_limit() -> int:
    """The most digits CPython converts between text and int, 0 for no
    limit (`sys.get_int_max_str_digits`, absent before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def any_digits(convert, *args, **kwargs):
    """convert(*args, **kwargs), with CPython's digit limit lifted for the
    call and restored after it.  Results can have more digits than the inputs
    the loaders admit (two sizes of 4300 digits end past 4300), so every text
    the CLI prints or writes is made through here, one call per output; the
    loaders keep the limit."""
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return convert(*args, **kwargs)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


class DigitLimitError(ValueError):
    """A number in a file has more digits than `_digit_limit()`; `literal`
    is its JSON text, of which the message shows a short prefix."""

    def __init__(self, literal: str):
        super().__init__(f"number {_prefix(literal)} has more than {_digit_limit()} digits")


def _prefix(text: str) -> str:
    """`text`, cut short when it is long."""
    return text if len(text) <= 40 else text[:24] + "..."


def _too_many_digits(text: str) -> bool:
    digits = text.strip().lstrip("+-")
    return len(digits) > _digit_limit() > 0 and digits.isdecimal()


def decode_exact(value: object) -> ExactNumber:
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
            if _too_many_digits(num) or _too_many_digits(den):
                raise DigitLimitError(f'"{value}"') from None
            raise ValueError(f"bad rational literal {_prefix(repr(value))}") from exc
        return int(f) if f.denominator == 1 else f
    raise ValueError(f"expected int or \"num/den\" string, got {_prefix(repr(value))}")


def _field(obj: object, key: str, what: str, array: bool = False) -> object:
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


def _integer(value: object, what: str) -> int:
    """decode_exact(value), which must be an integer: `what` names the values
    in the one-line ValueError otherwise."""
    number = decode_exact(value)
    if not isinstance(number, int):
        raise ValueError(f"{what} must be integers, got {value!r}")
    return number


def instance_to_obj(instance: Instance) -> dict:
    return {"sizes": list(instance.sizes)}


def instance_from_obj(obj: object) -> Instance:
    """The instance, whose constructor checks plain int sizes in C-level
    passes; only a file holding anything else decodes each value first."""
    sizes = _field(obj, "sizes", "instance JSON", array=True)
    if not set(map(type, sizes)) <= {int}:
        sizes = [decode_exact(p) for p in sizes]
    return new_instance(sizes)


def schedule_to_obj(schedule: Schedule) -> dict:
    return {
        "jobs": [
            {"size": encode_exact(size), "start": encode_exact(start)}
            for size, start in schedule.jobs
        ]
    }


def schedule_from_obj(obj: object) -> Schedule:
    """The schedule.  A file of plain ints, sizes positive and starts
    non-negative, is checked once, by C-level passes, and kept as it is.
    Any other file takes the per-entry path: it decodes what is not a plain
    int, and the public constructor checks every value and collapses
    integral rationals, so a fault gets the message that names it."""
    entries = _field(obj, "jobs", "schedule JSON", array=True)
    try:
        sizes = list(map(itemgetter("size"), entries))
        starts = list(map(itemgetter("start"), entries))
    except (KeyError, TypeError):
        pass
    else:
        if (set(map(type, sizes)) | set(map(type, starts)) <= {int}
                and (not entries or min(sizes) > 0 and min(starts) >= 0)):
            return Schedule._trusted(tuple(zip(sizes, starts)))
    jobs = []
    for entry in entries:
        size, start = _field(entry, "size", "schedule job"), _field(entry, "start", "schedule job")
        jobs.append((
            size if type(size) is int else decode_exact(size),
            start if type(start) is int else decode_exact(start),
        ))
    return Schedule(tuple(jobs))


def tdm_from_obj(obj: object) -> ThreeDMInstance:
    """The 3DM instance.  A column of plain ints is taken as it is, by a
    C-level pass; any other column decodes each value, so a fault gets the
    message that names it.  The instance's constructor checks the rest."""
    d = _integer(_field(obj, "D", "3DM JSON"), "3DM values")
    a, b, c = (_integers(_field(obj, key, "3DM JSON", array=True), "3DM values") for key in "abc")
    return ThreeDMInstance(D=d, a=a, b=b, c=c)


def _integers(values: list, what: str) -> tuple[int, ...]:
    """The values, each of which must decode to an integer (see `_integer`)."""
    if set(map(type, values)) <= {int}:
        return tuple(values)
    return tuple(_integer(v, what) for v in values)


def execution_trace_from_obj(obj: object) -> ExecutionTrace:
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


def demands_from_obj(obj: object) -> tuple[ExactNumber, ...]:
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


def _json_value(value: object) -> str:
    """The JSON text of encode_exact(value): "num/den" for a Fraction, null
    for None."""
    if type(value) is int:
        return str(value)
    if type(value) is Fraction and value.denominator != 1:
        return f'"{value.numerator}/{value.denominator}"'
    return json.dumps(encode_exact(value))


def _json_rows(rows: Sequence[tuple]) -> Sequence[tuple]:
    """The rows, with each value something whose `%s` is its JSON text.

    A plain int prints as its JSON text already, so rows of nothing else come
    back as they are; otherwise every value is replaced by its `_json_value`.
    Row templates use `%s`, never `%d`, which would truncate a Fraction
    without a word.
    """
    if set(map(type, chain.from_iterable(rows))) <= {int}:
        return rows
    return [tuple(map(_json_value, row)) for row in rows]


def schedule_json(schedule: Schedule) -> str:
    """dumps(schedule_to_obj(schedule)), one row per job."""
    rows = ", ".join(map('{"size": %s, "start": %s}'.__mod__, _json_rows(schedule.jobs)))
    return f'{{"jobs": [{rows}]}}\n'


_STEP_KEYS = sorted(TraceStep._fields)
_STEP_ROW = "{" + ", ".join(f'"{key}": %s' for key in _STEP_KEYS) + "}"
_step_values = itemgetter(*map(TraceStep._fields.index, _STEP_KEYS))


def greedy_trace_json(trace: GreedyTrace) -> str:
    """The greedy trace file: {"steps": [...]} with one object per step and
    null for the fields the first step has none of."""
    values = list(map(_step_values, trace))
    rows = _json_rows(values[:1]) + _json_rows(values[1:])   # only step 1 holds None
    return f'{{"steps": [{", ".join(map(_STEP_ROW.__mod__, rows))}]}}\n'


_EXECUTED_ROW = '{"end": %s, "job": %s, "size": %s, "start": %s, "status": "executed"}'
_CANCELED_ROW = '{"canceled_by": %s, "job": %s, "size": %s, "start": %s, "status": "canceled"}'


def execution_trace_json(trace: ExecutionTrace) -> str:
    """The execution trace file: the completion time and one record per job,
    with an `end` when it executed and a `canceled_by` when it did not."""
    records = trace.records
    values = _json_rows([(r.end if r.executed else r.canceled_by, r.job, r.size, r.start) for r in records])
    rows = ", ".join([
        (_EXECUTED_ROW if r.executed else _CANCELED_ROW) % row for r, row in zip(records, values)
    ])
    return f'{{"completion": {_json_value(trace.completion)}, "records": [{rows}]}}\n'


def labels_json(labels: ReductionLabels) -> str:
    """The reduction labels sidecar: M, the target makespan and each encoded
    job's type, 1-based source index and size."""
    rows = labels.jobs
    types = {kind: json.dumps(kind) for kind in set(map(itemgetter(0), rows))}
    if not set(map(type, map(itemgetter(1), rows))) | set(map(type, map(itemgetter(2), rows))) <= {int}:
        rows = [(kind, _json_value(index), _json_value(size)) for kind, index, size in rows]
    text = ", ".join([f'{{"index": {index}, "size": {size}, "type": {types[kind]}}}' for kind, index, size in rows])
    return f'{{"M": {_json_value(labels.M)}, "jobs": [{text}], "target": {_json_value(labels.target)}}}\n'


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8.  The CLI writes every file through
    here: writing through `pathlib.Path` objects instead measured about
    0.25 MiB more peak memory over 2700 CLI calls."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_json(path, obj: dict) -> None:
    write_text(path, dumps(obj))


def read_json(path) -> object:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to load") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the JSON parses, but a bare int is too long to convert
        long_int = _digit_limit() and re.search(r"\d{%d,}" % (_digit_limit() + 1), text)
        if not long_int:
            raise
        raise DigitLimitError(long_int[0]) from None
