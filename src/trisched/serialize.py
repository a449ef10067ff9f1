"""JSON wire formats.

Exact rationals travel as "num/den" strings and integers stay bare JSON
numbers; floats are rejected on load so wire data can never smuggle rounding
error into the solvers.  A string has one spelling (`_RATIONAL`), so no
`int()` leniency can change a value on the way in.  Every loader reads its
fields through `_field`, so a malformed file raises ValueError naming the
field, never a KeyError.

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
from .simulate import ExecutionRecord, ExecutionTrace, simulate


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
    """convert(*args, **kwargs) under CPython's digit limit plus 20, then
    the limit restored; no limit stays none.  `cli_main` runs each command
    through here, so its loaders and writers share one cap.  Below 10^9
    jobs no result passes its inputs by 20 digits (greedy's starts are at
    most twice the sum of the sizes, the reduction's target n(8M+5D), the
    QPTAS grid about n^2/eps points), so the CLI reads back what it writes."""
    limit = _digit_limit()
    if limit:
        sys.set_int_max_str_digits(limit + 20)
    try:
        return convert(*args, **kwargs)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _prefix(text: str) -> str:
    """`text`, cut short when it is long."""
    return text if len(text) <= 40 else text[:24] + "..."


# ASCII digits without leading zeros, a minus only on the numerator, and a
# positive denominator; no spaces or underscores.  `re` compiles it on first
# use, so a process that reads only plain ints never pays for it.
_RATIONAL = r"-?(0|[1-9][0-9]*)(/[1-9][0-9]*)?"


def decode_exact(value: object) -> ExactNumber:
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise ValueError(f"floats are not allowed on the wire: {value!r}; use \"num/den\"")
    if isinstance(value, str):
        if not re.fullmatch(_RATIONAL, value):
            raise ValueError(f"bad rational literal {_prefix(repr(value))}")
        num, _, den = value.partition("/")
        try:
            f = Fraction(int(num), int(den or 1))
        except ValueError:
            # the spelling is right, so only the digit count can be wrong
            raise ValueError(f"number {_prefix(json.dumps(value))} has more than {_digit_limit()} digits") from None
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
    """The schedule.  A file of plain ints goes to the constructor as its two
    columns; any other file is decoded entry by entry.  The constructor checks
    every value, so a fault gets the message that names it."""
    entries = _field(obj, "jobs", "schedule JSON", array=True)
    try:
        sizes = list(map(itemgetter("size"), entries))
        starts = list(map(itemgetter("start"), entries))
    except (KeyError, TypeError):
        pass
    else:
        if set(map(type, sizes)) | set(map(type, starts)) <= {int}:
            return Schedule(zip(sizes, starts))
    jobs = []
    for entry in entries:
        size, start = _field(entry, "size", "schedule job"), _field(entry, "start", "schedule job")
        jobs.append((decode_exact(size), decode_exact(start)))
    return Schedule(jobs)


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
    """Load a trace that `simulate` writes.  Record k must be job k, and
    `simulate` must give the same trace when it runs the records' jobs with
    each executed job's demand `end - start` and each canceled job's demand
    1 (a canceled job uses no time, so its demand does not matter)."""
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
            records.append(ExecutionRecord(k, size, start, True, end, None))
        else:
            canceler = _integer(_field(r, "canceled_by", "trace record"), "trace record cancelers")
            records.append(ExecutionRecord(k, size, start, False, None, canceler))
    completion = decode_exact(_field(obj, "completion", "execution trace JSON"))
    trace = ExecutionTrace(records=tuple(records), completion=completion)
    demands = [r.end - r.start if r.executed else 1 for r in records]
    try:
        expected = simulate(Schedule(tuple((r.size, r.start) for r in records)), demands)
    except ValueError as exc:
        raise ValueError(f"not a trace simulate writes: {exc}") from None
    if trace != expected:
        k = next((r.job for r, e in zip(records, expected.records) if r != e), None)
        where = "completion" if k is None else f"record {k}"
        raise ValueError(f"not a trace simulate writes: its {where} differs")
    return trace


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
    0.25 MiB more peak memory over 2700 CLI calls.

    A file that exists is rewritten in place and then cut to the new
    length, since truncating it on open costs more than the write (a 1 KB
    rewrite took 0.09 ms that way and 0.01 ms this way on ext4).  New
    files, pipes and devices are never cut.  Neither way is atomic: a crash
    or a full disk partway through can now leave the new bytes followed by
    old ones, where a truncating open left an empty or short file."""
    import os

    def keep_contents(name, flags):
        return os.open(name, flags & ~os.O_TRUNC, 0o666)   # open()'s own mode

    with open(path, "w", encoding="utf-8", opener=keep_contents) as handle:
        held = os.fstat(handle.fileno()).st_size
        handle.write(text)
        # pipes, FIFOs and devices hold 0 bytes, and cannot seek
        if held and held > handle.tell():
            handle.truncate()


def write_json(path, obj: dict) -> None:
    write_text(path, dumps(obj))


def read_json(path) -> object:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to load") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # the JSON parses, but a bare int is too long to convert; the search
        # starts only where a run of digits starts, so it reads each digit once
        long_int = _digit_limit() and re.search(r"(?<![0-9])[0-9]{%d}" % (_digit_limit() + 1), text)
        if not long_int:
            raise
        raise ValueError(f"number {_prefix(long_int[0])} has more than {_digit_limit()} digits") from None
