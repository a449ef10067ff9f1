"""Runtime semantics for mixed-criticality schedules.

Sizes are worst-case budgets; at runtime each job has an actual demand
1 <= d_j <= p_j.  The machine runs jobs in start order: a job whose start
falls inside the currently executing job's window is canceled by it and
consumes no time; otherwise it executes for exactly its demand.  The gap
structure of a feasible schedule guarantees the canceler always has strictly
higher criticality than the job it cancels, whatever the demands are.  An
infeasible schedule is refused with one line, `schedule is infeasible:`
followed by `core.conflict_text` of the first pair `check_feasible` finds.
"""

from __future__ import annotations

from collections import namedtuple

from .core import ExactNumber, Schedule, as_exact, check_feasible, conflict_text


# One per job, so a named tuple, and `simulate` builds its rows with
# `tuple.__new__`, which skips the named tuple's Python-level `__new__` and
# takes less than half its time.
#   job          position in schedule.jobs
#   size
#   start
#   executed
#   end          start + demand when executed, else None
#   canceled_by  the canceling job's position when canceled, else None
ExecutionRecord = namedtuple("ExecutionRecord", "job size start executed end canceled_by")

# records: one per job, in schedule job order; completion: end of the last
# executed job
ExecutionTrace = namedtuple("ExecutionTrace", "records completion")


def simulate(schedule: Schedule, demands) -> ExecutionTrace:
    """Execute a feasible schedule under the given per-job demands.

    Demands align with schedule.jobs.  Raises ValueError on infeasible
    schedules, out-of-range demands, and a cancellation that breaks the
    protection property (which feasibility rules out).
    """
    conflict = check_feasible(schedule)
    if conflict is not None:
        raise ValueError(f"schedule is infeasible: {conflict_text(schedule, conflict)}")
    jobs = schedule.jobs
    if len(demands) != len(jobs):
        raise ValueError(f"need {len(jobs)} demands, got {len(demands)}")
    checked = []
    for (size, _), d in zip(jobs, demands):
        d = as_exact(d)
        if not 1 <= d <= size:
            raise ValueError(f"demand {d!r} outside [1, {size}]")
        checked.append(d)

    order = sorted(range(len(jobs)), key=lambda i: jobs[i][1])
    records: list[ExecutionRecord | None] = [None] * len(jobs)
    record = tuple.__new__
    busy_until: ExactNumber = 0
    last_executed: int | None = None
    for i in order:
        size, start = jobs[i]
        if start < busy_until:
            # Executed intervals are disjoint and ordered, so the only
            # interval that can cover this start is the most recent one.
            canceler = last_executed
            if canceler is None or jobs[canceler][0] <= size:
                raise ValueError(
                    f"protection violated: job {i} would be canceled by job "
                    f"{canceler}, which is not strictly more critical"
                )
            records[i] = record(ExecutionRecord, (i, size, start, False, None, canceler))
        else:
            end = start + checked[i]
            records[i] = record(ExecutionRecord, (i, size, start, True, end, None))
            busy_until = end
            last_executed = i
    return ExecutionTrace(records=tuple(records), completion=busy_until)
