"""Core types for the triangle scheduling problem.

A job is a positive integer size (its criticality weight).  A schedule
assigns every job a start time, and is feasible when each pair of starts is
separated by at least the smaller of the two sizes.  The makespan is the
latest completion time over all jobs.

All arithmetic is exact: starts may be ints or `fractions.Fraction`, and
floats are rejected at the boundary so no rounding error can enter any
solver path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ExactNumber = int | Fraction

GapList = tuple[tuple[ExactNumber, ExactNumber], ...]


def as_exact(value: ExactNumber) -> ExactNumber:
    """Validate an exact number, collapsing integral Fractions to int."""
    if isinstance(value, float):
        raise TypeError(f"floats are not allowed in exact arithmetic: {value!r}")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class Instance:
    """A multiset of job sizes, stored sorted non-increasing."""

    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("an instance needs at least one job")
        for p in self.sizes:
            if isinstance(p, bool) or not isinstance(p, int) or p <= 0:
                raise ValueError(f"job sizes must be positive integers, got {p!r}")
        object.__setattr__(self, "sizes", tuple(sorted(self.sizes, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.sizes)


def new_instance(raw_sizes: Iterable[int]) -> Instance:
    """Build an Instance from sizes given in any order."""
    return Instance(tuple(raw_sizes))


@dataclass(frozen=True)
class Schedule:
    """Jobs as (size, start) pairs.

    Feasibility is checked, never enforced, so broken schedules can be
    represented and diagnosed.  Sizes are positive ints on every
    instance-derived path; intermediate rounded schedules may carry exact
    rational sizes.
    """

    jobs: tuple[tuple[ExactNumber, ExactNumber], ...]

    def __post_init__(self) -> None:
        checked = []
        for size, start in self.jobs:
            size = as_exact(size)
            start = as_exact(start)
            if size <= 0:
                raise ValueError(f"job sizes must be positive, got {size!r}")
            if start < 0:
                raise ValueError(f"start times must be non-negative, got {start!r}")
            checked.append((size, start))
        object.__setattr__(self, "jobs", tuple(checked))

    @property
    def n(self) -> int:
        return len(self.jobs)

    @property
    def sizes(self) -> tuple[ExactNumber, ...]:
        return tuple(size for size, _ in self.jobs)

    @property
    def starts(self) -> tuple[ExactNumber, ...]:
        return tuple(start for _, start in self.jobs)


def check_feasible(schedule: Schedule) -> list[tuple[int, int]]:
    """Return every unordered pair of jobs violating the separation rule.

    A pair (i, j) of positions in ``schedule.jobs`` violates feasibility when
    |s_i - s_j| < min(p_i, p_j).  An empty list means the schedule is
    feasible; pairs come as (i, j) with i < j, in increasing order.

    A stack sweep in start order: an earlier job i conflicts with j exactly
    when its window covers s_j (s_i + p_i > s_j) and s_i > s_j - p_j.  Jobs
    whose window ended before s_j are popped off the top, so the top is the
    latest-starting earlier job covering s_j, and the walk down the stack
    stops at the first job starting at or before s_j - p_j.  On a feasible
    schedule that walk looks at one job, so the check is O(n log n); only a
    job that conflicts with an earlier one walks further.
    """
    jobs = schedule.jobs
    starts = schedule.starts
    stack: list[int] = []
    stack_starts: list[ExactNumber] = []
    stack_ends: list[ExactNumber] = []
    bad = []
    for j in sorted(range(len(jobs)), key=starts.__getitem__):
        p_j, s_j = jobs[j]
        while stack_ends and stack_ends[-1] <= s_j:
            stack.pop()
            stack_starts.pop()
            stack_ends.pop()
        reach = s_j - p_j
        k = len(stack) - 1
        while k >= 0 and stack_starts[k] > reach:
            if stack_ends[k] > s_j:
                i = stack[k]
                bad.append((i, j) if i < j else (j, i))
            k -= 1
        stack.append(j)
        stack_starts.append(s_j)
        stack_ends.append(s_j + p_j)
    bad.sort()
    return bad


def makespan(schedule: Schedule) -> ExactNumber:
    """Latest completion time max_j (s_j + p_j)."""
    if not schedule.jobs:
        raise ValueError("makespan of an empty schedule is undefined")
    return max(start + size for size, start in schedule.jobs)


def gaps(schedule: Schedule) -> GapList:
    """Intervals between successive starts, in time order.

    The last gap runs from the latest start to the makespan, so the gap count
    equals the job count and the lengths sum to makespan minus the earliest
    start.  Coincident starts are rejected; they only occur in infeasible
    schedules and would make the notion of a gap meaningless.
    """
    if not schedule.jobs:
        raise ValueError("an empty schedule has no gaps")
    starts = sorted(schedule.starts)
    for a, b in zip(starts, starts[1:]):
        if a == b:
            raise ValueError(f"coincident starts at {a!r}")
    end = makespan(schedule)
    bounds = starts + [end]
    return tuple((bounds[i], bounds[i + 1] - bounds[i]) for i in range(len(starts)))


def binary_tree_ratio(instance: Instance) -> Fraction:
    """R(p) = max over i >= 2 of p_ceil(i/2) / p_i, as an exact rational.

    Measures how fast sizes decay along the implicit heap order; R <= 2 is
    the regime where the greedy solver is provably optimal.  A single-job
    instance has ratio 1 by convention.
    """
    p = instance.sizes
    if len(p) == 1:
        return Fraction(1)
    return max(Fraction(p[(i + 1) // 2 - 1], p[i - 1]) for i in range(2, len(p) + 1))


def lower_bound(instance: Instance) -> int:
    """Half-sum makespan bound: m + 2*(sum of the smallest floor(n/2) sizes).

    Every schedule needs a gap before each job; pairing the n gaps against
    the smaller of their adjacent sizes charges each of the smallest
    floor(n/2) jobs at most twice, plus the median size m once when n is
    odd.
    """
    return _half_sum_bound(instance.sizes)


def _half_sum_bound(p: Sequence[int]) -> int:
    """`lower_bound` of the sizes `p`, given sorted non-increasing."""
    n = len(p)
    half_sum = sum(p[(n + 1) // 2:])
    middle = p[n // 2] if n % 2 else 0
    return middle + 2 * half_sum
