"""Core types for the triangle scheduling problem.

A job is a positive integer size (its criticality weight).  A schedule
assigns every job a start time, and is feasible when each pair of starts is
separated by at least the smaller of the two sizes.  The makespan is the
latest completion time over all jobs.

All arithmetic is exact: starts may be ints or `fractions.Fraction`, and
floats are rejected at the boundary so no rounding error can enter any
solver path.

Every `Instance` and `Schedule`, solver output and loaded file alike, is
built by its constructor, which checks every value and refuses zero jobs.
`Schedule` keeps valid plain-int (size, start) tuples as they are after one
pass (15 ms at 10^5 jobs, 3-6% of greedy's time) and checks anything else
job by job, collapsing integral Fractions and naming the first fault.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

ExactNumber = int | Fraction


def as_exact(value: ExactNumber) -> ExactNumber:
    """Validate an exact number, collapsing integral Fractions to int."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise TypeError(f"floats are not allowed in exact arithmetic: {value!r}")
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    return value


def as_count(value: int, name: str) -> int:
    """Validate a count, a plain int (never a bool); the TypeError names it."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    return value


class _Frozen:
    """Base of `Instance` and `Schedule`, which each hold one field, named by
    their `__slots__`.  The constructor sets it once; after that it behaves
    like the field of a frozen dataclass: it cannot be assigned or deleted,
    and the object is compared, hashed and printed by it, never equal to an
    object of another class (a plain tuple included)."""

    __slots__ = ()

    def _value(self):
        return getattr(self, self.__slots__[0])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._value() == other._value()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._value(),))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({self.__slots__[0]}={self._value()!r})"

    def __reduce__(self):
        return self.__class__, (self._value(),)


class Instance(_Frozen):
    """A multiset of job sizes, stored sorted non-increasing."""

    __slots__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]) -> None:
        if not sizes:
            raise ValueError("an instance needs at least one job")
        if not set(map(type, sizes)) <= {int} or min(sizes) <= 0:
            for p in sizes:
                if isinstance(p, bool) or not isinstance(p, int) or p <= 0:
                    raise ValueError(f"job sizes must be positive integers, got {p!r}")
        object.__setattr__(self, "sizes", tuple(sorted(sizes, reverse=True)))

    @property
    def n(self) -> int:
        return len(self.sizes)


def new_instance(raw_sizes: Iterable[int]) -> Instance:
    """Build an Instance from sizes given in any order."""
    return Instance(tuple(raw_sizes))


class Schedule(_Frozen):
    """Jobs as (size, start) pairs, at least one.

    Feasibility is checked, never enforced, so broken schedules can be
    represented and diagnosed.  Sizes are positive ints on every
    instance-derived path, though the constructor also takes exact
    rational sizes.
    """

    __slots__ = ("jobs",)

    def __init__(self, jobs: Iterable[tuple[ExactNumber, ExactNumber]]) -> None:
        jobs = tuple(jobs)
        for job in jobs:
            if type(job) is not tuple or len(job) != 2:
                break
            size, start = job
            if type(size) is not int or type(start) is not int or size <= 0 or start < 0:
                break
        else:
            if jobs:
                object.__setattr__(self, "jobs", jobs)
                return
        checked = []
        for size, start in jobs:
            size = as_exact(size)
            start = as_exact(start)
            if size <= 0:
                raise ValueError(f"job sizes must be positive, got {size!r}")
            if start < 0:
                raise ValueError(f"start times must be non-negative, got {start!r}")
            checked.append((size, start))
        if not checked:
            raise ValueError("schedule has no jobs")
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


def check_feasible(schedule: Schedule) -> tuple[int, int] | None:
    """Return the first pair of jobs violating the separation rule, or None.

    A pair (i, j) of positions in ``schedule.jobs`` violates feasibility when
    |s_i - s_j| < min(p_i, p_j).  None means the schedule is feasible;
    otherwise the pair comes as (i, j) with i < j.

    A stack sweep in start order, ties by position: jobs whose window ended
    by s_j are popped off the top, so the top is the latest-starting earlier
    job whose window covers s_j, and j conflicts with an earlier job exactly
    when it conflicts with the top (s_top > s_j - p_j).  The pair returned
    is that of the first job in sweep order to conflict with an earlier one
    and of the top of the stack, the latest-swept job it conflicts with.
    The check is O(n log n) whatever the schedule.
    """
    jobs = schedule.jobs
    starts = schedule.starts
    stack: list[tuple[ExactNumber, ExactNumber, int]] = []
    for j in sorted(range(len(jobs)), key=starts.__getitem__):
        p_j, s_j = jobs[j]
        while stack and stack[-1][1] <= s_j:
            stack.pop()
        if stack and stack[-1][0] > s_j - p_j:
            i = stack[-1][2]
            return (i, j) if i < j else (j, i)
        stack.append((s_j, s_j + p_j, j))
    return None


def conflict_text(schedule: Schedule, pair: tuple[int, int]) -> str:
    """The one-line account of a pair that `check_feasible` returned."""
    i, j = pair
    (p_i, s_i), (p_j, s_j) = schedule.jobs[i], schedule.jobs[j]
    return f"jobs {i} and {j}: |{s_i} - {s_j}| < min({p_i}, {p_j})"


def makespan(schedule: Schedule) -> ExactNumber:
    """Latest completion time max_j (s_j + p_j), over at least one job, as
    `Schedule` refuses zero."""
    return max(start + size for size, start in schedule.jobs)


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
