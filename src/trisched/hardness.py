"""Reduction from numerical 3-dimensional matching to triangle scheduling.

A numerical 3DM instance has three columns of n values each, every value
strictly between D/4 and D/2, with total sum n*D; it asks for n disjoint
triplets (a_i, b_j, c_k) each summing to D.  The encoding emits five job
types per triplet slot whose sizes force any schedule of makespan
n*(8M+5D) to pack one block of each type per window of length 8M+5D, with
the block telescoping exactly when the triplet sums to D.  M is a free
padding parameter, at least ceil(5D/4) so the five type ranges stay
disjoint.

Block layout inside window t (offsets from t*(8M+5D)):

    E at 0, A_i at A_i, C_k at A_i + C_k, F at A_i + 2*C_k,
    B_j at A_i + 2*C_k + B_j.

The decoder inverts this: E jobs must sit exactly at the window starts,
every other job classifies by size, and each window must hold one F, A, B,
C with its triplet summing to D.

It checks, in this order: the job sizes against the encoding, feasibility
by `check_feasible`, the makespan against the target n*(8M+5D), and then
the window layout.  By the reduction's "schedule => matching" direction,
every feasible schedule of the target makespan is such a layout, with one
job of each type per window and each triplet summing to D; a schedule that
passes the first three checks and fails the layout would contradict the
reduction, and raises a DecodeError too.

A window holds one job of each type when its four other jobs, sorted by
size, fall in the C, B, A and F size ranges in that order, and its triplet
then sums to D exactly when A + 2B + 2C = W, since
A + 2B + 2C = 8M + 3D + 2(a + b + c).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter

from .core import Instance, Schedule, check_feasible, conflict_text, makespan, new_instance

Matching = tuple[tuple[int, int, int], ...]

JOB_TYPES = ("E", "F", "A", "B", "C")


class ThreeDMInstance(namedtuple("ThreeDMInstance", "D a b c")):
    """Numerical 3DM input: target D and value columns a, b, c (1-based),
    stored as tuples of plain ints."""

    __slots__ = ()

    def __new__(cls, D: int, a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> ThreeDMInstance:
        a, b, c = tuple(a), tuple(b), tuple(c)
        if not set(map(type, chain((D,), a, b, c))) <= {int}:
            bad = next(v for v in chain((D,), a, b, c) if type(v) is not int)
            raise ValueError(f"3DM values must be integers, got {bad!r}")
        if D < 4:
            raise ValueError(f"D must be at least 4, got {D}")
        n = len(a)
        if n == 0 or len(b) != n or len(c) != n:
            raise ValueError("columns a, b, c must be non-empty and equally long")
        for name, column in (("a", a), ("b", b), ("c", c)):
            if not (4 * min(column) > D and 2 * max(column) < D):
                bad = next(v for v in column if not (4 * v > D and 2 * v < D))
                raise ValueError(f"{name} value {bad} outside the open range (D/4, D/2) for D={D}")
        total = sum(a) + sum(b) + sum(c)
        if total != n * D:
            raise ValueError(f"values sum to {total}, need n*D = {n * D}")
        return super().__new__(cls, D, a, b, c)

    @property
    def n(self) -> int:
        return len(self.a)


def min_padding(tdm: ThreeDMInstance) -> int:
    """Smallest admissible M, ceil(5D/4)."""
    return -(-5 * tdm.D // 4)


# Sidecar mapping each encoded job to its type and source index: the padding
# M, the target makespan, and one (type, 1-based source index, size) per job.
ReductionLabels = namedtuple("ReductionLabels", "M target jobs")


def _type_sizes(tdm: ThreeDMInstance, M: int) -> dict[str, tuple[int, ...]]:
    """Job sizes per type, in source-index order; E is the window 8M+5D."""
    if type(M) is not int:
        raise ValueError(f"M must be an integer, got {M!r}")
    if M < min_padding(tdm):
        raise ValueError(f"M must be at least ceil(5D/4) = {min_padding(tdm)}, got {M}")
    D = tdm.D
    return {
        "E": (8 * M + 5 * D,) * tdm.n,
        "F": (4 * M,) * tdm.n,
        "A": tuple(map(add, repeat(2 * M + D), map(add, tdm.a, tdm.a))),
        "B": tuple(map(add, repeat(2 * M), tdm.b)),
        "C": tuple(map(add, repeat(M + D), tdm.c)),
    }


def encode(tdm: ThreeDMInstance, M: int) -> tuple[Instance, ReductionLabels]:
    """Encode a 3DM instance as 5n jobs; solvable iff a matching exists.

    With M >= ceil(5D/4) the size ranges order strictly as
    E > F > A_i > B_j > C_k, so a job's size identifies its type.
    """
    sizes_by_type = _type_sizes(tdm, M)
    labeled = []
    for kind in JOB_TYPES:
        column = sizes_by_type[kind]
        labeled += zip(repeat(kind), range(1, len(column) + 1), column)
    instance = new_instance(chain.from_iterable(sizes_by_type.values()))
    target = tdm.n * sizes_by_type["E"][0]
    return instance, ReductionLabels(M=M, target=target, jobs=tuple(labeled))


def ratio_excess(tdm: ThreeDMInstance, M: int) -> Fraction:
    """binary_tree_ratio(encoded) - 2: equals 5D/(4M) for every n >= 1.

    The maximum is always the E/F boundary 2 + 5D/(4M); all other
    half-index ratios stay below 2.
    """
    return Fraction(5 * tdm.D, 4 * M)


def _validate_matching(tdm: ThreeDMInstance, matching: Matching) -> None:
    """Raise ValueError unless `matching` is n triplets of three plain ints,
    each coordinate a permutation of 1..n, and each triplet sums to D."""
    n = tdm.n
    if type(matching) not in (tuple, list):
        raise ValueError(f"matching must be a tuple or list of triplets, got {type(matching).__name__}")
    if len(matching) != n:
        raise ValueError(f"matching must have {n} triplets, got {len(matching)}")
    if not (set(map(type, matching)) <= {tuple, list} and set(map(len, matching)) == {3}
            and set(map(type, chain.from_iterable(matching))) <= {int}):
        for triplet in matching:
            if type(triplet) not in (tuple, list) or len(triplet) != 3:
                raise ValueError(f"matching triplets must hold three indices, got {triplet!r}")
            if not set(map(type, triplet)) <= {int}:
                raise ValueError(f"matching indices must be integers, got {triplet!r}")
    for coord in range(3):
        if sorted(map(itemgetter(coord), matching)) != list(range(1, n + 1)):
            raise ValueError(f"matching coordinate {coord} is not a permutation of 1..{n}")
    for i, j, k in matching:
        total = tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1]
        if total != tdm.D:
            raise ValueError(f"triplet ({i},{j},{k}) sums to {total}, need {tdm.D}")


def schedule_from_matching(tdm: ThreeDMInstance, M: int, matching: Matching) -> Schedule:
    """Certificate schedule of makespan exactly n*(8M+5D).

    Window t holds the t-th triplet with the E/A/C/F/B layout; the gap left
    after B is 2M + 2D - 2a - b - 2c, exactly B's size when the triplet sums
    to D, so consecutive windows meet without slack.
    """
    sizes = _type_sizes(tdm, M)
    _validate_matching(tdm, matching)
    window, size_f = sizes["E"][0], sizes["F"][0]
    sizes_a, sizes_b, sizes_c = sizes["A"], sizes["B"], sizes["C"]
    jobs = []
    for offset, (i, j, k) in zip(range(0, tdm.n * window, window), matching):
        size_a, size_b, size_c = sizes_a[i - 1], sizes_b[j - 1], sizes_c[k - 1]
        f = offset + size_a + 2 * size_c
        jobs += (
            (window, offset), (size_a, offset + size_a), (size_c, f - size_c), (size_f, f), (size_b, f + size_b),
        )
    return Schedule(jobs)


class DecodeError(ValueError):
    """A tight schedule failed to decode."""


def matching_from_schedule(tdm: ThreeDMInstance, M: int, schedule: Schedule) -> Matching:
    """Recover a matching from a feasible schedule of makespan <= n*(8M+5D).

    The E jobs must sit exactly at multiples of 8M+5D; each window between
    them must then hold exactly one F, A, B, C, and each window's triplet
    must sum to D.  A schedule of the wrong sizes, infeasible or too long
    is refused first, and the DecodeError says which (see the module
    docstring for the order).  Window t takes, for each value, the
    smallest source index of that value that no earlier window took.
    """
    sizes = _type_sizes(tdm, M)
    if sorted(schedule.sizes) != sorted(chain.from_iterable(sizes.values())):
        raise DecodeError("schedule job sizes do not match the encoded instance")
    conflict = check_feasible(schedule)
    if conflict is not None:
        raise DecodeError(f"schedule is infeasible: {conflict_text(schedule, conflict)}")
    target = tdm.n * sizes["E"][0]
    if makespan(schedule) > target:
        raise DecodeError(f"makespan {makespan(schedule)} exceeds the target {target}")
    columns = _window_columns(schedule, sizes)
    if columns is None:
        raise DecodeError(f"feasible schedule within the target {target} is not a window layout")
    return tuple(zip(*map(_first_unused, columns, (sizes["A"], sizes["B"], sizes["C"]))))


def _window_columns(schedule: Schedule, sizes: dict[str, tuple[int, ...]]):
    """Each window's A, B and C sizes, as three columns, when the E jobs
    start at the window starts and every window holds one job of each type
    with its triplet summing to D; otherwise None."""
    n, window = len(sizes["E"]), sizes["E"][0]
    jobs = sorted(schedule.jobs, key=itemgetter(1))
    if jobs[::5] != list(zip(repeat(window), range(0, n * window, window))):
        return None
    # each window's four other jobs, smallest first: a C, B, A and F job
    # when the smallest is a C, the third an A and the largest an F; with
    # the sizes equal as multisets, the second is then a B
    ranked = zip(*map(sorted, zip(jobs[1::5], jobs[2::5], jobs[3::5], jobs[4::5])))
    p = [list(map(itemgetter(0), column)) for column in ranked]
    if p[3].count(sizes["F"][0]) != n or not all(
        min(sizes[kind]) <= min(held) and max(held) <= max(sizes[kind])
        for kind, held in (("C", p[0]), ("A", p[2]))
    ):
        return None
    bc = list(map(add, p[0], p[1]))
    if list(map(add, p[2], map(add, bc, bc))) != [window] * n:
        return None
    return p[2], p[1], p[0]


def _first_unused(held: tuple[int, ...], column: tuple[int, ...]) -> list[int]:
    """For each size in `held`, in order, the smallest 1-based index of that
    size in `column` that no earlier entry took."""
    free: dict[int, list[int]] = {}
    for index, size in enumerate(column, start=1):
        free.setdefault(size, []).append(index)
    take = {size: iter(indices).__next__ for size, indices in free.items()}
    return [take[size]() for size in held]


# Largest n that solve_3dm_bruteforce accepts.
BRUTEFORCE_LIMIT = 6


def solve_3dm_bruteforce(tdm: ThreeDMInstance) -> Matching | None:
    """First matching in lexicographic order, or None; backtracking search.

    The a column is consumed in index order, so triplets come out with
    first coordinates 1..n.
    """
    if tdm.n > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force matcher limited to {BRUTEFORCE_LIMIT} triplets, got {tdm.n}")
    n = tdm.n
    used_b = [False] * n
    used_c = [False] * n
    chosen: list[tuple[int, int, int]] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used_b[j]:
                continue
            for k in range(n):
                if used_c[k]:
                    continue
                if tdm.a[i] + tdm.b[j] + tdm.c[k] == tdm.D:
                    used_b[j] = True
                    used_c[k] = True
                    chosen.append((i + 1, j + 1, k + 1))
                    if extend(i + 1):
                        return True
                    chosen.pop()
                    used_b[j] = False
                    used_c[k] = False
        return False

    if extend(0):
        return tuple(chosen)
    return None
