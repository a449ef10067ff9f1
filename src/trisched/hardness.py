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
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .core import Instance, Schedule, check_feasible, makespan, new_instance

Matching = tuple[tuple[int, int, int], ...]

JOB_TYPES = ("E", "F", "A", "B", "C")


class ThreeDMInstance(namedtuple("ThreeDMInstance", "D a b c")):
    """Numerical 3DM input: target D and value columns a, b, c (1-based).

    Every value is a plain int, so the encoded sizes and the certificate
    schedule are ints by construction.
    """

    __slots__ = ()

    def __new__(cls, D: int, a: tuple[int, ...], b: tuple[int, ...], c: tuple[int, ...]) -> ThreeDMInstance:
        for v in (D, *a, *b, *c):
            if type(v) is not int:
                raise ValueError(f"3DM values must be integers, got {v!r}")
        if D < 4:
            raise ValueError(f"D must be at least 4, got {D}")
        n = len(a)
        if n == 0 or len(b) != n or len(c) != n:
            raise ValueError("columns a, b, c must be non-empty and equally long")
        for name, column in (("a", a), ("b", b), ("c", c)):
            for v in column:
                if not 4 * v > D or not 2 * v < D:
                    raise ValueError(f"{name} value {v} outside the open range (D/4, D/2) for D={D}")
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
    return {
        "E": (8 * M + 5 * tdm.D,) * tdm.n,
        "F": (4 * M,) * tdm.n,
        "A": tuple(2 * M + 2 * v + tdm.D for v in tdm.a),
        "B": tuple(2 * M + v for v in tdm.b),
        "C": tuple(M + v + tdm.D for v in tdm.c),
    }


def encode(tdm: ThreeDMInstance, M: int) -> tuple[Instance, ReductionLabels]:
    """Encode a 3DM instance as 5n jobs; solvable iff a matching exists.

    With M >= ceil(5D/4) the size ranges order strictly as
    E > F > A_i > B_j > C_k, so a job's size identifies its type.
    """
    sizes_by_type = _type_sizes(tdm, M)
    labeled = []
    for kind in JOB_TYPES:
        for index, size in enumerate(sizes_by_type[kind], start=1):
            labeled.append((kind, index, size))
    instance = new_instance(size for _, _, size in labeled)
    target = tdm.n * sizes_by_type["E"][0]
    return instance, ReductionLabels(M=M, target=target, jobs=tuple(labeled))


def ratio_excess(tdm: ThreeDMInstance, M: int) -> Fraction:
    """binary_tree_ratio(encoded) - 2: equals 5D/(4M) for n >= 2.

    The maximum is always the E/F boundary 2 + 5D/(4M); all other
    half-index ratios stay below 2.
    """
    return Fraction(5 * tdm.D, 4 * M)


def _validate_matching(tdm: ThreeDMInstance, matching: Matching) -> None:
    n = tdm.n
    if len(matching) != n:
        raise ValueError(f"matching must have {n} triplets, got {len(matching)}")
    for coord in range(3):
        seen = sorted(t[coord] for t in matching)
        if seen != list(range(1, n + 1)):
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
    jobs = []
    for t, (i, j, k) in enumerate(matching):
        offset = t * window
        size_a, size_b, size_c = sizes["A"][i - 1], sizes["B"][j - 1], sizes["C"][k - 1]
        jobs.append((window, offset))
        jobs.append((size_a, offset + size_a))
        jobs.append((size_c, offset + size_a + size_c))
        jobs.append((size_f, offset + size_a + 2 * size_c))
        jobs.append((size_b, offset + size_a + 2 * size_c + size_b))
    return Schedule._trusted(tuple(jobs))


class DecodeError(ValueError):
    """A tight schedule failed to decode; `block` is the offending window
    (0-based) or None when the failure is global."""

    def __init__(self, message: str, block: int | None = None):
        where = f" (block {block})" if block is not None else ""
        super().__init__(message + where)
        self.block = block


def matching_from_schedule(tdm: ThreeDMInstance, M: int, schedule: Schedule) -> Matching:
    """Recover a matching from a feasible schedule of makespan <= n*(8M+5D).

    The E jobs must sit exactly at multiples of 8M+5D; each window between
    them must then hold exactly one F, A, B, C, and each window's triplet
    must sum to D.  Anything else raises DecodeError naming the window.
    """
    instance, labels = encode(tdm, M)
    if sorted(schedule.sizes, reverse=True) != list(instance.sizes):
        raise DecodeError("schedule job sizes do not match the encoded instance")
    violations = check_feasible(schedule)
    if violations:
        raise DecodeError(f"schedule is infeasible at pairs {violations}")
    target = labels.target
    window = target // tdm.n
    if makespan(schedule) > target:
        raise DecodeError(f"makespan {makespan(schedule)} exceeds the target {target}")

    e_starts = sorted(start for size, start in schedule.jobs if size == window)
    expected = [t * window for t in range(tdm.n)]
    if e_starts != expected:
        raise DecodeError(f"E jobs start at {e_starts}, need exactly {expected}")

    # size -> (type, unused 1-based source indices, descending so pop()
    # takes the first); a size names one type and one value, so after the
    # multiset check every size has as many jobs as indices
    free: dict[int, tuple[str, list[int]]] = {}
    for kind, index, size in reversed(labels.jobs):
        free.setdefault(size, (kind, []))[1].append(index)
    blocks: dict[int, dict[str, list[int]]] = {
        t: {kind: [] for kind in JOB_TYPES} for t in range(tdm.n)
    }
    for size, start in schedule.jobs:
        blocks[start // window][free[size][0]].append(size)

    matching = []
    for t in range(tdm.n):
        for kind in JOB_TYPES:
            if len(blocks[t][kind]) != 1:
                raise DecodeError(
                    f"window holds {len(blocks[t][kind])} jobs of type {kind}, need 1",
                    block=t,
                )
        unused = [free[blocks[t][kind][0]][1] for kind in ("A", "B", "C")]
        i, j, k = (indices[-1] for indices in unused)
        total = tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1]
        if total != tdm.D:
            raise DecodeError(f"triplet values sum to {total}, need {tdm.D}", block=t)
        for indices in unused:
            indices.pop()
        matching.append((i, j, k))
    return tuple(matching)


def solve_3dm_bruteforce(tdm: ThreeDMInstance, limit: int = 6) -> Matching | None:
    """First matching in lexicographic order, or None; backtracking search.

    The a column is consumed in index order, so triplets come out with
    first coordinates 1..n.
    """
    if tdm.n > limit:
        raise ValueError(f"brute-force matcher limited to {limit} triplets, got {tdm.n}")
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
