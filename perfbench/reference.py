"""Independent checks of the program's outputs.

Nothing here calls into `trisched`: the feasibility check, the lower bound,
the execution-trace check and the reduction certificate are written out
again from their definitions, so a defect in a measured layer cannot also
hide itself from the check.  Wire values are parsed from the JSON text the
program wrote, not through `trisched.serialize`.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction


class WrongOutput(Exception):
    """An output file or printed line disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


def number(value):
    """Parse a wire number: a bare int or a "num/den" string."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise WrongOutput(f"not an exact wire number: {value!r}")
    if isinstance(value, int):
        return value
    f = Fraction(value)
    return int(f) if f.denominator == 1 else f


def read(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def schedule_jobs(path) -> list[tuple]:
    """(size, start) pairs of a schedule JSON file, in file order."""
    return [(number(job["size"]), number(job["start"])) for job in read(path)["jobs"]]


def makespan(jobs) -> int | Fraction:
    return max(start + size for size, start in jobs)


def lower_bound(sizes) -> int:
    """m + 2 * (sum of the smallest floor(n/2) sizes), m the median when n is odd."""
    p = sorted(sizes, reverse=True)
    n = len(p)
    return (p[n // 2] if n % 2 else 0) + 2 * sum(p[(n + 1) // 2:])


def _prefix_max(tree, index):
    best = None
    while index > 0:
        if tree[index] is not None and (best is None or tree[index] > best):
            best = tree[index]
        index -= index & -index
    return best


def _raise_to(tree, index, value):
    while index < len(tree):
        if tree[index] is None or value > tree[index]:
            tree[index] = value
        index += index & -index


def is_feasible(jobs) -> bool:
    """|s_i - s_j| >= min(p_i, p_j) for every pair, in O(n log n).

    Sweep the jobs in start order.  A job j is compatible with every earlier
    job i exactly when s_j >= max{s_i : p_i >= p_j} + p_j and
    s_j >= max{s_i + p_i : p_i < p_j}; two prefix-max Fenwick trees over the
    size ranks answer both maxima.
    """
    sizes = sorted({p for p, _ in jobs})
    rank = {p: r for r, p in enumerate(sizes)}
    m = len(sizes)
    at_least = [None] * (m + 1)   # index m - r: sizes >= p form a prefix
    below = [None] * (m + 1)      # index r + 1: sizes < p form a prefix
    for p, s in sorted(jobs, key=lambda job: job[1]):
        r = rank[p]
        latest = _prefix_max(at_least, m - r)
        if latest is not None and s < latest + p:
            return False
        end = _prefix_max(below, r)
        if end is not None and s < end:
            return False
        _raise_to(at_least, m - r, s)
        _raise_to(below, r + 1, s + p)
    return True


def check_schedule(jobs, sizes) -> None:
    """The schedule keeps the instance's size multiset and is feasible."""
    expect(Counter(p for p, _ in jobs) == Counter(sizes), "schedule changed the size multiset")
    expect(all(s >= 0 for _, s in jobs), "schedule has a negative start")
    expect(is_feasible(jobs), "schedule is infeasible")


def check_execution(jobs, trace) -> None:
    """An execution trace obeys the runtime rules for its schedule.

    Executed jobs run back to back in start order for a demand in
    [1, size]; a job is canceled exactly when its start falls inside the
    window of the job running at that moment, which must be strictly
    larger; the completion is the end of the last executed job.
    """
    records = trace["records"]
    expect(len(records) == len(jobs), "execution trace has the wrong record count")
    windows = {}
    for k, record in enumerate(records):
        size, start = jobs[k]
        expect(record["job"] == k, f"record {k} names job {record['job']}")
        expect((number(record["size"]), number(record["start"])) == (size, start),
               f"record {k} does not match its job")
        if record["status"] == "executed":
            end = number(record["end"])
            expect(1 <= end - start <= size, f"record {k} ran outside [1, {size}]")
            windows[k] = (start, end)
        else:
            expect(record["status"] == "canceled", f"record {k} has status {record['status']!r}")
    ordered = sorted(windows.values())
    expect(all(a[1] <= b[0] for a, b in zip(ordered, ordered[1:])), "executed windows overlap")
    for k, record in enumerate(records):
        if k in windows:
            continue
        by = record["canceled_by"]
        expect(by in windows, f"record {k} canceled by a job that did not run")
        expect(windows[by][0] <= jobs[k][1] < windows[by][1], f"record {k} not covered by its canceler")
        expect(jobs[by][0] > jobs[k][0], f"record {k} canceled by a job that is not larger")
    completion = max((end for _, end in ordered), default=0)
    expect(number(trace["completion"]) == completion, "execution completion is wrong")


def reduction_sizes(tdm: dict, M: int) -> list[int]:
    """The five job types of the 3DM encoding (E, F, A, B, C)."""
    D, n = tdm["D"], len(tdm["a"])
    return ([8 * M + 5 * D] * n + [4 * M] * n + [2 * M + 2 * v + D for v in tdm["a"]]
            + [2 * M + v for v in tdm["b"]] + [M + v + D for v in tdm["c"]])


def certificate(tdm: dict, M: int, matching) -> list[tuple[int, int]]:
    """The tight schedule of a matching: window t holds E, A, C, F, B."""
    D = tdm["D"]
    window = 8 * M + 5 * D
    jobs = []
    for t, (i, j, k) in enumerate(matching):
        a = 2 * M + 2 * tdm["a"][i - 1] + D
        b = 2 * M + tdm["b"][j - 1]
        c = M + tdm["c"][k - 1] + D
        offset = t * window
        jobs += [(window, offset), (a, offset + a), (c, offset + a + c),
                 (4 * M, offset + a + 2 * c), (b, offset + a + 2 * c + b)]
    return jobs


def check_matching(tdm: dict, matching) -> None:
    n = len(tdm["a"])
    for coord in range(3):
        expect(sorted(t[coord] for t in matching) == list(range(1, n + 1)),
               f"matching coordinate {coord} is not a permutation")
    for i, j, k in matching:
        expect(tdm["a"][i - 1] + tdm["b"][j - 1] + tdm["c"][k - 1] == tdm["D"],
               f"triplet ({i}, {j}, {k}) does not sum to D")
