"""Exact minimum makespan via a deadline search over start orders.

Any feasible schedule can be left-shifted, job by job in start order, until
every job sits exactly at max_i (s_i + min(p_i, p_k)) over the jobs before
it.  That canonical form is determined by the order alone, so the optimum is
the best canonical makespan over all orders of the size multiset.

The search answers decision questions, `decide(instance, target)`: does
some order end every job by `target`?  Greedy seeds the incumbent, optimal
at any n when it meets the largest half-sum bound at a class end
(`core.class_end_bounds`); otherwise `optimal_makespan` asks for one less
than the incumbent, takes any order found as the new one, and asks again
(`_descend`, shared with the QPTAS).  One call's questions share a budget
of work, a unit per int the search reads or compares and `STORED` per int
it keeps, and raise SearchRefused past it.  The count reads no clock, so an
instance gets the same answer or refusal on every machine, and as it
charges what the search keeps, it bounds memory as well as time.

Two jobs start min(p, q) apart, the cap of the smaller one, so `_search`
takes one cap per size class, at least that size and never rising as the
sizes fall; `decide` passes the sizes, the QPTAS rounds them up to whole
grid steps, and every cut below holds for any such caps.  The search branches
on distinct sizes (equal sizes are interchangeable), depth first in size
order on its own stack, so no recursion limit caps the job count, and cuts:

- a prefix whose unplaced jobs of size >= some live size d already cannot
  fit: they all start at or after the next start for d, and among
  themselves they need the half-sum bound at the end of d's class.  It is
  at least d (one job gives d, two or more at least 2d), so a prefix that
  passes can place a job of every live size and end it by the target;
- a prefix dominated by an explored one.  With the target fixed, a prefix
  matters to the future only through the unplaced multiset and the earliest
  next start of each remaining size, so a table keyed by the multiset holds
  the minimal next-start vectors that failed, and a prefix pointwise >= one
  of them fails too.

Almost all of the work proves the greedy incumbent optimal, which is why
the cuts are strong rather than the nodes cheap.
"""

from __future__ import annotations

from collections import Counter
from operator import le, lt

from .core import Instance, Schedule, as_count, class_end_bounds, makespan
from .greedy import greedy_schedule

WORK_BUDGET = 25_000_000
STORED = 3


class SearchRefused(ValueError):
    """A search past its work budget."""


def _search(sizes: list[int], counts: list[int], caps: list[int], target: int,
            class_bounds: dict, budget: int, nodes: int = 0, work: int = 0) -> tuple[list | None, int, int]:
    """The first order, in class order, whose jobs all end by `target`.

    Class j has `counts[j]` jobs of size `sizes[j]`, sizes falling with j;
    jobs of classes j <= r start at least caps[r] apart, where caps[r] is at
    least sizes[r] and never rises with r.  Next starts never rise with the
    class either, so a job of class j at s = next_start[j] sets each class
    r >= j to exactly s + caps[r], with no max over the tail, and lifts each
    earlier class to at least s + caps[j].  Returns the placements, (class
    index, start) in start order, or None, and `nodes` and `work` plus the
    prefixes visited and the units spent; SearchRefused past `budget` units.
    """
    n = sum(counts)
    m = len(sizes)
    cnt = list(counts)
    # class_bounds, which questions on the same classes may share: unplaced
    # multiset -> its class_end_bounds, (r, bound) over the live classes r
    # next_start[r]: earliest start of a job of class r after the placed
    # prefix, non-increasing in r; `saved` holds it before each placement
    next_start = [0] * m
    saved: list[list[int]] = []
    jobs: list[tuple[int, int]] = []
    # unplaced multiset -> minimal next-start vectors (live classes only)
    # of the prefixes explored so far, all of which failed
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    # the next class to try after each prefix of `jobs`, m for none
    tries: list[int] = []
    while True:
        if len(jobs) == n:
            return jobs, nodes, work
        nodes += 1
        key = tuple(cnt)
        bounds = class_bounds.get(key)
        if bounds is None:
            bounds = class_bounds[key] = class_end_bounds(sizes, key)
            work += STORED * (m + 2 * len(bounds))
        work += m + len(bounds)  # the key, the next starts and the bound scan
        # the prefix gets children unless a cut proves it fails
        tries.append(m)
        for r, bound in bounds:
            if next_start[r] + bound > target:
                break
        else:
            vec = tuple([next_start[r] for r, _ in bounds])
            bucket = table.setdefault(key, [])
            work += (len(bucket) + STORED) * len(vec)
            for old in bucket:
                if all(map(le, old, vec)):
                    break
            else:
                bucket[:] = [old for old in bucket if any(map(lt, old, vec))]
                bucket.append(vec)
                tries[-1] = 0
        if work > budget:
            raise SearchRefused(f"search refused past its work budget of {budget} units")
        # back out of every prefix with no class left to try
        while True:
            j = tries[-1]
            while j < m and not cnt[j]:
                j += 1
            if j < m:
                break
            tries.pop()
            if not jobs:
                return None, nodes, work
            j, _ = jobs.pop()
            cnt[j] += 1
            next_start = saved.pop()
        tries[-1] = j + 1
        s = next_start[j]
        cnt[j] -= 1
        jobs.append((j, s))
        saved.append(next_start)
        lift = s + caps[j]
        next_start = [a if a > lift else lift for a in next_start[:j]] + [s + c for c in caps[j:]]


def _descend(sizes: list[int], counts: list[int], caps: list[int], target: int,
             budget: int | None = None) -> tuple[list | None, int]:
    """The last order `_search` finds asked for `target`, then for one below
    each order's makespan until none fits, or None, and the nodes visited.
    The questions share the class-bounds memo and `budget` (None: `WORK_BUDGET`)."""
    budget = WORK_BUDGET if budget is None else budget
    class_bounds: dict = {}
    found, nodes, work = None, 0, 0
    while True:
        jobs, nodes, work = _search(sizes, counts, caps, target, class_bounds, budget, nodes, work)
        if jobs is None:
            return found, nodes
        found, target = jobs, max(s + sizes[j] for j, s in jobs) - 1


def decide(instance: Instance, target: int) -> Schedule | None:
    """A canonical schedule whose jobs all end by `target`, an int, or None
    when no order of the sizes fits; SearchRefused past `WORK_BUDGET`."""
    as_count(target, "target")
    tally = Counter(instance.sizes)
    distinct = list(tally)
    jobs, _, _ = _search(distinct, list(tally.values()), distinct, target, {}, WORK_BUDGET)
    return None if jobs is None else Schedule([(distinct[j], s) for j, s in jobs])


def optimal_makespan(instance: Instance, limit: int = WORK_BUDGET) -> tuple[int, Schedule]:
    """Exact optimum makespan with a witness schedule: greedy's, at any n,
    when it meets the largest class-end bound; otherwise a search, factorial
    in the worst case, refused past `limit` units of work (SearchRefused)."""
    if as_count(limit, "limit") < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    # `greedy_schedule`, not `untraced_greedy`, though the trace goes unused:
    # perfbench/tracing.py `layer_metrics` finds each exact span's seed through
    # its `greedy.greedy_schedule` child span, so a traced oracle-pool run
    # raises KeyError without it.  The trace doubles greedy's time at 10^5 jobs.
    best, _ = greedy_schedule(instance)
    best_val = makespan(best)
    tally = Counter(instance.sizes)
    distinct, counts = list(tally), list(tally.values())
    # greedy meets a lower bound: the search's root cut refuses its first question
    if max(bound for _, bound in class_end_bounds(distinct, counts)) == best_val:
        return best_val, best
    jobs, _ = _descend(distinct, counts, distinct, best_val - 1, limit)
    if jobs is not None:
        best = Schedule([(distinct[j], s) for j, s in jobs])
    return makespan(best), best
