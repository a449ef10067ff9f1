"""Exact minimum makespan via a deadline search over start orders.

Any feasible schedule can be left-shifted, job by job in start order, until
every job sits exactly at max_i (s_i + min(p_i, p_k)) over the jobs before
it.  That canonical form is determined by the order alone, so the optimum is
the best canonical makespan over all orders of the size multiset.

The search is a sequence of decision questions, each one a call of
`decide(instance, target)`: does some order end every job by `target`?
Greedy seeds the incumbent, optimal at any n when it meets the largest
half-sum bound at a class end (`core.class_end_bounds`); otherwise
`optimal_makespan` refuses more than `limit` jobs, then asks for one less
than the incumbent, takes any order found as the new one, and asks again.

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

import math
from collections import Counter
from operator import le, lt

from .core import Instance, Schedule, as_count, class_end_bounds, makespan
from .greedy import greedy_schedule

DEFAULT_SIZE_LIMIT = 12


class SearchRefused(ValueError):
    """A search past its job cap (`optimal_makespan`) or node budget (QPTAS)."""


def _search(sizes: list[int], counts: list[int], caps: list[int], target: int,
            class_bounds: dict, budget: float = math.inf) -> tuple[list[tuple[int, int]] | None, int]:
    """The first order, in class order, whose jobs all end by `target`.

    Class j has `counts[j]` jobs of size `sizes[j]`, sizes falling with j;
    jobs of classes j <= r start at least caps[r] apart, where caps[r] is at
    least sizes[r] and never rises with r.  Next starts never rise with the
    class either, so a job of class j at s = next_start[j] sets each class
    r >= j to exactly s + caps[r], with no max over the tail, and lifts each
    earlier class to at least s + caps[j].  Returns the placements, (class
    index, start) in start order, or None, and the count of prefixes
    visited; more than `budget` of them give up with None.
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
    nodes = 0
    while True:
        if len(jobs) == n:
            return jobs, nodes
        nodes += 1
        if nodes > budget:
            return None, nodes
        key = tuple(cnt)
        bounds = class_bounds.get(key)
        if bounds is None:
            bounds = class_bounds[key] = class_end_bounds(sizes, key)
        # the prefix gets children unless a cut proves it fails
        tries.append(m)
        for r, bound in bounds:
            if next_start[r] + bound > target:
                break
        else:
            vec = tuple([next_start[r] for r, _ in bounds])
            bucket = table.setdefault(key, [])
            for old in bucket:
                if all(map(le, old, vec)):
                    break
            else:
                bucket[:] = [old for old in bucket if any(map(lt, old, vec))]
                bucket.append(vec)
                tries[-1] = 0
        # back out of every prefix with no class left to try
        while True:
            j = tries[-1]
            while j < m and not cnt[j]:
                j += 1
            if j < m:
                break
            tries.pop()
            if not jobs:
                return None, nodes
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


def decide(instance: Instance, target: int) -> Schedule | None:
    """A canonical schedule whose jobs all end by `target`, an int, or None
    when no order of the sizes fits.  It has no job cap."""
    as_count(target, "target")
    tally = Counter(instance.sizes)
    distinct = list(tally)
    jobs, _ = _search(distinct, list(tally.values()), distinct, target, {})
    if jobs is None:
        return None
    return Schedule([(distinct[j], s) for j, s in jobs])


def optimal_makespan(instance: Instance, limit: int = DEFAULT_SIZE_LIMIT) -> tuple[int, Schedule]:
    """Exact optimum makespan with a witness schedule: greedy's, at any n,
    when it meets the largest class-end bound; otherwise a search, factorial
    in the worst case, which refuses more than `limit` jobs (SearchRefused)."""
    as_count(limit, "limit")
    # `greedy_schedule`, not `untraced_greedy`, though the trace goes
    # unused: perfbench/tracing.py `layer_metrics` finds each exact span's
    # seed through its `greedy.greedy_schedule` child span, so a traced
    # oracle-pool run raises KeyError without it.  The trace costs a few
    # microseconds at n <= 12, but doubles greedy's time at 10^5 jobs.
    best, _ = greedy_schedule(instance)
    best_val = makespan(best)
    # greedy meets a lower bound: the search's root cut refuses its first question
    tally = Counter(instance.sizes)
    if max(bound for _, bound in class_end_bounds(list(tally), list(tally.values()))) == best_val:
        return best_val, best
    if instance.n > limit:
        raise SearchRefused(f"exact search limited to {limit} jobs, got {instance.n}; raise `limit` to override")
    # Ask for an order ending one below the incumbent until none exists.
    while True:
        better = decide(instance, best_val - 1)
        if better is None:
            return best_val, best
        best, best_val = better, makespan(better)
