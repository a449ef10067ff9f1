"""Exact minimum makespan via branch and bound over start orders.

Any feasible schedule can be left-shifted, job by job in start order, until
every job sits exactly at max_i (s_i + min(p_i, p_k)) over the jobs before
it.  That canonical form is determined by the order alone, so the optimum is
the best canonical makespan over all orders of the size multiset.  The
search branches on distinct sizes (equal sizes are interchangeable), seeds
its incumbent with the greedy schedule, and prunes branches whose partial
makespan already ties the incumbent.

A prefix of placed jobs matters to the future only through the unplaced
multiset, the makespan so far, and the earliest feasible next start for each
remaining size (every later placement is a monotone function of those).  The
search keeps a table of explored prefixes keyed by the unplaced multiset and
cuts any prefix that is pointwise no better than a stored one; that
dominance rule is what makes 10-job instances with distinct sizes tractable.

`grid_exhaustive_optimum` is an independent cross-check: it never uses the
canonicalization, just raw integer start tuples.
"""

from __future__ import annotations

from typing import Sequence

from .core import Instance, Schedule, lower_bound, makespan
from .greedy import greedy_schedule

DEFAULT_SIZE_LIMIT = 12


class InstanceTooLargeError(ValueError):
    """The exact search refuses instances beyond its configured size."""


def canonical_schedule_for_order(sizes: Sequence[int]) -> Schedule:
    """Left-shifted schedule for jobs taken in the given order.

    Job k starts at the smallest time respecting every earlier job, which is
    max over placed i of (s_i + min(p_i, p_k)); the first job starts at 0.
    """
    if not sizes:
        raise ValueError("order must contain at least one job")
    starts: list[int] = []
    for k, p in enumerate(sizes):
        s = 0
        for i in range(k):
            need = starts[i] + min(sizes[i], p)
            if need > s:
                s = need
        starts.append(s)
    return Schedule(tuple(zip(tuple(sizes), tuple(starts))))


def optimal_makespan(instance: Instance, limit: int = DEFAULT_SIZE_LIMIT) -> tuple[int, Schedule]:
    """Exact optimum makespan with a witness schedule.

    `limit` caps the instance size (the search is factorial in the worst
    case, though the dominance table makes typical instances far cheaper).
    """
    n = instance.n
    if n > limit:
        raise InstanceTooLargeError(
            f"exact search limited to {limit} jobs, got {n}; raise `limit` to override"
        )
    seed_schedule, _ = greedy_schedule(instance)
    floor = lower_bound(instance)
    best_val = makespan(seed_schedule)
    if best_val == floor:
        return best_val, seed_schedule

    distinct = sorted(set(instance.sizes), reverse=True)
    m = len(distinct)
    cnt = [0] * m
    for p in instance.sizes:
        cnt[distinct.index(p)] += 1

    # next_start[j] = earliest feasible start for a job of size distinct[j]
    # given the placed prefix: max over placed of (s_i + min(p_i, distinct[j])).
    next_start = [0] * m
    order: list[int] = []
    best_order: list[tuple[int, ...]] = []
    best = [best_val]
    # Explored-prefix table: unplaced multiset -> minimal (span, next starts)
    # vectors.  A new prefix pointwise >= a stored one cannot beat anything
    # the stored one reached, so it is cut (sound alongside the incumbent:
    # the stored prefix's subtree was only ever pruned against values that
    # the incumbent already covers).
    table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

    def descend(depth: int, span: int) -> None:
        if depth == n:
            if span < best[0]:
                best[0] = span
                best_order[:] = [tuple(order)]
            return
        if depth:
            key = tuple(cnt)
            vec = (span,) + tuple(next_start[j] for j in range(m) if cnt[j])
            bucket = table.get(key)
            if bucket is None:
                table[key] = [vec]
            else:
                for old in bucket:
                    if all(a <= b for a, b in zip(old, vec)):
                        return
                bucket[:] = [old for old in bucket if any(a < b for a, b in zip(old, vec))]
                bucket.append(vec)
        for j in range(m):
            if not cnt[j]:
                continue
            p = distinct[j]
            s = next_start[j]
            new_span = span if span > s + p else s + p
            if new_span >= best[0]:
                continue
            cnt[j] -= 1
            order.append(p)
            saved = next_start[:]
            for r in range(m):
                need = s + (p if p < distinct[r] else distinct[r])
                if need > next_start[r]:
                    next_start[r] = need
            descend(depth + 1, new_span)
            next_start[:] = saved
            order.pop()
            cnt[j] += 1
            if best[0] == floor:
                return

    descend(0, 0)
    if not best_order:
        return best_val, seed_schedule
    return best[0], canonical_schedule_for_order(best_order[0])


def grid_exhaustive_optimum(instance: Instance, horizon: int) -> int:
    """Minimum makespan over feasible integer-start schedules in [0, horizon].

    Pure brute force over start tuples with no order canonicalization,
    pruning only start prefixes that are already pairwise infeasible (a
    violated pair never heals).  Conclusive whenever the horizon is at least
    the sum of all sizes.  Hard-limited to 4 jobs and horizon 30.
    """
    if instance.n > 4:
        raise InstanceTooLargeError("grid search limited to 4 jobs")
    if horizon > 30:
        raise ValueError("grid search limited to horizon 30")
    sizes = instance.sizes
    n = instance.n
    chosen: list[int] = []
    best: list[int | None] = [None]

    def assign(k: int, span: int) -> None:
        if best[0] is not None and span >= best[0]:
            return
        if k == n:
            best[0] = span
            return
        p = sizes[k]
        for s in range(horizon + 1):
            ok = True
            for i in range(k):
                if abs(s - chosen[i]) < min(sizes[i], p):
                    ok = False
                    break
            if ok:
                chosen.append(s)
                assign(k + 1, max(span, s + p))
                chosen.pop()

    assign(0, 0)
    if best[0] is None:
        raise ValueError(f"no feasible integer schedule within horizon {horizon}")
    return best[0]
