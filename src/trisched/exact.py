"""Exact minimum makespan via a deadline search over start orders.

Any feasible schedule can be left-shifted, job by job in start order, until
every job sits exactly at max_i (s_i + min(p_i, p_k)) over the jobs before
it.  That canonical form is determined by the order alone, so the optimum is
the best canonical makespan over all orders of the size multiset.

The search is a sequence of decision questions.  Greedy seeds the
incumbent; then it asks whether some order ends every job at or below one
less than the incumbent, takes any order it finds as the new incumbent, and
asks again, until the answer is no or the incumbent reaches `lower_bound`.
Each question branches on distinct sizes (equal sizes are interchangeable)
and cuts:

- a placement that would end past the target;
- a prefix whose unplaced jobs of size >= some live size d already cannot
  fit: they all start at or after the next start for d, and among
  themselves they need the half-sum bound of `lower_bound`;
- a prefix dominated by an explored one.  With the target fixed, a prefix
  matters to the future only through the unplaced multiset and the earliest
  next start of each remaining size, so a table keyed by the multiset holds
  the minimal next-start vectors that failed, and a prefix pointwise >= one
  of them fails too.

Almost all of the work proves the greedy incumbent optimal, which is why
the cuts are strong rather than the nodes cheap.

`grid_exhaustive_optimum` is an independent cross-check: it never uses the
canonicalization, just raw integer start tuples.
"""

from __future__ import annotations

from typing import Sequence

from .core import Instance, Schedule, _half_sum_bound, lower_bound, makespan
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
    case, though the bound and the dominance table make typical instances
    far cheaper).
    """
    n = instance.n
    if n > limit:
        raise InstanceTooLargeError(
            f"exact search limited to {limit} jobs, got {n}; raise `limit` to override"
        )
    best, _ = greedy_schedule(instance)
    best_val = makespan(best)
    floor = lower_bound(instance)
    if best_val == floor:
        return best_val, best

    distinct = sorted(set(instance.sizes), reverse=True)
    m = len(distinct)
    counts = [instance.sizes.count(p) for p in distinct]
    # caps[j][r] = min(distinct[j], distinct[r]): placing a job of class j at
    # s pushes the next start of class r to at least s + caps[j][r].
    caps = [[min(p, q) for q in distinct] for p in distinct]
    # unplaced multiset -> [(r, half-sum bound of the unplaced jobs of size
    # >= distinct[r])] over the live classes r
    suffix_bounds: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def live_bounds(key: tuple[int, ...]) -> list[tuple[int, int]]:
        bounds = []
        suffix: list[int] = []
        for r in range(m):
            if key[r]:
                suffix += [distinct[r]] * key[r]
                bounds.append((r, _half_sum_bound(suffix)))
        suffix_bounds[key] = bounds
        return bounds

    def fits(target: int) -> list[int] | None:
        """An order whose canonical schedule ends by `target`, or None."""
        cnt = counts[:]
        # next_start[r]: earliest start of a job of size distinct[r] after the
        # placed prefix, non-increasing in r.
        next_start = [0] * m
        order: list[int] = []
        # unplaced multiset -> minimal next-start vectors (live classes only)
        # of the prefixes explored so far, all of which failed
        table: dict[tuple[int, ...], list[tuple[int, ...]]] = {}

        def descend(depth: int) -> bool:
            if depth == n:
                return True
            key = tuple(cnt)
            bounds = suffix_bounds.get(key) or live_bounds(key)
            for r, bound in bounds:
                if next_start[r] + bound > target:
                    return False
            vec = tuple([next_start[r] for r, _ in bounds])
            bucket = table.get(key)
            if bucket is None:
                table[key] = [vec]
            else:
                for old in bucket:
                    if all(a <= b for a, b in zip(old, vec)):
                        return False
                bucket[:] = [old for old in bucket if any(a < b for a, b in zip(old, vec))]
                bucket.append(vec)
            for j in range(m):
                if not cnt[j]:
                    continue
                p = distinct[j]
                s = next_start[j]
                if s + p > target:
                    continue
                cnt[j] -= 1
                order.append(p)
                saved = next_start[:]
                cap = caps[j]
                for r in range(m):
                    need = s + cap[r]
                    if need > next_start[r]:
                        next_start[r] = need
                if descend(depth + 1):
                    return True
                next_start[:] = saved
                order.pop()
                cnt[j] += 1
            return False

        return order if descend(0) else None

    # Ask for an order ending one below the incumbent until none exists.
    while best_val > floor:
        order = fits(best_val - 1)
        if order is None:
            break
        best = canonical_schedule_for_order(order)
        best_val = makespan(best)
    return best_val, best


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
