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
"""

from __future__ import annotations

from .core import Instance, Schedule, _half_sum_bound, lower_bound, makespan
from .greedy import greedy_schedule

DEFAULT_SIZE_LIMIT = 12


class InstanceTooLargeError(ValueError):
    """The exact search refuses instances beyond its configured size."""


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
    # `greedy_schedule`, not `untraced_greedy`, though the trace goes
    # unused: perfbench/tracing.py `layer_metrics` finds each exact span's
    # seed through its `greedy.greedy_schedule` child span, so a traced
    # oracle-pool run raises KeyError without it.  On instances this small
    # the trace costs a few microseconds.
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

    def fits(target: int) -> list[tuple[int, int]] | None:
        """The (size, start) jobs, in start order, of a canonical schedule
        that ends by `target`, or None."""
        cnt = counts[:]
        # next_start[r]: earliest start of a job of size distinct[r] after the
        # placed prefix, non-increasing in r.
        next_start = [0] * m
        jobs: list[tuple[int, int]] = []
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
                jobs.append((p, s))
                saved = next_start[:]
                cap = caps[j]
                for r in range(m):
                    need = s + cap[r]
                    if need > next_start[r]:
                        next_start[r] = need
                if descend(depth + 1):
                    return True
                next_start[:] = saved
                jobs.pop()
                cnt[j] += 1
            return False

        return jobs if descend(0) else None

    # Ask for an order ending one below the incumbent until none exists.
    while best_val > floor:
        jobs = fits(best_val - 1)
        if jobs is None:
            break
        best = Schedule(tuple(jobs))
        best_val = makespan(best)
    return best_val, best

