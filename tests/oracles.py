"""Reference implementations, kept as test oracles.

These are the straightforward loops that the library's near-linear
`check_feasible` and `greedy_schedule` replaced, and the optimization-form
branch and bound that the exact oracle's deadline search replaced.  Tests
cross-check the fast paths against them on small inputs.
"""

import itertools

from trisched import Instance, Schedule, greedy_schedule, lower_bound, makespan
from trisched.exact import canonical_schedule_for_order
from trisched.greedy import TraceStep, insert_into_gap


def pairs_oracle(schedule: Schedule) -> list[tuple[int, int]]:
    """Every pair (i, j), i < j, with |s_i - s_j| < min(p_i, p_j)."""
    jobs = schedule.jobs
    bad = []
    for i in range(len(jobs)):
        p_i, s_i = jobs[i]
        for j in range(i + 1, len(jobs)):
            p_j, s_j = jobs[j]
            if abs(s_i - s_j) < min(p_i, p_j):
                bad.append((i, j))
    return bad


def greedy_oracle(instance: Instance):
    """Greedy by a linear scan for the largest gap and an explicit shift of
    every later start; yields (step, gaps_before, gaps_after, starts)."""
    sizes = instance.sizes
    starts = [0]
    # gaps as mutable [start, length, owner] in time order
    gap_list = [[0, sizes[0], 1]]
    span = sizes[0]
    first = TraceStep(1, sizes[0], None, None, 0, 0, None, span)
    yield first, (), ((0, sizes[0]),), (0,)

    for j in range(2, len(sizes) + 1):
        p = sizes[j - 1]
        before = tuple((g[0], g[1]) for g in gap_list)
        pick = 0
        for idx in range(1, len(gap_list)):
            if gap_list[idx][1] > gap_list[pick][1]:
                pick = idx
        g_start, g_len, owner = gap_list[pick]
        placement, (left, right), shift = insert_into_gap((g_start, g_len), p)
        if shift:
            # jobs at or beyond the gap's right edge move
            edge = g_start + g_len
            for k in range(len(starts)):
                if starts[k] >= edge:
                    starts[k] += shift
            for g in gap_list[pick + 1:]:
                g[0] += shift
        starts.append(placement)
        gap_list[pick:pick + 1] = [
            [left[0], left[1], j],
            [right[0], right[1], j],
        ]
        span += shift
        step = TraceStep(j, p, g_start, g_len, placement, shift, owner, span)
        after = tuple((g[0], g[1]) for g in gap_list)
        yield step, before, after, tuple(starts)


def greedy_schedule_oracle(instance: Instance):
    """(schedule, trace) of the oracle run."""
    trace = []
    starts = ()
    for step, _, _, starts in greedy_oracle(instance):
        trace.append(step)
    return Schedule(tuple(zip(instance.sizes, starts))), tuple(trace)


def optimal_makespan_oracle(instance: Instance) -> tuple[int, Schedule]:
    """Branch and bound over start orders, pruning against the incumbent.

    Branches on distinct sizes, seeds the incumbent with greedy, and keeps a
    table of explored prefixes keyed by the unplaced multiset whose vectors
    are (makespan so far, next start of each live class); a prefix pointwise
    >= a stored one is cut.
    """
    n = instance.n
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
    next_start = [0] * m
    order: list[int] = []
    best_order: list[tuple[int, ...]] = []
    best = [best_val]
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


def order_brute_force_optimum(sizes) -> int:
    """Minimum canonical makespan over every distinct order of `sizes`."""
    return min(makespan(canonical_schedule_for_order(order)) for order in set(itertools.permutations(sizes)))
