"""Reference implementations, kept as test oracles.

These are the straightforward loops that the library's near-linear
`check_feasible` and `greedy_schedule` replaced, the optimization-form
branch and bound that the exact oracle's deadline search replaced, the
recursive Fraction DP that the QPTAS's integer grid optimum replaced (with
the per-class hand-back of grid starts that one sort replaced, and the
Fraction rungs and grid schedule that the integer exponents and class
order stand for), the layered DP that stores every state it reaches, which
the QPTAS's grid search replaced, the heap of gap lengths that gives
greedy's makespan without its schedule, the half-sum bound at each class
end summed from the list of the jobs up to it, which the one running-sum
pass replaced, and a brute force over integer start tuples that never
uses the exact oracle's canonical form.  Tests
cross-check the fast paths against them on small inputs; of the pairs
the quadratic check lists, `first_pair_oracle` picks the one that
`check_feasible` returns.  The gap split
rule `insert_into_gap`, which the library's greedy loop inlines, lives here
beside the quadratic greedy that calls it.  The canonical schedule of an
order is the reference for the exact oracle's witness, the `*_to_obj`
functions below are the reference for the text writers that replaced them
(`dumps` of their dict is the file a writer must match byte for byte), and
the two strict readers load the greedy trace and ratio-search report files
that the CLI writes but never reads.  The per-job loop of the `Schedule`
constructor is the reference for the one pass that keeps valid plain-int
jobs as they are.  The per-entry instance, schedule and
3DM readers are the reference for the loaders' C-level pass over files of
plain ints: they decode every value and leave every check, and its message,
to the public constructor.  The reduction's decoder that re-encodes the
instance, sweeps the whole schedule for feasibility and walks each window's
jobs is the reference for the window-by-window decoder.  The eager parser,
which gives every subcommand its arguments through the CLI's own
per-subcommand functions, is the reference for the parser that gives them
only to the subcommand it runs.  The two question loops of the exact
oracle and of the QPTAS, each asking the search with no work budget, are
the reference for the one loop, `exact._descend`, that carries the budget
over all the questions of a call.
"""

import argparse
import itertools
import math
from collections import Counter, namedtuple
from fractions import Fraction
from heapq import heappush, heapreplace
from operator import add
from typing import Any, Sequence

from trisched import (
    DecodeError,
    ExactNumber,
    Instance,
    Matching,
    Schedule,
    ThreeDMInstance,
    check_feasible,
    encode,
    greedy_schedule,
    lower_bound,
    makespan,
    new_instance,
)
from trisched.bench import RatioSearchReport, evaluate_ratio
from trisched.core import as_exact, conflict_text
from trisched.cli import SUBCOMMANDS, build_parser
from trisched.exact import SearchRefused, _search
from trisched.greedy import GreedyTrace, TraceStep
from trisched.qptas import DPResult, QptasStats, RoundedInstance, grid_points, round_sizes, split_small
from trisched.hardness import JOB_TYPES, ReductionLabels
from trisched.serialize import _field, _integer, decode_exact, encode_exact
from trisched.simulate import ExecutionTrace

GapList = tuple[tuple[ExactNumber, ExactNumber], ...]


def gaps(schedule: Schedule) -> GapList:
    """Intervals between successive starts, in time order.

    The last gap runs from the latest start to the makespan, so the gap count
    equals the job count and the lengths sum to makespan minus the earliest
    start.  Coincident starts are rejected; they only occur in infeasible
    schedules and would make the notion of a gap meaningless.
    """
    if not schedule.jobs:
        raise ValueError("an empty schedule has no gaps")
    starts = sorted(schedule.starts)
    for a, b in zip(starts, starts[1:]):
        if a == b:
            raise ValueError(f"coincident starts at {a!r}")
    end = makespan(schedule)
    bounds = starts + [end]
    return tuple((bounds[i], bounds[i + 1] - bounds[i]) for i in range(len(starts)))


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


def first_pair_oracle(schedule: Schedule) -> tuple[int, int] | None:
    """The pair of `pairs_oracle` that `check_feasible` names: jobs are swept
    by (start, position), and the pair whose later-swept job comes first
    wins, ties going to the pair whose earlier-swept job comes last; None
    when there is no pair."""
    order = sorted(range(schedule.n), key=lambda k: (schedule.jobs[k][1], k))
    rank = {k: r for r, k in enumerate(order)}

    def sweep_key(pair):
        early, late = sorted(map(rank.__getitem__, pair))
        return late, -early

    return min(pairs_oracle(schedule), key=sweep_key, default=None)


def insert_into_gap(
    gap: tuple[int, int], size: int
) -> tuple[int, tuple[tuple[int, int], tuple[int, int]], int]:
    """Split a (start, length) gap by placing a job of the given size.

    Returns (placement, (left_gap, right_gap), shift).  A gap of length
    x >= 2*size splits into lengths (size, x - size) with no shift; a shorter
    gap yields two gaps of length size and pushes everything to the right by
    2*size - x.  Both regimes are handled, including size > x.
    """
    start, length = gap
    placement = start + size
    shift = max(0, 2 * size - length)
    left = (start, size)
    right = (placement, size if shift else length - size)
    return placement, (left, right), shift


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


def greedy_makespan_oracle(sizes: Sequence[int]) -> int:
    """Greedy's makespan from a heap of its gap lengths alone.

    Placing p in a largest gap of length x leaves gaps of lengths p and
    max(p, x - p), and the makespan is the sum of the lengths, so it grows
    by max(0, 2p - x).  No start and no tie rule enters.
    """
    order = sorted(sizes, reverse=True)
    span = order[0]
    heap = [-span]
    for p in order[1:]:
        x = -heap[0]
        heapreplace(heap, -p)
        heappush(heap, min(-p, p - x))
        if 2 * p > x:
            span += 2 * p - x
    return span


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


def decide_unbudgeted(instance: Instance, target: int) -> Schedule | None:
    """`exact.decide` with no work budget: one question of the search on a
    fresh class-bounds memo."""
    tally = Counter(instance.sizes)
    distinct = list(tally)
    jobs, _, _ = _search(distinct, list(tally.values()), distinct, target, {}, math.inf)
    return None if jobs is None else Schedule([(distinct[j], s) for j, s in jobs])


def optimal_makespan_by_questions(instance: Instance) -> tuple[int, Schedule]:
    """The exact oracle's own question loop: greedy seeds the incumbent,
    and each question, one below the incumbent, is a `decide_unbudgeted`
    call.  Where greedy meets the class-end bound, the first question's
    root cut answers no."""
    best, _ = greedy_schedule(instance)
    while True:
        better = decide_unbudgeted(instance, makespan(best) - 1)
        if better is None:
            return makespan(best), best
        best = better


def order_brute_force_optimum(sizes) -> int:
    """Minimum canonical makespan over every distinct order of `sizes`."""
    return min(makespan(canonical_schedule_for_order(order)) for order in set(itertools.permutations(sizes)))


def half_sum_bound(p: Sequence[int]) -> int:
    """`lower_bound` of the sizes `p`, given sorted non-increasing, summed
    from the list itself."""
    n = len(p)
    return (p[n // 2] if n % 2 else 0) + 2 * sum(p[(n + 1) // 2:])


def class_end_bounds_reference(sizes: Sequence[int], counts: Sequence[int]) -> list[int]:
    """`class_end_bounds` from the list of the jobs up to each live class's
    end, as the exact search once built and summed them for every unplaced
    multiset, O(n) per class."""
    jobs: list[int] = []
    bounds = []
    for r, (p, c) in enumerate(zip(sizes, counts)):
        if c:
            jobs += [p] * c
            bounds.append((r, half_sum_bound(jobs)))
    return bounds


def rung(rounded: RoundedInstance, k: int) -> Fraction:
    """The rounded size of exponent k: unit*(1+eps)^k, where the unit is
    the smallest original size, the last of `rounded.large`."""
    return rounded.large[-1][0] * (1 + rounded.eps) ** k


def grid_step(rounded: RoundedInstance, n: int) -> Fraction:
    """The QPTAS grid step eps * (largest rounded size) / n."""
    return rounded.eps * rung(rounded, rounded.classes[0]) / n


# makespan: a Fraction; schedule: the rounded sizes at their grid starts;
# states: the non-final configurations reached
GridResult = namedtuple("GridResult", "makespan schedule states")


def grid_schedule(rounded: RoundedInstance, n: int, order) -> tuple[Fraction, Schedule]:
    """The grid makespan and schedule of the rounded jobs placed class by
    class in `order` (indices into `rounded.classes`), each at the first
    grid point at or after s + min(x, z) for every earlier job of rounded
    size x at s, z its own rounded size."""
    step = grid_step(rounded, n)
    placements = []
    for zi in order:
        z = rung(rounded, rounded.classes[zi])
        need = max((s + min(x, z) for x, s in placements), default=0)
        placements.append((z, step * math.ceil(need / step)))
    return max(s + x for x, s in placements), Schedule(tuple(placements))


def dp_solve_oracle(rounded: RoundedInstance, n: int) -> GridResult:
    """The QPTAS configuration DP as a memoized recursion on Fractions.

    A configuration maps each class to the grid index of its rightmost
    placed job, -1 when empty (the sentinel start -x).  Placing a job of
    class z costs the smallest grid point at or after max over classes x of
    (C_x + min(x, z)); ties go to the first class.  `states` counts the
    memoized configurations.
    """
    classes = [rung(rounded, k) for k in rounded.classes]
    z_count = len(classes)
    step = grid_step(rounded, n)
    top_index = grid_points(rounded, n) - 1
    counts0 = tuple(sum(1 for _, k in rounded.large if k == z) for z in rounded.classes)
    empty = (-1,) * z_count
    memo: dict[tuple, tuple] = {}

    def value_at(cfg_index: int, x: Fraction) -> Fraction:
        return step * cfg_index if cfg_index >= 0 else -x

    def solve(config: tuple[int, ...], counts: tuple[int, ...]):
        if not any(counts):
            return max(value_at(ci, x) + x for ci, x in zip(config, classes))
        key = (config, counts)
        hit = memo.get(key)
        if hit is not None:
            return hit[0]
        best = None
        move = None
        for zi in range(z_count):
            if counts[zi] == 0:
                continue
            z = classes[zi]
            need = max(value_at(ci, x) + min(x, z) for ci, x in zip(config, classes))
            index = max(0, math.ceil(need / step))
            if index > top_index:
                continue
            val = solve(
                config[:zi] + (index,) + config[zi + 1:],
                counts[:zi] + (counts[zi] - 1,) + counts[zi + 1:],
            )
            if val is not None and (best is None or val < best):
                best = val
                move = (zi, index)
        memo[key] = (best, move)
        return best

    result = solve(empty, counts0)
    if result is None:
        raise ValueError("no rounded schedule fits the grid")

    placements = []
    config, counts = empty, counts0
    while any(counts):
        _, move = memo[(config, counts)]
        zi, index = move
        placements.append((classes[zi], step * index))
        config = config[:zi] + (index,) + config[zi + 1:]
        counts = counts[:zi] + (counts[zi] - 1,) + counts[zi + 1:]
    return GridResult(makespan=result, schedule=Schedule(tuple(placements)), states=len(memo))


def dp_solve_unpruned(rounded: RoundedInstance, n: int) -> DPResult:
    """The QPTAS's grid optimum as an integer layered DP with every
    reached state stored.

    A state is the grid index of the last placed job of each class, then
    the unplaced count of each class; one forward sweep enumerates them one
    placed job per layer, and a child is dropped only when it repeats a
    state of its layer.  Parents are swept in the order they were reached
    and moves in class order, so the first best final state ends the
    lexicographically first optimal order, the one `qptas.dp_solve`'s
    search returns.
    """
    classes = rounded.classes
    a, b = rounded.eps.numerator, rounded.eps.denominator
    top = classes[0]
    tick = a * (a + b) ** top
    sizes = [n * (a + b) ** k * b ** (top + 1 - k) for k in classes]
    reach = [[-(-min(x, z) // tick) for x in sizes] for z in sizes]
    m = len(classes)
    counts = tuple(sum(1 for _, k in rounded.large if k == z) for z in classes)
    root = (-reach[0][0],) * m + counts

    layers = [{root: None}]
    states = 0
    for _ in range(sum(counts)):
        layer, following = layers[-1], {}
        states += len(layer)
        for state in layer:
            for zi in range(m):
                left = state[m + zi]
                if left:
                    index = max(0, max(map(add, state, reach[zi])))
                    child = state[:zi] + (index,) + state[zi + 1:m + zi] + (left - 1,) + state[m + zi + 1:]
                    if child not in following:
                        following[child] = (state, zi)
        layers.append(following)

    def value(state):
        return max(c * tick + x for c, x in zip(state, sizes))

    state = min(layers[-1], key=value)
    order = []
    for layer in layers[:0:-1]:
        state, zi = layer[state]
        order.append(zi)
    order.reverse()
    return DPResult(order=tuple(order), states=states)


def dp_solve_by_questions(rounded: RoundedInstance, n: int) -> DPResult:
    """`qptas.dp_solve`'s own question loop: the search with no work
    budget, first at the sum of the caps, which every order meets, then one
    below each order's makespan until no order meets it; the questions
    share one class-bounds memo, and the nodes add up over all of them."""
    a, b = rounded.eps.numerator, rounded.eps.denominator
    top = rounded.classes[0]
    tick = a * (a + b) ** top
    sizes = [n * (a + b) ** k * b ** (top + 1 - k) for k in rounded.classes]
    caps = [tick * -(-p // tick) for p in sizes]
    counts = list(Counter(k for _, k in rounded.large).values())
    target = sum(c * cap for c, cap in zip(counts, caps))
    class_bounds: dict = {}
    states = 0
    while True:
        jobs, nodes, _ = _search(sizes, counts, caps, target, class_bounds, math.inf)
        states += nodes
        if jobs is None:
            return DPResult(order=tuple([j for j, _ in order]), states=states)
        order = jobs
        target = max(s + sizes[j] for j, s in jobs) - 1


def qptas_solve_oracle(instance: Instance, eps) -> tuple[Schedule, QptasStats]:
    """The QPTAS pipeline on `dp_solve_oracle`: each class's grid starts,
    sorted, go to the original sizes that rounded into it in the order of
    `rounded.large`, and the small jobs are appended at the makespan."""
    eps = Fraction(eps)
    large, small, threshold = split_small(instance, eps)
    jobs = []
    classes = points = dp_states = 0
    if large:
        rounded = round_sizes(new_instance(large), eps)
        result = dp_solve_oracle(rounded, instance.n)
        classes, points, dp_states = len(rounded.classes), grid_points(rounded, instance.n), result.states
        by_class: dict[Fraction, list[Fraction]] = {}
        for size, start in result.schedule.jobs:
            by_class.setdefault(size, []).append(start)
        for starts in by_class.values():
            starts.sort()
        for original, k in rounded.large:
            jobs.append((original, by_class[rung(rounded, k)].pop(0)))
    current = max((start + size for size, start in jobs), default=0)
    for p in small:
        jobs.append((p, current))
        current += p
    stats = QptasStats(eps, threshold, len(large), len(small), classes, points, dp_states)
    return Schedule(tuple(jobs)), stats


def grid_exhaustive_optimum(instance: Instance, horizon: int) -> int:
    """Minimum makespan over feasible integer-start schedules in [0, horizon].

    Pure brute force over start tuples with no order canonicalization,
    pruning only start prefixes that are already pairwise infeasible (a
    violated pair never heals).  Conclusive whenever the horizon is at least
    the sum of all sizes.  Hard-limited to 4 jobs and horizon 30.
    """
    if instance.n > 4:
        raise SearchRefused("grid search limited to 4 jobs")
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


def labels_to_obj(labels: ReductionLabels) -> dict:
    return {
        "M": labels.M,
        "target": labels.target,
        "jobs": [
            {"type": kind, "index": index, "size": size}
            for kind, index, size in labels.jobs
        ],
    }


def greedy_trace_to_obj(trace: GreedyTrace) -> dict:
    return {
        "steps": [
            {
                "job": s.job,
                "size": s.size,
                "gap_start": s.gap_start,
                "gap_length": s.gap_length,
                "placement": s.placement,
                "shift": s.shift,
                "parent": s.parent,
                "makespan": s.makespan,
            }
            for s in trace
        ]
    }


def execution_trace_to_obj(trace: ExecutionTrace) -> dict:
    records = []
    for r in trace.records:
        entry = {
            "job": r.job,
            "size": encode_exact(r.size),
            "start": encode_exact(r.start),
            "status": "executed" if r.executed else "canceled",
        }
        if r.executed:
            entry["end"] = encode_exact(r.end)
        else:
            entry["canceled_by"] = r.canceled_by
        records.append(entry)
    return {"completion": encode_exact(trace.completion), "records": records}


# the TraceStep fields that hold None on the first step
_OPTIONAL_STEP_FIELDS = frozenset(("gap_start", "gap_length", "parent"))


def greedy_trace_from_obj(obj: Any) -> GreedyTrace:
    """Load a greedy trace file; every field must be an integer (or None
    where the first step has none), else a one-line ValueError."""

    def step_field(step, name: str) -> int | None:
        value = _field(step, name, "trace step")
        if value is None and name in _OPTIONAL_STEP_FIELDS:
            return None
        return _integer(value, f"trace step {name!r} values")

    return tuple(
        TraceStep(**{name: step_field(s, name) for name in TraceStep._fields})
        for s in _field(obj, "steps", "trace JSON", array=True)
    )


def report_from_obj(obj: Any) -> RatioSearchReport:
    """Load a report, recomputing the witness ratio to keep reports honest.

    Sizes, `iterations` and `seed` must be integers and every field but
    `findings` must be present; anything else raises a one-line ValueError.
    """

    def sizes(holder, key: str, what: str) -> tuple[int, ...]:
        return tuple(_integer(p, f"{what} {key}") for p in _field(holder, key, what, array=True))

    witness = sizes(obj, "witness", "report")
    claimed = Fraction(decode_exact(_field(obj, "ratio", "report")))
    actual = evaluate_ratio(new_instance(witness))
    if actual != claimed:
        raise ValueError(f"report claims ratio {claimed} but the witness yields {actual}")
    findings = _field(obj, "findings", "report", array=True) if "findings" in obj else []
    return RatioSearchReport(
        ratio=claimed,
        witness=witness,
        iterations=_integer(_field(obj, "iterations", "report"), "report seed and iterations"),
        seed=_integer(_field(obj, "seed", "report"), "report seed and iterations"),
        findings=tuple(
            (
                sizes(f, "sizes", "report finding"),
                Fraction(decode_exact(_field(f, "ratio", "report finding"))),
            )
            for f in findings
        ),
    )


def schedule_reference(jobs) -> tuple[tuple[ExactNumber, ExactNumber], ...]:
    """The jobs `Schedule(jobs)` holds, checked one job at a time: each value
    through `as_exact`, which collapses integral Fractions, sizes positive,
    starts non-negative and at least one job, the first fault raised."""
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
    return tuple(checked)


def instance_from_obj_reference(obj: Any) -> Instance:
    """`serialize.instance_from_obj`, one decoded value at a time."""
    return new_instance([decode_exact(p) for p in _field(obj, "sizes", "instance JSON", array=True)])


def schedule_from_obj_reference(obj: Any) -> Schedule:
    """`serialize.schedule_from_obj`, one decoded entry at a time."""
    jobs = []
    for entry in _field(obj, "jobs", "schedule JSON", array=True):
        size, start = _field(entry, "size", "schedule job"), _field(entry, "start", "schedule job")
        jobs.append((decode_exact(size), decode_exact(start)))
    return Schedule(tuple(jobs))


def tdm_from_obj_reference(obj: Any) -> ThreeDMInstance:
    """`serialize.tdm_from_obj`, one decoded value at a time."""
    d = _integer(_field(obj, "D", "3DM JSON"), "3DM values")
    a, b, c = (
        tuple(_integer(v, "3DM values") for v in _field(obj, key, "3DM JSON", array=True))
        for key in "abc"
    )
    return ThreeDMInstance(D=d, a=a, b=b, c=c)


def matching_from_schedule_reference(tdm: ThreeDMInstance, M: int, schedule: Schedule) -> Matching:
    """`hardness.matching_from_schedule` by re-encoding the instance, one
    feasibility sweep over the whole schedule, and a walk over each
    window's jobs that pops the smallest unused source index of each size."""
    instance, labels = encode(tdm, M)
    if sorted(schedule.sizes, reverse=True) != list(instance.sizes):
        raise DecodeError("schedule job sizes do not match the encoded instance")
    conflict = check_feasible(schedule)
    if conflict is not None:
        raise DecodeError(f"schedule is infeasible: {conflict_text(schedule, conflict)}")
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
                raise DecodeError(f"window holds {len(blocks[t][kind])} jobs of type {kind}, need 1")
        unused = [free[blocks[t][kind][0]][1] for kind in ("A", "B", "C")]
        i, j, k = (indices[-1] for indices in unused)
        total = tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1]
        if total != tdm.D:
            raise DecodeError(f"triplet values sum to {total}, need {tdm.D}")
        for indices in unused:
            indices.pop()
        matching.append((i, j, k))
    return tuple(matching)


def eager_parser(argv) -> argparse.ArgumentParser:
    """The parser `build_parser` stands for: argparse's own default formatter,
    and all six subparsers built and given their arguments, whatever `argv`
    runs.  Only the prog and description come from `build_parser`."""
    lazy = build_parser([])
    parser = argparse.ArgumentParser(prog=lazy.prog, description=lazy.description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, add_arguments in SUBCOMMANDS:
        add_arguments(sub.add_parser(name, help=summary))
    return parser
