"""Quasi-polynomial approximation scheme.

Pipeline: peel off small jobs (below eps*p_1/n), round the remaining sizes
up to unit*(1+eps)^k where the unit is the smallest surviving size, restrict
starts to a uniform grid, and find the best grid schedule of the rounded
size classes with the exact oracle's search (`exact._search`), whose
separation caps are rounded up to whole grid steps.  Large jobs take their
original sizes back in the search's start order and the small jobs follow
them; each job then starts as early as the jobs before it allow, which
moves no job right of its grid start (or, for a small job, of its slot
after the makespan).

Each rounding loses at most a factor (1+eps), small jobs appended at the
makespan would cost at most eps*p_1, and shifting left only lowers that,
so the result is within (1+eps)^3 of optimal.  Every step runs on ints:
with eps = a/b, a size's rung is the integer exponent k of the first
unit*((a+b)/b)^k at or above it, the search's sizes and grid step are ints
in one common unit, the search hands back only the order of its classes,
and the shifted starts are plain ints.  eps must be a Fraction or int,
never a float.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from fractions import Fraction

from .core import Instance, Schedule, as_exact, new_instance
from .exact import SearchRefused, _search

# search nodes `dp_solve` may visit over all its questions
DEFAULT_STATE_BUDGET = 5_000_000


def _rational_eps(eps) -> Fraction:
    eps = as_exact(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    return Fraction(eps)


def split_small(instance: Instance, eps) -> tuple[tuple[int, ...], tuple[int, ...], Fraction]:
    """Partition sizes into (large, small) at the threshold eps*p_1/n.

    Returns (large, small, threshold).  Small means strictly below the
    threshold.  Within the large part the size spread is at most n/eps,
    which keeps the rounded class count logarithmic.
    """
    eps = _rational_eps(eps)
    # with eps = a/b, p is large when p*n*b >= a*p_1
    bar = eps.numerator * instance.sizes[0]
    scale = instance.n * eps.denominator
    large = tuple(p for p in instance.sizes if p * scale >= bar)
    small = tuple(p for p in instance.sizes if p * scale < bar)
    return large, small, Fraction(bar, scale)


# Sizes rounded up onto the ladder unit*(1+eps)^k, where the unit is the
# smallest original size.  `large` pairs each original size with its
# exponent k, the first rung unit*(1+eps)^k at or above it, non-increasing
# by original size; `classes` lists the distinct exponents descending.
RoundedInstance = namedtuple("RoundedInstance", "eps large classes")


def round_sizes(instance: Instance, eps) -> RoundedInstance:
    """Give every size of `instance` the smallest k with unit*(1+eps)^k >= p.

    The unit is the smallest size present, so the ladder starts exactly at
    the bottom of the range and the class count stays within
    ceil(log_{1+eps}(spread)) + 1.
    """
    eps = _rational_eps(eps)
    a, b = eps.numerator, eps.denominator
    # rung k is unit*(a+b)^k / b^k, kept as its numerator and denominator
    k, rung, den = 0, instance.sizes[-1], 1
    pairs = []
    for p in reversed(instance.sizes):
        # ascending sizes only ever climb the ladder, so its top is the rung
        while p * den > rung:
            k += 1
            rung *= a + b
            den *= b
        pairs.append((p, k))
    pairs.reverse()
    classes = tuple(dict.fromkeys(k for _, k in pairs))
    return RoundedInstance(eps=eps, large=tuple(pairs), classes=classes)


def grid_points(rounded: RoundedInstance, n: int) -> int:
    """Point count of the start grid {0, K, 2K, ...}, K = eps * (largest
    rounded size) / n.

    n is the size of the whole original instance.  Snapping any schedule of
    the rounded jobs onto this grid costs at most n*K = eps * p_1(rounded).
    Each placement lands at most ceil(n/eps) points past the latest start
    so far, so the L rounded jobs fit by index (L-1)*ceil(n/eps); the grid
    reaches index max(ceil(n^2/eps), (L-1)*ceil(n/eps)).
    """
    a, b = rounded.eps.numerator, rounded.eps.denominator
    stride = -(-n * b // a)
    return max(-(-n * n * b // a), (len(rounded.large) - 1) * stride) + 1


# order: the class index of each placed job, in start order; states: the
# search nodes visited over all questions
DPResult = namedtuple("DPResult", "order states")


def dp_solve(rounded: RoundedInstance, n: int) -> DPResult:
    """Best grid-restricted schedule of the rounded large jobs, as the
    order in which it places their classes.

    n is the size of the whole original instance, which sets the grid step
    K (see `grid_points`).  A job of class z goes to the first grid point at
    or after s + min(x, z) for every earlier job of class x at s, which
    keeps it feasible against all of them (left-shifting shows no grid
    schedule does better).  On the grid that is s plus K*ceil(p/K) for the
    smaller size p, a cap per class that is at least p and never rises as p
    falls, so this is `exact`'s search with those caps, and start // K is
    the grid index.  With eps = a/b and top the largest exponent, every
    size and K times n*b^(top+1)/unit is an int: n*(a+b)^k*b^(top+1-k) for
    class k and a*(a+b)^top for K.

    The search branches on classes in class order and cuts only prefixes
    proved to fail, so each question returns the lexicographically first
    order that meets its target.  The first question, at a target every
    order meets (no job starts later than the sum of the caps of the jobs
    before it), returns the plain class order; each later one asks for one
    less than the value just found, until the answer is no.  The last
    order found has the optimal value v, as v - 1 is met by none, and its
    target was at least v, so every optimal order met it too: it is the
    first optimal order in class order.  Each placement lands past every
    earlier start, so that order is the start order.  More than
    `DEFAULT_STATE_BUDGET` search nodes over all questions raise
    SearchRefused with the count reached.
    """
    a, b = rounded.eps.numerator, rounded.eps.denominator
    top = rounded.classes[0]
    tick = a * (a + b) ** top
    sizes = [n * (a + b) ** k * b ** (top + 1 - k) for k in rounded.classes]
    caps = [tick * -(-p // tick) for p in sizes]
    # `large` runs by non-increasing exponent, so the tally is in class order
    counts = list(Counter(k for _, k in rounded.large).values())
    target = sum(c * cap for c, cap in zip(counts, caps))
    class_bounds: dict = {}
    states = 0
    while True:
        jobs, nodes = _search(sizes, counts, caps, target, class_bounds, DEFAULT_STATE_BUDGET - states)
        states += nodes
        if states > DEFAULT_STATE_BUDGET:
            raise SearchRefused(f"dp state budget exceeded after {states} states")
        if jobs is None:
            return DPResult(order=tuple([j for j, _ in order]), states=states)
        order = jobs
        target = max(s + sizes[j] for j, s in jobs) - 1


# dp_states: the search nodes `dp_solve` visited, 0 with no large job
QptasStats = namedtuple("QptasStats", "eps threshold large small classes grid_points dp_states")


def left_shifted_starts(sizes: list[int]) -> list[int]:
    """Earliest start of each job after the ones before it, in the given
    order: max over earlier i of s_i + min(p_i, p_k), and 0 for the first.

    A stack holds the earlier jobs that can still bind, sizes strictly
    falling from the bottom and starts rising.  A job at least as large as
    an earlier one starts at or after that job's end, so the earlier one
    binds no later job and leaves the stack; below the popped jobs only the
    top can bind, at its start plus the new size.  Each job is pushed and
    popped once, so the pass is O(n).
    """
    starts = []
    stack: list[tuple[int, int]] = []
    for p in sizes:
        start = 0
        while stack and stack[-1][0] <= p:
            q, s = stack.pop()
            if s + q > start:
                start = s + q
        if stack and stack[-1][1] + p > start:
            start = stack[-1][1] + p
        stack.append((p, start))
        starts.append(start)
    return starts


def qptas_solve(instance: Instance, eps) -> tuple[Schedule, QptasStats]:
    """Full pipeline; returns a schedule of the original sizes within
    (1+eps)^3 of the optimal makespan, and the run stats.

    Jobs come large by non-increasing size, then small, and every start is
    a plain int: the earliest start after the jobs placed before it, taking
    the large jobs in grid-start order and the small ones after them.
    """
    eps = _rational_eps(eps)
    large, small, threshold = split_small(instance, eps)

    # sizes in the order the starts are shifted; order[i] is the position
    # there of the i-th large job
    sizes: list[int] = []
    order: list[int] = []
    classes = points = dp_states = 0
    if large:
        rounded = round_sizes(new_instance(large), eps)
        result = dp_solve(rounded, instance.n)
        classes = len(rounded.classes)
        points = grid_points(rounded, instance.n)
        dp_states = result.states

        # Hand each class's starts to the original sizes that rounded into
        # it, in start order; same class means same separation guarantee,
        # so any pairing is feasible.  Rounding is monotone, so a stable
        # sort by class index lines the placements up with `large`, the
        # original sizes in non-increasing order.
        order = sorted(range(len(result.order)), key=result.order.__getitem__)
        sizes = [0] * len(order)
        for original, k in zip(large, order):
            sizes[k] = original

    starts = left_shifted_starts(sizes + list(small))
    jobs = [(original, starts[k]) for original, k in zip(large, order)]
    jobs += zip(small, starts[len(large):])
    schedule = Schedule(jobs)
    stats = QptasStats(
        eps=eps,
        threshold=threshold,
        large=len(large),
        small=len(small),
        classes=classes,
        grid_points=points,
        dp_states=dp_states,
    )
    return schedule, stats
