"""Quasi-polynomial approximation scheme.

Pipeline: peel off small jobs (below eps*p_1/n), round the remaining sizes
up to unit*(1+eps)^k where the unit is the smallest surviving size, restrict
starts to a uniform grid, and run a configuration DP over the rounded size
classes.  Large jobs are re-emitted at their grid starts with their original
sizes; small jobs are appended at the running makespan, which any order
keeps feasible because every earlier job ends at or before that point.

Each rounding loses at most a factor (1+eps), appended small jobs cost at
most eps*p_1, so the result is within (1+eps)^3 of optimal.  All arithmetic
is exact rational; eps must be a Fraction or int, never a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Schedule, as_exact, makespan, new_instance

DEFAULT_STATE_BUDGET = 5_000_000


class StateBudgetExceeded(RuntimeError):
    """The configuration DP hit its memoized-state budget."""

    def __init__(self, states: int):
        super().__init__(f"dp state budget exceeded after {states} states")
        self.states = states


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
    threshold = Fraction(eps * instance.sizes[0], instance.n)
    large = tuple(p for p in instance.sizes if p >= threshold)
    small = tuple(p for p in instance.sizes if p < threshold)
    return large, small, threshold


@dataclass(frozen=True)
class RoundedInstance:
    """Sizes rounded up onto the ladder unit*(1+eps)^k.

    `large` pairs each original size with its rounded value, non-increasing
    by original size; `classes` lists the distinct rounded values
    descending.  Every rounded value is unit*(1+eps)^k for some k >= 0 and
    is at least its original.
    """

    eps: Fraction
    unit: int
    large: tuple[tuple[int, Fraction], ...]
    classes: tuple[Fraction, ...]


def round_sizes(instance: Instance, eps) -> RoundedInstance:
    """Round every size of `instance` up to the nearest unit*(1+eps)^k.

    The unit is the smallest size present, so the ladder starts exactly at
    the bottom of the range and the class count stays within
    ceil(log_{1+eps}(spread)) + 1.
    """
    eps = _rational_eps(eps)
    unit = instance.sizes[-1]
    factor = 1 + eps
    ladder = [Fraction(unit)]
    pairs = []
    for p in sorted(instance.sizes):
        while ladder[-1] < p:
            ladder.append(ladder[-1] * factor)
        rung = next(r for r in ladder if r >= p)
        pairs.append((p, rung))
    pairs.reverse()
    classes = tuple(sorted({r for _, r in pairs}, reverse=True))
    return RoundedInstance(eps=eps, unit=unit, large=tuple(pairs), classes=classes)


@dataclass(frozen=True)
class Grid:
    """Uniform start grid {0, K, 2K, ...} with ceil(n^2/eps) + 1 points."""

    step: Fraction
    points: int


def make_grid(rounded: RoundedInstance, n: int) -> Grid:
    """Grid with step K = eps * (largest rounded size) / n.

    n is the size of the whole original instance.  Snapping any schedule of
    the rounded jobs onto this grid costs at most n*K = eps * p_1(rounded),
    and the top point n*p_1(rounded) still fits the stacked schedule.
    """
    if not rounded.classes:
        raise ValueError("grid needs at least one rounded class")
    step = Fraction(rounded.eps * rounded.classes[0], n)
    points = math.ceil(Fraction(n * n, 1) / rounded.eps) + 1
    return Grid(step=step, points=points)


@dataclass(frozen=True)
class DPResult:
    makespan: Fraction
    schedule: Schedule          # rounded sizes at grid starts
    states: int                 # memoized states expanded


def dp_solve(rounded: RoundedInstance, grid: Grid, budget: int = DEFAULT_STATE_BUDGET) -> DPResult:
    """Best grid-restricted schedule of the rounded large jobs.

    A configuration maps each size class to the grid index of its rightmost
    placed job (-1 when empty, which stands for the sentinel start -x, so an
    empty class never constrains anything).  Placing a job of class z costs
    the smallest grid point t >= max over classes x of (C_x + min(x, z));
    that keeps every placement feasible against all earlier jobs, and
    left-shifting shows no grid schedule does better.  The value of a
    completed configuration is max over classes of (C_x + x).
    """
    classes = rounded.classes
    z_count = len(classes)
    if z_count == 0:
        return DPResult(Fraction(0), Schedule(()), 0)
    step = grid.step
    top_index = grid.points - 1
    counts0 = tuple(sum(1 for _, r in rounded.large if r == z) for z in classes)
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
        if len(memo) >= budget:
            raise StateBudgetExceeded(len(memo))
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
    schedule = Schedule(tuple(placements))
    return DPResult(makespan=result, schedule=schedule, states=len(memo))


@dataclass(frozen=True)
class QptasStats:
    eps: Fraction
    threshold: Fraction
    large: int
    small: int
    classes: int
    grid_points: int
    dp_states: int


def qptas_solve(instance: Instance, eps) -> tuple[Schedule, QptasStats]:
    """Full pipeline; returns a schedule of the original sizes within
    (1+eps)^3 of the optimal makespan, and the run stats."""
    eps = _rational_eps(eps)
    large, small, threshold = split_small(instance, eps)

    jobs: list[tuple[int, Fraction | int]] = []
    classes = grid_points = dp_states = 0
    if large:
        rounded = round_sizes(new_instance(large), eps)
        grid = make_grid(rounded, instance.n)
        result = dp_solve(rounded, grid)
        classes = len(rounded.classes)
        grid_points = grid.points
        dp_states = result.states

        # Hand the grid starts of each class back to the original sizes that
        # rounded into it; same class means same separation guarantee, so
        # any pairing is feasible.
        by_class: dict[Fraction, list[Fraction]] = {}
        for size, start in result.schedule.jobs:
            by_class.setdefault(size, []).append(start)
        for starts in by_class.values():
            starts.sort()
        for original, rung in rounded.large:
            jobs.append((original, by_class[rung].pop(0)))

    current = max((start + size for size, start in jobs), default=0)
    for p in small:
        jobs.append((p, current))
        current += p
    schedule = Schedule(tuple(jobs))
    stats = QptasStats(
        eps=eps,
        threshold=threshold,
        large=len(large),
        small=len(small),
        classes=classes,
        grid_points=grid_points,
        dp_states=dp_states,
    )
    return schedule, stats

