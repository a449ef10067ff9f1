"""Search for bad greedy/optimal makespan ratios on random instances.

The true worst case for greedy is only known to lie in [21/20, 3/2]; this
harness hunts the gap empirically but asserts nothing beyond the proven
bounds.  Every unrestricted run evaluates the nine-job fixture first, so the
reported ratio is always at least 21/20.  Evaluations are independent and
merge by maximum ratio with the lexicographically smallest witness on ties,
so any evaluation order (or a concurrent split) yields the same report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .core import Instance, makespan
from .exact import DEFAULT_SIZE_LIMIT, optimal_makespan
from .generators import fixture_instance, random_instance, ratio_bounded_instance
from .greedy import untraced_greedy

FIXTURE_RATIO = Fraction(21, 20)


@dataclass(frozen=True)
class RatioSearchReport:
    ratio: Fraction
    witness: tuple[int, ...]
    iterations: int
    seed: int
    findings: tuple[tuple[tuple[int, ...], Fraction], ...] = field(default=())


def evaluate_ratio(instance: Instance) -> Fraction:
    """greedy makespan / optimal makespan, exact."""
    sched = untraced_greedy(instance)
    best, _ = optimal_makespan(instance)
    return Fraction(makespan(sched), best)


def _better(candidate: tuple[Fraction, tuple[int, ...]], incumbent) -> bool:
    if incumbent is None:
        return True
    if candidate[0] != incumbent[0]:
        return candidate[0] > incumbent[0]
    return candidate[1] < incumbent[1]


def ratio_search(
    n: int,
    iterations: int,
    seed: int,
    max_size: int = 50,
    bound: Fraction | None = None,
) -> RatioSearchReport:
    """Evaluate `iterations` random instances of size n plus the fixture.

    With `bound` set the pool is ratio-bounded instead and the fixture is
    skipped (it would defeat the restriction), so it needs at least one
    iteration.  Instances beating the fixture's 21/20 land in `findings`.
    """
    if n > DEFAULT_SIZE_LIMIT:
        raise ValueError(f"n must stay within the exact oracle limit {DEFAULT_SIZE_LIMIT}")
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if bound is not None and iterations == 0:
        raise ValueError("a ratio-bounded search needs at least one iteration")
    rng = random.Random(seed)
    pool = []
    if bound is None:
        pool.append(fixture_instance("greedy-gap-9"))
    for _ in range(iterations):
        if bound is None:
            pool.append(random_instance(rng, n, max_size))
        else:
            pool.append(ratio_bounded_instance(rng, n, bound, max_size))

    incumbent = None
    findings = []
    for instance in pool:
        ratio = evaluate_ratio(instance)
        candidate = (ratio, instance.sizes)
        if _better(candidate, incumbent):
            incumbent = candidate
        if ratio > FIXTURE_RATIO:
            findings.append((instance.sizes, ratio))
    return RatioSearchReport(
        ratio=incumbent[0],
        witness=incumbent[1],
        iterations=iterations,
        seed=seed,
        findings=tuple(findings),
    )
