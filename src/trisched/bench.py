"""Search for bad greedy/optimal makespan ratios on random instances.

Greedy is never worse than 3/2 times the optimum.  This implementation's
greedy reaches 65/58 on the `greedy-gap-65-58` fixture, which a hill climb
found; uniform pools rarely beat 21/20.  This harness samples such pools and
asserts nothing beyond the proven bound.  Every unrestricted run evaluates
the nine-job fixture (ratio 21/20) first, so the reported ratio is always
at least 21/20.  Evaluations are independent and
merge by maximum ratio with the lexicographically smallest witness on ties,
so any evaluation order (or a concurrent split) yields the same report.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction

from .core import Instance, as_count, makespan
from .exact import DEFAULT_SIZE_LIMIT, optimal_makespan
from .generators import fixture_instance, random_instance, ratio_bounded_instance
from .greedy import untraced_greedy

FIXTURE_RATIO = Fraction(21, 20)


# findings: (sizes, ratio) of each pool instance beating FIXTURE_RATIO
RatioSearchReport = namedtuple("RatioSearchReport", "ratio witness iterations seed findings", defaults=((),))


def evaluate_ratio(instance: Instance) -> Fraction:
    """greedy makespan / optimal makespan, exact."""
    sched = untraced_greedy(instance)
    best, _ = optimal_makespan(instance)
    return Fraction(makespan(sched), best)


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
    if as_count(n, "n") > DEFAULT_SIZE_LIMIT:
        raise ValueError(f"n must stay within the exact oracle limit {DEFAULT_SIZE_LIMIT}")
    if as_count(iterations, "iterations") < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if bound is not None and iterations == 0:
        raise ValueError("a ratio-bounded search needs at least one iteration")
    rng = random.Random(seed)
    if bound is None:
        pool = [fixture_instance("greedy-gap-9")]
        pool += [random_instance(rng, n, max_size) for _ in range(iterations)]
    else:
        pool = [ratio_bounded_instance(rng, n, bound, max_size) for _ in range(iterations)]

    evaluated = [(evaluate_ratio(instance), instance.sizes) for instance in pool]
    ratio, witness = min(evaluated, key=lambda pair: (-pair[0], pair[1]))
    return RatioSearchReport(
        ratio=ratio,
        witness=witness,
        iterations=iterations,
        seed=seed,
        findings=tuple((sizes, r) for r, sizes in evaluated if r > FIXTURE_RATIO),
    )
