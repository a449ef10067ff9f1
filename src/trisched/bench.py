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
from .greedy import greedy_schedule

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
    sched, _ = greedy_schedule(instance)
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
    skipped (it would defeat the restriction).  Instances beating the
    fixture's 21/20 land in `findings`.
    """
    if n > DEFAULT_SIZE_LIMIT:
        raise ValueError(f"n must stay within the exact oracle limit {DEFAULT_SIZE_LIMIT}")
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


def report_to_obj(report: RatioSearchReport) -> dict:
    from .serialize import encode_exact

    return {
        "ratio": encode_exact(Fraction(report.ratio)),
        "witness": list(report.witness),
        "iterations": report.iterations,
        "seed": report.seed,
        "findings": [
            {"sizes": list(sizes), "ratio": encode_exact(Fraction(ratio))}
            for sizes, ratio in report.findings
        ],
    }


def report_from_obj(obj) -> RatioSearchReport:
    """Load a report, recomputing the witness ratio to keep reports honest.

    Sizes, `iterations` and `seed` must be integers and every field but
    `findings` must be present; anything else raises a one-line ValueError.
    """
    from .core import new_instance
    from .serialize import _field, _integer, decode_exact

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
