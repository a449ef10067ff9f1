#!/usr/bin/env python3
"""Exercise the hardness reduction end to end on random matching instances.

For each trial: build a random solvable numerical 3-dimensional matching
instance, encode it as a scheduling instance, solve the matching by brute
force, lay the matching out as a schedule, confirm on every trial, by two
`decide` questions, that the target makespan n*(8M+5D) is optimal (some
order ends by it, none ends one earlier), and decode the certificate back
into a matching.  Any disagreement is a bug in the reduction.
"""

import argparse
import random
import sys
import time

from trisched import (
    ThreeDMInstance,
    binary_tree_ratio,
    check_feasible,
    encode,
    makespan,
    matching_from_schedule,
    min_padding,
    ratio_excess,
    schedule_from_matching,
    solve_3dm_bruteforce,
)
from trisched.exact import decide


def random_solvable_tdm(rng: random.Random, n: int) -> ThreeDMInstance:
    # columns are permutations of (3, 3, 4), so the identity matching works
    cols = ([], [], [])
    for _ in range(n):
        triple = rng.sample([3, 3, 4], 3)
        for col, value in zip(cols, triple):
            col.append(value)
    return ThreeDMInstance(D=10, a=tuple(cols[0]), b=tuple(cols[1]), c=tuple(cols[2]))


def check(condition: bool, message: str) -> None:
    """Exit with status 1 and a one-line message unless `condition` holds;
    unlike an assert, it still checks under `python -O`."""
    if not condition:
        sys.exit(f"error: {message}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--max-slots", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--extra-padding", type=int, default=6,
                        help="upper bound on random padding above the minimum")
    args = parser.parse_args()

    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    for trial in range(1, args.trials + 1):
        n = rng.randint(1, args.max_slots)
        tdm = random_solvable_tdm(rng, n)
        M = min_padding(tdm) + rng.randint(0, args.extra_padding)
        instance, labels = encode(tdm, M)
        target = n * (8 * M + 5 * tdm.D)
        check(labels.target == target, f"trial {trial}: labels target {labels.target}, expected {target}")

        matching = solve_3dm_bruteforce(tdm)
        check(matching is not None, f"trial {trial}: no matching found, but the generator promised one")
        certificate = schedule_from_matching(tdm, M, matching)
        check(check_feasible(certificate) == [], f"trial {trial}: certificate is infeasible")
        check(makespan(certificate) == target, f"trial {trial}: certificate makespan {makespan(certificate)}, target {target}")

        check(decide(instance, target) is not None, f"trial {trial}: the oracle finds no schedule ending by {target}")
        check(decide(instance, target - 1) is None, f"trial {trial}: the oracle finds a schedule ending before {target}")

        decoded = matching_from_schedule(tdm, M, certificate)
        redone = schedule_from_matching(tdm, M, decoded)
        check(sorted(redone.jobs) == sorted(certificate.jobs), f"trial {trial}: decoded matching lays out another schedule")

        excess = binary_tree_ratio(instance) - 2
        check(excess == ratio_excess(tdm, M), f"trial {trial}: ratio excess {excess}, formula {ratio_excess(tdm, M)}")
        print(f"trial {trial:>3}: slots {n}, M {M:>3}, target {target:>4}, ratio 2+{excess}")

    dt = time.perf_counter() - t0
    print(f"{args.trials} round trips ok, each oracle-confirmed, in {dt:.2f}s")


if __name__ == "__main__":
    main()
