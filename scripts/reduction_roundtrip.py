#!/usr/bin/env python3
"""Exercise the hardness reduction end to end on random matching instances.

For each trial: build a random numerical 3-dimensional matching instance,
encode it as a scheduling instance and solve the matching by brute force.
Odd trials draw instances with D = 10, which always have a matching; even
trials draw D in {14, 18, 22} and at most 5 slots, where a matching may not
exist.  Every trial asks `decide` whether some order ends by the target
makespan n*(8M+5D): it must find one exactly when a matching exists.  When
one exists, the script decodes the schedule `decide` found back into a
matching, lays the brute-force matching out as a schedule, confirms by a
second `decide` question that no order ends one earlier, and decodes that
certificate back into a matching.  Any disagreement is a bug in the
reduction.
"""

import argparse
import random
import sys
import time

from trisched import (
    DecodeError,
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


def random_tdm(rng: random.Random, n: int, D: int) -> ThreeDMInstance:
    """3n values in the open range (D/4, D/2) summing to n*D, dealt into the
    columns in drawn order; a matching may or may not exist."""
    lo, hi = D // 4 + 1, (D - 1) // 2
    while True:
        values = [rng.randint(lo, hi) for _ in range(3 * n - 1)]
        last = n * D - sum(values)
        if lo <= last <= hi:
            values.append(last)
            return ThreeDMInstance(D=D, a=tuple(values[:n]), b=tuple(values[n:2 * n]), c=tuple(values[2 * n:]))


def check(condition: bool, message: str) -> None:
    """Exit with status 1 and a one-line message unless `condition` holds;
    unlike an assert, it still checks under `python -O`."""
    if not condition:
        sys.exit(f"error: {message}")


def decoded(tdm: ThreeDMInstance, M: int, schedule, what: str):
    """The matching `schedule` decodes to; exits like `check` when the
    decoder refuses it."""
    try:
        return matching_from_schedule(tdm, M, schedule)
    except DecodeError as exc:
        sys.exit(f"error: {what} does not decode: {exc}")


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
    unmatched = 0
    for trial in range(1, args.trials + 1):
        solvable = trial % 2 == 1
        if solvable:
            n = rng.randint(1, args.max_slots)
            tdm = random_solvable_tdm(rng, n)
        else:
            n = rng.randint(1, min(args.max_slots, 5))
            tdm = random_tdm(rng, n, rng.choice((14, 18, 22)))
        M = min_padding(tdm) + rng.randint(0, args.extra_padding)
        instance, labels = encode(tdm, M)
        target = n * (8 * M + 5 * tdm.D)
        check(labels.target == target, f"trial {trial}: labels target {labels.target}, expected {target}")

        matching = solve_3dm_bruteforce(tdm)
        check(matching is not None or not solvable, f"trial {trial}: no matching found, but the generator promised one")
        found = decide(instance, target)
        check((found is None) == (matching is None),
              f"trial {trial}: the oracle {'finds no' if found is None else 'finds a'} schedule ending by {target}, "
              f"but the instance has {'a' if matching else 'no'} matching")
        if matching is None:
            unmatched += 1
        else:
            held = decoded(tdm, M, found, f"trial {trial}: the oracle's schedule")
            check(all(tdm.a[i - 1] + tdm.b[j - 1] + tdm.c[k - 1] == tdm.D for i, j, k in held),
                  f"trial {trial}: the oracle's schedule decodes to {held}, not a matching")
            certificate = schedule_from_matching(tdm, M, matching)
            check(check_feasible(certificate) is None, f"trial {trial}: certificate is infeasible")
            check(makespan(certificate) == target,
                  f"trial {trial}: certificate makespan {makespan(certificate)}, target {target}")
            check(decide(instance, target - 1) is None, f"trial {trial}: the oracle finds a schedule ending before {target}")

            redone = schedule_from_matching(tdm, M, decoded(tdm, M, certificate, f"trial {trial}: the certificate"))
            check(sorted(redone.jobs) == sorted(certificate.jobs),
                  f"trial {trial}: decoded matching lays out another schedule")

        excess = binary_tree_ratio(instance) - 2
        check(excess == ratio_excess(tdm, M), f"trial {trial}: ratio excess {excess}, formula {ratio_excess(tdm, M)}")
        print(f"trial {trial:>3}: slots {n}, D {tdm.D}, M {M:>3}, target {target:>4}, ratio 2+{excess}"
              + ("" if matching else ", no matching"))

    dt = time.perf_counter() - t0
    print(f"{args.trials} trials ok, each oracle-confirmed, {unmatched} without a matching, in {dt:.2f}s")


if __name__ == "__main__":
    main()
