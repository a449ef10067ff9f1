#!/usr/bin/env python3
"""Measure realized approximation quality of the rounding scheme.

The algorithm promises makespan <= (1+eps)^3 * OPT.  In practice the
rounding loses far less.  This sweep solves seeded random instances for a
range of eps values and reports, per eps, the worst and mean realized
ratio against the exact oracle next to the proven guarantee, plus the
search node counts that the accuracy is paid for with.
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from trisched import makespan, optimal_makespan, qptas_solve, random_instance
from trisched.exact import DEFAULT_SIZE_LIMIT


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--eps", nargs="+", default=["2", "1", "1/2", "1/4", "1/8"],
        help="accuracy parameters, rationals like 1/2",
    )
    parser.add_argument("--instances", type=int, default=40)
    parser.add_argument(
        "--n", type=int, default=7,
        help=f"jobs per instance; the exact oracle refuses a search past {DEFAULT_SIZE_LIMIT}",
    )
    parser.add_argument("--max-size", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    pool = [
        random_instance(rng, rng.randint(2, args.n), args.max_size)
        for _ in range(args.instances)
    ]
    optima = {inst: optimal_makespan(inst)[0] for inst in pool}

    header = (
        f"{'eps':>5}  {'guarantee':>10}  {'worst':>8}  {'mean':>8}"
        f"  {'max nodes':>10}  {'time':>7}"
    )
    print(header)
    for eps_text in args.eps:
        eps = Fraction(eps_text)
        t0 = time.perf_counter()
        ratios = []
        max_nodes = 0
        for inst in pool:
            schedule, stats = qptas_solve(inst, eps)
            ratios.append(Fraction(makespan(schedule), optima[inst]))
            max_nodes = max(max_nodes, stats.dp_states)
        dt = time.perf_counter() - t0
        guarantee = (1 + eps) ** 3
        print(
            f"{eps_text:>5}  {float(guarantee):>10.4f}  {float(max(ratios)):>8.4f}"
            f"  {float(statistics.mean(ratios)):>8.4f}  {max_nodes:>10}  {dt:>6.2f}s"
        )
        if max(ratios) > guarantee:
            sys.exit(f"error: eps {eps_text}: ratio {max(ratios)} exceeds the guarantee {guarantee}")


if __name__ == "__main__":
    main()
