"""Seeded instance generators plus the named fixture instances.

Everything is deterministic per seed.  The ratio-bounded generator draws
p_i uniformly from [ceil(p_anchor/bound), min(p_anchor, p_(i-1))] where the
anchor is p_ceil(i/2).  Capping at the previous draw keeps the sequence
non-increasing, so the anchor really is position ceil(i/2) of the finished
instance and the binary tree ratio stays within the bound.
"""

from __future__ import annotations

import random

from .core import Instance, as_count, as_exact, new_instance

FIXTURES = {
    # This implementation's greedy pays 42 against an optimum of 40 here,
    # ratio 21/20; `bench ratio-search` evaluates it first.
    "greedy-gap-9": (20, 20, 10, 5, 5, 4, 4, 4, 4),
    # This implementation's greedy pays 130 against an optimum of 116 here,
    # ratio 65/58 (about 1.121), the worst input known for it; a hill climb
    # over nine sizes found it.  Whether the paper's Greedy does the same is
    # open.
    "greedy-gap-65-58": (116, 43, 29, 29, 12, 10, 7, 5, 2),
    # Four staircase jobs: a natural-looking schedule reaches 15, optimal is 14.
    "staircase-4": (6, 5, 4, 3),
}

KINDS = ("random", "ratio-bounded", "reduction", "fixture")


def random_instance(rng: random.Random, n: int, max_size: int) -> Instance:
    if min(as_count(n, "n"), as_count(max_size, "max_size")) < 1:
        raise ValueError("need n >= 1 and max_size >= 1")
    return new_instance(rng.randint(1, max_size) for _ in range(n))


def ratio_bounded_instance(rng: random.Random, n: int, bound, max_size: int) -> Instance:
    if min(as_count(n, "n"), as_count(max_size, "max_size")) < 1:
        raise ValueError("need n >= 1 and max_size >= 1")
    bound = as_exact(bound)
    if bound < 1:
        raise ValueError(f"ratio bound must be at least 1, got {bound}")
    drawn = [rng.randint(1, max_size)]
    for i in range(2, n + 1):
        anchor = drawn[(i + 1) // 2 - 1]
        low = -(-anchor // bound)
        # the previous draw already sits above its own (weaker) floor, so
        # the range stays non-empty and the sequence non-increasing
        drawn.append(rng.randint(low, min(anchor, drawn[-1])))
    return new_instance(drawn)


def fixture_instance(name: str) -> Instance:
    try:
        return new_instance(FIXTURES[name])
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; have {sorted(FIXTURES)}") from None

