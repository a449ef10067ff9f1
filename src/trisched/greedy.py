"""Largest-gap greedy insertion with right shifting.

Jobs are placed in non-increasing size order.  Each job goes into a largest
gap (earliest on ties) at distance its own size from the gap's left edge;
when the gap is too short to absorb it, everything to the right slides over
by the missing amount.

The tie rule decides the schedule but never the makespan.  The makespan is
the sum of the gap lengths, and placing p in a gap of length x replaces
that length by p and max(p, x - p).  Every choice among equal largest gaps
changes the multiset of lengths in the same way, so a heap of lengths alone
follows the makespan step by step; the tests check greedy against one.

Two entry points run the same loop.  `untraced_greedy` returns the schedule
alone.  `greedy_schedule` also records the placement trace: where each job
went, how far it shifted the jobs to its right, and its parent, the job
whose insertion created the gap it landed in.  Those parents form the tree
that `tree_to_dot` draws.  Recording costs about as much as the placement
itself, so only callers that read the trace should ask for it.
"""

from __future__ import annotations

from collections import namedtuple
from heapq import heapify, heappop, heappush, heapreplace
from itertools import accumulate, chain
from math import isqrt

from .core import Instance, Schedule


# One per job, so a named tuple, and `_greedy` builds its rows with
# `tuple.__new__`, which skips the named tuple's Python-level `__new__` and
# takes less than half its time.
#   job         1-based rank in the non-increasing size order
#   size
#   gap_start   chosen gap before insertion; None for job 1
#   gap_length
#   placement   start assigned at insertion time (later steps may shift it)
#   shift       0 when the gap had room, else 2*size - gap_length
#   parent      job whose insertion created the chosen gap; None for job 1
#   makespan    makespan after this step
TraceStep = namedtuple("TraceStep", "job size gap_start gap_length placement shift parent makespan")


GreedyTrace = tuple[TraceStep, ...]


def _greedy(sizes: tuple[int, ...], record: bool) -> tuple[tuple[int, ...], list[TraceStep] | None]:
    """Run greedy over the gaps in time order; return every job's start
    (index k is job k+1) and, when `record` is set, the placement trace.

    A gap is named by its edge, the job at its left end, and its length
    never changes once the gap exists: a shift moves only the starts of
    later gaps.  So the gaps are stored as lengths alone, in blocks of
    parallel `lengths` and `edges` lists, and a start is the sum of the
    lengths before it.  Each block also keeps its lengths, negated, in a heap
    (`tops`): a step removes a block's largest gap and adds two, so the
    block's new maximum costs two heap operations rather than a scan.  A
    heap of (-maximum, block index) entries names the block holding the
    largest gap, earliest on ties; an entry whose maximum is no longer its
    block's is stale and dropped when it reaches the top.  A step then finds
    its gap with a C-level `index` pass over O(sqrt n) lengths.  A block
    that reaches twice `block` entries is split in two, which shifts the
    later block indices, so the heap of blocks is rebuilt; that happens
    about once per `block` insertions.

    Placing a job of size p into a gap of length x leaves a gap of length p
    at the old edge and a new gap of length max(p, x - p) whose edge is the
    job; when x < 2p everything to the right shifts by 2p - x.  Recording
    adds a length sum per block for the gap's start, the running makespan,
    and an owner table indexed by edge: the owner of a gap is the last job
    inserted into it, or its edge job when none was.
    """
    n = len(sizes)
    first = sizes[0]
    block = max(16, isqrt(n) // 3)
    lengths = [[first]]
    edges = [[1]]
    tops = [[-first]]
    heap = [(-first, 0)]
    trace = None
    if record:
        sums = [first]
        owner_of: list[int | None] = [None] * (n + 1)
        span = first
        step = tuple.__new__
        trace = [step(TraceStep, (1, first, None, None, 0, 0, None, first))]
    for job in range(2, n + 1):
        size = sizes[job - 1]
        negative, b = heap[0]
        while tops[b][0] != negative:
            heappop(heap)
            negative, b = heap[0]
        length = -negative
        row = lengths[b]
        k = row.index(length)
        edge_row = edges[b]
        right = length - size if length >= 2 * size else size
        if record:
            gap_start = sum(sums[:b]) + sum(row[:k])
            shift = size + right - length
            sums[b] += shift
            span += shift
            edge = edge_row[k]
            parent = owner_of[edge]
            owner_of[edge] = job
            trace.append(step(TraceStep, (job, size, gap_start, length, gap_start + size, shift,
                                          edge if parent is None else parent, span)))
        row[k] = size
        row.insert(k + 1, right)
        edge_row.insert(k + 1, job)
        if len(row) >= 2 * block:
            for rows in (lengths, edges):
                rows.insert(b + 1, rows[b][block:])
                del rows[b][block:]
            halves = lengths[b:b + 2]
            tops[b:b + 1] = [[-x for x in half] for half in halves]
            heapify(tops[b])
            heapify(tops[b + 1])
            if record:
                sums[b:b + 1] = [sum(half) for half in halves]
            heap = [(top[0], i) for i, top in enumerate(tops)]
            heapify(heap)
        else:
            top = tops[b]
            heapreplace(top, -right)
            heappush(top, -size)
            if top[0] != negative:
                heappush(heap, (top[0], b))
    starts = [0] * n
    for edge, start in zip(chain.from_iterable(edges), accumulate(chain.from_iterable(lengths), initial=0)):
        starts[edge - 1] = start
    return tuple(starts), trace


def greedy_schedule(instance: Instance) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule plus its placement trace.

    Output starts are integers; job k of the schedule is the k-th largest
    size, matching the 1-based labels in the trace.  Each insertion costs
    O(sqrt n) steps of C-level list work, and the final starts are prefix
    sums of the gap lengths.
    """
    sizes = instance.sizes
    starts, trace = _greedy(sizes, True)
    return Schedule(zip(sizes, starts)), tuple(trace)


def untraced_greedy(instance: Instance) -> Schedule:
    """The schedule of `greedy_schedule`, without building its trace."""
    sizes = instance.sizes
    starts, _ = _greedy(sizes, False)
    return Schedule(zip(sizes, starts))


def tree_to_dot(trace: GreedyTrace) -> str:
    """DOT text for the insertion tree: job 1 at the root and an edge from
    each later job's parent to it, in placement order."""
    lines = ["digraph greedy_tree {", f"  {trace[0].job};"]
    lines.extend(f"  {step.parent} -> {step.job};" for step in trace[1:])
    lines.append("}")
    return "\n".join(lines) + "\n"
