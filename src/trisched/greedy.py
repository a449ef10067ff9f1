"""Largest-gap greedy insertion with right shifting.

Jobs are placed in non-increasing size order.  Each job goes into a largest
gap (earliest on ties) at distance its own size from the gap's left edge;
when the gap is too short to absorb it, everything to the right slides over
by the missing amount.  The module also records the placement trace and the
parent tree it induces: each job is a child of the job whose insertion
created the gap it landed in.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate, chain
from math import isqrt
from typing import NamedTuple

from .core import Instance, Schedule


# One per job, so a named tuple: it builds in about a quarter of a frozen
# dataclass's time.
class TraceStep(NamedTuple):
    job: int                # 1-based rank in the non-increasing size order
    size: int
    gap_start: int | None   # chosen gap before insertion; None for job 1
    gap_length: int | None
    placement: int          # start assigned at insertion time (later steps may shift it)
    shift: int              # 0 when the gap had room, else 2*size - gap_length
    parent: int | None      # job whose insertion created the chosen gap
    makespan: int           # makespan after this step


GreedyTrace = tuple[TraceStep, ...]


def insert_into_gap(
    gap: tuple[int, int], size: int
) -> tuple[int, tuple[tuple[int, int], tuple[int, int]], int]:
    """Split a (start, length) gap by placing a job of the given size.

    Returns (placement, (left_gap, right_gap), shift).  A gap of length
    x >= 2*size splits into lengths (size, x - size) with no shift; a shorter
    gap yields two gaps of length size and pushes everything to the right by
    2*size - x.  Both regimes are handled, including size > x.
    """
    start, length = gap
    placement = start + size
    shift = max(0, 2 * size - length)
    left = (start, size)
    right = (placement, size if shift else length - size)
    return placement, (left, right), shift


class _GapList:
    """The gaps of a greedy run in time order, as blocks of parallel lists.

    A gap's length never changes once the gap exists: a shift moves only the
    starts of later gaps.  So the list stores lengths alone, and a gap's
    start is the sum of the lengths before it.  Each gap also records its
    edge (the job sitting at its left end) and its owner (the job whose
    insertion created it).  Every block keeps its largest length and its
    length sum.  A heap of (-maximum, block index) entries names the block
    holding the largest gap, earliest on ties; an entry whose maximum is no
    longer the block's is stale and dropped when it reaches the top.  A step
    then finds the gap and its start with a few C-level passes over
    O(sqrt n) items.  A block that reaches twice `block` entries is split in
    two, which shifts the later block indices, so the heap is rebuilt; that
    happens about once per `block` insertions.
    """

    __slots__ = ("block", "lengths", "edges", "owners", "maxima", "sums", "heap", "makespan")

    def __init__(self, size: int, n: int):
        self.block = max(16, isqrt(n) // 3)
        self.lengths = [[size]]
        self.edges = [[1]]
        self.owners = [[1]]
        self.maxima = [size]
        self.sums = [size]
        self.heap = [(-size, 0)]
        self.makespan = size

    def insert(self, job: int, size: int) -> TraceStep:
        """Place job `job` of the given size into the largest gap."""
        maxima = self.maxima
        heap = self.heap
        negative, b = heap[0]
        while maxima[b] != -negative:
            heappop(heap)
            negative, b = heap[0]
        length = -negative
        lengths = self.lengths[b]
        k = lengths.index(length)
        gap_start = sum(self.sums[:b]) + sum(lengths[:k])
        placement, (left, right), shift = insert_into_gap((gap_start, length), size)
        lengths[k] = left[1]
        lengths.insert(k + 1, right[1])
        self.edges[b].insert(k + 1, job)
        owners = self.owners[b]
        owner = owners[k]
        owners[k] = job
        owners.insert(k + 1, job)
        self.sums[b] += shift
        if len(lengths) >= 2 * self.block:
            self._split(b)
        elif size != length:    # a job as long as its gap leaves two such gaps
            top = max(lengths)
            if top != length:
                maxima[b] = top
                heappush(heap, (-top, b))
        self.makespan += shift
        return TraceStep(job, size, gap_start, length, placement, shift, owner, self.makespan)

    def _split(self, b: int) -> None:
        cut = self.block
        for rows in (self.lengths, self.edges, self.owners):
            row = rows[b]
            rows.insert(b + 1, row[cut:])
            del row[cut:]
        halves = self.lengths[b:b + 2]
        self.maxima[b:b + 1] = [max(half) for half in halves]
        self.sums[b:b + 1] = [sum(half) for half in halves]
        self.heap = [(-top, i) for i, top in enumerate(self.maxima)]
        heapify(self.heap)

    def starts(self) -> tuple[int, ...]:
        """Current start of every placed job; index k is job k+1."""
        starts = [0] * sum(map(len, self.edges))
        edges = chain.from_iterable(self.edges)
        for edge, start in zip(edges, accumulate(chain.from_iterable(self.lengths), initial=0)):
            starts[edge - 1] = start
        return tuple(starts)


def greedy_schedule(instance: Instance) -> tuple[Schedule, GreedyTrace]:
    """Greedy schedule plus its placement trace.

    Output starts are integers; job k of the schedule is the k-th largest
    size, matching the 1-based labels in the trace.  Each insertion costs
    O(sqrt n) steps of C-level list work, and the final starts are prefix
    sums of the gap lengths.
    """
    sizes = instance.sizes
    gap_list = _GapList(sizes[0], len(sizes))
    insert = gap_list.insert
    trace = [TraceStep(1, sizes[0], None, None, 0, 0, None, sizes[0])]
    trace.extend(insert(j, sizes[j - 1]) for j in range(2, len(sizes) + 1))
    return Schedule(tuple(zip(sizes, gap_list.starts()))), tuple(trace)


def tree_to_dot(trace: GreedyTrace) -> str:
    """DOT text for the insertion tree: job 1 at the root and an edge from
    each later job's parent to it, in placement order."""
    lines = ["digraph greedy_tree {", f"  {trace[0].job};"]
    lines.extend(f"  {step.parent} -> {step.job};" for step in trace[1:])
    lines.append("}")
    return "\n".join(lines) + "\n"
