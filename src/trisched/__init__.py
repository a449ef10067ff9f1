"""Triangle scheduling: solvers, hardness reduction, runtime simulation.

Jobs of sizes p_1 >= ... >= p_n are placed at start times; feasibility
demands |s_i - s_j| >= min(p_i, p_j) for every pair, and the objective is to
minimize the makespan max_j (s_j + p_j).
"""

from .core import (
    ExactNumber,
    Instance,
    Schedule,
    as_exact,
    binary_tree_ratio,
    check_feasible,
    lower_bound,
    makespan,
    new_instance,
)
from .exact import SearchRefused, optimal_makespan
from .generators import FIXTURES, fixture_instance, random_instance, ratio_bounded_instance
from .greedy import GreedyTrace, greedy_schedule, tree_to_dot
from .hardness import (
    DecodeError,
    Matching,
    ReductionLabels,
    ThreeDMInstance,
    encode,
    matching_from_schedule,
    min_padding,
    ratio_excess,
    schedule_from_matching,
    solve_3dm_bruteforce,
)
from .qptas import QptasStats, qptas_solve
from .simulate import ExecutionRecord, ExecutionTrace, simulate

__all__ = [
    "ExactNumber",
    "Instance",
    "Schedule",
    "as_exact",
    "binary_tree_ratio",
    "check_feasible",
    "lower_bound",
    "makespan",
    "new_instance",
    "SearchRefused",
    "optimal_makespan",
    "FIXTURES",
    "fixture_instance",
    "random_instance",
    "ratio_bounded_instance",
    "GreedyTrace",
    "greedy_schedule",
    "tree_to_dot",
    "DecodeError",
    "Matching",
    "ReductionLabels",
    "ThreeDMInstance",
    "encode",
    "matching_from_schedule",
    "min_padding",
    "ratio_excess",
    "schedule_from_matching",
    "solve_3dm_bruteforce",
    "QptasStats",
    "qptas_solve",
    "ExecutionRecord",
    "ExecutionTrace",
    "simulate",
]
