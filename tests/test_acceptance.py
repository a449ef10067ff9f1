"""End-to-end acceptance gate.

Thirteen numbered criteria, one test each.  Every test prints a single
`criterion NN PASS/FAIL` line (visible under `pytest -s`) and asserts the
stated exact values and time budgets.  All numeric comparisons are exact:
integers and fractions.Fraction, never floats.
"""

import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

from oracles import greedy_oracle, grid_exhaustive_optimum
from trisched import (
    Instance,
    Schedule,
    ThreeDMInstance,
    binary_tree_ratio,
    check_feasible,
    encode,
    fixture_instance,
    greedy_schedule,
    lower_bound,
    makespan,
    matching_from_schedule,
    min_padding,
    optimal_makespan,
    qptas_solve,
    random_instance,
    ratio_bounded_instance,
    ratio_excess,
    schedule_from_matching,
    simulate,
)

TDM1 = ThreeDMInstance(D=10, a=(3,), b=(3,), c=(4,))
TDM2 = ThreeDMInstance(D=10, a=(3, 4), b=(3, 3), c=(4, 3))
TDM2_UNSOLVABLE = ThreeDMInstance(D=14, a=(4, 6), b=(5, 5), c=(4, 4))

STAIRCASE = Schedule(((6, 0), (4, 4), (3, 7), (5, 10)))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"


@lru_cache(maxsize=None)
def ratio_bounded_pool() -> tuple[Instance, ...]:
    rng = random.Random(1004)
    return tuple(
        ratio_bounded_instance(rng, rng.randint(1, 30), 2, 50) for _ in range(500)
    )


@lru_cache(maxsize=None)
def random_pool() -> tuple[Instance, ...]:
    rng = random.Random(1005)
    return tuple(random_instance(rng, rng.randint(1, 10), 50) for _ in range(500))


def test_criterion_01_nine_job_gap_instance():
    t0 = time.perf_counter()
    instance = fixture_instance("greedy-gap-9")
    schedule, _ = greedy_schedule(instance)
    greedy_mk = makespan(schedule)
    opt_mk, witness = optimal_makespan(instance)
    elapsed = time.perf_counter() - t0
    ok = (
        greedy_mk == 42
        and opt_mk == 40
        and check_feasible(witness) is None
        and makespan(witness) == 40
        and Fraction(greedy_mk, opt_mk) == Fraction(21, 20)
        and elapsed < 1.0
    )
    report(1, ok, f"greedy {greedy_mk}, exact {opt_mk}, ratio 21/20 in {elapsed:.3f}s")


def test_criterion_02_two_job_bound_gap():
    t0 = time.perf_counter()
    ok = True
    for M in (2, 10, 1000):
        instance = Instance((M, 1))
        opt, _ = optimal_makespan(instance)
        ok = ok and lower_bound(instance) == 2 and opt == M
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"lower bound 2 vs exact M for M in 2/10/1000 in {elapsed:.3f}s")


def test_criterion_03_staircase_schedule():
    t0 = time.perf_counter()
    instance = Instance((6, 5, 4, 3))
    greedy_mk = makespan(greedy_schedule(instance)[0])
    opt_mk, _ = optimal_makespan(instance)
    elapsed = time.perf_counter() - t0
    ok = (
        check_feasible(STAIRCASE) is None
        and makespan(STAIRCASE) == 15
        and opt_mk == 14
        and greedy_mk == 14
        and elapsed < 1.0
    )
    report(3, ok, f"staircase feasible at 15, exact {opt_mk}, greedy {greedy_mk}")


def test_criterion_04_ratio_bounded_optimality():
    t0 = time.perf_counter()
    ok = True
    exact_checked = 0
    for instance in ratio_bounded_pool():
        ok = ok and binary_tree_ratio(instance) <= 2
        greedy_mk = makespan(greedy_schedule(instance)[0])
        ok = ok and greedy_mk == lower_bound(instance)
        if instance.n <= 10:
            ok = ok and greedy_mk == optimal_makespan(instance)[0]
            exact_checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        4,
        ok,
        f"500 bounded-ratio instances at the bound ({exact_checked} also vs "
        f"exact) in {elapsed:.1f}s",
    )


def test_criterion_05_random_sandwich():
    t0 = time.perf_counter()
    ok = True
    for instance in random_pool():
        lb = lower_bound(instance)
        opt, _ = optimal_makespan(instance)
        greedy_mk = makespan(greedy_schedule(instance)[0])
        ok = ok and lb <= opt <= greedy_mk and greedy_mk <= Fraction(3, 2) * opt
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(5, ok, f"bound <= exact <= greedy <= 1.5*exact on 500 in {elapsed:.1f}s")


def test_criterion_06_greedy_step_invariants():
    t0 = time.perf_counter()
    ok = True
    steps_seen = 0
    for instance in ratio_bounded_pool() + random_pool():
        prev_makespan = 0
        for step, before, after, _ in greedy_oracle(instance):
            steps_seen += 1
            ok = ok and all(length >= step.size for _, length in after)
            if step.makespan > prev_makespan:
                ok = ok and all(length < 2 * step.size for _, length in before)
            prev_makespan = step.makespan
    elapsed = time.perf_counter() - t0
    report(6, ok, f"step invariants held on {steps_seen} insertions in {elapsed:.1f}s")


def test_criterion_07_oracle_cross_validation():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for n in range(1, 5):
        for combo in itertools.combinations_with_replacement(range(1, 6), n):
            instance = Instance(combo)
            ok = ok and optimal_makespan(instance)[0] == grid_exhaustive_optimum(
                instance, horizon=20
            )
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(7, ok, f"exact matches grid search on {checked} multisets in {elapsed:.1f}s")


def test_criterion_08_qptas_guarantee():
    t0 = time.perf_counter()
    rng = random.Random(1008)
    instances = [random_instance(rng, rng.randint(1, 7), 40) for _ in range(50)]
    ok = True
    for instance in instances:
        opt, _ = optimal_makespan(instance)
        for eps in (1, Fraction(1, 2), Fraction(1, 4)):
            schedule, _ = qptas_solve(instance, eps)
            ok = ok and check_feasible(schedule) is None
            ok = ok and sorted(p for p, _ in schedule.jobs) == sorted(instance.sizes)
            mk = makespan(schedule)
            ok = ok and opt <= mk <= (1 + Fraction(eps)) ** 3 * opt
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report(8, ok, f"(1+eps)^3 guarantee on 50 instances x 3 eps in {elapsed:.1f}s")


def test_criterion_09_single_slot_reduction():
    t0 = time.perf_counter()
    instance, _ = encode(TDM1, M=13)
    certificate = schedule_from_matching(TDM1, 13, ((1, 1, 1),))
    opt, _ = optimal_makespan(instance)
    decoded = matching_from_schedule(TDM1, 13, certificate)
    elapsed = time.perf_counter() - t0
    ok = (
        set(instance.sizes) == {154, 52, 42, 29, 27}
        and check_feasible(certificate) is None
        and makespan(certificate) == 154
        and opt == 154
        and decoded == ((1, 1, 1),)
    )
    report(9, ok, f"one-slot encoding optimal at 154, decode round-trip, {elapsed:.3f}s")


def test_criterion_10_two_slot_reduction_gap():
    t0 = time.perf_counter()
    solvable, _ = encode(TDM2, M=13)
    target = 2 * (8 * 13 + 5 * 10)
    opt_solvable, _ = optimal_makespan(solvable)
    unsolvable, _ = encode(TDM2_UNSOLVABLE, M=18)
    target_unsolvable = 2 * (8 * 18 + 5 * 14)
    opt_unsolvable, _ = optimal_makespan(unsolvable)
    elapsed = time.perf_counter() - t0
    ok = (
        opt_solvable == target == 308
        and opt_unsolvable > target_unsolvable == 428
        and elapsed < 120.0
    )
    report(
        10,
        ok,
        f"solvable hits {target}, unsolvable lands {opt_unsolvable} > "
        f"{target_unsolvable}, in {elapsed:.1f}s",
    )


def test_criterion_11_encoded_ratio_formula():
    t0 = time.perf_counter()
    ok = True
    cases = [(TDM2, 13), (TDM2, 20), (TDM2, 130), (TDM2_UNSOLVABLE, 18)]
    rng = random.Random(1011)
    for _ in range(10):
        n = rng.randint(2, 4)
        cols = ([], [], [])
        for _ in range(n):
            triple = rng.sample([3, 3, 4], 3)
            for col, v in zip(cols, triple):
                col.append(v)
        tdm = ThreeDMInstance(
            D=10, a=tuple(cols[0]), b=tuple(cols[1]), c=tuple(cols[2])
        )
        cases.append((tdm, min_padding(tdm) + rng.randint(0, 8)))
    for tdm, M in cases:
        instance, _ = encode(tdm, M)
        excess = binary_tree_ratio(instance) - 2
        ok = ok and excess == Fraction(5 * tdm.D, 4 * M) == ratio_excess(tdm, M)
    elapsed = time.perf_counter() - t0
    report(11, ok, f"tree ratio exceeds 2 by exactly 5D/4M on {len(cases)} encodings")


def test_criterion_12_execution_rows():
    t0 = time.perf_counter()
    rows = [
        ((1, 1, 1, 1), [(0, 1), (4, 5), (7, 8), (10, 11)], 11, {}),
        ((5, 1, 2, 4), [(0, 5), (7, 9), (10, 14)], 14, {1: 0}),
        ((4, 4, 1, 2), [(0, 4), (4, 8), (10, 12)], 12, {2: 1}),
    ]
    ok = True
    for demands, intervals, completion, cancellations in rows:
        trace = simulate(STAIRCASE, demands)
        got = [
            (r.start, r.end)
            for r in sorted(trace.records, key=lambda r: r.start)
            if r.executed
        ]
        ok = ok and got == intervals and trace.completion == completion
        got_cancel = {
            r.job: r.canceled_by for r in trace.records if not r.executed
        }
        ok = ok and got_cancel == cancellations
    elapsed = time.perf_counter() - t0
    report(12, ok, f"three execution rows reproduced exactly in {elapsed:.3f}s")


def test_criterion_13_protection_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(1013)
    ok = True
    for _ in range(10_000):
        instance = random_instance(rng, rng.randint(1, 8), 20)
        schedule, _ = greedy_schedule(instance)
        demands = tuple(rng.randint(1, p) for p, _ in schedule.jobs)
        trace = simulate(schedule, demands)
        for record in trace.records:
            if record.executed:
                continue
            canceler = trace.records[record.canceled_by]
            ok = ok and canceler.executed and canceler.size > record.size
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(13, ok, f"protection held on 10000 fuzzed executions in {elapsed:.1f}s")
