"""Command line front end.

Subcommands: gen, solve, check, simulate, render, bench.  Exit codes:
0 on success, 1 on domain errors (bad instances, infeasible schedules,
decode failures), 2 on usage errors.  TS_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import bench, generators, qptas, render, serialize
from .core import Schedule, check_feasible, lower_bound, makespan
from .exact import DEFAULT_SIZE_LIMIT, optimal_makespan
from .greedy import greedy_schedule, tree_to_dot, untraced_greedy
from .hardness import encode
from .simulate import simulate


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _default_seed() -> int:
    text = os.environ.get("TS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"TS_SEED must be an integer, got {text!r}") from None


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        serialize.write_text(output, text)


def _cmd_gen(args) -> int:
    if args.kind == "reduction":
        if args.tdm is None or args.M is None:
            raise ValueError("--kind reduction needs --tdm and --M")
        tdm = serialize.tdm_from_obj(serialize.read_json(args.tdm))
        instance, labels = encode(tdm, args.M)
        _emit(serialize.dumps(serialize.instance_to_obj(instance)), args.output)
        if args.output is not None:
            out = Path(args.output)
            sidecar = out.with_name(out.stem + ".labels" + out.suffix)
            serialize.write_text(sidecar, serialize.labels_json(labels))
        return 0
    if args.kind == "fixture":
        if args.fixture is None:
            raise ValueError("--kind fixture needs --fixture")
        instance = generators.fixture_instance(args.fixture)
    else:
        if args.n is None:
            raise ValueError(f"--kind {args.kind} needs --n")
        rng = random.Random(args.seed)
        if args.kind == "random":
            instance = generators.random_instance(rng, args.n, args.max_size)
        else:
            if args.bound is None:
                raise ValueError("--kind ratio-bounded needs --bound")
            instance = generators.ratio_bounded_instance(rng, args.n, args.bound, args.max_size)
    _emit(serialize.dumps(serialize.instance_to_obj(instance)), args.output)
    return 0


def _check_solve_flags(args) -> None:
    """Refuse a missing `--eps` and any flag the chosen algorithm would
    silently ignore."""
    if args.algo != "greedy":
        for flag in ("trace", "tree"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} needs --algo greedy")
    if args.algo == "qptas" and args.eps is None:
        raise ValueError("--algo qptas needs --eps")
    if args.eps is not None and args.algo != "qptas":
        raise ValueError("--eps needs --algo qptas")
    if args.output is not None and args.algo == "lb":
        raise ValueError("-o needs --algo greedy, exact or qptas")


def _cmd_solve(args) -> int:
    _check_solve_flags(args)
    instance = serialize.instance_from_obj(serialize.read_json(args.instance))
    if args.algo == "lb":
        print(f"lower bound {lower_bound(instance)}")
        return 0
    if args.algo == "greedy":
        if args.trace is None and args.tree is None:
            schedule = untraced_greedy(instance)
        else:
            schedule, trace = greedy_schedule(instance)
            if args.trace is not None:
                serialize.write_text(args.trace, serialize.greedy_trace_json(trace))
            if args.tree is not None:
                serialize.write_text(args.tree, tree_to_dot(trace))
    elif args.algo == "exact":
        _, schedule = optimal_makespan(instance, limit=args.limit)
    elif args.algo == "qptas":
        schedule, stats = qptas.qptas_solve(instance, args.eps)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown algorithm {args.algo}")
    print(f"makespan {serialize.encode_exact(makespan(schedule))}")
    if args.algo == "qptas":
        print(f"classes {stats.classes}")
        print(f"grid-points {stats.grid_points}")
        print(f"dp-states {stats.dp_states}")
    if args.output is not None:
        serialize.write_text(args.output, serialize.schedule_json(schedule))
    return 0


def _read_schedule(path: str) -> Schedule:
    """A schedule file for `check` and `simulate`, which need at least one job."""
    schedule = serialize.schedule_from_obj(serialize.read_json(path))
    if not schedule.jobs:
        raise ValueError("schedule has no jobs")
    return schedule


def _cmd_check(args) -> int:
    schedule = _read_schedule(args.schedule)
    violations = check_feasible(schedule)
    if violations:
        print("infeasible")
        for i, j in violations:
            p_i, s_i = schedule.jobs[i]
            p_j, s_j = schedule.jobs[j]
            print(f"  jobs {i} and {j}: |{s_i} - {s_j}| < min({p_i}, {p_j})")
        return 1
    print(f"feasible makespan {serialize.encode_exact(makespan(schedule))}")
    return 0


def _cmd_simulate(args) -> int:
    schedule = _read_schedule(args.schedule)
    if args.demands is not None:
        demands = serialize.demands_from_obj(serialize.read_json(args.demands))
    else:
        if not all(isinstance(size, int) for size in schedule.sizes):
            raise ValueError("--random draws integer demands from integer sizes; pass --demands")
        rng = random.Random(args.seed)
        demands = tuple(rng.randint(1, size) for size, _ in schedule.jobs)
    trace = simulate(schedule, demands)
    print(f"completion {serialize.encode_exact(trace.completion)}")
    if args.output is not None:
        serialize.write_text(args.output, serialize.execution_trace_json(trace))
    return 0


def _cmd_render(args) -> int:
    trace = None
    if args.trace is not None:
        trace = serialize.execution_trace_from_obj(serialize.read_json(args.trace))
        schedule = Schedule(tuple((r.size, r.start) for r in trace.records))
    else:
        schedule = serialize.schedule_from_obj(serialize.read_json(args.schedule))
    if args.format == "svg":
        text = render.render_svg(schedule, scale=args.scale, trace=trace)
    else:
        text = render.render_ascii(schedule, scale=args.scale, trace=trace)
    _emit(text, args.output)
    return 0


def _cmd_bench(args) -> int:
    report = bench.ratio_search(
        n=args.n,
        iterations=args.iterations,
        seed=args.seed,
        max_size=args.max_size,
        bound=args.bound,
    )
    obj = serialize.report_to_obj(report)
    print(f"ratio {obj['ratio']} witness {report.witness}")
    if args.output is not None:
        serialize.write_json(args.output, obj)
    if args.findings is not None and report.findings:
        serialize.write_json(
            args.findings,
            {"findings": obj["findings"]},
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trisched",
        description="Triangle scheduling solvers, generators, and runtime simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance")
    gen.add_argument("--kind", choices=generators.KINDS, required=True)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--max-size", type=int, default=100)
    gen.add_argument("--bound", type=_rational)
    gen.add_argument("--fixture", choices=sorted(generators.FIXTURES))
    gen.add_argument("--tdm", help="3DM JSON file for --kind reduction")
    gen.add_argument("--M", type=int, help="padding parameter for --kind reduction")
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="schedule an instance")
    solve.add_argument("instance")
    solve.add_argument("--algo", choices=("greedy", "exact", "qptas", "lb"), required=True)
    solve.add_argument("--eps", type=_rational, help="accuracy for --algo qptas, e.g. 1/2")
    solve.add_argument("--limit", type=int, default=DEFAULT_SIZE_LIMIT, help="exact search size cap")
    solve.add_argument("--trace", help="write the placement trace JSON here (--algo greedy only)")
    solve.add_argument("--tree", help="write the insertion tree DOT here (--algo greedy only)")
    solve.add_argument("-o", "--output", help="write the schedule JSON here")
    solve.set_defaults(func=_cmd_solve)

    chk = sub.add_parser("check", help="verify a schedule file")
    chk.add_argument("schedule")
    chk.set_defaults(func=_cmd_check)

    sim = sub.add_parser("simulate", help="execute a schedule under demands")
    sim.add_argument("--schedule", required=True)
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--demands", help="demands JSON file")
    group.add_argument("--random", action="store_true", help="draw demands uniformly")
    sim.add_argument("--seed", type=int)
    sim.add_argument("-o", "--output", help="write the execution trace JSON here")
    sim.set_defaults(func=_cmd_simulate)

    ren = sub.add_parser("render", help="draw a schedule or execution trace")
    group = ren.add_mutually_exclusive_group(required=True)
    group.add_argument("--schedule")
    group.add_argument("--trace", help="execution trace JSON")
    ren.add_argument("--format", choices=("svg", "ascii"), default="svg")
    ren.add_argument("--scale", type=_rational, default=Fraction(1))
    ren.add_argument("-o", "--output")
    ren.set_defaults(func=_cmd_render)

    bench_parser = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = bench_parser.add_subparsers(dest="benchmark", required=True)
    ratio = bench_sub.add_parser("ratio-search", help="hunt bad greedy/optimal ratios")
    ratio.add_argument("--n", type=int, default=9)
    ratio.add_argument("--iterations", type=int, default=50)
    ratio.add_argument("--seed", type=int)
    ratio.add_argument("--max-size", type=int, default=50)
    ratio.add_argument("--bound", type=_rational, help="restrict the pool to this ratio bound")
    ratio.add_argument("--findings", help="write instances beating 21/20 here")
    ratio.add_argument("-o", "--output", help="write the report JSON here")
    ratio.set_defaults(func=_cmd_bench)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        if getattr(args, "seed", 0) is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
