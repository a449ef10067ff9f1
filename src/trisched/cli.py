"""Command line front end.

Subcommands: gen, solve, check, simulate, render, bench.  Exit codes:
0 on success, 1 on domain errors (bad instances, infeasible schedules,
decode failures), 2 on usage errors.  TS_SEED supplies the default seed
of the commands that draw random numbers.  A command runs under CPython's
int-string digit limit plus 20 (`serialize.any_digits`), so what it writes
reads back, and with the cyclic collector paused, which `cli_main` alone
touches.  An error in reading or decoding a file names the file.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from fractions import Fraction

from . import bench, generators, qptas, render, serialize
from .core import Schedule, check_feasible, conflict_text, lower_bound, makespan
from .exact import DEFAULT_SIZE_LIMIT, optimal_makespan
from .greedy import greedy_schedule, tree_to_dot, untraced_greedy
from .hardness import encode
from .simulate import simulate


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _seed(seed: int | None) -> int:
    """`--seed` if given, else TS_SEED (default 0); read only by the
    branches that draw random numbers."""
    if seed is not None:
        return seed
    text = os.environ.get("TS_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"TS_SEED must be an integer, got {text!r}") from None


def _load(path: str, from_obj):
    """from_obj(read_json(path)), with any ValueError naming the file."""
    try:
        return from_obj(serialize.read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _is_stdout(path: str) -> bool:
    """Whether `path` is the file stdout writes to, such as /dev/stdout or
    the file of a `>` redirection; not when stdout has no file."""
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (OSError, ValueError):
        return False


def _emit(output: str | None, text: str) -> None:
    """Write `text` to the file `output`, or to stdout when it is None.  A
    file that is stdout's own is written through stdout, after the lines
    printed before: a second open of it would write over them."""
    if output is None or _is_stdout(output):
        sys.stdout.write(text)
    else:
        serialize.write_text(output, text)


# For each subcommand: its selector flag, the flags each mode needs, and the
# modes that read each optional flag, in the order refusals name them.
# Flags are argparse dests.
_MODES = {
    "gen": ("kind",
            {"random": ("n",), "ratio-bounded": ("n", "bound"), "fixture": ("fixture",),
             "reduction": ("tdm", "M")},
            {"n": ("random", "ratio-bounded"), "seed": ("random", "ratio-bounded"),
             "max_size": ("random", "ratio-bounded"), "bound": ("ratio-bounded",),
             "fixture": ("fixture",), "tdm": ("reduction",), "M": ("reduction",),
             "output": generators.KINDS}),
    "solve": ("algo",
              {"qptas": ("eps",)},
              {"trace": ("greedy",), "tree": ("greedy",), "eps": ("qptas",), "limit": ("exact",),
               "output": ("greedy", "exact", "qptas")}),
}


def _flag(dest: str) -> str:
    """The option text of an argparse dest, such as -o for output."""
    return "-o" if dest == "output" else "--" + dest.replace("_", "-")


def _check_flags(command: str, args) -> None:
    """Refuse the flags the chosen mode needs and lacks, naming only those,
    then the first flag it would silently ignore."""
    selector, needs, reads = _MODES[command]
    mode = getattr(args, selector)
    missing = [_flag(dest) for dest in needs.get(mode, ()) if getattr(args, dest) is None]
    if missing:
        raise ValueError(f"{_flag(selector)} {mode} needs {' and '.join(missing)}")
    for dest, modes in reads.items():
        if getattr(args, dest) is not None and mode not in modes:
            names = " or ".join(", ".join(modes).rsplit(", ", 1))
            raise ValueError(f"{_flag(dest)} needs {_flag(selector)} {names}")


def _cmd_gen(args) -> int:
    _check_flags("gen", args)
    if args.kind == "reduction":
        # the labels go to a new file beside -o, which for a device, a pipe
        # or stdout's own file would be a stray one such as /dev/stdout.labels
        if args.output is not None and (
                _is_stdout(args.output) or os.path.exists(args.output) and not os.path.isfile(args.output)):
            raise ValueError("--kind reduction writes its labels beside the -o file, "
                             "so -o must be a regular file other than stdout")
        tdm = _load(args.tdm, serialize.tdm_from_obj)
        instance, labels = encode(tdm, args.M)
        _emit(args.output, serialize.dumps(serialize.instance_to_obj(instance)))
        if args.output is not None:
            root, suffix = os.path.splitext(args.output)
            _emit(root + ".labels" + suffix, serialize.labels_json(labels))
        return 0
    if args.kind == "fixture":
        instance = generators.fixture_instance(args.fixture)
    else:
        rng = random.Random(_seed(args.seed))
        max_size = 100 if args.max_size is None else args.max_size
        if args.kind == "random":
            instance = generators.random_instance(rng, args.n, max_size)
        else:
            instance = generators.ratio_bounded_instance(rng, args.n, args.bound, max_size)
    _emit(args.output, serialize.dumps(serialize.instance_to_obj(instance)))
    return 0


def _cmd_solve(args) -> int:
    _check_flags("solve", args)
    instance = _load(args.instance, serialize.instance_from_obj)
    if args.algo == "lb":
        print(f"lower bound {lower_bound(instance)}")
        return 0
    if args.algo == "greedy":
        if args.trace is None and args.tree is None:
            schedule = untraced_greedy(instance)
        else:
            schedule, trace = greedy_schedule(instance)
            if args.trace is not None:
                _emit(args.trace, serialize.greedy_trace_json(trace))
            if args.tree is not None:
                _emit(args.tree, tree_to_dot(trace))
    elif args.algo == "exact":
        limit = DEFAULT_SIZE_LIMIT if args.limit is None else args.limit
        _, schedule = optimal_makespan(instance, limit=limit)
    else:
        schedule, stats = qptas.qptas_solve(instance, args.eps)
    if args.algo == "qptas":
        print(f"makespan {makespan(schedule)}\nclasses {stats.classes}\n"
              f"grid-points {stats.grid_points}\ndp-states {stats.dp_states}")
    else:
        print(f"makespan {makespan(schedule)}")
    if args.output is not None:
        _emit(args.output, serialize.schedule_json(schedule))
    return 0


def _cmd_check(args) -> int:
    schedule = _load(args.schedule, serialize.schedule_from_obj)
    conflict = check_feasible(schedule)
    if conflict is not None:
        print(f"infeasible\n  {conflict_text(schedule, conflict)}")
        return 1
    print(f"feasible makespan {makespan(schedule)}")
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is not None and not args.random:
        raise ValueError("--seed needs --random")
    schedule = _load(args.schedule, serialize.schedule_from_obj)
    if args.demands is not None:
        demands = _load(args.demands, serialize.demands_from_obj)
    else:
        if not all(isinstance(size, int) for size in schedule.sizes):
            raise ValueError("--random draws integer demands from integer sizes; pass --demands")
        rng = random.Random(_seed(args.seed))
        demands = tuple(rng.randint(1, size) for size, _ in schedule.jobs)
    trace = simulate(schedule, demands)
    print(f"completion {trace.completion}")
    if args.output is not None:
        _emit(args.output, serialize.execution_trace_json(trace))
    return 0


def _cmd_render(args) -> int:
    trace = None
    if args.trace is not None:
        trace = _load(args.trace, serialize.execution_trace_from_obj)
        schedule = Schedule(tuple((r.size, r.start) for r in trace.records))
    else:
        schedule = _load(args.schedule, serialize.schedule_from_obj)
    draw = render.render_svg if args.format == "svg" else render.render_ascii
    _emit(args.output, draw(schedule, scale=args.scale, trace=trace))
    return 0


def _cmd_bench(args) -> int:
    report = bench.ratio_search(
        n=args.n,
        iterations=args.iterations,
        seed=_seed(args.seed),
        max_size=args.max_size,
        bound=args.bound,
    )
    obj = serialize.report_to_obj(report)
    print(f"ratio {obj['ratio']} witness {report.witness}")
    if args.output is not None:
        _emit(args.output, serialize.dumps(obj))
    if args.findings is not None:
        _emit(args.findings, serialize.dumps({"findings": obj["findings"]}))
    return 0


def _one_of(choices) -> str:
    """Help text listing an option's choices, which a short metavar leaves out
    of the usage so that the help can wrap at narrow terminals."""
    return "one of " + ", ".join(choices)


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--kind", choices=generators.KINDS, required=True, metavar="KIND",
                     help=_one_of(generators.KINDS))
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--max-size", type=int)
    gen.add_argument("--bound", type=_rational)
    fixtures = sorted(generators.FIXTURES)
    gen.add_argument("--fixture", choices=fixtures, metavar="NAME", help=_one_of(fixtures) + " (--kind fixture)")
    gen.add_argument("--tdm", help="3DM JSON file for --kind reduction")
    gen.add_argument("--M", type=int, help="padding parameter for --kind reduction")
    gen.add_argument("-o", "--output")
    gen.set_defaults(func=_cmd_gen)


def _solve_arguments(solve: argparse.ArgumentParser) -> None:
    solve.add_argument("instance")
    algos = ("greedy", "exact", "qptas", "lb")
    solve.add_argument("--algo", choices=algos, required=True, metavar="ALGO", help=_one_of(algos))
    solve.add_argument("--eps", type=_rational, help="accuracy for --algo qptas, e.g. 1/2")
    solve.add_argument("--limit", type=int, help="exact search size cap")
    solve.add_argument("--trace", help="write the placement trace JSON here (--algo greedy only)")
    solve.add_argument("--tree", help="write the insertion tree DOT here (--algo greedy only)")
    solve.add_argument("-o", "--output", help="write the schedule JSON here")
    solve.set_defaults(func=_cmd_solve)


def _check_arguments(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("schedule")
    chk.set_defaults(func=_cmd_check)


def _simulate_arguments(sim: argparse.ArgumentParser) -> None:
    sim.add_argument("--schedule", required=True)
    group = sim.add_mutually_exclusive_group(required=True)
    group.add_argument("--demands", help="demands JSON file")
    group.add_argument("--random", action="store_true", help="draw demands uniformly")
    sim.add_argument("--seed", type=int)
    sim.add_argument("-o", "--output", help="write the execution trace JSON here")
    sim.set_defaults(func=_cmd_simulate)


def _render_arguments(ren: argparse.ArgumentParser) -> None:
    group = ren.add_mutually_exclusive_group(required=True)
    group.add_argument("--schedule")
    group.add_argument("--trace", help="execution trace JSON")
    formats = ("svg", "ascii")
    ren.add_argument("--format", choices=formats, default="svg", metavar="FORMAT",
                     help=_one_of(formats) + " (default svg)")
    ren.add_argument("--scale", type=_rational, default=Fraction(1))
    ren.add_argument("-o", "--output")
    ren.set_defaults(func=_cmd_render)


def _bench_arguments(bench_parser: argparse.ArgumentParser) -> None:
    bench_sub = bench_parser.add_subparsers(
        dest="benchmark", required=True, parser_class=_parser_class(bench_parser.formatter_class)
    )
    ratio = bench_sub.add_parser("ratio-search", help="hunt bad greedy/optimal ratios")
    ratio.add_argument("--n", type=int, default=9)
    ratio.add_argument("--iterations", type=int, default=50)
    ratio.add_argument("--seed", type=int)
    ratio.add_argument("--max-size", type=int, default=50)
    ratio.add_argument("--bound", type=_rational, help="restrict the pool to this ratio bound")
    ratio.add_argument("--findings", help="write instances beating 21/20 here")
    ratio.add_argument("-o", "--output", help="write the report JSON here")
    ratio.set_defaults(func=_cmd_bench)


# (name, help, add_arguments) of each subcommand, in the order the help lists them.
SUBCOMMANDS = (
    ("gen", "generate an instance", _gen_arguments),
    ("solve", "schedule an instance", _solve_arguments),
    ("check", "verify a schedule file", _check_arguments),
    ("simulate", "execute a schedule under demands", _simulate_arguments),
    ("render", "draw a schedule or execution trace", _render_arguments),
    ("bench", "benchmark harnesses", _bench_arguments),
)


def _parser_class(formatter_class):
    """A subparser class that builds no parser for `add_parser(..., build=False)`."""
    def parser_class(build=True, **kwargs):
        return argparse.ArgumentParser(formatter_class=formatter_class, **kwargs) if build else None
    return parser_class


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser for `argv`.  Every subcommand is a choice, so the top-level
    help, usage and errors list them all, but only the one that `argv` runs
    has a parser: the first token not starting with "-" (the top level has
    no option but -h, so that token is the subcommand).  The others map to
    None, which argparse never reads, as it reads only the subparser it
    dispatches to."""
    # One terminal query: argparse's formatters without a width each make their own.
    import shutil

    width = shutil.get_terminal_size().columns - 2
    parser_class = _parser_class(functools.partial(argparse.HelpFormatter, width=width))
    parser = parser_class(
        prog="trisched",
        description="Triangle scheduling solvers, generators, and runtime simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, summary, add_arguments in SUBCOMMANDS:
        subparser = sub.add_parser(name, help=summary, build=name == chosen)
        if name == chosen:
            add_arguments(subparser)
    return parser


def cli_main(argv=None) -> int:
    """Parse `argv` and run its command with the cyclic collector paused,
    restoring the caller's collector state on every exit.  A command
    builds records per job, makes no reference cycles and frees the
    records when it ends, so the collector would only rescan them as they
    pile up (see README, "Exactness and performance")."""
    import gc

    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return serialize.any_digits(args.func, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(cli_main())
