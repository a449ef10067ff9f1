"""The four workloads: their seeded inputs, their CLI pipelines and the
checks run on every output.

Inputs come from this file's own `random.Random`, never from
`trisched.generators`, so the program only ever receives instance and 3DM
JSON files and a change to the generators cannot change the traffic.  Each
pipeline step goes through `trisched.cli.cli_main` in this process, except
the two reduction steps the CLI has no subcommand for, which call
`trisched.hardness` directly.  Every call looks its function up on the
module at call time, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from trisched import cli, hardness, serialize
from trisched.core import new_instance
from trisched.greedy import greedy_schedule

import reference as ref

EPS = Fraction(1, 2)
TDM_D = 10


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str              # which pipeline: greedy, exact, qptas or reduction
    ns: tuple[int, ...]    # jobs per instance (triplets for the reduction), cycled
    count: int             # instances per pass
    max_size: int = 50


# Pool sizes make one pass take about 5 s (bulk-greedy, reduction-roundtrip)
# or 13 to 14 reference seconds (oracle-pool, qptas-grid; see speed.py).  The
# small-instance pools use hundreds of instances of two adjacent n because
# per-instance cost varies 30 to 80% between instances of one n: n = 10 for
# the oracle or n = 7 for the QPTAS puts a few instances in the tail that
# decide the pass time.  The smaller n comes twice in each cycle so that the
# p50 and p90 fall where instances are dense, not into the sparse tail of the
# larger n, which moved the p90 by 0.09 to 0.16 (quartile distance over
# median) from seed to seed.  The reduction instances share one size: with
# three instances the percentiles interpolate between them, and unequal sizes
# left the p90 to the largest instance alone.

SPECS = {
    "bulk-greedy": Spec("bulk-greedy", "greedy", (1000, 3000), 2, max_size=10**6),
    "oracle-pool": Spec("oracle-pool", "exact", (8, 8, 9), 500),
    "qptas-grid": Spec("qptas-grid", "qptas", (5, 5, 6), 900),
    "reduction-roundtrip": Spec("reduction-roundtrip", "reduction", (300,), 3),
}


@dataclass(frozen=True)
class Case:
    """One generated instance and where its files live."""

    index: int
    n: int
    sizes: tuple[int, ...]     # job sizes; for the reduction, the encoded sizes
    sim_seed: int
    stem: str                  # path prefix of this case's files
    tdm: dict | None = None    # reduction only: D, a, b, c
    M: int = 0
    matching: tuple[tuple[int, int, int], ...] = ()

    def path(self, tag: str, suffix: str = ".json") -> str:
        return f"{self.stem}.{tag}{suffix}"


def _random_3dm(rng: random.Random, n: int):
    """A solvable numerical 3DM instance with a planted matching.

    Every row is a permutation of (3, 3, 4), so it sums to D = 10; the b and
    c columns are then shuffled so the matching is not the identity.
    """
    rows = [rng.sample((3, 3, 4), 3) for _ in range(n)]
    pos_b, pos_c = list(range(n)), list(range(n))
    rng.shuffle(pos_b)
    rng.shuffle(pos_c)
    b, c = [0] * n, [0] * n
    for t, (_, vb, vc) in enumerate(rows):
        b[pos_b[t]] = vb
        c[pos_c[t]] = vc
    tdm = {"D": TDM_D, "a": [row[0] for row in rows], "b": b, "c": c}
    matching = tuple((t + 1, pos_b[t] + 1, pos_c[t] + 1) for t in range(n))
    return tdm, matching


# The files each pipeline writes, as (tag, suffix) of Case.path.
OUTPUTS = {
    "greedy": (("schedule", ".json"), ("trace", ".json"), ("tree", ".dot"), ("execution", ".json")),
    "exact": (("schedule", ".json"),),
    "qptas": (("schedule", ".json"),),
    "reduction": (("encoded", ".json"), ("encoded", ".labels.json"), ("certificate", ".json"),
                  ("schedule", ".json")),
}


def prepare(spec: Spec, seed: int, workdir: Path) -> list[Case]:
    """Generate the workload's inputs from the seed and write them to workdir."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{spec.name}/{seed}")
    cases = []
    for k in range(spec.count):
        n = spec.ns[k % len(spec.ns)]
        stem = str(workdir / f"c{k}")
        if spec.kind == "reduction":
            tdm, matching = _random_3dm(rng, n)
            M = -(-5 * TDM_D // 4) + rng.randint(0, 6)   # at least ceil(5D/4), as encode requires
            case = Case(k, n, tuple(ref.reduction_sizes(tdm, M)), rng.randrange(2**31),
                        stem, tdm, M, matching)
            payload = tdm
        else:
            sizes = tuple(rng.randint(1, spec.max_size) for _ in range(n))
            case = Case(k, n, sizes, rng.randrange(2**31), stem)
            payload = {"sizes": list(sizes)}
        with open(case.path("input"), "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        cases.append(case)
    return cases


def create_outputs(spec: Spec, cases: list[Case]) -> None:
    """Create empty the files the pipelines will write, so that every timed
    step rewrites a file instead of creating one: creating a file cost about
    0.5 ms on the ext4 disk of the VM the benchmark was defined on, ten times
    as much as rewriting it, and varied with the state of the disk, which the
    benchmark should not measure."""
    for case in cases:
        for tag, suffix in OUTPUTS[spec.kind]:
            open(case.path(tag, suffix), "w").close()


class StepFailed(Exception):
    """A CLI step exited non-zero."""


def _cli(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.cli_main(list(argv))
    if code != 0:
        raise StepFailed(f"trisched {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _simulate(case: Case, schedule: str, *extra: str) -> tuple[str, ...]:
    return ("simulate", "--schedule", schedule, "--random", "--seed", str(case.sim_seed), *extra)


# A pipeline takes the case and `call`, which times one step: call(fn, *args)
# returns fn(*args).  Everything a pipeline does happens inside some step.

def run_greedy(case: Case, call) -> dict:
    schedule = case.path("schedule")
    return {
        "solve": call(_cli, "solve", case.path("input"), "--algo", "greedy", "--trace", case.path("trace"),
                      "--tree", case.path("tree", ".dot"), "-o", schedule),
        "check": call(_cli, "check", schedule),
        "simulate": call(_cli, *_simulate(case, schedule, "-o", case.path("execution"))),
    }


def run_exact(case: Case, call) -> dict:
    schedule = case.path("schedule")
    return {
        "solve": call(_cli, "solve", case.path("input"), "--algo", "exact", "-o", schedule),
        "check": call(_cli, "check", schedule),
        "simulate": call(_cli, *_simulate(case, schedule)),
    }


def run_qptas(case: Case, call) -> dict:
    schedule = case.path("schedule")
    return {
        "solve": call(_cli, "solve", case.path("input"), "--algo", "qptas", "--eps", str(EPS), "-o", schedule),
        "check": call(_cli, "check", schedule),
        "simulate": call(_cli, *_simulate(case, schedule)),
    }


def _certify(case: Case, cert_path: str):
    tdm = serialize.tdm_from_obj(serialize.read_json(case.path("input")))
    cert = hardness.schedule_from_matching(tdm, case.M, case.matching)
    serialize.write_json(cert_path, serialize.schedule_to_obj(cert))
    return tdm


def _decode(case: Case, tdm, cert_path: str):
    loaded = serialize.schedule_from_obj(serialize.read_json(cert_path))
    return hardness.matching_from_schedule(tdm, case.M, loaded)


def run_reduction(case: Case, call) -> dict:
    encoded, cert_path = case.path("encoded"), case.path("certificate")
    out = {"gen": call(_cli, "gen", "--kind", "reduction", "--tdm", case.path("input"),
                       "--M", str(case.M), "-o", encoded)}
    tdm = call(_certify, case, cert_path)
    out["check"] = call(_cli, "check", cert_path)
    out["decoded"] = call(_decode, case, tdm, cert_path)
    out["solve"] = call(_cli, "solve", encoded, "--algo", "greedy", "-o", case.path("schedule"))
    out["simulate"] = call(_cli, *_simulate(case, cert_path))
    return out


def _printed(text: str, prefix: str) -> str:
    """The value after `prefix` on the first line that starts with it."""
    for line in text.splitlines():
        if line.startswith(prefix + " "):
            return line[len(prefix) + 1:]
    raise ref.WrongOutput(f"no {prefix!r} line in {text!r}")


def _check_solved(case: Case, out: dict) -> list[tuple]:
    """The solver's schedule file and printed makespan; returns its jobs."""
    jobs = ref.schedule_jobs(case.path("schedule"))
    ref.check_schedule(jobs, case.sizes)
    span = ref.makespan(jobs)
    ref.expect(ref.number(_printed(out["solve"], "makespan")) == span, "solve printed a wrong makespan")
    ref.expect(span >= ref.lower_bound(case.sizes), "makespan below the lower bound")
    return jobs


def _check_checked(out: dict, span) -> None:
    ref.expect(out["check"] == f"feasible makespan {span}\n", "check disagrees with the reference")


def _check_completion(out: dict, span) -> None:
    done = ref.number(_printed(out["simulate"], "completion"))
    ref.expect(0 < done <= span, "simulated completion outside (0, makespan]")


def _greedy_makespan(case: Case) -> int:
    # The paper gates compare against the program's own greedy.  The name was
    # bound at import, before any tracer wraps the module, and the checks run
    # outside the timed and traced region.
    schedule, _ = greedy_schedule(new_instance(case.sizes))
    return ref.makespan(schedule.jobs)


def verify_greedy(case: Case, out: dict) -> Fraction:
    jobs = _check_solved(case, out)
    span = ref.makespan(jobs)
    _check_checked(out, span)
    steps = ref.read(case.path("trace"))["steps"]
    ref.expect(len(steps) == case.n and steps[-1]["makespan"] == span, "greedy trace disagrees with the schedule")
    edges = Path(case.path("tree", ".dot")).read_text(encoding="utf-8").count("->")
    ref.expect(edges == case.n - 1, "insertion tree does not have n - 1 edges")
    trace = ref.read(case.path("execution"))
    ref.check_execution(jobs, trace)
    ref.expect(ref.number(_printed(out["simulate"], "completion")) == ref.number(trace["completion"]),
               "simulate printed a completion its trace does not have")
    return Fraction(span, ref.lower_bound(case.sizes))


def verify_exact(case: Case, out: dict) -> Fraction:
    """lower_bound <= exact <= greedy <= 3/2 exact."""
    span = ref.makespan(_check_solved(case, out))
    _check_checked(out, span)
    greedy = _greedy_makespan(case)
    ref.expect(span <= greedy <= Fraction(3, 2) * span, f"exact {span} and greedy {greedy} break the 3/2 sandwich")
    _check_completion(out, span)
    return Fraction(span, ref.lower_bound(case.sizes))


def verify_qptas(case: Case, out: dict) -> Fraction:
    """QPTAS <= (1+eps)^3 greedy, a necessary condition of its guarantee."""
    span = ref.makespan(_check_solved(case, out))
    _check_checked(out, span)
    greedy = _greedy_makespan(case)
    ref.expect(span <= (1 + EPS) ** 3 * greedy, f"QPTAS {span} exceeds (1+eps)^3 greedy {greedy}")
    _check_completion(out, span)
    return Fraction(span, ref.lower_bound(case.sizes))


def verify_reduction(case: Case, out: dict) -> Fraction:
    """The certificate is tight and the decoded matching re-encodes to it."""
    encoded = [ref.number(p) for p in ref.read(case.path("encoded"))["sizes"]]
    ref.expect(sorted(encoded) == sorted(case.sizes), "gen encoded the wrong sizes")
    target = case.n * (8 * case.M + 5 * case.tdm["D"])
    ref.expect(ref.read(case.path("encoded", ".labels.json"))["target"] == target, "labels carry a wrong target")
    cert = ref.schedule_jobs(case.path("certificate"))
    ref.check_schedule(cert, case.sizes)
    ref.expect(ref.makespan(cert) == target, "certificate makespan is not n(8M+5D)")
    _check_checked(out, target)
    decoded = out["decoded"]
    ref.check_matching(case.tdm, decoded)
    ref.expect(sorted(ref.certificate(case.tdm, case.M, decoded)) == sorted(cert),
               "decoded matching does not re-encode to the certificate")
    _check_completion(out, target)
    span = ref.makespan(_check_solved(case, out))
    return Fraction(span, ref.lower_bound(case.sizes))


PIPELINES = {
    "greedy": (run_greedy, verify_greedy),
    "exact": (run_exact, verify_exact),
    "qptas": (run_qptas, verify_qptas),
    "reduction": (run_reduction, verify_reduction),
}
