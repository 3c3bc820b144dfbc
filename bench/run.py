"""Benchmark of pargoids: checked typability verdicts on four workloads.

    python3 bench/run.py --workload arbitrary --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout: the package is imported from
``src``, never from an installed copy. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` every public stage of the package is timed from
outside (see ``tracer.py``), and the per-layer metrics are printed
instead. Either way the verdicts are made in this process, one after
another; at most one child process is alive at a time. ``README.md`` beside this file
describes the workloads and metrics.

Every verdict goes through ``checker.py``, which imports nothing from the
package. A verdict fails when it is resource-exhausted, raises, or fails
the package's own evidence check or the independent check; the last two
also make ``correct`` false.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
OUT = BENCH / "out"

# p90 needs at least ten samples beyond it
MIN_VERDICTS = 100
# fresh processes set up, one after another, for the setup_s median
SETUP_SAMPLES = 5
# verdicts of each run come from generator seeds SEED_STRIDE * seed + k
SEED_STRIDE = 100_000
DEFAULT_BUDGET = 100_000  # the package's documented default


@dataclass
class Case:
    """One input and what the independent check may expect of its verdict."""

    name: str
    g: object = None  # the package's Pargoid (library workloads)
    path: Path | None = None  # the input file (cli workload)
    budget: int = DEFAULT_BUDGET
    expect_typable: bool = False
    expect_sizes: dict = field(default_factory=dict)


@dataclass
class Outcome:
    decide_s: float
    check_s: float
    failure: str | None = None
    wrong: bool = False  # the output itself is wrong, not merely missing


# -- inputs -----------------------------------------------------------------
# Each library workload is a cyclic list of cells (generator parameters);
# instance k uses cell k mod len(cells), so every whole round holds each
# cell once. A run stops only at the end of a round. It builds the first
# *_ROUNDS rounds of the sequence and cycles through them if it runs
# longer.

ARBITRARY_CELLS = [(n, d) for d in (0.1, 0.3, 0.6) for n in range(2, 8)]
# Random tables with a cycle can have clones of thousands of ops, and
# their cost is then heavy-tailed; past this budget the closure stops and
# the verdict comes from the clone-free cycle check. Acyclic tables on up
# to 7 elements have clones far below it.
CAPPED_BUDGET = 256
ARBITRARY_ROUNDS = 100

# Three ground types keep type blocks small. With fewer grounds, or with
# typed_strong tables past 11 elements, a few tables in a thousand have
# clones of thousands of ops (seconds each, some stopped by the op clamp).
TYPED_CELLS = ([(n, "typed_strong", 2, 3) for n in range(8, 12)]
               + [(n, "typed_literal", depth, 3)
                  for depth in (2, 3) for n in range(10, 14)])
TYPED_DENSITY = 0.5
TYPED_ROUNDS = 100

# one round of doubling chains: length -> how many per round. The median
# falls inside the 15-element group and the p90 inside the 19-element
# group, not on a boundary between lengths.
DEEP_ROUND = {14: 7, 15: 4, 16: 2, 17: 2, 18: 1, 19: 3, 20: 1}
DEEP_ROUNDS = 5

CLI_FILES = 6  # generated files per round, besides the two fixtures


def build_cases(pkg, workload, seed, workdir):
    """The seed's inputs in round order; instance k depends only on the
    seed and k."""
    gen = pkg.generators
    cases = []
    if workload == "arbitrary":
        cells = ARBITRARY_CELLS
        for k in range(ARBITRARY_ROUNDS * len(cells)):
            n, density = cells[k % len(cells)]
            g = gen.gen_arbitrary(gen.GenConfig(
                size=n, seed=SEED_STRIDE * seed + k, density=density))
            cases.append(Case(f"arbitrary-{k}", g, budget=CAPPED_BUDGET))
    elif workload == "typed":
        cells = TYPED_CELLS
        for k in range(TYPED_ROUNDS * len(cells)):
            n, mode, depth, grounds = cells[k % len(cells)]
            g, _ = gen.gen_typed(gen.GenConfig(
                size=n, seed=SEED_STRIDE * seed + k, mode=mode,
                density=TYPED_DENSITY, type_depth=depth, ground_count=grounds))
            cases.append(Case(f"typed-{k}", g,
                              expect_typable=mode == "typed_strong"))
    elif workload == "deep":
        for r in range(DEEP_ROUNDS):
            rng = random.Random(SEED_STRIDE * seed + r)
            lengths = [n for n, count in DEEP_ROUND.items() for _ in range(count)]
            rng.shuffle(lengths)
            cases += [deep_chain(pkg, n, rng) for n in lengths]
    else:
        cases = cli_files(pkg, seed, workdir)
    return cases


def deep_chain(pkg, n, rng):
    """Doubling chain a_k a_(k-1) = a_(k-1) under a seeded relabelling.

    The type of a_k has 2^(k+1) - 1 nodes as a tree.
    """
    label = list(range(n))
    rng.shuffle(label)
    table = {(label[k], label[k - 1]): label[k - 1] for k in range(1, n)}
    g = pkg.pargoid.Pargoid([f"a{i}" for i in range(n)], table)
    sizes = {label[k]: 2 ** (k + 1) - 1 for k in range(n)}
    return Case(f"deep-{n}", g, expect_typable=True, expect_sizes=sizes)


def cli_files(pkg, seed, workdir):
    """The two fixtures plus small generated files, written to workdir.

    Half the generated files are typed_strong, so typable; the other half
    are total tables (density 1), whose every element applies to itself,
    so untypable. Each round thus holds four verdicts of each kind, and so
    the same number of verify processes.
    """
    gen = pkg.generators
    cases = [Case(name, pkg.pargoid.parse(FIXTURES.joinpath(name).read_bytes()),
                  path=FIXTURES / name, budget=CAPPED_BUDGET)
             for name in ("six.pgd", "three.pgd")]
    for k in range(CLI_FILES):
        gseed = SEED_STRIDE * seed + k
        if k % 2:
            g, _ = gen.gen_typed(gen.GenConfig(
                size=4 + k % 3, seed=gseed, mode="typed_strong", type_depth=2,
                ground_count=2))
        else:
            g = gen.gen_arbitrary(gen.GenConfig(size=2 + k % 3, seed=gseed,
                                                density=1.0))
        path = workdir / f"gen-{k}.pgd"
        path.write_bytes(pkg.pargoid.serialize(g))
        cases.append(Case(path.name, g, path=path, budget=CAPPED_BUDGET,
                          expect_typable=bool(k % 2)))
    random.Random(seed).shuffle(cases)
    return cases


# -- verdicts ---------------------------------------------------------------

def library_verdict(pkg, case, observe=None):
    """One decide call, then the package's own check of its evidence.

    observe, if given, is called untimed with the decision and its neutral
    form once both checks have passed.
    """
    typ = pkg.typability
    t0 = time.perf_counter()
    decision = typ.decide(case.g, case.budget)
    t1 = time.perf_counter()
    if isinstance(decision, typ.Typable):
        ok = pkg.verifier.verify(case.g, decision.typing).accepted
    elif isinstance(decision, typ.Untypable):
        ok, _ = typ.validate_certificate(case.g, decision.certificate, case.budget)
    else:
        return Outcome(t1 - t0, 0.0, f"resource-exhausted ({decision.stage})")
    t2 = time.perf_counter()
    if not ok:
        return Outcome(t1 - t0, t2 - t1, "the package's own check rejected it", True)
    verdict = neutral_verdict(typ, decision)
    outcome = independent_check(case, verdict, Outcome(t1 - t0, t2 - t1))
    if observe is not None and not outcome.failure:
        observe(decision, verdict)
    return outcome


def neutral_verdict(typ, decision):
    if isinstance(decision, typ.Typable):
        store = checker.TypeStore()
        return checker.Verdict(
            "typable", store=store,
            types=checker.types_from_objects(store, decision.typing.types))
    cert = decision.certificate
    if isinstance(cert, typ.Cycle):
        return checker.Verdict("cycle", path=[e.index for e in cert.path])
    return checker.Verdict(
        "definite-violation",
        op=checker.term_from_object(cert.op.witness),
        separator=checker.term_from_object(cert.separator.witness),
        a=cert.a.index, c=cert.c.index,
        op_graph=cert.op.graph, separator_graph=cert.separator.graph)


def independent_check(case, verdict, outcome):
    reason = checker.check(case.g.size, case.g.table, verdict,
                           expect_typable=case.expect_typable,
                           expect_sizes=case.expect_sizes)
    if reason is not None:
        outcome.failure = f"independent check: {reason}"
        outcome.wrong = True
    return outcome


def verdict_fn(pkg, workload, workdir, observe=None, in_process=False):
    """The workload's verdict on one case; one that raised counts as failed."""
    def verdict(case):
        try:
            if workload == "cli":
                return cli_verdict(pkg, case, workdir, observe, in_process)
            return library_verdict(pkg, case, observe)
        except Exception as exc:  # the run goes on and reports the failure
            return Outcome(0.0, 0.0, f"raised {type(exc).__name__}: {exc}")

    return verdict


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(pkg, argv, in_process):
    """Exit code and standard output of ``pargoid argv``: a child process,
    or, in traced runs, ``cli.run`` inside this process."""
    if in_process:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = pkg.cli.run(argv)
        return code, out.getvalue(), ""
    proc = subprocess.run([sys.executable, "-m", "pargoids.cli", *argv],
                          env=child_env(), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def cli_verdict(pkg, case, workdir, observe=None, in_process=False):
    """A whole ``pargoid decide --json`` process, then its evidence check:
    a ``pargoid verify`` process for a typing, the package's certificate
    re-validation for an untypable verdict."""
    t0 = time.perf_counter()
    code, out, err = run_cli(pkg, ["decide", "--json", "--budget", str(case.budget),
                                   str(case.path)], in_process)
    t1 = time.perf_counter()
    if code not in (0, 1):
        return Outcome(t1 - t0, 0.0, f"decide exited {code}: {err.strip()}")
    doc = json.loads(out)
    index = {name: i for i, name in enumerate(case.g.names)}
    verdict = checker.verdict_from_json(index, doc)
    if verdict.kind == "typable":
        typing = workdir / "typing.json"
        typing.write_text(json.dumps(doc["typing"]))
        t2 = time.perf_counter()
        ok = run_cli(pkg, ["verify", str(case.path), str(typing)], in_process)[0] == 0
    else:
        t2 = time.perf_counter()
        ok, _ = pkg.typability.validate_certificate(case.g, certificate_from_json(
            pkg, case.g, doc["certificate"]), case.budget)
    t3 = time.perf_counter()
    if not ok:
        return Outcome(t1 - t0, t3 - t2, "the package's own check rejected it", True)
    outcome = independent_check(case, verdict, Outcome(t1 - t0, t3 - t2))
    if observe is not None and not outcome.failure:
        observe(None, verdict)
    return outcome


def certificate_from_json(pkg, g, cert):
    typ, poly = pkg.typability, pkg.polyclone
    if cert["kind"] == "cycle":
        return typ.Cycle(tuple(g.element(name) for name in cert["path"]))

    def op(doc):
        graph = tuple(None if doc["graph"][name] is None
                      else g.element(doc["graph"][name]).index for name in g.names)
        return poly.UnaryPolyOp(graph, poly.parse_term(g, doc["witness"]))

    return typ.DefiniteViolation(op(cert["op"]), g.element(cert["a"]),
                                 g.element(cert["c"]), op(cert["separator"]))


# -- set-up -----------------------------------------------------------------

class Package:
    """The package's modules, imported from the checkout's source tree."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from pargoids import cli, generators, pargoid, polyclone, typability, verifier
        self.cli = cli
        self.generators = generators
        self.pargoid = pargoid
        self.polyclone = polyclone
        self.typability = typability
        self.verifier = verifier


def set_up(workload, seed, workdir, tracer=None):
    """Import, build the inputs and warm up; returns (package, cases).

    The warm-up is the same for every seed: in cli, one decide and one
    verify process on fixtures/six.pgd (typable).
    """
    pkg = Package()
    if tracer is not None:
        tracer.install()
    cases = build_cases(pkg, workload, seed, workdir)
    if workload == "cli":
        six = next(case for case in cases if case.name == "six.pgd")
        cli_verdict(pkg, six, workdir, in_process=tracer is not None)
    else:
        for name in ("six.pgd", "three.pgd"):
            g = pkg.pargoid.parse(FIXTURES.joinpath(name).read_bytes())
            library_verdict(pkg, Case(name, g))
    return pkg, cases


# -- the run ----------------------------------------------------------------

def run_rounds(cases, round_size, seconds, min_verdicts, verdict):
    """Whole rounds of verdicts, cycling through cases, until both the time
    and the verdict count are reached."""
    outcomes = []
    start = time.perf_counter()
    while True:
        case = cases[len(outcomes) % len(cases)]
        outcome = verdict(case)
        if outcome.failure:
            outcome.failure = f"{case.name}: {outcome.failure}"
        outcomes.append(outcome)
        if len(outcomes) % round_size == 0 and len(outcomes) >= min_verdicts \
                and time.perf_counter() - start >= seconds:
            return outcomes


def round_size(workload, cases):
    if workload == "arbitrary":
        return len(ARBITRARY_CELLS)
    if workload == "typed":
        return len(TYPED_CELLS)
    if workload == "deep":
        return sum(DEEP_ROUND.values())
    return len(cases)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, setup_samples, rss_kib):
    timed = [o for o in outcomes if not o.failure] or outcomes
    decide = [o.decide_s for o in timed]
    checked = [o.decide_s + o.check_s for o in timed]
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "verdict_ms_p50": metric(1000 * statistics.median(decide), "ms"),
        "verdict_ms_p90": metric(1000 * statistics.quantiles(decide, n=10)[-1], "ms"),
        "verdicts_per_s": metric(len(decide) / sum(decide), "1/s"),
        "checked_verdicts_per_s": metric(len(checked) / sum(checked), "1/s"),
        "peak_rss_mib": metric(rss_kib / 1024, "MiB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("arbitrary", "typed", "deep", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set up, print "ready" and exit: one setup_s sample
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "pargoids" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if args.set_up_only:
        in_workdir(args, set_up_and_report)
        return 0
    if args.trace:
        import tracer
        result = in_workdir(args, tracer.traced_run)
    else:
        result = in_workdir(args, measure)
    print(json.dumps(result))
    return 0


def in_workdir(args, body):
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return body(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    """The untraced run: set up, make whole rounds of verdicts, then time
    SETUP_SAMPLES fresh set-ups."""
    pkg, cases = set_up(args.workload, args.seed, workdir)
    outcomes = run_rounds(cases, round_size(args.workload, cases), args.seconds,
                          MIN_VERDICTS, verdict_fn(pkg, args.workload, workdir))
    # read before the set-up processes below add their own peaks
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    rss_kib = resource.getrusage(who).ru_maxrss
    setup_samples = [setup_time(args) for _ in range(SETUP_SAMPLES)]
    return summary(outcomes, end_to_end(outcomes, setup_samples, rss_kib))


def set_up_and_report(args, workdir):
    set_up(args.workload, args.seed, workdir)
    print("ready", flush=True)


def setup_time(args):
    """Seconds from spawning a fresh process to its "ready" line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--set-up-only"], stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up process exited with code {code}")
    return t1 - t0


def summary(outcomes, metrics):
    failed = [o for o in outcomes if o.failure]
    for o in failed[:5]:
        print(f"failed verdict: {o.failure}", file=sys.stderr)
    return {"correct": not any(o.wrong for o in outcomes),
            "attempted": len(outcomes), "failed": len(failed),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
