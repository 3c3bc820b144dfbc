"""Per-layer numbers for the benchmark, timed from outside the package.

A traced run makes the same verdicts as an untraced one, but first
replaces each public stage function of the package, in every pargoids
module that holds it, with a wrapper that times its outermost call. So
the stages ``decide`` calls internally are timed too, without any change
to the package. Re-validation of a certificate is charged to
``validate_certificate`` as a whole: calls made inside it pass through
untimed. A stage the package no longer has is reported as absent (value
null), not as a failure.

The cli workload's verdicts run the CLI inside this process so that the
wrappers see them; child processes, timed apart, split one ``decide``
process into interpreter start, the import of ``pargoids.cli`` and work.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import defaultdict

import run

REVALIDATION = "typability.validate_certificate"

# (module, function, counters read from its result, recursive)
STAGES = (
    ("pargoid", "parse", None, False),
    ("generators", "gen_arbitrary", None, False),
    ("generators", "gen_typed", None, False),
    ("polyclone", "compute_clone",
     lambda r: {"polyclone.ops": r.op_count, "polyclone.budget_hits": r.budget_hit},
     False),
    ("polyclone", "classify", None, False),
    ("congruence", "leibniz", lambda r: {"congruence.blocks": len(r.blocks)}, False),
    ("typability", "decide", None, False),
    ("typability", "check_condition_i", None, False),
    ("typability", "check_condition_ii", None, False),
    ("typability", "construct_typing", None, False),
    ("typability", "validate_certificate", None, False),
    ("verifier", "verify", None, False),
    # format_type recurses through its module global, which stays unwrapped
    ("types", "format_type", None, True),
)

# inputs of the interpreter/import/work split, one decide process each
SPLIT_FILES = 5
# verdicts made again, traced and untraced, to measure the overhead; at
# least one round of every workload
OVERHEAD_VERDICTS = 20


class Tracer:
    """Wrappers around the package's stage functions, with their totals."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.absent = set()
        self._active = set()
        self._open = []  # child time of each open span
        self._restore = []

    def install(self):
        if self._restore:  # already installed
            return
        pkg_modules = {name: mod for name, mod in list(sys.modules.items())
                       if name == "pargoids" or name.startswith("pargoids.")}
        for module, name, counter, recursive in STAGES:
            owner = pkg_modules.get(f"pargoids.{module}")
            fn = getattr(owner, name, None)
            key = f"{module}.{name}"
            if fn is None:
                self.absent.add(key)
                continue
            wrapped = self._wrap(key, fn, counter)
            for mod in pkg_modules.values():
                if recursive and mod is owner:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def reset(self):
        for table in (self.seconds, self.self_seconds, self.calls, self.counts):
            table.clear()

    def _wrap(self, key, fn, counters):
        def timed(*args, **kwargs):
            if key in self._active or REVALIDATION in self._active:
                return fn(*args, **kwargs)
            self._active.add(key)
            span = [0.0]
            self._open.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                self._active.discard(key)
                self.seconds[key] += dt
                self.self_seconds[key] += dt - span[0]
                self.calls[key] += 1
                if self._open:
                    self._open[-1][0] += dt
            if counters is not None:
                for name, value in counters(result).items():
                    self.counts[name] += value
            return result

        return timed


def traced_run(args, workdir):
    tracer = Tracer()
    pkg, cases = run.set_up(args.workload, args.seed, workdir, tracer)
    gen_s = tracer.seconds["generators.gen_arbitrary"] + tracer.seconds["generators.gen_typed"]
    tracer.reset()

    nodes = []

    def observe(decision, verdict):
        # rendered through the CLI's own name for format_type, as it prints
        if decision is not None and isinstance(decision, pkg.typability.Typable):
            for t in decision.typing.types:
                pkg.cli.format_type(t)
        if verdict.kind == "typable":
            nodes.append(sum(verdict.store.size(t) for t in verdict.types))

    outcomes = run.run_rounds(
        cases, run.round_size(args.workload, cases), args.seconds, run.MIN_VERDICTS,
        run.verdict_fn(pkg, args.workload, workdir, observe, in_process=True))
    verdicts = len(outcomes)
    per_verdict = {key: tracer.seconds[key] / verdicts for key in tracer.seconds}
    decide_self = tracer.self_seconds["typability.decide"] / verdicts

    files = split_files(pkg, args.workload, cases, workdir)
    for path in files:
        pkg.pargoid.parse(path.read_bytes())
    interp, imp, work = process_split(files, cases[0].budget)

    def stage(key):
        if key in tracer.absent:
            return None
        return per_verdict.get(key, 0.0)

    def per_call(count, key, scale=1):
        if key in tracer.absent:
            return None
        return scale * tracer.counts[count] / max(1, tracer.calls[key])

    parse_calls = tracer.calls["pargoid.parse"]
    metrics = {
        "polyclone.compute_clone_s": (stage("polyclone.compute_clone"), "s"),
        "polyclone.ops": (per_call("polyclone.ops", "polyclone.compute_clone"), "count"),
        "polyclone.budget_hit_pct": (
            per_call("polyclone.budget_hits", "polyclone.compute_clone", 100), "%"),
        "polyclone.classify_s": (stage("polyclone.classify"), "s"),
        "congruence.leibniz_s": (stage("congruence.leibniz"), "s"),
        "congruence.blocks": (per_call("congruence.blocks", "congruence.leibniz"), "count"),
        "typability.check_condition_i_s": (stage("typability.check_condition_i"), "s"),
        "typability.check_condition_ii_s": (stage("typability.check_condition_ii"), "s"),
        "typability.validate_certificate_s": (stage(REVALIDATION), "s"),
        "typability.construct_typing_s": (stage("typability.construct_typing"), "s"),
        "verifier.verify_s": (stage("verifier.verify"), "s"),
        "types.format_type_s": (stage("types.format_type"), "s"),
        "types.type_nodes": (statistics.fmean(nodes) if nodes else 0.0, "count"),
        "pargoid.parse_ms": (
            None if "pargoid.parse" in tracer.absent
            else 1000 * tracer.seconds["pargoid.parse"] / max(1, parse_calls), "ms"),
        "cli.interpreter_ms": (1000 * interp, "ms"),
        "cli.import_ms": (1000 * imp, "ms"),
        "cli.work_ms": (1000 * work, "ms"),
        "generators.gen_s": (gen_s, "s"),
        "typability.decide_s": (stage("typability.decide"), "s"),
        "typability.decide_self_s": (
            None if "typability.decide" in tracer.absent else decide_self, "s"),
    }
    # last, so that the totals above leave out the verdicts made again
    metrics["trace.overhead_pct"] = (overhead_pct(
        tracer, cases, run.verdict_fn(pkg, args.workload, workdir, in_process=True)), "%")
    return run.summary(outcomes, {name: run.metric(value, unit)
                                  for name, (value, unit) in metrics.items()})


def overhead_pct(tracer, cases, verdict):
    """How much slower a traced verdict is than an untraced one, in %.

    The first OVERHEAD_VERDICTS cases are made again, each once traced and
    once untraced. The side that runs first alternates from case to case,
    so neither side always meets the state the other has just warmed. The
    tracer's totals are read before this pass.
    """
    spent = {True: 0.0, False: 0.0}
    for k, case in enumerate(cases[:OVERHEAD_VERDICTS]):
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
            outcome = verdict(case)
            spent[traced] += outcome.decide_s + outcome.check_s
    tracer.uninstall()
    return 100 * (spent[True] / spent[False] - 1)


def split_files(pkg, workload, cases, workdir):
    if workload == "cli":
        return [case.path for case in cases[:SPLIT_FILES]]
    files = []
    for k, case in enumerate(cases[:SPLIT_FILES]):
        path = workdir / f"split-{k}.pgd"
        path.write_bytes(pkg.pargoid.serialize(case.g))
        files.append(path)
    return files


# the child times its own import of the CLI and the CLI's run; the rest of
# its wall time is interpreter start and exit
SPLIT_CHILD = """\
import sys, time
t0 = time.perf_counter()
from pargoids import cli
t1 = time.perf_counter()
cli.run(sys.argv[1:])
t2 = time.perf_counter()
print(t1 - t0, t2 - t1, file=sys.stderr)
"""


def process_split(files, budget):
    """Median seconds of interpreter start and exit, of importing the CLI,
    and of its work, over one ``decide`` process per file."""
    interp, imp, work = [], [], []
    for f in files:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SPLIT_CHILD, "decide", "--budget", str(budget), str(f)],
            env=run.child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        wall = time.perf_counter() - t0
        i, w = map(float, proc.stderr.split()[-2:])
        interp.append(wall - i - w)
        imp.append(i)
        work.append(w)
    return statistics.median(interp), statistics.median(imp), statistics.median(work)
