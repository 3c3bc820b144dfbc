"""Command-line front end with deterministic, scriptable output.

Results go to stdout, diagnostics to stderr. Exit codes are stable API:
0 typable/verified/ok, 1 untypable/rejected, 2 input error, 3 resource
exhausted, 4 internal error (a bug alarm, never a verdict). Each
subcommand takes only the flags its handler reads. The --json documents
of decide, verify, clone, congruence and claim-star carry "schema": 1;
gen --json writes the pargoid format, which has none, and type always
writes a typing file. All validate against the files shipped in
pargoids/schemas/. In literal mode, verify's text output labels totality
failures as informational, since they do not decide acceptance.

The numpy-backed modules (polyclone, typability, congruence) are imported
by the subcommands that compute a clone, so verify and gen load no numpy;
the generators are imported only by gen and stats.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import pargoid, verifier
from .defaults import DEFAULT_BUDGET, GEN_MODES, READINGS
from .errors import InputError, InternalError, ResourceExhausted
from .types import format_type

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def _load_pargoid(path):
    data = _read_bytes(path)
    head = data.lstrip()
    fmt = "json" if head.startswith(b"{") else "text"
    try:
        return pargoid.parse(data, fmt)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _emit(text):
    sys.stdout.write(text)


def _emit_json(doc):
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _op_json(g, op):
    from . import polyclone
    return {
        "graph": {g.names[i]: (None if v is None else g.names[v])
                  for i, v in enumerate(op.graph)},
        "witness": polyclone.format_term(op.witness),
        "trivial": op.is_trivial,
        "constant": op.is_constant,
        "definite": op.is_definite,
    }


def _format_cycle(cert):
    return " < ".join(e.name for e in reversed(cert.path))


def _cmd_decide(args):
    from . import polyclone, typability
    g = _load_pargoid(args.pargoid)
    try:
        decision = typability.decide(g, args.budget, args.reading)
    except ResourceExhausted as exc:
        if not args.json:
            raise
        _emit_json({"schema": 1, "verdict": "resource-exhausted",
                    "stage": exc.stage, "budget": exc.budget})
        return EXIT_RESOURCE
    if isinstance(decision, typability.Typable):
        if args.json:
            _emit_json({"schema": 1, "verdict": "typable",
                        "typing": verifier.typing_doc(g, decision.typing)})
        else:
            _emit("typable\n")
            for e, t in enumerate(decision.typing.types):
                _emit(f"{g.names[e]}: {format_type(t)}\n")
        return EXIT_OK
    cert = decision.certificate
    if args.json:
        if isinstance(cert, typability.Cycle):
            cert_doc = {"kind": "cycle", "path": [e.name for e in cert.path]}
        else:
            cert_doc = {"kind": "definite-violation",
                        "op": _op_json(g, cert.op),
                        "a": cert.a.name, "c": cert.c.name,
                        "separator": _op_json(g, cert.separator)}
        _emit_json({"schema": 1, "verdict": "untypable", "certificate": cert_doc})
    else:
        _emit("untypable\n")
        if args.cert:
            if isinstance(cert, typability.Cycle):
                _emit(f"cycle: {_format_cycle(cert)}\n")
            else:
                _emit(f"definite violation: {polyclone.format_term(cert.op.witness)}"
                      f" converges on {cert.a.name} and {cert.c.name}\n")
                _emit(f"separator: {polyclone.format_term(cert.separator.witness)}\n")
    return EXIT_REJECTED


def _cmd_type(args):
    from . import typability
    g = _load_pargoid(args.pargoid)
    decision = typability.decide(g, args.budget, args.reading)
    if isinstance(decision, typability.Typable):
        sys.stdout.buffer.write(verifier.serialize_typing(g, decision.typing))
        return EXIT_OK
    print("error: the pargoid is untypable", file=sys.stderr)
    return EXIT_REJECTED


def _cmd_verify(args):
    g = _load_pargoid(args.pargoid)
    typing = verifier.parse_typing(g, _read_bytes(args.typing))
    report = verifier.verify(g, typing)
    accepted = report.accepted_strong if args.strong else report.accepted
    if args.json:
        _emit_json({
            "schema": 1,
            "mode": "strong" if args.strong else "literal",
            "accepted": accepted,
            "checks": {
                # one type per element: the blocks partition the carrier, one per type
                "partition": True,
                "injectivity": True,
                "strictness": report.strictness_ok,
                "axiom1_forward": report.axiom1_forward_ok,
                "axiom1_totality": report.axiom1_totality_ok,
            },
            "failures": [{"check": v.check, "detail": v.detail}
                         for v in report.failures],
        })
    else:
        _emit("accepted\n" if accepted else "rejected\n")
        for v in report.failures:
            label = v.check
            if v.check == "axiom1-totality" and not args.strong:
                label += " (informational; literal mode)"
            _emit(f"{label}: {v.detail}\n")
    return EXIT_OK if accepted else EXIT_REJECTED


def _closed_clone(g, budget):
    """The clone of g, or ResourceExhausted when the budget truncates it."""
    from . import polyclone
    clone = polyclone.compute_clone(g, budget)
    if clone.budget_hit:
        raise ResourceExhausted("clone", budget)
    return clone


def _cmd_clone(args):
    from . import polyclone
    g = _load_pargoid(args.pargoid)
    clone = polyclone.classify(_closed_clone(g, args.budget), args.reading)
    if args.json:
        _emit_json({"schema": 1, "reading": clone.reading,
                    "ops": [_op_json(g, clone.op(i)) for i in range(clone.op_count)]})
    else:
        for i in range(clone.op_count):
            op = clone.op(i)
            pairs = " ".join(f"{g.names[a]}->{g.names[v]}"
                             for a, v in enumerate(op.graph) if v is not None)
            flags = ",".join(name for name, on in
                             (("trivial", op.is_trivial),
                              ("constant", op.is_constant),
                              ("definite", op.is_definite)) if on)
            line = f"{i}: {polyclone.format_term(op.witness)} ::"
            if pairs:
                line += f" {pairs}"
            if flags:
                line += f" [{flags}]"
            _emit(line + "\n")
    return EXIT_OK


def _cmd_congruence(args):
    from . import congruence
    g = _load_pargoid(args.pargoid)
    clone = _closed_clone(g, args.budget)
    part = congruence.leibniz(g, clone)
    if args.json:
        _emit_json({"schema": 1,
                    "blocks": [[g.names[e] for e in blk] for blk in part.blocks]})
    else:
        for blk in part.blocks:
            _emit(" ".join(g.names[e] for e in blk) + "\n")
    return EXIT_OK


def _gen_config(args, seed):
    from . import generators
    return generators.GenConfig(
        size=args.size, seed=seed, mode=args.mode, density=args.density,
        type_depth=args.type_depth, ground_count=args.ground_count)


def _cmd_gen(args):
    from . import generators
    cfg = _gen_config(args, args.seed)
    if cfg.mode == "arbitrary":
        if args.with_typing:
            raise InputError("arbitrary mode generates no typing")
        g = generators.gen_arbitrary(cfg)
    else:
        g, typing = generators.gen_typed(cfg)
        if args.with_typing:
            with open(args.with_typing, "wb") as fh:
                fh.write(verifier.serialize_typing(g, typing))
    sys.stdout.buffer.write(pargoid.serialize(g, "json" if args.json else "text"))
    return EXIT_OK


def _stats_row(args, s):
    from . import congruence, generators, polyclone, typability
    cfg = _gen_config(args, s)
    if cfg.mode == "arbitrary":
        g = generators.gen_arbitrary(cfg)
    else:
        g, _ = generators.gen_typed(cfg)
    clone = polyclone.compute_clone(g, args.budget)
    classes = ""
    if not clone.budget_hit:
        classes = len(congruence.leibniz(g, clone).blocks)
    kind, strong = "", ""
    try:
        decision = typability.decide(g, args.budget, args.reading, clone=clone)
    except ResourceExhausted:
        verdict = "resource-exhausted"
    else:
        if isinstance(decision, typability.Typable):
            verdict = "typable"
            strong = str(verifier.verify(g, decision.typing).accepted_strong).lower()
        else:
            verdict = "untypable"
            kind = ("cycle" if isinstance(decision.certificate, typability.Cycle)
                    else "definite-violation")
    return (f"{s},{args.size},{args.density},{verdict},{kind},"
            f"{clone.op_count},{classes},{strong}\n")


def _cmd_stats(args):
    if args.count < 1:
        raise InputError("--count must be at least 1")
    # every row has the same size, density and budget, so arguments that
    # fail one row fail the first: it is made before the header, and a
    # refused run prints nothing
    first = _stats_row(args, args.seed)
    _emit("seed,n,density,verdict,certificate_kind,clone_size,"
          "class_count,strong_totality\n")
    _emit(first)
    for s in range(args.seed + 1, args.seed + args.count):
        _emit(_stats_row(args, s))
    return EXIT_OK


def _cmd_claim_star(args):
    from . import congruence, polyclone, typability
    g = _load_pargoid(args.pargoid)
    clone = polyclone.classify(_closed_clone(g, args.budget), args.reading)
    varpi = congruence.leibniz(g, clone)
    report = typability.check_claim_star(g, clone, varpi)
    decision = typability.decide(g, args.budget, args.reading, clone=clone)
    if isinstance(decision, typability.Typable):
        verdict, code = "typable", EXIT_OK
    else:
        verdict, code = "untypable", EXIT_REJECTED
    co = report.coconvergence_counterexample
    eq = report.equivalence_counterexample
    div = report.divergence_counterexample
    # each clause as (name, counterexample key, counterexample as JSON and
    # as text); a clause holds exactly when it has no counterexample
    clauses = (
        ("coconvergence_implies_equivalence", "coconvergence",
         co and {"a": co[0].name, "c": co[1].name, "op": _op_json(g, co[2])},
         co and f"{co[0].name} {co[1].name} via {polyclone.format_term(co[2].witness)}"),
        ("equivalence_implies_coconvergence", "equivalence",
         eq and {"a": eq[0].name, "c": eq[1].name}, eq and f"{eq[0].name} {eq[1].name}"),
        ("eventual_divergence", "divergence",
         div and {"element": div.name}, div and div.name),
    )
    if args.json:
        _emit_json({
            "schema": 1,
            "clauses": {name: doc is None for name, _, doc, _ in clauses},
            "counterexamples": {key: doc for _, key, doc, _ in clauses},
            "holds": report.holds,
            "verdict": verdict,
        })
    else:
        for name, _, _, text in clauses:
            _emit(f"{name.replace('_', '-')}: "
                  + ("holds\n" if text is None else f"fails ({text})\n"))
        _emit(f"claim: {'holds' if report.holds else 'fails'}\n")
        _emit(f"verdict: {verdict}\n")
    return code


def _build_parser():
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true",
                           help="emit structured JSON")
    budget_flag = argparse.ArgumentParser(add_help=False)
    budget_flag.add_argument("--budget", type=int, default=DEFAULT_BUDGET, metavar="N",
                             help=f"max clone op count (default: {DEFAULT_BUDGET})")
    reading_flag = argparse.ArgumentParser(add_help=False)
    reading_flag.add_argument("--constant-reading", dest="reading",
                              choices=READINGS, default="total",
                              help="which maps count as constant operations")
    deciding = [json_flag, budget_flag, reading_flag]

    parser = argparse.ArgumentParser(
        prog="pargoid",
        description="Decide typability of finite partial groupoids, construct "
                    "typings, and check certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=deciding,
                       help="decide typability and print the typing or verdict")
    p.add_argument("pargoid", help="pargoid file (text or JSON)")
    p.add_argument("--cert", action="store_true",
                   help="print the untypability certificate")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("type", parents=[budget_flag, reading_flag],
                       help="infer a typing and emit it as a typing file")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_type)

    p = sub.add_parser("verify", parents=[json_flag],
                       help="check a typing file against a pargoid")
    p.add_argument("pargoid")
    p.add_argument("typing", help="typing file (JSON)")
    p.add_argument("--strong", action="store_true",
                   help="require matching types to force defined products")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("clone", parents=deciding,
                       help="dump the unary polynomial operations")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_clone)

    p = sub.add_parser("congruence", parents=[json_flag, budget_flag],
                       help="print the convergence-profile partition")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_congruence)

    gen_flags = argparse.ArgumentParser(add_help=False)
    gen_flags.add_argument("--size", type=int, required=True,
                           help="carrier size")
    gen_flags.add_argument("--density", type=float, default=0.5,
                           help="probability each product is defined")
    gen_flags.add_argument("--mode", choices=GEN_MODES,
                           default="arbitrary")
    gen_flags.add_argument("--type-depth", type=int, default=2,
                           help="max arrow nesting in typed modes")
    gen_flags.add_argument("--ground-count", type=int, default=1,
                           help="number of ground types in typed modes")
    gen_flags.add_argument("--seed", type=int, default=0,
                           help="generator seed")

    p = sub.add_parser("gen", parents=[json_flag, gen_flags],
                       help="generate a pseudo-random pargoid")
    p.add_argument("--with-typing", metavar="PATH",
                   help="also write the generating typing (typed modes)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("stats", parents=[budget_flag, reading_flag, gen_flags],
                       help="run the decision over a seed range, emit CSV")
    p.add_argument("--count", type=int, required=True,
                   help="number of consecutive seeds starting at --seed")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("claim-star", parents=deciding,
                       help="evaluate the strengthened-conditions diagnostics")
    p.add_argument("pargoid")
    p.set_defaults(func=_cmd_claim_star)
    return parser


def run(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nests too deeply to process", file=sys.stderr)
        return EXIT_INPUT
    except InternalError as exc:
        print(f"error: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    # a closed stdout ends the process silently, as it does other filters,
    # instead of surfacing as an OSError, which run reports as bad input
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
